"""The naive Gram-matrix solver: correct when small, doomed when large.

The condition estimator is validated against an exact rational matrix
inverse at an order where that is still meaningful, and the known
collapse at order 36 is pinned down (condition blowup, determinant
underflow, garbage coefficients).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from biopoly.baseline import (SingularToWorkingPrecision, condition_estimate,
                              determinant, gram, solve_normal_equations)
from biopoly.exact import SpaceSpec, Weight, inner_monomial
from biopoly.families import FamilySpec
from biopoly.regress import fit, moments_quadrature
from biopoly.targets import damped_wiggle

SYM = SpaceSpec.bounded(-1, 1)


def test_gram_entries_on_symmetric_interval():
    g = gram(SYM, 1)
    assert g.tolist() == [[2.0, 0.0], [0.0, 2.0 / 3.0]]


def test_gram_entries_are_hilbert_matrix_on_unit_interval():
    g = gram(SpaceSpec.bounded(0, 1), 3)
    for n in range(4):
        for j in range(4):
            assert g[n, j] == pytest.approx(1.0 / (n + j + 1), rel=1e-15)


def test_gram_order_zero():
    g = gram(SpaceSpec.half_line(), 0)
    assert g.shape == (1, 1)
    assert g[0, 0] == 1.0


@pytest.mark.parametrize("space", [SYM, SpaceSpec.bounded(0, 1),
                                   SpaceSpec.half_line(),
                                   SpaceSpec.chebyshev()],
                         ids=["sym", "unit", "half", "cheb"])
def test_gram_is_hankel_for_every_weight(space):
    pi_factor = math.pi if space.weight is Weight.CHEBYSHEV else 1.0
    for k in (0, 5, 36):
        g = gram(space, k)
        assert isinstance(g, np.ndarray)
        assert g.dtype == np.float64 and g.shape == (k + 1, k + 1)
        # oracle: each entry is its own exact inner product, rounded once
        for n in range(k + 1):
            for j in range(k + 1):
                assert g[n, j] == float(inner_monomial(space, n, j)) * pi_factor
        # anti-diagonal constancy in full
        for s in range(2 * k + 1):
            vals = {g[n, s - n] for n in range(k + 1) if 0 <= s - n <= k}
            assert len(vals) == 1
        with pytest.raises(ValueError):
            g[0, 0] = 1.0


def test_gram_chebyshev_materialises_pi():
    g = gram(SpaceSpec.chebyshev(), 2)
    assert g[0, 0] == pytest.approx(math.pi, rel=1e-15)
    assert g[1, 1] == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert g[0, 1] == 0.0


def test_gram_rejects_negative_order():
    with pytest.raises(ValueError):
        gram(SYM, -1)


def test_solve_small_well_conditioned_system():
    g = gram(SYM, 2)
    rhs = np.array([float(inner_monomial(SYM, j, 1)) for j in range(3)])
    c = solve_normal_equations(g, rhs)
    assert np.max(np.abs(c - np.array([0.0, 1.0, 0.0]))) < 1e-10


def test_solve_identity_gram_returns_rhs():
    rhs = [3.0, -1.0, 2.0]
    assert solve_normal_equations(np.eye(3), rhs).tolist() == rhs


def test_solve_checks_rhs_length():
    with pytest.raises(ValueError):
        solve_normal_equations(gram(SYM, 2), [1.0, 2.0])


def test_singular_matrix_is_reported():
    rows = np.array([[1.0, 2.0, 3.0],
                     [2.0, 4.0, 6.0],
                     [3.0, 6.0, 9.0]])    # rank one
    with pytest.raises(SingularToWorkingPrecision):
        solve_normal_equations(rows, [1.0, 1.0, 1.0])


def test_condition_k0_is_exactly_one():
    assert condition_estimate(gram(SYM, 0)) == 1.0
    assert condition_estimate(gram(SpaceSpec.bounded(0, 10), 0)) == 1.0


def _exact_condition_1norm(space, k):
    n = k + 1
    g = [[inner_monomial(space, i, j) for j in range(n)] for i in range(n)]
    aug = [row[:] + [Fraction(int(c == r)) for c in range(n)]
           for r, row in enumerate(g)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inv_cols = [[float(aug[r][n + c]) for r in range(n)] for c in range(n)]
    norm_inv = max(sum(abs(v) for v in col) for col in inv_cols)
    norm_g = max(sum(abs(float(g[r][c])) for r in range(n)) for c in range(n))
    return norm_g * norm_inv


@pytest.mark.parametrize("k", [3, 5, 8])
def test_condition_estimate_tracks_exact_inverse(k):
    est = condition_estimate(gram(SYM, k))
    exact = _exact_condition_1norm(SYM, k)
    assert exact / 3.0 <= est <= exact * 1.0000001


def test_condition_blowup_at_order_36():
    assert condition_estimate(gram(SYM, 36)) >= 1e15


def test_determinant_underflows_at_order_36():
    det = determinant(gram(SYM, 36))
    assert abs(det) < 1e-300


def test_determinant_small_case():
    # [[2, 0], [0, 2/3]] -> 4/3
    assert determinant(gram(SYM, 1)) == pytest.approx(4.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("entries, expect", [
    ([[0.1, 1.0], [1.0, 0.1]], -0.99),                       # one row swap
    (np.roll(np.eye(3), 1, axis=0) + 0.1 * np.eye(3), 1.001),  # a 3-cycle
], ids=["swap", "three-cycle"])
def test_determinant_sign_follows_row_swaps(entries, expect):
    entries = np.asarray(entries)
    det = determinant(entries)
    assert det == pytest.approx(expect, rel=1e-12)
    assert det == pytest.approx(np.linalg.det(entries), rel=1e-12)


@pytest.mark.parametrize("space", [SYM, SpaceSpec.bounded(0, 1),
                                   SpaceSpec.bounded(0, 10)],
                         ids=["sym", "unit", "b10"])
def test_positive_definite_through_k10(space):
    for k in range(11):
        np.linalg.cholesky(gram(space, k))   # raises if not PD


@pytest.mark.parametrize("k", range(9))
def test_equivalence_with_projection_small_orders(k):
    """Both routes compute the same least-squares fit at low order."""
    fam = FamilySpec.legendre_sym()
    mom = moments_quadrature(damped_wiggle, fam.space, k)
    dense = fit(fam, k, mom).dense_coeffs()
    solved = solve_normal_equations(gram(fam.space, k), np.asarray(mom.mu))
    scale = float(np.max(np.abs(solved))) or 1.0
    assert np.max(np.abs(dense - solved)) / scale < 1e-8


def test_equivalence_holds_for_chebyshev_weight_too():
    fam = FamilySpec.chebyshev()
    mom = moments_quadrature(damped_wiggle, fam.space, 6)
    dense = fit(fam, 6, mom).dense_coeffs()
    solved = solve_normal_equations(gram(fam.space, 6), np.asarray(mom.mu))
    scale = float(np.max(np.abs(solved))) or 1.0
    assert np.max(np.abs(dense - solved)) / scale < 1e-8


def test_garbage_at_order_36_versus_clean_projection():
    fam = FamilySpec.legendre_sym()
    mom = moments_quadrature(damped_wiggle, fam.space, 36)
    model = fit(fam, 36, mom)
    solved = solve_normal_equations(gram(fam.space, 36), np.asarray(mom.mu))
    xs = np.linspace(-1.0, 1.0, 501)
    truth = damped_wiggle(xs)
    from biopoly.exact import horner_many
    base_err = np.mean(np.abs(horner_many(solved, xs) - truth))
    bi_err = np.mean(np.abs(model(xs) - truth))
    assert base_err > 100.0 * bi_err
