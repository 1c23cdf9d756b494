"""Biorthogonal construction, upgrade/downgrade algebra, projection.

The heavyweight oracle here is the Gram-matrix inverse: the coefficient
rows of the biorthogonal set must equal the exact rational inverse of
the monomial Gram matrix, computed below by Gauss-Jordan elimination
that shares nothing with the construction under test.  The integer
kernel (G = D K D / q, fraction-free downgrade) is also checked against
the plain ``Fraction`` rank-one sum and Schur-complement step.
"""

import ast
import dataclasses
import inspect
import math
import re
import sys
import threading
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biopoly
from biopoly import biorth, regress
from biopoly.biorth import (BiorthSet, FitModel, LastElementError,
                            MomentSpaceError, NotActiveError, _integer_row,
                            build, cheapest_removal, downgrade, project,
                            select_removal, upgrade)
from biopoly.exact import ScaleTag, inner_monomial, inner_poly
from biopoly.families import FamilySpec, norm_sq, rat_coeff
from biopoly.regress import MomentShortfallError, MomentVector, fit

ALL_FAMILIES = [
    FamilySpec.legendre_shifted(1),
    FamilySpec.legendre_shifted(10),
    FamilySpec.laguerre(),
    FamilySpec.legendre_sym(),
    FamilySpec.chebyshev(),
]

IDS = [f.describe() for f in ALL_FAMILIES]


def beta_vs_monomial(s: BiorthSet, n: int, m: int) -> Fraction:
    """Exact <beta_n, x^m>; any implied pi factors cancel to a rational."""
    total = Fraction(0)
    for i, c in enumerate(s.beta(n).coeffs):
        if c:
            total += c * inner_monomial(s.family.space, i, m)
    return total


def exact_moments(fam: FamilySpec, values) -> MomentVector:
    exact = tuple(Fraction(v) for v in values)
    return MomentVector(mu=tuple(float(v) for v in exact), space=fam.space,
                        provenance="test", mu_exact=exact)


def _gram_inverse(fam: FamilySpec, k: int):
    """Exact inverse of the (rational-part) monomial Gram, as an oracle."""
    n = k + 1
    g = [[inner_monomial(fam.space, i, j) for j in range(n)] for i in range(n)]
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
    return [row[n:] for row in aug]


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_laguerre_order_one_by_hand():
    s = build(FamilySpec.laguerre(), 1)
    assert s.beta(0).coeffs == (Fraction(2), Fraction(-1))
    assert s.beta(1).coeffs == (Fraction(-1), Fraction(1))
    assert s.gram_entry(0, 0) == 2
    assert s.gram_entry(0, 1) == -1
    assert s.gram_entry(1, 1) == 1


def test_unit_interval_rows_are_inverse_hilbert():
    # on [0, 1] the monomial Gram is the Hilbert matrix, whose exact
    # inverse at order 2 is a classical integer matrix
    s = build(FamilySpec.legendre_shifted(1), 2)
    assert s.beta(0).coeffs == (Fraction(9), Fraction(-36), Fraction(30))
    assert s.beta(1).coeffs == (Fraction(-36), Fraction(192), Fraction(-180))
    assert s.beta(2).coeffs == (Fraction(30), Fraction(-180), Fraction(180))


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_rows_equal_exact_gram_inverse(fam, k):
    s = build(fam, k)
    oracle = _gram_inverse(fam, k)
    for n in s.active:
        assert list(s.beta(n).coeffs) == oracle[n], f"row {n} at k={k}"


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
def test_biorthogonality_exact_through_k10(fam):
    for k in range(11):
        s = build(fam, k)
        for n in range(k + 1):
            for m in range(k + 1):
                assert beta_vs_monomial(s, n, m) == (1 if n == m else 0), \
                    (k, n, m)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
def test_gram_cache_matches_direct_inner_products(fam):
    from biopoly.exact import ExactPoly
    s = build(fam, 5)
    for n in s.active:
        for m in s.active:
            left = s.beta(n)
            if fam.poly_scale is ScaleTag.INV_PI:
                # two 1/pi rows under the pi-carrying weight leave a net
                # 1/pi; strip one tag so inner_poly returns the rational
                # part, which is exactly what the cache stores
                left = ExactPoly.from_coeffs(left.coeffs, ScaleTag.ONE)
            direct = inner_poly(fam.space, left, s.beta(m))
            assert s.gram_entry(n, m) == direct


def _scaled_inverse_hilbert(b, k):
    """Closed-form inverse of the monomial Gram matrix on [0, b] (Choi 1983)."""
    n = k + 1
    b = Fraction(b)
    return tuple(tuple(
        (-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1)
        * comb(n + j, n - i - 1) * comb(i + j, i) ** 2 / b ** (i + j + 1)
        for j in range(n)) for i in range(n))


@pytest.mark.parametrize("b", [1, 10, Fraction(1, 3)], ids=str)
def test_shifted_legendre_matrix_matches_closed_form(b):
    fam = FamilySpec.legendre_shifted(b)
    for k in (5, 36):
        s = build(fam, k)
        assert tuple(s.beta(n).coeffs for n in s.active) \
            == _scaled_inverse_hilbert(b, k), k
    s = build(fam, 0)
    for _ in range(36):
        s = upgrade(s)
    assert tuple(s.beta(n).coeffs for n in s.active) \
        == _scaled_inverse_hilbert(b, 36)


def test_chebyshev_gram_scale_is_coherent():
    # <beta_0, beta_0> for chebyshev k=0: beta_0 = (1/pi) * 1, true norm
    # squared is 1/pi, and the stored rational part must be 1/pi's part
    s = build(FamilySpec.chebyshev(), 0)
    assert s.gram_entry(0, 0) == 1


def test_build_rejects_negative_order():
    with pytest.raises(ValueError):
        build(FamilySpec.laguerre(), -1)


# ----------------------------------------------------------------------
# the integer kernel against the Fraction reference
# ----------------------------------------------------------------------

KERNEL_FAMILIES = ALL_FAMILIES + [FamilySpec.legendre_shifted(Fraction(7, 3))]
KERNEL_IDS = [f.describe() for f in KERNEL_FAMILIES]


def _ref_add_degree(fam, g, j):
    """Add the rank-one term d_j t_j t_j^T of degree j to ``g``, in Fractions."""
    t = [rat_coeff(fam, j, e) for e in range(j + 1)]
    d = norm_sq(fam, j)
    for n, tn in enumerate(t):
        for m, tm in enumerate(t):
            g[n][m] += d * tn * tm


def _ref_build(fam, k):
    g = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    for j in range(k + 1):
        _ref_add_degree(fam, g, j)
    return g


def _ref_upgrade(fam, g):
    j = len(g)
    g = [row + [Fraction(0)] for row in g] + [[Fraction(0)] * (j + 1)]
    _ref_add_degree(fam, g, j)
    return g


def _ref_downgrade(g, ell):
    """One Schur-complement step: G - G_l G_l^T / G_ll, in Fractions."""
    row_l = g[ell]
    return [[x - g_ln * y / row_l[ell] for x, y in zip(row, row_l)]
            for row, g_ln in zip(g, row_l)]


def _assert_matches_reference(s, g, active):
    assert s.active == tuple(active)
    # the rows of removed exponents are zero, and so, by symmetry, their
    # columns; the rows of active ones are checked entry by entry below
    assert not any(any(s.kmat[n]) for n in range(s.k + 1) if n not in active)
    for n in active:
        assert s.beta(n).coeffs == tuple(g[n])
        for m in active:
            assert s.gram_entry(n, m) == g[n][m]


@settings(max_examples=30, deadline=None)
@given(fam=st.sampled_from(KERNEL_FAMILIES), k=st.integers(0, 24),
       data=st.data())
def test_integer_kernel_matches_fraction_reference(fam, k, data):
    start = data.draw(st.integers(0, k), label="built order")
    s, g = build(fam, start), _ref_build(fam, start)
    _assert_matches_reference(s, g, range(start + 1))
    for j in range(start + 1, k + 1):
        s, g = upgrade(s), _ref_upgrade(fam, g)
        _assert_matches_reference(s, g, range(j + 1))
    order = data.draw(st.permutations(range(k + 1)), label="removal order")
    active = list(range(k + 1))
    for ell in order[:data.draw(st.integers(0, k), label="removals")]:
        s, g = downgrade(s, ell), _ref_downgrade(g, ell)
        active.remove(ell)
        _assert_matches_reference(s, g, active)
        # K is divided by its content, so its entries do not grow per removal
        assert math.gcd(*(x for row in s.kmat for x in row)) == 1


def _direct_build(fam, k):
    """K and q as one direct sum over the degrees 0..k, with q the lcm of
    the denominators of d_0..d_k: a reference for the closed form that a
    full set forms on first read, with its own loops."""
    d = [norm_sq(fam, j) for j in range(k + 1)]
    q = math.lcm(*(dj.denominator for dj in d))
    kmat = [[0] * (k + 1) for _ in range(k + 1)]
    for j, dj in enumerate(d):
        w = (q * dj).numerator
        c = _integer_row(fam, j)
        for n, cn in enumerate(c):
            for m, cm in enumerate(c):
                kmat[n][m] += w * cn * cm
    return tuple(map(tuple, kmat)), Fraction(q)


@pytest.mark.parametrize("k", [0, 1, 17, 36, 64])
@pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=KERNEL_IDS)
def test_build_equals_direct_sum(fam, k):
    s = build(fam, k)
    assert (s.kmat, s.q) == _direct_build(fam, k)


@pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=KERNEL_IDS)
def test_integer_rows_are_ints(fam):
    for j in range(65):
        row = _integer_row(fam, j)
        assert len(row) == j + 1
        assert all(type(c) is int for c in row), j


# ----------------------------------------------------------------------
# the build memo
# ----------------------------------------------------------------------

def test_build_is_memoised_per_family_and_order():
    fam = FamilySpec.legendre_shifted(2)
    assert build(fam, 7) is build(fam, 7)
    # equal specs share one entry
    assert build(FamilySpec.legendre_shifted(Fraction(4, 2)), 7) is build(fam, 7)
    assert build(fam, 6) is not build(fam, 7)
    assert build(FamilySpec.legendre_shifted(3), 7) is not build(fam, 7)
    for _ in range(2):  # a refused order is not cached
        with pytest.raises(ValueError):
            build(fam, -1)


@pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=KERNEL_IDS)
def test_editing_a_cached_set_leaves_it_unchanged(fam):
    s = build(fam, 6)
    upgrade(s)
    downgrade(downgrade(s, 3), 0)
    assert build(fam, 6) is s
    assert s.active == tuple(range(7))
    expect = tuple(map(tuple, _ref_build(fam, 6)))
    assert tuple(s.beta(n).coeffs for n in s.active) == expect
    # the cached set and a copy that forms its own K and q agree
    copy = dataclasses.replace(s)
    assert tuple(copy.beta(n).coeffs for n in copy.active) == expect


# ----------------------------------------------------------------------
# upgrade
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
def test_upgrade_equals_rebuild(fam):
    s = build(fam, 0)
    for k in range(10):
        s = upgrade(s)
        fresh = build(fam, k + 1)
        assert s.active == fresh.active
        for n in s.active:
            assert s.beta(n).coeffs == fresh.beta(n).coeffs, (k + 1, n)
        assert (s.kmat, s.q) == (fresh.kmat, fresh.q)


# ----------------------------------------------------------------------
# K and q on first read: a set is its family, order and active exponents
# ----------------------------------------------------------------------

def test_unread_chain_materialises_without_recursion():
    fam = FamilySpec.laguerre()
    s = build(fam, 0)
    for _ in range(60):
        s = upgrade(s)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        kmat = s.kmat
    finally:
        sys.setrecursionlimit(limit)
    full = build(fam, 60)
    assert (kmat, s.q) == (full.kmat, full.q)


def test_concurrent_first_reads_agree():
    """Threads that read K first on the sets of one upgrade scan, in
    different orders, all see ``build``'s integers and raise nothing."""
    fam = FamilySpec.legendre_shifted(1)
    orders = [range(24, 0, -1), range(1, 25), range(24, 0, -3), range(12, 25)] * 2
    errors, seen = [], []

    def reader(chain, order):
        try:
            seen.extend((chain[j].k, chain[j].kmat) for j in order)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            chain = [build(fam, 0)]
            for _ in range(24):
                chain.append(upgrade(chain[-1]))
            threads = [threading.Thread(target=reader, args=(chain, o))
                       for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(seen) == 4 * sum(map(len, orders))
    assert all(kmat == build(fam, k).kmat for k, kmat in seen)


@pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=KERNEL_IDS)
def test_deferred_set_agrees_with_build(fam):
    """Each reader of K, first on a fresh upgrade, sees ``build``'s set."""
    k = 9
    full = build(fam, k)

    def deferred():
        s = upgrade(build(fam, k - 1))
        assert "_kq" not in vars(s)
        return s

    assert downgrade(deferred(), 4) == downgrade(full, 4)
    mom = exact_moments(fam, [Fraction(1, i + 2) for i in range(k + 1)])
    assert select_removal(deferred(), mom) == select_removal(full, mom)
    s = deferred()
    other = exact_moments(fam, [Fraction(1, i + 3) for i in range(k + 1)])
    model = project(s, other)          # no earlier projection to carry
    assert "_kq" not in vars(s)
    assert model.numerators == project(full, other).numerators
    assert dataclasses.replace(deferred()) == full
    assert deferred() == full and full == deferred()
    assert hash(deferred()) == hash(full)
    assert repr(deferred()) == repr(full)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
def test_hand_made_pruned_set_agrees_with_downgrade(fam):
    """A pruned set made by hand, or passed through ``dataclasses.replace``,
    holds no K or q; on first read it forms those of the set ``downgrade``
    returned, and projects to the same model."""
    pruned = downgrade(downgrade(build(fam, 6), 4), 2)
    mom = exact_moments(fam, [Fraction(1, i + 2) for i in range(7)])
    for s in (BiorthSet(fam, 6, pruned.active), dataclasses.replace(pruned)):
        assert "_kq" not in vars(s)
        assert s == pruned and hash(s) == hash(pruned)
        assert (s.kmat, s.q) == (pruned.kmat, pruned.q)
        assert s.gram_entry(0, 5) == pruned.gram_entry(0, 5)
        assert project(s, mom) == project(pruned, mom)


@settings(max_examples=40, deadline=None)
@given(fam=st.sampled_from(ALL_FAMILIES), k=st.integers(1, 12), data=st.data())
def test_removal_orders_that_reach_one_active_set_agree(fam, k, data):
    """Sets compare and hash by (family, k, active); that is sound because
    any two removal orders of one set of exponents give the same q and K."""
    removed = data.draw(st.lists(st.integers(0, k), min_size=1, max_size=k,
                                 unique=True), label="removed")
    other = data.draw(st.permutations(removed), label="other order")
    a, b = build(fam, k), build(fam, k)
    for ell, m in zip(removed, other):
        a, b = downgrade(a, ell), downgrade(b, m)
    assert a == b and hash(a) == hash(b)
    assert (a.kmat, a.q) == (b.kmat, b.q)


@settings(max_examples=60, deadline=None)
@given(fam=st.sampled_from(ALL_FAMILIES), k=st.integers(1, 12), data=st.data())
def test_upgrade_after_removal_equals_removal_after_upgrade(fam, k, data):
    """Upgrading the set with R removed gives the set of order k+1 with R
    removed: the same value, K, q and projection."""
    removed = data.draw(st.lists(st.integers(0, k), max_size=k, unique=True),
                        label="removed")
    a, b = build(fam, k), build(fam, k + 1)
    for ell in removed:
        a, b = downgrade(a, ell), downgrade(b, ell)
    up = upgrade(a)
    assert up == b and hash(up) == hash(b)
    assert (up.kmat, up.q) == (b.kmat, b.q)
    mu = data.draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                         max_denominator=20),
                            min_size=k + 2, max_size=k + 2), label="mu")
    mom = exact_moments(fam, mu)
    assert project(up, mom) == project(b, mom)


# ----------------------------------------------------------------------
# downgrade
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
def test_downgrade_keeps_reduced_biorthogonality(fam):
    for k in range(1, 9):
        full = build(fam, k)
        for ell in full.active:
            s = downgrade(full, ell)
            assert ell not in s.active
            for n in s.active:
                for m in s.active:
                    assert beta_vs_monomial(s, n, m) == (1 if n == m else 0), \
                        (k, ell, n, m)


def test_downgrade_gram_is_rank_one_update():
    fam = FamilySpec.legendre_shifted(1)
    full = build(fam, 4)
    ell = 2
    s = downgrade(full, ell)
    for n in s.active:
        for m in s.active:
            expect = (full.gram_entry(n, m)
                      - full.gram_entry(ell, n) * full.gram_entry(ell, m)
                      / full.gram_entry(ell, ell))
            assert s.gram_entry(n, m) == expect


def test_downgrade_errors():
    s = build(FamilySpec.laguerre(), 2)
    with pytest.raises(NotActiveError):
        downgrade(s, 5)
    s = downgrade(s, 1)
    with pytest.raises(NotActiveError):
        downgrade(s, 1)
    s = downgrade(s, 2)
    with pytest.raises(LastElementError):
        downgrade(s, 0)
    with pytest.raises(NotActiveError):
        s.beta(1)
    with pytest.raises(NotActiveError):
        s.gram_entry(0, 1)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
def test_projector_difference_identity(fam):
    """Removing l changes the projection of f by beta_l <f, beta_l> / |beta_l|^2.

    With monomial targets f = x^m everything stays rational for the unit
    and e^{-x} weights, so the identity is checked exactly there; the
    Chebyshev moments carry a factor pi and go through float, hence the
    1e-10 tolerance of the float branch.
    """
    k = 6
    full = build(fam, k)
    chebyshev = fam.poly_scale is ScaleTag.INV_PI
    import math
    for m in range(k + 1):
        rational = [inner_monomial(fam.space, m, i) for i in range(k + 1)]
        if chebyshev:
            mom = MomentVector(mu=tuple(float(r) * math.pi for r in rational),
                               space=fam.space, provenance="test")
        else:
            mom = exact_moments(fam, rational)
        base = project(full, mom)
        dense_full = {n: c for n, c in zip(base.exponents,
                                           base.coeffs_exact)}
        for ell in full.active:
            s = downgrade(full, ell)
            reduced = project(s, mom)
            c_l = dense_full[ell]
            norm = full.gram_entry(ell, ell)
            for n, c_red in zip(reduced.exponents, reduced.coeffs_exact):
                beta_l_coeff = full.beta(ell).coeffs[n]
                expect = dense_full[n] - beta_l_coeff * c_l / norm
                if chebyshev:
                    assert float(c_red) == pytest.approx(float(expect),
                                                         rel=1e-10, abs=1e-10)
                else:
                    assert c_red == expect, (m, ell, n)


# ----------------------------------------------------------------------
# projection
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fam", [FamilySpec.legendre_shifted(1),
                                 FamilySpec.laguerre(),
                                 FamilySpec.legendre_sym()],
                         ids=["legendre0b(b=1)", "laguerre", "legendre"])
def test_projection_satisfies_normal_equations_exactly(fam):
    """The least-squares certificate: sum_m c_m <x^n, x^m> == mu_n exactly."""
    k = 7
    s = build(fam, k)
    mu = [Fraction(3, i + 2) - Fraction(i, 7) for i in range(k + 1)]
    model = project(s, exact_moments(fam, mu))
    for n in range(k + 1):
        lhs = sum(c * inner_monomial(fam.space, n, m)
                  for m, c in zip(model.exponents, model.coeffs_exact))
        assert lhs == mu[n], n


def test_projection_recovers_polynomial_in_span():
    fam = FamilySpec.legendre_shifted(1)
    s = build(fam, 4)
    # f(x) = 3 - x + 2 x^3, moments mu_i = <f, x^i>
    f = {0: Fraction(3), 1: Fraction(-1), 3: Fraction(2)}
    mu = [sum(c * inner_monomial(fam.space, e, i) for e, c in f.items())
          for i in range(5)]
    model = project(s, exact_moments(fam, mu))
    dense = {n: c for n, c in zip(model.exponents, model.coeffs_exact)}
    assert dense == {0: Fraction(3), 1: Fraction(-1), 2: Fraction(0),
                     3: Fraction(2), 4: Fraction(0)}


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
@pytest.mark.parametrize("removed", [(), (12,), (3, 8), (12, 0, 5)], ids=str)
def test_project_matches_fraction_dot_products(fam, removed):
    """project's integer dot products equal the plain Fraction sums."""
    k = 12
    s = build(fam, k)
    for ell in removed:
        s = downgrade(s, ell)
    # two spare moments, zeros, and denominators that share few factors
    mixed = [Fraction(0) if i % 5 == 2 else
             Fraction((-1) ** i * (i * i + 1), 3 ** (i % 4) * (7 + i))
             for i in range(k + 3)]
    floats = [0.0 if i % 4 == 1 else (-1.7) ** i / (i + 3) for i in range(k + 1)]
    promoted = MomentVector(mu=tuple(floats), space=fam.space, provenance="test")
    for mv in (exact_moments(fam, mixed), promoted):
        mu = mv.exact_values()
        expect = tuple(sum((s.gram_entry(n, m) * mu[m] for m in s.active),
                           Fraction(0)) for n in s.active)
        assert project(s, mv).coeffs_exact == expect


def test_project_requires_enough_moments():
    fam = FamilySpec.laguerre()
    s = build(fam, 5)
    with pytest.raises(MomentShortfallError):
        project(s, exact_moments(fam, [1, 2, 3]))


# ----------------------------------------------------------------------
# removal selection
# ----------------------------------------------------------------------

def _brute_force_loss(s: BiorthSet, mom: MomentVector):
    """Exact drop in explained square norm for every candidate removal."""
    full = project(s, mom)
    mu = mom.exact_values()
    explained_full = sum(c * mu[n] for n, c in zip(full.exponents,
                                                   full.coeffs_exact))
    losses = {}
    for ell in s.active:
        reduced = project(downgrade(s, ell), mom)
        explained = sum(c * mu[n] for n, c in zip(reduced.exponents,
                                                  reduced.coeffs_exact))
        losses[ell] = explained_full - explained
    return losses


@pytest.mark.parametrize("fam", [FamilySpec.legendre_shifted(1),
                                 FamilySpec.laguerre(),
                                 FamilySpec.legendre_sym()],
                         ids=["legendre0b(b=1)", "laguerre", "legendre"])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_select_removal_matches_brute_force(fam, k):
    s = build(fam, k)
    mu = [Fraction(1, i + 1) + Fraction((-1) ** i, 2 * i + 3)
          for i in range(k + 1)]
    mom = exact_moments(fam, mu)
    losses = _brute_force_loss(s, mom)
    best = min(losses, key=lambda l: (losses[l], l))
    assert select_removal(s, mom) == best
    # every loss is nonnegative: removals never help the fit
    assert all(v >= 0 for v in losses.values())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=20),
                min_size=5, max_size=5))
def test_select_removal_near_minimal_on_random_moments(mu):
    fam = FamilySpec.legendre_shifted(1)
    s = build(fam, 4)
    mom = exact_moments(fam, mu)
    losses = _brute_force_loss(s, mom)
    chosen = select_removal(s, mom)
    # the scores are exact, so the choice costs exactly the least
    assert losses[chosen] == min(losses.values())


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
def test_removal_scores_compare_exactly(fam):
    """Scores y_n^2 / K_nn are compared exactly: for neighbours n < m, the
    largest y_n that does not score above y_m goes and y_n + 1 stays,
    though the two scores differ far below a float's precision; an exact
    tie (two zero numerators) goes to n."""
    s = downgrade(build(fam, 16), 5)
    far, y_m = 1 << 2000, 1 << 400
    for i, (n, m) in enumerate(zip(s.active, s.active[1:])):
        y_n = math.isqrt(y_m * y_m * s.kmat[n][n] // s.kmat[m][m])
        for pair, expect in (((y_n, y_m), n), ((y_n + 1, y_m), m), ((0, 0), n)):
            numerators = [far] * len(s.active)
            numerators[i:i + 2] = pair
            assert cheapest_removal(s, numerators) == expect


@pytest.mark.parametrize("fam", [FamilySpec.legendre_shifted(1),
                                 FamilySpec.laguerre(),
                                 FamilySpec.legendre_sym(),
                                 FamilySpec.chebyshev()],
                         ids=["legendre0b(b=1)", "laguerre", "legendre",
                              "chebyshev"])
@pytest.mark.parametrize("k", [7, 12])
def test_greedy_pruning_takes_the_exact_best_removal(fam, k):
    """Every removal of a pruned ``fit`` is the brute-force best of its
    round, ties going to the smallest exponent."""
    mu = [Fraction(1, i + 1) + Fraction((-1) ** i, 2 * i + 3)
          for i in range(k + 1)]
    mom = exact_moments(fam, mu)
    s = build(fam, k)
    for ell in fit(fam, k, mom, removals=k - 1).removed:
        losses = _brute_force_loss(s, mom)
        assert ell == min(losses, key=lambda l: (losses[l], l))
        s = downgrade(s, ell)


def test_select_removal_needs_two_elements():
    s = build(FamilySpec.laguerre(), 1)
    s = downgrade(s, 0)
    with pytest.raises(LastElementError):
        select_removal(s, exact_moments(FamilySpec.laguerre(), [1, 1]))


# ----------------------------------------------------------------------
# exponent tuples, the projection carry and the module boundary
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k, exponents", [
    (2, (2, 0, 1)),     # coefficients went to the wrong exponents
    (2, (1, 1, 2)),     # a fit on a repeated exponent
    (2, ()),            # max() of an empty sequence
    (3, (0, 5)),        # a misleading MomentShortfallError
    (2, (-1, 0, 1)),
], ids=["unordered", "repeated", "empty", "past-k", "negative"])
def test_sets_and_models_refuse_malformed_exponents(k, exponents):
    fam = FamilySpec.laguerre()
    with pytest.raises(ValueError, match=f"strictly increasing tuple within 0..{k}"):
        BiorthSet(fam, k, exponents)
    with pytest.raises(ValueError, match=f"strictly increasing tuple within 0..{k}"):
        FitModel(fam, k, exponents, (1.0,) * len(exponents))


def test_model_needs_one_coefficient_per_exponent():
    with pytest.raises(ValueError, match="2 coeffs for 3 exponents"):
        FitModel(FamilySpec.laguerre(), 2, (0, 1, 2), (1.0, 0.5))


def test_sets_and_models_refuse_non_integer_exponents():
    """Float exponents constructed a model that raised numpy's IndexError
    only when called; integer-like ones are stored as ints."""
    fam = FamilySpec.laguerre()
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        BiorthSet(fam, 2, (0.0, 1.0, 2.0))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        FitModel(fam, 2, (0.0, 1.0, 2.0), (1.0, 2.0, 3.0))
    assert BiorthSet(fam, 2, [0, 2]).active == (0, 2)
    model = FitModel(fam, 2, [0, 1, 2], (1, Fraction(1, 2), "0.25"))
    assert model.exponents == (0, 1, 2) and set(map(type, model.exponents)) == {int}
    assert model.coeffs == (1.0, 0.5, 0.25) and set(map(type, model.coeffs)) == {float}


def test_sets_and_models_refuse_a_non_integer_k():
    """A float k constructed a set whose K raised on first read and a
    model that raised numpy's TypeError only when called."""
    fam = FamilySpec.laguerre()
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        BiorthSet(fam, 2.0, (0, 1, 2))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        FitModel(fam, 2.0, (0, 1, 2), (1.0, 2.0, 3.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_models_refuse_non_finite_coefficients(bad):
    """A nan coefficient built directly gave a model that evaluated nan."""
    with pytest.raises(ValueError, match=r"model coefficients \(.*\) are not all finite"):
        FitModel(FamilySpec.laguerre(), 1, (0, 1), (bad, 1.0))


def test_model_rounds_its_own_coefficients():
    """A model given coeffs (1.0,) beside numerators (5,) evaluated 1.0
    while its ``coeffs_exact`` read 5; its floats now come from the
    numerators alone, and given ones must be those floats."""
    fam = FamilySpec.laguerre()
    with pytest.raises(ValueError, match=re.escape(
            "model coefficients (1.0,) are not the floats (5.0,) of its numerators")):
        FitModel(fam, 0, (0,), coeffs=(1.0,), numerators=(5,), denominator=Fraction(1))
    model = FitModel(fam, 0, (0,), numerators=(5,), denominator=Fraction(1))
    assert model.coeffs == (5.0,) and model.coeffs_exact == (5,)
    assert dataclasses.replace(model) == model
    cheb = FitModel(FamilySpec.chebyshev(), 1, (1,), numerators=(3,), denominator=2)
    assert cheb.coeffs == (1.5 * (1 / math.pi),)
    with pytest.raises(ValueError, match="denominator 0.5 is not a positive rational"):
        FitModel(fam, 0, (0,), numerators=(5,), denominator=0.5)
    with pytest.raises(ValueError, match="needs its coeffs or its numerators"):
        FitModel(fam, 0, (0,))


def test_biorth_names_its_own_input_type():
    """``biorth`` imports nothing from ``regress``, not even for type
    checking; ``MomentVector`` is one class wherever it is imported from."""
    source = Path(biorth.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for alias in node.names}
    assert not any("regress" in m for m in modules if m)
    assert "TYPE_CHECKING" not in names
    assert "regress" not in source
    assert biorth.MomentVector is regress.MomentVector is biopoly.MomentVector


def test_held_vector_onto_another_space_is_refused():
    """A vector carries its last projection; projecting it onto a family
    on another space is still refused, and the vector's own family still
    gets the fresh projection."""
    leg = FamilySpec.legendre_sym()
    mv = exact_moments(leg, [Fraction(1, i + 2) for i in range(7)])
    first = project(build(leg, 6), mv)
    for other in (FamilySpec.chebyshev(), FamilySpec.legendre_shifted(1),
                  FamilySpec.laguerre()):
        with pytest.raises(MomentSpaceError):
            project(build(other, 6), mv)
    assert project(build(leg, 6), mv) == first


def _two_vectors(fam: FamilySpec) -> list[MomentVector]:
    return [exact_moments(fam, [Fraction(1, i + 2) for i in range(13)]),
            exact_moments(fam, [Fraction((-1) ** i, 3 * i + 1)
                                for i in range(13)])]


def _scan(fam: FamilySpec, k: int) -> list[BiorthSet]:
    scan = [build(fam, 0)]
    for _ in range(k):
        scan.append(upgrade(scan[-1]))
    return scan


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
def test_alternating_vectors_project_as_fresh(fam):
    """Two vectors projected in turn along one upgrade scan, with a pruned
    set in between: each projection equals that of a new, equal vector."""
    vectors = _two_vectors(fam)
    sets = [t for s in _scan(fam, 12)
            for t in ((s, downgrade(s, 0)) if s.k else (s,))]
    fresh = {(s, i): project(s, dataclasses.replace(mv))
             for s in sets for i, mv in enumerate(vectors)}
    for s in sets:
        for i in (0, 1, 0):
            assert project(s, vectors[i]) == fresh[s, i]


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=IDS)
def test_each_vector_keeps_its_own_carry(monkeypatch, fam):
    """Vector A projected along an upgrade scan to order 12, with vector B
    projected between every two of A's projections: neither throws the
    other's carry away, so D mu is scaled once per vector, and every
    projection equals that of a new, equal vector."""
    vectors = _two_vectors(fam)
    scan = _scan(fam, 12)
    fresh = {(s, i): project(s, dataclasses.replace(mv))
             for s in scan for i, mv in enumerate(vectors)}
    calls = []
    scaled = biorth._scaled_moments
    monkeypatch.setattr(biorth, "_scaled_moments",
                        lambda *args: calls.append(args) or scaled(*args))
    for s in scan:
        for i, mv in enumerate(vectors):
            assert project(s, mv) == fresh[s, i]
    assert len(calls) == 2


def test_threads_sharing_a_vector_project_as_fresh():
    """Threads that project one shared vector along one upgrade scan, in
    different orders, each get the projection of a new, equal vector:
    whichever thread stored the vector's carry last, it is a projection of
    that vector."""
    fam = FamilySpec.legendre_shifted(1)
    scan = _scan(fam, 12)
    fresh = {s: project(s, _two_vectors(fam)[0]) for s in scan}
    orders = [range(13), range(12, -1, -1), range(0, 13, 3), range(6, 13)] * 2
    errors, seen = [], []

    def projector(mv, order):
        try:
            seen.extend((scan[j], project(scan[j], mv)) for j in order)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            mv = _two_vectors(fam)[0]
            threads = [threading.Thread(target=projector, args=(mv, o))
                       for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(seen) == 4 * sum(map(len, orders))
    assert all(model == fresh[s] for s, model in seen)


FAMILIES_WITH_B = st.one_of(
    st.sampled_from([FamilySpec.laguerre(), FamilySpec.legendre_sym(),
                     FamilySpec.chebyshev()]),
    st.builds(FamilySpec.legendre_shifted,
              st.fractions(min_value=Fraction(1, 4), max_value=4,
                           max_denominator=4)))


@settings(max_examples=200, deadline=None)
@given(a=FAMILIES_WITH_B, b=FAMILIES_WITH_B)
def test_a_family_space_names_the_family(a, b):
    """``project`` reads a vector's carry after checking the vector's
    space, whatever family scaled it: that is sound because distinct
    families have distinct spaces."""
    assert (a.space == b.space) == (a == b)


# ----------------------------------------------------------------------
# exact invariances: expectations from closed forms alone
# ----------------------------------------------------------------------

# <x^j, 1> on each family's space, written out here and not read from
# the package: [0, b] and [-1, 1] with unit weight, [0, inf) with e^{-x}
MONOMIAL_MOMENTS = [
    (FamilySpec.legendre_shifted(1), lambda j: Fraction(1, j + 1)),
    (FamilySpec.legendre_shifted(Fraction(7, 3)),
     lambda j: Fraction(7, 3) ** (j + 1) / (j + 1)),
    (FamilySpec.legendre_sym(), lambda j: Fraction(1 + (-1) ** j, j + 1)),
    (FamilySpec.laguerre(), lambda j: Fraction(math.factorial(j))),
]

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(MONOMIAL_MOMENTS), k=st.integers(0, 10), data=st.data())
def test_fit_reproduces_a_polynomial_and_prunes_its_zero_support(case, k, data):
    """The moments of a polynomial p of degree <= k fit p exactly, and
    greedy pruning of as many terms as p has zero coefficients removes
    exactly those: each costs nothing, and leaves the others as they are."""
    fam, moment = case
    p = data.draw(st.lists(st.one_of(st.just(Fraction(0)), RATIONALS),
                           min_size=k + 1, max_size=k + 1).filter(any), label="p")
    zeros = {e for e, c in enumerate(p) if c == 0}
    mu = [sum(c * moment(i + e) for e, c in enumerate(p)) for i in range(k + 1)]
    model = fit(fam, k, exact_moments(fam, mu), removals=len(zeros))
    assert set(model.removed) == zeros
    assert dict(zip(model.exponents, model.coeffs_exact)) == {
        e: c for e, c in enumerate(p) if c}


@settings(max_examples=30, deadline=None)
@given(b=st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
       k=st.integers(0, 12), data=st.data())
def test_coefficients_scale_as_b_to_the_minus_e(b, k, data):
    """g(x / b) on [0, b] has moments b^(i+1) mu_i, where mu are those of
    g on [0, 1], and its fit is the fit of g at x / b: c_e(b) = c_e(1) b^-e.
    Every removal score scales by b alike, so pruning picks the same terms."""
    mu = data.draw(st.lists(RATIONALS, min_size=k + 1, max_size=k + 1), label="mu")
    removals = data.draw(st.integers(0, k), label="removals")
    unit_fam, fam = FamilySpec.legendre_shifted(1), FamilySpec.legendre_shifted(b)
    unit = fit(unit_fam, k, exact_moments(unit_fam, mu), removals)
    scaled = fit(fam, k, exact_moments(fam, [m * b ** (i + 1) for i, m in enumerate(mu)]),
                 removals)
    assert (scaled.exponents, scaled.removed) == (unit.exponents, unit.removed)
    assert scaled.coeffs_exact == tuple(
        c / b ** e for e, c in zip(unit.exponents, unit.coeffs_exact))


@settings(max_examples=30, deadline=None)
@given(k=st.integers(0, 12), data=st.data())
def test_fits_on_0_2_and_on_minus_1_1_are_one_shift_apart(k, data):
    """With x = u + 1, f(x) on [0, 2] is g(u) = f(u + 1) on [-1, 1], whose
    moments are sum_j C(i, j) (-1)^(i-j) mu_j; V_k is shift-invariant, so
    the fit of g is the fit of f at u + 1."""
    mu = data.draw(st.lists(RATIONALS, min_size=k + 1, max_size=k + 1), label="mu")
    shifted, sym = FamilySpec.legendre_shifted(2), FamilySpec.legendre_sym()
    on_0_2 = fit(shifted, k, exact_moments(shifted, mu))
    on_sym = fit(sym, k, exact_moments(sym, [
        sum(comb(i, j) * (-1) ** (i - j) * mu[j] for j in range(i + 1))
        for i in range(k + 1)]))
    assert on_sym.coeffs_exact == tuple(
        sum(c * comb(e, m) for e, c in zip(on_0_2.exponents, on_0_2.coeffs_exact))
        for m in range(k + 1))


@settings(max_examples=30, deadline=None)
@given(b=st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30),
       k=st.integers(0, 12))
def test_shifted_legendre_kernel_is_the_unit_kernel_scaled(b, k):
    """For b = p / r in lowest terms, K = r K(1) and q = p q(1)."""
    s, unit = build(FamilySpec.legendre_shifted(b), k), build(FamilySpec.legendre_shifted(1), k)
    assert s.q == b.numerator * unit.q
    assert s.kmat == tuple(tuple(b.denominator * x for x in row) for row in unit.kmat)
