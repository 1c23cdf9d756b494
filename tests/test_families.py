"""Family coefficient formulas against independent recurrence oracles.

Each family's closed-form monomial coefficients are re-derived here
from the classical three-term recurrences, carried out in exact
rational arithmetic, and compared term by term.  Orthonormality is then
verified as an exact rational identity through the split representation.
"""

from fractions import Fraction

import pytest

from biopoly import families
from biopoly.cli import MAX_ORDER
from biopoly.exact import SpaceSpec, Weight, inner_monomial
from biopoly.families import (FamilyKind, FamilySpec, int_coeff, norm_sq,
                              rat_coeff, verify_orthonormal)

ALL_FAMILIES = [
    FamilySpec.legendre_shifted(1),
    FamilySpec.legendre_shifted(10),
    FamilySpec.legendre_shifted(Fraction(1, 2)),
    FamilySpec.laguerre(),
    FamilySpec.legendre_sym(),
    FamilySpec.chebyshev(),
]


# ----------------------------------------------------------------------
# recurrence oracles (exact, independent of the closed forms under test)
# ----------------------------------------------------------------------

def _poly_mul_x(p):
    return [Fraction(0)] + p


def _poly_axpy(alpha, p, q):
    n = max(len(p), len(q))
    p = p + [Fraction(0)] * (n - len(p))
    q = q + [Fraction(0)] * (n - len(q))
    return [alpha * a + b for a, b in zip(p, q)]


def _legendre_polys(count):
    """P_0..P_{count-1} by (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for j in range(1, count):
        nxt = _poly_axpy(Fraction(2 * j + 1, j + 1), _poly_mul_x(polys[j]),
                         [-Fraction(j, j + 1) * c for c in polys[j - 1]])
        polys.append(nxt)
    return polys[:count]


def _chebyshev_polys(count):
    """T_0..T_{count-1} by T_{j+1} = 2 x T_j - T_{j-1}."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for j in range(1, count):
        nxt = _poly_axpy(Fraction(2), _poly_mul_x(polys[j]),
                         [-c for c in polys[j - 1]])
        polys.append(nxt)
    return polys[:count]


def _laguerre_polys(count):
    """L_0..L_{count-1} by (j+1) L_{j+1} = (2j+1-x) L_j - j L_{j-1}."""
    polys = [[Fraction(1)], [Fraction(1), Fraction(-1)]]
    for j in range(1, count):
        term = _poly_axpy(Fraction(2 * j + 1), polys[j],
                          [-c for c in _poly_mul_x(polys[j])])
        nxt = _poly_axpy(Fraction(-j), polys[j - 1], term)
        polys.append([c / (j + 1) for c in nxt])
    return polys[:count]


def _shifted_legendre_polys(count, b):
    """P_j(2x/b - 1) via exact composition of the Legendre recurrence."""
    b = Fraction(b)
    out = []
    for p in _legendre_polys(count):
        # compose with u = 2x/b - 1 by Horner over the outer coefficients
        acc = [Fraction(0)]
        for c in reversed(p):
            # acc = acc * u + c
            shifted = [Fraction(2, b) * v for v in _poly_mul_x(acc)]
            acc = _poly_axpy(Fraction(-1), acc, shifted)
            acc[0] += c
        out.append(acc)
    return out


def _pad(p, n):
    return p + [Fraction(0)] * (n - len(p))


KMAX = 12
#: the recurrence oracles run through the largest order the CLI fits
ORACLE_KMAX = MAX_ORDER


@pytest.mark.parametrize("b", [1, 10, Fraction(1, 2)])
def test_shifted_legendre_coeffs_match_recurrence(b):
    fam = FamilySpec.legendre_shifted(b)
    oracle = _shifted_legendre_polys(ORACLE_KMAX + 1, b)
    for j in range(ORACLE_KMAX + 1):
        p = _pad(oracle[j], j + 1)
        for e in range(j + 1):
            assert rat_coeff(fam, j, e) == p[e], (j, e)
        assert norm_sq(fam, j) == Fraction(2 * j + 1) / Fraction(b)


def test_symmetric_legendre_coeffs_match_recurrence():
    fam = FamilySpec.legendre_sym()
    oracle = _legendre_polys(ORACLE_KMAX + 1)
    for j in range(ORACLE_KMAX + 1):
        p = _pad(oracle[j], j + 1)
        # split representation stores rat = 2^j [x^e] P_j
        for e in range(j + 1):
            assert rat_coeff(fam, j, e) == 2 ** j * p[e], (j, e)
        assert norm_sq(fam, j) == Fraction(2 * j + 1, 2 ** (2 * j + 1))


def test_chebyshev_coeffs_match_recurrence():
    fam = FamilySpec.chebyshev()
    oracle = _chebyshev_polys(ORACLE_KMAX + 1)
    for j in range(ORACLE_KMAX + 1):
        p = _pad(oracle[j], j + 1)
        for e in range(j + 1):
            assert rat_coeff(fam, j, e) == p[e], (j, e)
        assert norm_sq(fam, j) == (1 if j == 0 else 2)


def test_laguerre_coeffs_match_recurrence():
    fam = FamilySpec.laguerre()
    oracle = _laguerre_polys(ORACLE_KMAX + 1)
    for j in range(ORACLE_KMAX + 1):
        p = _pad(oracle[j], j + 1)
        for e in range(j + 1):
            assert rat_coeff(fam, j, e) == p[e], (j, e)
        assert norm_sq(fam, j) == 1


# ----------------------------------------------------------------------
# structural classification
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.describe())
def test_support_structure(fam):
    """Full-support rows carry every exponent; parity rows only j, j-2, ..."""
    for j in range(KMAX + 1):
        top = rat_coeff(fam, j, j)
        assert top != 0, f"leading coefficient must not vanish at j={j}"
        for e in range(j + 1):
            c = rat_coeff(fam, j, e)
            if (fam.kind in (FamilyKind.LEGENDRE_SYM, FamilyKind.CHEBYSHEV)
                    and (j - e) % 2):
                assert c == 0, f"parity gap violated at (j={j}, e={e})"
    # exponents above the degree are always zero
    assert rat_coeff(fam, 3, 7) == 0


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.describe())
def test_orthonormality_exact(fam):
    assert verify_orthonormal(fam, KMAX) == []


def test_negative_degree_is_refused():
    fam = FamilySpec.legendre_sym()
    with pytest.raises(ValueError, match="nonnegative"):
        norm_sq(fam, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        int_coeff(fam, -1, 0)


def test_verify_orthonormal_reports_a_wrong_norm(monkeypatch):
    """A squared norm off by a factor shows as a diagonal defect."""
    fam = FamilySpec.legendre_shifted(1)
    monkeypatch.setattr(families, "norm_sq",
                        lambda f, j: 2 * norm_sq(f, j) if j == 2 else norm_sq(f, j))
    assert verify_orthonormal(fam, 3) == [(2, 2, Fraction(1))]


def test_family_validation():
    with pytest.raises(ValueError):
        FamilySpec.legendre_shifted(0)
    with pytest.raises(ValueError):
        FamilySpec.legendre_shifted(-2)


def test_family_spaces():
    assert FamilySpec.legendre_shifted(10).space == SpaceSpec.bounded(0, 10)
    assert FamilySpec.laguerre().space.weight is Weight.EXP_NEG
    assert FamilySpec.legendre_sym().space == SpaceSpec.bounded(-1, 1)
    assert FamilySpec.chebyshev().space.weight is Weight.CHEBYSHEV


def test_cli_names_are_stable():
    assert [k.value for k in FamilyKind] == [
        "legendre0b", "laguerre", "legendre", "chebyshev"]
