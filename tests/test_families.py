"""Family integer rows against the classical closed forms.

The library forms each family's rows by its three-term recurrence; the
closed-form monomial coefficients written out here are the independent
oracle, compared term by term in exact rationals.  Orthonormality is
then verified as an exact rational identity through the split
representation.
"""

import math
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biopoly import families
from biopoly.biorth import ORDER_BOUND, build
from biopoly.cli import MAX_ORDER
from biopoly.exact import SpaceSpec, Weight
from biopoly.families import (FamilyKind, FamilySpec, _integer_row, coeff_scales,
                              int_coeff, norm_sq, rat_coeff, verify_orthonormal)

ALL_FAMILIES = [
    FamilySpec.legendre_shifted(1),
    FamilySpec.legendre_shifted(10),
    FamilySpec.legendre_shifted(Fraction(1, 2)),
    FamilySpec.laguerre(),
    FamilySpec.legendre_sym(),
    FamilySpec.chebyshev(),
]


# ----------------------------------------------------------------------
# closed-form oracle (independent of the recurrence under test)
# ----------------------------------------------------------------------

def _closed_form(fam, j, e):
    """The rational coefficient of x^e in p_j over s_j, written out:
    P_j(2x/b - 1), L_j, 2^j P_j and T_j (DLMF 18.5)."""
    kind = fam.kind
    if kind is FamilyKind.LEGENDRE_SHIFTED:
        return (Fraction((-1) ** (j + e) * math.comb(j, e) * math.comb(j + e, e))
                / fam.b ** e)
    if kind is FamilyKind.LAGUERRE:
        return Fraction((-1) ** e * math.comb(j, e), math.factorial(e))
    if (j - e) % 2:
        return Fraction(0)
    l = (j - e) // 2
    if kind is FamilyKind.LEGENDRE_SYM:
        return Fraction((-1) ** l * math.comb(j, l) * math.comb(2 * j - 2 * l, j))
    if j == 0:
        return Fraction(1)
    return Fraction((-1) ** l * j * 2 ** (j - 2 * l) * math.factorial(j - l - 1),
                    2 * math.factorial(l) * math.factorial(j - 2 * l))


def _assert_rows_match_closed_form(fam, norm):
    for j in range(ORACLE_KMAX + 1):
        for e in range(j + 1):
            assert rat_coeff(fam, j, e) == _closed_form(fam, j, e), (j, e)
        assert norm_sq(fam, j) == norm(j), j


KMAX = 12
#: the closed-form oracle runs through the largest order the CLI fits
ORACLE_KMAX = MAX_ORDER


@pytest.mark.parametrize("b", [1, 10, Fraction(1, 2)])
def test_shifted_legendre_coeffs_match_recurrence(b):
    _assert_rows_match_closed_form(FamilySpec.legendre_shifted(b),
                                   lambda j: Fraction(2 * j + 1) / Fraction(b))


def test_symmetric_legendre_coeffs_match_recurrence():
    # the split representation stores rat = 2^j [x^e] P_j
    _assert_rows_match_closed_form(FamilySpec.legendre_sym(),
                                   lambda j: Fraction(2 * j + 1, 2 ** (2 * j + 1)))


def test_chebyshev_coeffs_match_recurrence():
    _assert_rows_match_closed_form(FamilySpec.chebyshev(),
                                   lambda j: 1 if j == 0 else 2)


def test_laguerre_coeffs_match_recurrence():
    _assert_rows_match_closed_form(FamilySpec.laguerre(), lambda j: 1)


def test_rows_form_iteratively(monkeypatch):
    """Row 400, from an empty memo, forms under a recursion limit far below
    its degree: the recurrence is a loop."""
    monkeypatch.setattr(families, "_ROWS", {})
    fam = FamilySpec.legendre_shifted(Fraction(401, 3))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        row = _integer_row(fam, 400)
    finally:
        sys.setrecursionlimit(old)
    assert row[400] == math.comb(800, 400)
    assert row[0] == 1


def test_rows_formed_by_racing_threads_agree(monkeypatch):
    """Threads reading row 64 from an empty memo, at once and with a short
    switch interval, get the rows one thread forms alone; so do their reads
    of lower rows that another thread may be forming."""
    fam = FamilySpec.legendre_shifted(Fraction(64, 7))
    monkeypatch.setattr(families, "_ROWS", {})
    alone = [_integer_row(fam, j) for j in range(65)]
    monkeypatch.setattr(families, "_ROWS", {})
    barrier = threading.Barrier(4, timeout=30)
    got = {}

    def read(i):
        barrier.wait()
        got[i] = [_integer_row(fam, j) for j in (64, 16 * i + 1)]

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(4):
        assert got[i] == [alone[j] for j in (64, 16 * i + 1)], i


def test_rows_are_shared_by_every_b():
    """legendre0b's rows are in u = x/b, so every b reads one memo entry."""
    assert (_integer_row(FamilySpec.legendre_shifted(2), 20)
            is _integer_row(FamilySpec.legendre_shifted(Fraction(7, 3)), 20))


#: each kind's scales, with a b whose powers are not integral and a str b
SCALE_FAMILIES = [*(FamilySpec.legendre_shifted(b) for b in (1, Fraction(7, 3), "1/2", 10)),
                  FamilySpec.laguerre(), FamilySpec.legendre_sym(), FamilySpec.chebyshev()]


@pytest.mark.parametrize("fam", SCALE_FAMILIES, ids=lambda f: f.describe())
def test_coeff_scales_are_the_closed_forms(fam):
    """D_e is b^-e for legendre0b, 1/e! for laguerre and 1 otherwise, an
    exact ``Fraction`` for e = 0..ORDER_BOUND; every lower order reads the
    same tuple, and a coefficient's rational part is its integer times D_e."""
    d = coeff_scales(fam, ORDER_BOUND)
    for e in range(ORDER_BOUND + 1):
        if fam.kind is FamilyKind.LEGENDRE_SHIFTED:
            want = Fraction(fam.b.denominator ** e, fam.b.numerator ** e)
        elif fam.kind is FamilyKind.LAGUERRE:
            want = Fraction(1, math.factorial(e))
        else:
            want = Fraction(1)
        assert type(d[e]) is Fraction and d[e] == want, e
        assert coeff_scales(fam, e) is d, e
        for j in (e, ORDER_BOUND):
            assert rat_coeff(fam, j, e) == int_coeff(fam, j, e) * coeff_scales(fam, e)[e]


def test_scales_keep_one_tuple_per_family(monkeypatch):
    """A memo keyed by (family, k) held a fresh D_0..D_k for every order:
    5.46 MB for k = 0..256 on legendre0b(7/3).  One tuple per family, grown
    on demand, holds the k = 256 scales alone, and a lower order reads the
    same tuple."""
    monkeypatch.setattr(families, "_SCALES", {})
    fam = FamilySpec.legendre_shifted(Fraction(7, 3))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for k in range(ORDER_BOUND + 1):
            coeff_scales(fam, k)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert held < 256 * 1024
    d = coeff_scales(fam, ORDER_BOUND)
    assert coeff_scales(fam, 3) is d and len(d) == ORDER_BOUND + 1
    assert d[:4] == (1, Fraction(3, 7), Fraction(9, 49), Fraction(27, 343))


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
    # every bad b raises ValueError, whichever constructor it reaches
    for b, message in [("1/0", "its denominator is zero"), ("-3", "b > 0"),
                       (None, "b > 0"), (math.nan, "b > 0"), (math.inf, "b > 0"),
                       ([2], "b > 0"), ("zero?", "Invalid literal for Fraction")]:
        with pytest.raises(ValueError, match=message):
            FamilySpec(FamilyKind.LEGENDRE_SHIFTED, b)
    with pytest.raises(ValueError, match="takes no b parameter"):
        FamilySpec(FamilyKind.LAGUERRE, 2)


#: b as each accepted type: an int, a str, a dyadic float and a Fraction
positive_b = st.one_of(
    st.integers(1, 40),
    st.fractions(min_value=Fraction(1, 64), max_value=40,
                 max_denominator=64).map(str),
    st.builds(lambda n, e: n / 2 ** e, st.integers(1, 640), st.integers(0, 6)),
    st.fractions(min_value=Fraction(1, 64), max_value=40, max_denominator=64))


@settings(max_examples=60, deadline=None)
@given(positive_b)
def test_family_stores_b_as_the_fraction_every_constructor_gives(b):
    """``FamilySpec(LEGENDRE_SHIFTED, b)`` and ``legendre_shifted(b)`` are
    one exact value: an int b once gave float scales to the memoised
    ``build`` that every equal family shares."""
    direct = FamilySpec(FamilyKind.LEGENDRE_SHIFTED, b)
    assert type(direct.b) is Fraction and direct.b == FamilySpec.legendre_shifted(b).b
    assert direct.b == Fraction(b)
    rows = [build(direct, 3).beta(n).coeffs for n in range(4)]
    assert all(type(c) is Fraction for row in rows for c in row)
    assert rows == [build(FamilySpec.legendre_shifted(b), 3).beta(n).coeffs
                    for n in range(4)]


_FIT = """
from biopoly.families import FamilyKind, FamilySpec
from biopoly.regress import fit, moments_expdecay
if {first_direct}:
    from biopoly.biorth import build
    build(FamilySpec(FamilyKind.LEGENDRE_SHIFTED, 2), 3).beta(1)
fam = FamilySpec.legendre_shifted(2)
print(fit(fam, 3, moments_expdecay(fam.space, 3)).coeffs_exact)
"""


def test_direct_family_first_does_not_change_a_later_fit():
    """An int-b family built first once filled ``build`` and ``coeff_scales``
    with floats, and the fit after it raised "'float' object has no
    attribute 'denominator'"; it must print what a fresh process prints."""
    src = Path(families.__file__).resolve().parents[1]
    out = [subprocess.run([sys.executable, "-c", _FIT.format(first_direct=first)],
                          cwd=src, capture_output=True, text=True, check=True).stdout
           for first in (True, False)]
    assert out[0] == out[1] and "Fraction(" in out[0]


def test_family_spaces():
    assert FamilySpec.legendre_shifted(10).space == SpaceSpec.bounded(0, 10)
    assert FamilySpec.laguerre().space.weight is Weight.EXP_NEG
    assert FamilySpec.legendre_sym().space == SpaceSpec.bounded(-1, 1)
    assert FamilySpec.chebyshev().space.weight is Weight.CHEBYSHEV


def test_cli_names_are_stable():
    assert [k.value for k in FamilyKind] == [
        "legendre0b", "laguerre", "legendre", "chebyshev"]
