"""Exact inner products, scale bookkeeping and compensated evaluation.

The closed-form monomial integrals are checked against adaptive
quadrature, which shares no code with the formulas under test, and the
algebraic laws of the inner product are exercised with hypothesis over
random rational polynomials.  The blocked, chunked ``horner_many`` is
checked bit for bit against the plain vectorised loop it replaced, with
chunks of one term, of part of the sum and of all of it, and at several
forced thread counts, and so is what its threads do with blocks, numpy
error states and exceptions.  Its ufunc calls and its peak memory per
evaluation are bounded.
"""

import ast
import math
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from biopoly import exact
from biopoly.exact import (_BLOCK, _SPLITTER, ExactPoly,
                           ScaleMismatchError, ScaleTag, SpaceSpec, Weight,
                           horner_many, inner_monomial, inner_poly)
from biopoly.families import FamilySpec
from biopoly.regress import (fit, moments_expdecay, moments_gamma,
                             moments_quadrature)
from biopoly.targets import chirp, damped_wiggle

BOUNDED = SpaceSpec.bounded(-1, 1)
SHIFTED = SpaceSpec.bounded(0, 10)
HALF = SpaceSpec.half_line()
CHEB = SpaceSpec.chebyshev()


# ----------------------------------------------------------------------
# closed forms vs an independent quadrature oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("space", [BOUNDED, SHIFTED, SpaceSpec.bounded(0, 1),
                                   SpaceSpec.bounded(Fraction(-1, 2), Fraction(3, 2))])
@pytest.mark.parametrize("i,j", [(0, 0), (1, 0), (2, 3), (5, 5), (7, 2)])
def test_unit_weight_closed_form_matches_quadrature(space, i, j):
    exact = float(inner_monomial(space, i, j))
    lo, hi = float(space.lo), float(space.hi)
    oracle, err = quad(lambda x: x ** (i + j), lo, hi)
    assert exact == pytest.approx(oracle, abs=10 * err + 1e-13)


@pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (3, 2), (6, 6), (9, 0)])
def test_half_line_closed_form_matches_quadrature(i, j):
    exact = float(inner_monomial(HALF, i, j))
    oracle, err = quad(lambda x: x ** (i + j) * math.exp(-x), 0, np.inf)
    assert exact == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (2, 0), (4, 2), (5, 5), (7, 1)])
def test_chebyshev_closed_form_matches_quadrature(i, j):
    # returned rationals carry an implied factor pi
    exact = float(inner_monomial(CHEB, i, j)) * math.pi
    oracle, err = quad(lambda x: x ** (i + j) / math.sqrt(1.0 - x * x), -1, 1,
                       points=[-1, 1])
    assert exact == pytest.approx(oracle, abs=10 * err + 1e-12)


def test_chebyshev_odd_powers_vanish():
    for s in range(1, 12, 2):
        assert inner_monomial(CHEB, s, 0) == 0


def test_chebyshev_even_powers_are_central_binomials():
    # integral of x^{2m} dtheta-form: pi * C(2m, m) / 4^m
    for m in range(6):
        assert inner_monomial(CHEB, 2 * m, 0) == Fraction(math.comb(2 * m, m),
                                                          4 ** m)


def test_bounded_interval_requires_order():
    with pytest.raises(ValueError):
        SpaceSpec.bounded(1, 1)
    with pytest.raises(ValueError):
        SpaceSpec.bounded(2, -3)


def test_space_spec_stores_its_ends_as_fractions():
    """Every constructor gives the same exact space: int ends built
    directly made ``inner_monomial`` return the float 0.333..."""
    space = SpaceSpec(Weight.UNIT, 0, 1)
    assert space == SpaceSpec.bounded(0, 1)
    assert type(space.lo) is Fraction and type(space.hi) is Fraction
    value = inner_monomial(space, 1, 1)
    assert type(value) is Fraction and value == Fraction(1, 3)


@pytest.mark.parametrize("weight, lo, hi", [
    (Weight.UNIT, 1, 0), (Weight.UNIT, 1, 1), (Weight.UNIT, 0, None),
    (Weight.EXP_NEG, 3, 5), (Weight.EXP_NEG, 0, 1), (Weight.EXP_NEG, -1, None),
    (Weight.CHEBYSHEV, 0, 1), (Weight.CHEBYSHEV, -1, None),
    # a non-finite end raised Fraction's OverflowError or its own ValueError
    pytest.param(Weight.UNIT, 0, math.inf, id="inf"),
    pytest.param(Weight.UNIT, -math.inf, 0, id="-inf"),
    pytest.param(Weight.UNIT, 0, math.nan, id="nan"),
])
def test_space_spec_refuses_unsupported_combinations(weight, lo, hi):
    with pytest.raises(ValueError, match="unsupported space"):
        SpaceSpec(weight, lo, hi)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        inner_monomial(BOUNDED, -1, 0)


# ----------------------------------------------------------------------
# polynomial inner products and scale tags
# ----------------------------------------------------------------------

def _poly(coeffs, scale=ScaleTag.ONE):
    return ExactPoly.from_coeffs([Fraction(c) for c in coeffs], scale)


def test_inner_poly_simple_case():
    # <1 + x, x> on [-1, 1] = int (x + x^2) = 2/3
    assert inner_poly(BOUNDED, _poly([1, 1]), _poly([0, 1])) == Fraction(2, 3)


def test_inner_poly_rejects_unbalanced_pi_power():
    a = _poly([1], ScaleTag.INV_PI)
    b = _poly([1], ScaleTag.INV_PI)
    with pytest.raises(ScaleMismatchError):
        inner_poly(BOUNDED, a, b)       # net pi power -2
    with pytest.raises(ScaleMismatchError):
        inner_poly(CHEB, _poly([1]), _poly([1]))  # net pi power +1


def test_inner_poly_chebyshev_scale_cancellation():
    # (1/pi)-scaled row against a plain polynomial in the Chebyshev space:
    # net power (-1) + 0 + (+1) = 0, plain rational out
    row = _poly([3, 0, -4], ScaleTag.INV_PI)
    assert inner_poly(CHEB, row, _poly([1])) == 1
    assert inner_poly(CHEB, row, _poly([0, 0, 1])) == 0


# ----------------------------------------------------------------------
# pi becomes a float in one place: exact.PI_FLOAT
# ----------------------------------------------------------------------

_PACKAGE = Path(exact.__file__).parent
#: an upper-case name with PI as one of its words, such as INV_PI_FLOAT
_PI_CONSTANT = re.compile(r"(^|_)PI(_|$)")


def test_pi_float_table_covers_every_pi_power():
    """PI_FLOAT holds pi**p for each pi_power a scale tag or space carries."""
    powers = ({tag.pi_power for tag in ScaleTag}
              | {space.pi_power for space in (BOUNDED, HALF, CHEB)})
    assert powers == set(exact.PI_FLOAT) == {-1, 0, 1}
    assert exact.PI_FLOAT == {-1: 1.0 / math.pi, 0: 1.0, 1: math.pi}


def _tree(name):
    return ast.parse((_PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _pi_reads(tree):
    """Nodes of ``tree`` that read or import pi as a float: ``math.pi`` or
    ``np.pi``, a bare ``pi``, or a PI constant other than PI_FLOAT."""
    def is_pi(name):
        return name == "pi" or (name != "PI_FLOAT"
                                and _PI_CONSTANT.search(name) is not None)
    return [node for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "pi")
            or (isinstance(node, ast.Name) and is_pi(node.id))
            or (isinstance(node, ast.alias) and is_pi(node.name))]


@pytest.mark.parametrize("module", ["biorth", "baseline"])
def test_fitting_modules_take_pi_from_the_table_only(module):
    """biorth and baseline read no math.pi and no pi constant but PI_FLOAT."""
    assert [ast.unparse(n) for n in _pi_reads(_tree(module))] == []


def test_regress_reads_math_pi_only_in_the_simpson_rule():
    """regress's one float pi is _simpson's theta range [0, pi]: the rule's
    geometry, not a pi factor."""
    tree = _tree("regress")
    simpson = next(node for node in tree.body if isinstance(
        node, ast.FunctionDef) and node.name == "_simpson")
    inside = {id(node) for node in _pi_reads(simpson)}
    outside = [n.lineno for n in _pi_reads(tree) if id(n) not in inside]
    assert inside and outside == []


def test_no_module_but_exact_picks_a_float_factor_by_scale_tag():
    """Outside exact, the statement around a comparison with
    ScaleTag.INV_PI holds no float constant and reads no pi: the tag picks
    text (the tables verb's "(1/pi) *"), never a float factor."""
    offending = []
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.stem == "exact":
            continue
        tree = _tree(path.stem)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Compare) and any(
                    isinstance(op, ast.Attribute) and op.attr == "INV_PI"
                    for op in (node.left, *node.comparators))):
                continue
            stmt = node
            while not isinstance(stmt, ast.stmt):
                stmt = parents[stmt]
            if _pi_reads(stmt) or any(
                    isinstance(n, ast.Constant) and type(n.value) is float
                    for n in ast.walk(stmt)):
                offending.append(f"{path.stem}:{stmt.lineno}")
    assert offending == []


rational = st.fractions(min_value=-10, max_value=10,
                        max_denominator=50)
coeff_lists = st.lists(rational, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_inner_poly_bilinear(a, b, c):
    pa, pb, pc = _poly(a), _poly(b), _poly(c)
    summed = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    left = inner_poly(SHIFTED, _poly(summed), pc)
    assert left == inner_poly(SHIFTED, pa, pc) + inner_poly(SHIFTED, pb, pc)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, rational)
def test_inner_poly_symmetric_and_homogeneous(a, b, lam):
    pa, pb = _poly(a), _poly(b)
    assert inner_poly(HALF, pa, pb) == inner_poly(HALF, pb, pa)
    scaled = _poly([lam * x for x in a])
    assert inner_poly(HALF, scaled, pb) == lam * inner_poly(HALF, pa, pb)


# ----------------------------------------------------------------------
# evaluation: compensated float Horner vs exact rational arithmetic
# ----------------------------------------------------------------------

def _horner_exact(coeffs, x):
    """Exact value of sum(coeffs[i] * x**i) at rational x."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=40, deadline=None)
@given(coeff_lists, st.fractions(min_value=-2, max_value=2, max_denominator=64))
def test_eval_float_matches_exact_eval(coeffs, x):
    exact = _horner_exact(coeffs, x)
    got = horner_many(coeffs, np.array([float(x)]))[0]
    assert got == pytest.approx(float(exact), rel=1e-14, abs=1e-14)


def test_eval_float_handles_huge_cancelling_coefficients():
    # alternating +-1e20 with a tiny remainder: plain Horner loses it,
    # the compensated loop keeps ~1 ulp
    big = Fraction(10) ** 20
    coeffs = [Fraction(1), big, -big]
    got = horner_many(coeffs, np.array([1.0]))[0]
    assert got == float(_horner_exact(coeffs, Fraction(1)))


def test_horner_many_vectorised_matches_scalar():
    coeffs = [Fraction(1), Fraction(-7, 2), Fraction(1, 4), Fraction(7)]
    xs = np.linspace(-2, 2, 17)
    got = horner_many(coeffs, xs)
    scalar = [horner_many(coeffs, np.array([x]))[0] for x in xs]
    assert list(got) == scalar
    expected = [float(_horner_exact(coeffs, Fraction(x))) for x in xs]
    assert np.allclose(got, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("coeffs", [[], np.zeros(0)], ids=["list", "ndarray"])
def test_horner_many_of_no_coefficients_is_the_empty_sum(coeffs):
    xs = np.array([[1.5, -2.0, 0.0], [-0.0, 1e300, np.nan]])
    got = horner_many(coeffs, xs)
    assert got.dtype == np.float64 and got.shape == xs.shape
    assert got.tobytes() == np.zeros(xs.shape).tobytes()     # +0.0 each
    one = horner_many(coeffs, np.asarray(-3.0))
    assert type(one) is type(horner_many([2.0], np.asarray(-3.0)))
    assert one == 0.0 and not np.signbit(one)


# ----------------------------------------------------------------------
# bit identity: blocked in-place horner_many vs the plain vectorised loop
# ----------------------------------------------------------------------

def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _two_prod(a, b):
    p = a * b
    ah = a * _SPLITTER
    ah = ah - (ah - a)
    al = a - ah
    bh = b * _SPLITTER
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _horner_reference(coeffs, xs):
    """The unblocked loop: one fresh array per operation and term."""
    xs = np.asarray(xs, dtype=float)
    acc = np.full(xs.shape, float(coeffs[-1]))
    comp = np.zeros(xs.shape)
    for c in reversed(coeffs[:-1]):
        p, e1 = _two_prod(acc, xs)
        acc, e2 = _two_sum(p, float(c))
        comp = comp * xs + (e1 + e2)
    return acc + comp


def _assert_same_bits(coeffs, xs):
    before = np.array(xs, copy=True)
    got = horner_many(coeffs, xs)
    want = _horner_reference(coeffs, xs)
    assert type(got) is type(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape == np.shape(xs)
    assert got.tobytes() == want.tobytes()
    assert np.asarray(xs).tobytes() == before.tobytes()


magnitudes = st.builds(lambda m, e, neg: (-m if neg else m) * 10.0 ** e,
                       st.floats(1.0, 9.999), st.integers(-12, 19), st.booleans())
# A block of m points takes r = min(k, max(1, _BLOCK // m)) terms a chunk:
# r >= k at 1, 2 and 201 points (k <= 81), 1 < r < k at 2001 points (r = 8)
# and 201 points (k > 81), r = 1 from _BLOCK // 2 + 1 points on; m * r
# crosses _BLOCK between _BLOCK // 3 (r = 3) and _BLOCK // 3 + 1 (r = 2).
SIZES = [0, 1, 2, 201, 2001, _BLOCK // 3, _BLOCK // 3 + 1, _BLOCK // 2,
         _BLOCK // 2 + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


def _points(seed, n, half_width):
    """n points in [-half_width, half_width], led by signed zeros and +-1."""
    xs = np.random.default_rng(seed).uniform(-half_width, half_width, n)
    special = [0.0, -0.0, 1.0, -1.0]
    xs[:len(special)] = special[:n]
    return xs


def _spread(k):
    """k + 1 coefficients of alternating sign, from 1e-8 to 1e8."""
    return [(-1) ** i * 10.0 ** ((5 * i) % 17 - 8) for i in range(k + 1)]


def _edge(n, k):
    """An example of the test below with n points and degree k."""
    return example(coeffs=_spread(k), form="float", n=n, layout="flat",
                   read_only=False, half_width=2.0, seed=n + k)


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(magnitudes, min_size=1, max_size=100),
       form=st.sampled_from(["float", "fraction", "ndarray"]),
       n=st.sampled_from(SIZES),
       layout=st.sampled_from(["flat", "0-d", "2-d", "strided", "transposed"]),
       read_only=st.booleans(),
       half_width=st.sampled_from([1.0, 2.0, 10.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@_edge(201, 48)                 # r = k: the whole sum in one chunk
@_edge(201, 99)                 # r = 81, k mod r = 18
@_edge(2001, 36)                # r = 8, k mod r = 4
@_edge(_BLOCK // 3, 64)         # r = 3, k mod r = 1
@_edge(_BLOCK // 3 + 1, 64)     # r = 2
@_edge(_BLOCK // 2 + 1, 17)     # r = 1 below a full block
@_edge(2 * _BLOCK + 3, 64)      # r = 1 on full blocks, r = k on the last
def test_horner_many_bit_identical_to_reference(coeffs, form, n, layout,
                                                read_only, half_width, seed):
    if form == "fraction":
        coeffs = [Fraction(c) / 3 for c in coeffs]  # rounds in float()
    elif form == "ndarray":
        coeffs = np.array(coeffs)
    if layout == "0-d":
        xs = np.asarray(_points(seed, 1, half_width)[0])
    elif layout == "2-d":
        xs = _points(seed, 2 * n, half_width).reshape(n, 2)
    elif layout == "strided":
        xs = _points(seed, 3 * n, half_width)[::3]
    elif layout == "transposed":
        xs = _points(seed, 2 * n, half_width).reshape(2, n).T
    else:
        xs = _points(seed, n, half_width)
    if read_only:
        xs.setflags(write=False)
    _assert_same_bits(coeffs, xs)


API_GRIDS = {
    "laguerre": (FamilySpec.laguerre(), (0.0, 10.0)),
    "legendre0b": (FamilySpec.legendre_shifted(1), (0.0, 1.0)),
    "legendre": (FamilySpec.legendre_sym(), (-1.0, 1.0)),
    "chebyshev": (FamilySpec.chebyshev(), (-1.0, 1.0)),
}


@pytest.mark.parametrize("k", [17, 36, 64])
@pytest.mark.parametrize("family", sorted(API_GRIDS))
def test_horner_many_bit_identical_on_real_fits(family, k):
    fam, (lo, hi) = API_GRIDS[family]
    if family in ("laguerre", "legendre0b"):
        mom = (moments_gamma(fam.space, k) if k == 36 else
               moments_expdecay(fam.space, k, alpha=Fraction(3, 4)))
    else:
        mom = moments_quadrature(
            lambda x: damped_wiggle(x) + 0.5 * chirp(0.5 * (x + 1.0)),
            fam.space, k)
    xs = np.linspace(lo, hi, 100_000)
    xs.setflags(write=False)
    for r in (0, 3, 10):
        coeffs = fit(fam, k, mom, removals=r).dense_coeffs()
        _assert_same_bits(coeffs, xs)
        _assert_same_bits(coeffs, xs[:201])


# ----------------------------------------------------------------------
# work: the ufunc calls and the memory of one evaluation
# ----------------------------------------------------------------------

def _count_ufunc_calls(monkeypatch) -> list:
    """Count numpy's multiply, subtract and add calls through the numpy
    module, which the kernel imports when it runs; one list entry a call."""
    calls = []

    def counting(real):
        def counted(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)
        return counted
    for name in ("multiply", "subtract", "add"):
        monkeypatch.setattr(np, name, counting(getattr(np, name)))
    return calls


def test_horner_many_runs_only_the_recurrences_term_by_term(monkeypatch):
    """At 201 points all 48 terms take one chunk: two calls a term for the
    Horner sum, two for the correction, and one call per operation of the
    error terms for the whole chunk, where one call per operation and term
    makes about 22 * k."""
    k = 48
    coeffs = _spread(k)
    xs = _points(3, 201, 1.0)
    calls = _count_ufunc_calls(monkeypatch)
    got = horner_many(coeffs, xs)
    monkeypatch.undo()
    assert len(calls) <= 5 * k + 40
    assert got.tobytes() == _horner_reference(coeffs, xs).tobytes()


@pytest.mark.parametrize("k", [17, 48, 64])
@pytest.mark.parametrize("n", [201, 2001, 2 * _BLOCK + 3, 100_000])
def test_horner_many_allocates_no_more_than_nine_block_rows(monkeypatch, n, k):
    """Past the result's 8n bytes, one thread allocates no more than a full
    block's nine work rows, plus 64 KiB for small objects and numpy's
    iteration buffer: peak memory does not grow with the chunk length."""
    monkeypatch.setattr(exact, "_WORKERS", 1)
    coeffs = _spread(k)
    xs = _points(4, n, 1.0)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        horner_many(coeffs, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert peak - before <= 8 * n + 9 * _BLOCK * 8 + 64 * 1024


# ----------------------------------------------------------------------
# threads: the blocks are shared out, the bits and the error state are not
# ----------------------------------------------------------------------

# degree 16, alternating signs, magnitudes spread over 1e-11 to 1e11
THREAD_COEFFS = [(-1) ** i * 10.0 ** ((7 * i) % 23 - 11) / (i + 3) for i in range(17)]


@pytest.mark.parametrize("layout", ["flat", "2-d", "strided", "read-only"])
@pytest.mark.parametrize("n", [2 * _BLOCK, 2 * _BLOCK + 3, 7 * _BLOCK - 1, 100_000])
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_horner_many_bit_identical_at_any_thread_count(monkeypatch, workers, n,
                                                        layout):
    monkeypatch.setattr(exact, "_WORKERS", workers)
    if layout == "2-d":
        xs = _points(n, 2 * n, 2.0).reshape(n, 2)
    elif layout == "strided":
        xs = _points(n, 3 * n, 2.0)[::3]
    else:
        xs = _points(n, n, 2.0)
    if layout == "read-only":
        xs.setflags(write=False)
    _assert_same_bits(THREAD_COEFFS, xs)


def test_horner_many_runs_blocks_on_more_than_one_thread(monkeypatch):
    monkeypatch.setattr(exact, "_WORKERS", 2)
    taken = []                   # (block start, thread) per block run
    # each worker waits here with its first block until the other holds one
    both = threading.Barrier(2, timeout=30)
    real = exact._horner_blocks

    def spy(top, rest, flat, out_flat, starts):
        def recorded():
            for i, lo in enumerate(starts):
                taken.append((lo, threading.get_ident()))
                if i == 0:
                    both.wait()
                yield lo
        real(top, rest, flat, out_flat, recorded())

    monkeypatch.setattr(exact, "_horner_blocks", spy)
    n = 5 * _BLOCK + 7
    _assert_same_bits(THREAD_COEFFS, _points(0, n, 2.0))
    assert sorted(lo for lo, _ in taken) == list(range(0, n, _BLOCK))
    assert len({ident for _, ident in taken}) == 2


class _NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("horner_many started a thread")


@pytest.mark.parametrize("workers,n", [(8, 0), (8, 1), (8, _BLOCK),
                                       (8, 2 * _BLOCK - 1), (1, 100_000)])
def test_horner_many_starts_no_thread_below_two_blocks_or_one_worker(
        monkeypatch, workers, n):
    monkeypatch.setattr(exact, "_WORKERS", workers)
    monkeypatch.setattr(threading, "Thread", _NoThread)
    _assert_same_bits(THREAD_COEFFS, _points(1, n, 2.0))


def test_no_thread_patch_catches_a_thread(monkeypatch):
    monkeypatch.setattr(exact, "_WORKERS", 2)
    monkeypatch.setattr(threading, "Thread", _NoThread)
    with pytest.raises(AssertionError, match="started a thread"):
        horner_many(THREAD_COEFFS, _points(1, 2 * _BLOCK, 2.0))


@pytest.fixture(params=[1, 2, 4])
def helpers_only(request, monkeypatch):
    """Worker count; above one the calling thread leaves every block to
    the helpers, so a floating-point event can only happen in a helper."""
    monkeypatch.setattr(exact, "_WORKERS", request.param)
    if request.param > 1:
        real = exact._horner_blocks
        caller = threading.get_ident()

        def skip_on_caller(*task):
            if threading.get_ident() != caller:
                real(*task)
        monkeypatch.setattr(exact, "_horner_blocks", skip_on_caller)
    return request.param


def _overflow_in_last_of_six_blocks():
    xs = np.ones(6 * _BLOCK)
    xs[-1] = 1e200               # 1e200**2 overflows; every other point is 1
    return xs


def _assert_all_joined(before):
    assert set(threading.enumerate()) <= before


def test_horner_many_raises_a_helpers_overflow_under_errstate_raise(helpers_only):
    before = set(threading.enumerate())
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        horner_many([1.0, 1.0, 1.0], _overflow_in_last_of_six_blocks())
    _assert_all_joined(before)


def test_horner_many_raises_a_helpers_warning_turned_error(helpers_only):
    before = set(threading.enumerate())
    with warnings.catch_warnings(), np.errstate(over="warn"):
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            horner_many([1.0, 1.0, 1.0], _overflow_in_last_of_six_blocks())
    _assert_all_joined(before)


def test_horner_many_keeps_errstate_ignore_in_helpers_under_warnings_error(
        helpers_only):
    # cli's fit evaluates under over="ignore" and pytest runs with -W error
    xs = _overflow_in_last_of_six_blocks()
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        got = horner_many([1.0, 1.0, 1.0], xs)
        want = _horner_reference([1.0, 1.0, 1.0], xs)
    assert not np.isfinite(got[-1])
    assert got.tobytes() == want.tobytes()


def test_horner_many_joins_every_helper_when_the_caller_raises(monkeypatch):
    monkeypatch.setattr(exact, "_WORKERS", 4)
    real = exact._horner_blocks
    caller = threading.get_ident()

    class CallerFailed(Exception):
        pass

    def spy(*task):
        if threading.get_ident() == caller:
            raise CallerFailed
        time.sleep(0.2)          # still running when the caller fails
        real(*task)

    monkeypatch.setattr(exact, "_horner_blocks", spy)
    before = set(threading.enumerate())
    with pytest.raises(CallerFailed):
        horner_many(THREAD_COEFFS, _points(2, 6 * _BLOCK, 2.0))
    _assert_all_joined(before)


def test_horner_many_calls_the_callers_error_callback(helpers_only):
    seen = []
    with np.errstate(all="call", call=lambda kind, flag: seen.append(kind)):
        horner_many([1.0, 1.0, 1.0], _overflow_in_last_of_six_blocks())
    assert "overflow" in seen


@pytest.mark.parametrize("preload", [False, True],
                         ids=["futures-unloaded", "futures-loaded"])
def test_horner_many_at_interpreter_exit_runs_on_the_caller(monkeypatch, preload):
    """From an ``atexit`` handler no pool can be made (importing
    ``concurrent.futures`` there fails) or given work (a pool refuses it
    once shutdown began); the calling thread then takes every block, with
    the bits of a one-worker evaluation."""
    n = 3 * _BLOCK + 5
    probe = "\n".join([
        "import atexit, sys",
        "from concurrent.futures import ThreadPoolExecutor" if preload else "",
        "import numpy as np",
        "from biopoly import exact",
        "exact._WORKERS = 2",
        f"xs = np.linspace(-2.0, 2.0, {n})",
        "def at_exit():",
        f"    out = exact.horner_many({THREAD_COEFFS!r}, xs)",
        "    sys.stdout.buffer.write(out.tobytes())",
        "    sys.stdout.flush()",
        "atexit.register(at_exit)",
    ])
    src = Path(exact.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", probe], cwd=src,
                          capture_output=True, check=True, timeout=120)
    assert done.stderr == b""    # an exception in a handler is only printed
    monkeypatch.setattr(exact, "_WORKERS", 1)
    want = horner_many(THREAD_COEFFS, np.linspace(-2.0, 2.0, n))
    assert done.stdout == want.tobytes()
