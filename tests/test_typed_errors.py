"""Bounded fuzz of the typed-error contract.

Every input the constructors of ``SpaceSpec``, ``FamilySpec``,
``MomentVector``, ``BiorthSet`` and ``FitModel``, and ``cli.load_model``,
are given ends in one of two ways: a value that keeps its invariants, or
an error of a type its docstring names.  Orders are capped, so no input
allocates anything large, and the invariants are checked here from the
value's own fields, not through the package's helpers.  The ``@example``s
are constructions that once gave a value that broke an invariant (a float
that did not stand for its exact value, a family on another's space, an
order past ``MAX_ORDER``) or raised an error that its docstring does not
name, or that named no moment.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from biopoly.biorth import BiorthSet, FitModel, MomentVector
from biopoly.cli import MAX_ORDER, load_model
from biopoly.exact import FloatRangeError, SpaceSpec, Weight
from biopoly.families import FamilyKind, FamilySpec

FAMILIES = [FamilySpec.legendre_shifted(1), FamilySpec.legendre_shifted(Fraction(7, 3)),
            FamilySpec.laguerre(), FamilySpec.legendre_sym(), FamilySpec.chebyshev()]

NUMBERS = st.one_of(
    st.integers(-3, 3), st.sampled_from([2 ** 40, -2 ** 40, 10 ** 400]),
    st.floats(), st.fractions(max_denominator=50),
    st.sampled_from([Fraction(10 ** 400, 3), Fraction(1, 10 ** 400)]),
    st.sampled_from(["1/3", "0.5", "nan", "1e400", "1/0", ""]))
JUNK = st.one_of(NUMBERS, st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(0, 3), max_size=3))
# orders and exponents stay small: an exact coefficient at exponent 2**40
# is too large to form at all, so the cap is on the input, not the contract
NOT_AN_INT = st.one_of(st.floats(), st.fractions(max_denominator=5), st.none(),
                       st.text(max_size=2), st.lists(st.floats(), min_size=1, max_size=2))
ORDERS = st.one_of(st.integers(-1, 6), NOT_AN_INT)
EXPONENTS = st.one_of(st.lists(st.integers(-1, 7), max_size=4),
                      st.lists(st.integers(0, 6), unique=True, min_size=1,
                               max_size=4).map(sorted), NOT_AN_INT)


def _outcome(construct, *allowed):
    """The value ``construct()`` returns, or None for an allowed error."""
    try:
        return construct()
    except allowed:
        return None


def _as_float(m):
    """The float of the exact value of ``m``, or ``m`` if it has none."""
    try:
        return float(Fraction(m))
    except (ArithmeticError, TypeError, ValueError):
        return m


def _check_ints_and_exponents(k, exponents):
    assert type(k) is int
    assert type(exponents) is tuple and exponents and all(type(e) is int for e in exponents)
    assert 0 <= exponents[0] and exponents[-1] <= k
    assert all(a < b for a, b in zip(exponents, exponents[1:]))


@settings(max_examples=150, deadline=None)
@given(weight=st.one_of(st.sampled_from(Weight), JUNK), lo=JUNK, hi=JUNK)
@example(weight=Weight.UNIT, lo=[0], hi=1)      # raised Fraction's TypeError
@example(weight=Weight.UNIT, lo=0, hi="1/0")    # and its ZeroDivisionError
def test_space_spec_is_a_supported_space_or_a_value_error(weight, lo, hi):
    space = _outcome(lambda: SpaceSpec(weight, lo, hi), ValueError)
    if space is not None:
        ends = (space.lo, space.hi)
        assert (space.weight is Weight.UNIT and all(type(v) is Fraction for v in ends)
                and space.lo < space.hi
                or (space.weight, space.lo, space.hi) in (
                    (Weight.EXP_NEG, 0, None), (Weight.CHEBYSHEV, -1, 1)))


@settings(max_examples=150, deadline=None)
@given(kind=st.one_of(st.sampled_from(FamilyKind),
                      st.sampled_from([k.value for k in FamilyKind]), JUNK),
       b=st.one_of(st.none(), JUNK))
@example(kind="laguerre", b=None)       # was kept as a str, on Chebyshev's space
@example(kind=None, b=None)
def test_family_spec_is_a_family_or_a_value_error(kind, b):
    fam = _outcome(lambda: FamilySpec(kind, b), ValueError)
    if fam is not None:
        assert isinstance(fam.kind, FamilyKind)
        if fam.kind is FamilyKind.LEGENDRE_SHIFTED:
            assert type(fam.b) is Fraction and fam.b > 0
            assert (fam.space.lo, fam.space.hi) == (0, fam.b)
        else:
            assert fam.b is None


@settings(max_examples=300, deadline=None)
@given(space=st.sampled_from([f.space for f in FAMILIES]),
       mu=st.lists(NUMBERS, max_size=4),
       exact=st.one_of(st.none(), st.lists(NUMBERS, max_size=4)),
       consistent=st.booleans())
@example(space=SpaceSpec.bounded(0, 1), mu=[0.5, 0.25], exact=[1, 2], consistent=False)
@example(space=SpaceSpec.bounded(0, 1), mu=[1.0, 1.0], exact=[1, math.inf],
         consistent=False)
@example(space=SpaceSpec.bounded(0, 1), mu=[1.0, 1.0], exact=[1, math.nan],
         consistent=False)
def test_moment_vector_floats_stand_for_their_exact_values(space, mu, exact, consistent):
    """A vector's ``mu`` is the float of each ``mu_exact`` entry; a
    moment that is not finite or overflows is refused, naming it."""
    if consistent and exact is not None:        # mu given as the exact floats
        mu = list(map(_as_float, exact))
    try:
        mv = MomentVector(tuple(mu), space, "fuzz",
                          None if exact is None else tuple(exact))
    except (ValueError, FloatRangeError) as exc:
        # a number is named by its moment; a string that is none is float's
        assert any(part in str(exc) for part in (
            "moment mu_", "match mu in length", "could not convert string")), exc
        return
    assert all(type(m) is float and math.isfinite(m) for m in mv.mu)
    if mv.mu_exact is not None:
        assert all(type(m) is Fraction for m in mv.mu_exact)
        assert mv.mu == tuple(m.numerator / m.denominator for m in mv.mu_exact)


@settings(max_examples=150, deadline=None)
@given(fam=st.sampled_from(FAMILIES), k=ORDERS, active=EXPONENTS)
def test_biorth_set_is_a_set_or_a_typed_error(fam, k, active):
    s = _outcome(lambda: BiorthSet(fam, k, active), TypeError, ValueError)
    if s is not None:
        _check_ints_and_exponents(s.k, s.active)


@settings(max_examples=300, deadline=None)
@given(fam=st.sampled_from(FAMILIES), k=ORDERS, exponents=EXPONENTS,
       coeffs=st.one_of(st.none(), st.lists(NUMBERS, max_size=4), JUNK),
       numerators=st.one_of(st.none(), st.lists(st.one_of(
           st.integers(-10 ** 6, 10 ** 6), st.just(10 ** 400)), max_size=4), JUNK),
       denominator=st.one_of(st.fractions(max_denominator=50), JUNK),
       derived=st.booleans())
@example(fam=FamilySpec.laguerre(), k=0, exponents=[0], coeffs=[1.0], numerators=[5],
         denominator=Fraction(1), derived=False)
def test_fit_model_coefficients_stand_for_their_exact_values(
        fam, k, exponents, coeffs, numerators, denominator, derived):
    """A model's float coefficients are finite, one per exponent, and,
    when it has exact ones, their floats (times 1/pi for Chebyshev)."""
    def construct():
        model = FitModel(fam, k, exponents, coeffs, (), numerators, denominator)
        # the floats a model derives pass back in, as ``dataclasses.replace`` does
        return FitModel(fam, k, exponents, model.coeffs, (), numerators,
                        denominator) if derived else model
    # OverflowError: a float-only coefficient past the float range
    model = _outcome(construct, TypeError, ValueError, OverflowError)
    if model is None:
        return
    _check_ints_and_exponents(model.k, model.exponents)
    assert len(model.coeffs) == len(model.exponents)
    assert all(type(c) is float and math.isfinite(c) for c in model.coeffs)
    if model.coeffs_exact is not None:
        factor = 1 / math.pi if fam.kind is FamilyKind.CHEBYSHEV else 1.0
        assert model.coeffs == tuple(c.numerator / c.denominator * factor
                                     for c in model.coeffs_exact)


JSON_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                      st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
                      st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@settings(max_examples=300, deadline=None)
@given(doc=st.fixed_dictionaries({}, optional={
    "family": st.one_of(st.sampled_from([k.value for k in FamilyKind]), JSON_JUNK),
    "params": st.one_of(st.just({}), st.fixed_dictionaries(
        {"b": st.one_of(st.sampled_from(["2", "1/3", "0", "-1", "1/0"]), JSON_JUNK)}),
        JSON_JUNK),
    "k": st.one_of(st.integers(-2, MAX_ORDER + 2), st.sampled_from([2 ** 40, -2 ** 40]),
                   JSON_JUNK),
    "exponents": EXPONENTS,
    "coeffs": st.one_of(st.lists(st.one_of(
        st.sampled_from(["1", "-0.5", "nan", "1e400", "x"]), NUMBERS), max_size=4),
        JSON_JUNK)}))
@example(doc={"family": "laguerre", "params": {}, "k": 2 ** 40, "exponents": [0],
              "coeffs": ["1"]})
def test_load_model_returns_a_model_within_the_order_bound_or_a_value_error(doc):
    model = _outcome(lambda: load_model(doc), ValueError)
    if model is not None:
        assert 0 <= model.k <= MAX_ORDER
        _check_ints_and_exponents(model.k, model.exponents)
        assert len(model.coeffs) == len(model.exponents)
        assert all(math.isfinite(c) for c in model.coeffs)
