"""Bounded fuzz of the typed-error contract.

Every input the constructors of ``SpaceSpec``, ``FamilySpec``,
``MomentVector``, ``BiorthSet`` and ``FitModel``, and ``cli.load_model``,
are given ends in one of two ways: a value that keeps its invariants, or
an error of a type its docstring names, and so does every ``project``,
``select_removal`` and ``fit`` of a moment vector on a set made here;
every ``biopoly fit`` run through ``cli.main`` ends in exit 0 with both
files written, or exit 2 or 3 with a message and no output directory.
Orders are capped, so no input allocates anything large, and the
invariants are checked here from the value's own fields, not through the
package's helpers.  The ``@example``s
are constructions that once gave a value that broke an invariant (a float
that did not stand for its exact value, a family on another's space, an
order past ``MAX_ORDER``, a model without exact coefficients) or raised an
error that its docstring does not name, or that named no moment.
"""

import contextlib
import dataclasses
import io
import math
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from biopoly.biorth import (BiorthSet, FitModel, LastElementError, MomentShortfallError,
                            MomentSpaceError, MomentVector, fit, project, select_removal)
from biopoly.cli import MAX_ORDER, load_model, main
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
    assert all(type(m) is Fraction for m in mv.mu_exact)
    assert mv.mu == tuple(m.numerator / m.denominator for m in mv.mu_exact)


def _is_moment(m) -> bool:
    """Whether a vector takes ``m`` as an exact moment beside its float."""
    return _outcome(lambda: MomentVector((_as_float(m),), SpaceSpec.bounded(0, 1),
                                         "fuzz", (m,)),
                    TypeError, ValueError, FloatRangeError) is not None


# half the sets are valid, so the moment vectors below reach most of them
SETS = st.one_of(st.tuples(ORDERS, EXPONENTS), st.tuples(
    st.integers(0, 6), st.lists(st.integers(0, 6), unique=True, min_size=1).map(sorted)
).map(lambda ka: (max(ka[0], ka[1][-1]), ka[1])))


@settings(max_examples=400, deadline=None)
@given(fam=st.sampled_from(FAMILIES), k_active=SETS, data=st.data())
def test_biorth_set_is_a_set_or_a_typed_error(fam, k_active, data):
    """A set keeps its invariants, and a drawn moment vector of order
    -1..k+2 on any family's space, projected onto it, asked for its
    cheapest removal, or fitted at its order down to its size, ends in a
    model on its exponents (a removal among them) or in a typed error."""
    s = _outcome(lambda: BiorthSet(fam, *k_active), TypeError, ValueError)
    if s is None:
        return
    _check_ints_and_exponents(s.k, s.active)
    space = data.draw(st.one_of(st.just(fam.space),      # its own, half the time
                                st.sampled_from([f.space for f in FAMILIES])))
    size = data.draw(st.integers(0, s.k + 3))
    mu = data.draw(st.lists(NUMBERS.filter(_is_moment), min_size=size, max_size=size))
    mv = MomentVector(tuple(map(_as_float, mu)), space, "fuzz", tuple(mu))
    typed = MomentShortfallError, MomentSpaceError, LastElementError, FloatRangeError
    projected, fitted = (_outcome(lambda: project(s, mv), *typed),
                         _outcome(lambda: fit(fam, s.k, mv, s.k + 1 - len(s.active)), *typed))
    for model in (m for m in (projected, fitted) if m is not None):
        _check_ints_and_exponents(model.k, model.exponents)
        assert model.k == s.k and len(model.exponents) == len(s.active)
        assert all(type(c) is float and math.isfinite(c) for c in model.coeffs)
    assert projected is None or projected.exponents == s.active
    removal = _outcome(lambda: select_removal(s, mv), *typed)
    assert removal is None or removal in s.active


@settings(max_examples=300, deadline=None)
@given(fam=st.sampled_from(FAMILIES), k=ORDERS, exponents=EXPONENTS,
       numerators=st.one_of(st.lists(st.one_of(
           st.integers(-10 ** 6, 10 ** 6), st.just(10 ** 400)), max_size=4), JUNK),
       denominator=st.one_of(st.fractions(max_denominator=50), JUNK),
       removed=st.one_of(st.none(), st.lists(st.integers(0, 6), max_size=2).map(tuple)))
def test_fit_model_coefficients_stand_for_their_exact_values(
        fam, k, exponents, numerators, denominator, removed):
    """A model's float coefficients are finite, one per exponent, and the
    floats of its exact ones (times 1/pi for Chebyshev)."""
    model = _outcome(lambda: FitModel(fam, k, exponents, numerators, denominator),
                     TypeError, ValueError, FloatRangeError)
    if model is None:
        return
    if removed is not None:
        # ``dataclasses.replace`` passes the numerators back in and rounds
        # the floats again, to an equal model
        replaced = dataclasses.replace(model, removed=removed)
        assert replaced == model and replaced.coeffs == model.coeffs
        model = replaced
    _check_ints_and_exponents(model.k, model.exponents)
    assert len(model.coeffs) == len(model.exponents)
    assert all(type(c) is float and math.isfinite(c) for c in model.coeffs)
    factor = 1 / math.pi if fam.kind is FamilyKind.CHEBYSHEV else 1.0
    assert model.coeffs == tuple(c.numerator / c.denominator * factor
                                 for c in model.coeffs_exact)


JSON_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                      st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
                      st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def _mostly(valid, junk):
    """``valid`` seven times in eight, else ``junk``: most inputs get past
    the first check, so the later ones are reached too."""
    return st.sampled_from([True] * 7 + [False]).flatmap(
        lambda ok: valid if ok else junk)


def _float_text(fam_name, c):
    """The 17-digit float text that ``fit`` writes for the exact ``c``,
    or ``c`` itself when it is no rational or its float is no number."""
    try:
        c = Fraction(c)
        factor = 1 / math.pi if fam_name == FamilyKind.CHEBYSHEV.value else 1.0
        return f"{c.numerator / c.denominator * factor:.17g}"
    except (ArithmeticError, TypeError, ValueError):
        return c


MODEL_KEYS = ["family", "params", "k", "exponents", "coeffs", "coeffs_exact"]


@settings(max_examples=300, deadline=None)
@given(doc=st.fixed_dictionaries({
    "family": _mostly(st.sampled_from([k.value for k in FamilyKind]), JSON_JUNK),
    # "fit's" stands for the params that ``fit`` writes for the family
    "params": _mostly(st.just("fit's"), st.one_of(st.fixed_dictionaries(
        {"b": st.one_of(st.sampled_from(["2", "1/3", "0", "-1", "1/0"]), JSON_JUNK)}),
        JSON_JUNK)),
    "k": _mostly(st.integers(0, MAX_ORDER), st.one_of(
        st.sampled_from([-1, MAX_ORDER + 1, 2 ** 40, -2 ** 40]), JSON_JUNK)),
    "exponents": _mostly(st.lists(st.integers(0, 6), unique=True, min_size=1,
                                  max_size=4).map(sorted), EXPONENTS),
    "coeffs": st.one_of(st.lists(st.one_of(
        st.sampled_from(["1", "-0.5", "nan", "1e400", "x"]), NUMBERS), max_size=4),
        JSON_JUNK),
    "coeffs_exact": _mostly(st.lists(st.one_of(
        st.sampled_from(["1", "-1/2", "1/3", "1e400", "1/0", "x"]), NUMBERS),
        max_size=4), JSON_JUNK)}),
    drop=_mostly(st.none(), st.sampled_from(MODEL_KEYS)), consistent=_mostly(
        st.just(True), st.just(False)))
@example(doc={"family": "laguerre", "params": {}, "k": 2 ** 40, "exponents": [0],
              "coeffs": ["1"], "coeffs_exact": ["1"]}, drop=None, consistent=False)
@example(doc={"family": "chebyshev", "params": {}, "k": 3, "exponents": [1, 3],
              "coeffs": [], "coeffs_exact": ["1/3", "-2"]}, drop=None, consistent=True)
# the dict and 10**400 coefficients once given to FitModel, now only in a
# document; test_cli.py refuses its str and its float-only cases
@example(doc={"family": "laguerre", "params": {}, "k": 0, "exponents": [0],
              "coeffs": {"7": 1}, "coeffs_exact": ["7"]}, drop=None, consistent=False)
@example(doc={"family": "laguerre", "params": {}, "k": 0, "exponents": [0],
              "coeffs": ["1"], "coeffs_exact": [10 ** 400]}, drop=None, consistent=False)
def test_load_model_returns_a_model_within_the_order_bound_or_a_value_error(
        doc, drop, consistent):
    """With ``consistent`` the document has one exact coefficient per
    exponent (padded with 1 or cut), and its ``coeffs`` are the floats that
    ``fit`` would write for them, so documents reach models; ``drop``
    names a key the document lacks."""
    if doc["params"] == "fit's":
        doc["params"] = {"b": "2"} if doc["family"] == "legendre0b" else {}
    exact, exponents = doc["coeffs_exact"], doc["exponents"]
    if consistent and isinstance(exact, list) and isinstance(exponents, list):
        doc["coeffs_exact"] = exact = (exact + ["1"] * len(exponents))[:len(exponents)]
        doc["coeffs"] = [_float_text(doc["family"], c) for c in exact]
    doc.pop(drop, None)
    model = _outcome(lambda: load_model(doc), ValueError)
    if model is not None:
        assert 0 <= model.k <= MAX_ORDER
        _check_ints_and_exponents(model.k, model.exponents)
        assert [f"{c:.17g}" for c in model.coeffs] == [
            f"{float(c):.17g}" for c in doc["coeffs"]]
        assert model.coeffs_exact == tuple(map(Fraction, doc["coeffs_exact"]))


FAMILY_NAMES = [k.value for k in FamilyKind]
CELLS = st.one_of(st.floats(), st.sampled_from(["nan", "1e400", "1e300", "x", "", "1/2"]))


def _interval(family, b):
    """The ends of the family's interval, or (0, 1) where it has none."""
    try:
        hi = float(Fraction(b or 1)) if family == FamilyKind.LEGENDRE_SHIFTED.value else 1.0
    except (ArithmeticError, ValueError):
        hi = 1.0
    return (-1.0 if family == FamilyKind.LEGENDRE_SYM.value else 0.0), hi


@settings(max_examples=80, deadline=None)
@given(family=_mostly(st.sampled_from(FAMILY_NAMES), st.just("legendre1")),
       b=_mostly(st.none(), st.sampled_from(["1", "2", "1/2", "0", "-1", "x", "1/0", "1e-400"])),
       k=_mostly(st.integers(0, 6).map(str), st.sampled_from(
           ["-1", "x", "1.5", str(MAX_ORDER + 1)])),
       removals=st.one_of(st.none(), st.integers(-1, 7)),
       header=_mostly(st.just("x,y"), st.sampled_from(["X, Y", "x,z", "", "x,y,z"])),
       grid=_mostly(st.none(), st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (0.25, 1.0)])),
       n=_mostly(st.sampled_from([3, 5, 9, 17, 33]), st.sampled_from([0, 1, 2, 8])),
       data=st.data())
def test_cli_fit_exits_0_with_both_files_or_2_or_3_with_none(
        family, b, k, removals, header, grid, n, data):
    """A ``biopoly fit`` argument vector and CSV either fit, writing
    model.json (which reloads with its own values) and residuals.csv, or
    exit 2 or 3 with a message on stderr and no output directory.  The
    grid is the family's own interval unless one is drawn."""
    lo, hi = grid or _interval(family, b)
    ys = data.draw(_mostly(st.lists(st.floats(-4, 4), min_size=n, max_size=n),
                           st.lists(CELLS, min_size=n, max_size=n)), label="ys")
    rows = [f"{lo + (hi - lo) * j / max(n - 1, 1)!r},{y}" for j, y in enumerate(ys)]
    for _ in range(data.draw(_mostly(st.just(0), st.integers(1, 2)), label="junk rows")):
        rows.insert(data.draw(st.integers(0, len(rows)), label="at"),
                    data.draw(st.sampled_from(["1,2,3", "a", "", "1e400,0"])))
    argv = ["fit", "--family", family, "--k", k]
    argv += [] if b is None else ["--b", b]
    argv += [] if removals is None else ["--removals", str(removals)]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "samples.csv", Path(tmp) / "out"
        src.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv + ["--input", str(src), "--out", str(out)])
            except SystemExit as exc:       # argparse refuses a flag
                code = exc.code
        if code == 0:
            assert sorted(p.name for p in out.iterdir()) == ["model.json", "residuals.csv"]
            model = load_model(out / "model.json")
            assert (model.family.kind.value, model.k) == (family, int(k))
        else:
            assert code in (2, 3) and stderr.getvalue().strip()
            assert not out.exists()
