"""Moment-based polynomial regression and its diagnostics.

The fitting pipeline is deliberately linear-algebra free: a target enters
as a vector of generalised moments

    mu_i = integral  x^i f(x) w(x) dx,      i = 0 .. k,

and the fitted coefficients are the dot products of the moment vector with
the exact biorthogonal rows from :mod:`biopoly.biorth`.  Moments can come
from three sources, recorded in the vector's provenance:

* sampled data on a uniform grid (composite Simpson, carried out exactly
  over the binary values the floats already are: integer sums over one
  power of two, and one division per moment);
* closed forms for the built-in exponential-decay and gamma-density
  targets;
* direct quadrature of a callable target.

Keeping analytic and sampled moments exact (rather than rounding each one
back to float) costs nothing and removes a genuine noise floor: at order
~17 on [0, 1] the inverse-Gram map amplifies incoherent per-moment rounding
of ~1e-16 into ~1e-2 of fitted-function error, which would be visible next
to the quantities reported here.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Union

import numpy as np

from .biorth import BiorthSet, _scales, build, cheapest_removal, downgrade, project
from .exact import INV_PI_FLOAT, RationalLike, ScaleTag, SpaceSpec, Weight, horner_many
from .families import FamilySpec

#: panel count of the composite Simpson rule over a bounded or Chebyshev space
DEFAULT_PANELS = 10_000
#: relative tolerance on the sample spacing for a grid to count as uniform
UNIFORM_GRID_RTOL = 1e-9
#: grid size of max_abs_error against a callable reference
MAX_ERROR_POINTS = 10_001


class UnsupportedSpaceError(ValueError):
    """The requested moment source does not exist for this space."""


class NonUniformGridError(ValueError):
    """Sample abscissae are not uniformly spaced."""


class EvenPanelParityError(ValueError):
    """Composite Simpson needs an odd number of points (even panel count)."""


class MomentShortfallError(ValueError):
    """Fewer moments supplied than the construction order needs."""


# ----------------------------------------------------------------------
# data carriers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSet:
    """Observations (x_i, y_i) with strictly increasing abscissae."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if len(xs) < 3:
            raise ValueError("need at least 3 samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("sample values must be finite (no nan or inf)")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("sample abscissae must be strictly increasing")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class MomentVector:
    """Generalised moments mu_0..mu_k of one target in one space.

    ``mu`` is the float contract every consumer can rely on; ``mu_exact``
    is kept alongside whenever the source allows and is preferred by the
    projection to avoid re-rounding.
    """

    mu: tuple[float, ...]
    space: SpaceSpec
    provenance: str
    mu_exact: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.mu_exact is not None and len(self.mu_exact) != len(self.mu):
            raise ValueError("mu_exact must match mu in length")

    @property
    def order(self) -> int:
        return len(self.mu) - 1

    def exact_values(self) -> tuple[Fraction, ...]:
        if self.mu_exact is not None:
            return self.mu_exact
        return tuple(Fraction(m) for m in self.mu)


@dataclass(frozen=True)
class FitModel:
    """A fitted polynomial sum(c_n x^n over active exponents n).

    ``coeffs`` are floats ready for evaluation (the family's 1/pi scale,
    if any, already applied).  The exact rational parts behind them are
    kept as integer ``numerators`` y_n over one positive ``denominator``
    den, c_n = D_n y_n / den with D_n the family's monomial scale; each
    float is one correctly rounded integer division.  ``coeffs_exact``
    normalises them to ``Fraction``s on first read (``None`` for a
    float-only model such as ``cli.load_model`` returns).
    ``diagnostics`` starts empty; callers record the error figures they
    compute there.
    """

    family: FamilySpec
    k: int
    exponents: tuple[int, ...]
    coeffs: tuple[float, ...]
    removed: tuple[int, ...] = ()
    diagnostics: dict = field(default_factory=dict)
    numerators: tuple[int, ...] | None = field(default=None, repr=False)
    denominator: Fraction | None = field(default=None, repr=False)

    @classmethod
    def from_projection(cls, s: BiorthSet, numerators: tuple[int, ...],
                        denominator: Fraction) -> "FitModel":
        factor = INV_PI_FLOAT if s.family.poly_scale is ScaleTag.INV_PI else 1.0
        d = _scales(s.family, s.k)
        den_n, den_d = denominator.numerator, denominator.denominator
        # int / int is correctly rounded: the same float as float(c_n)
        coeffs = tuple((y * d[n].numerator * den_d) / (d[n].denominator * den_n)
                       * factor for n, y in zip(s.active, numerators))
        return cls(family=s.family, k=s.k, exponents=tuple(s.active),
                   coeffs=coeffs, numerators=numerators, denominator=denominator)

    @functools.cached_property
    def coeffs_exact(self) -> tuple[Fraction, ...] | None:
        """c_n as normalised ``Fraction``s, built on first read."""
        if self.numerators is None:
            return None
        d = _scales(self.family, self.k)
        den_n, den_d = self.denominator.numerator, self.denominator.denominator
        return tuple(Fraction(y * d[n].numerator * den_d, d[n].denominator * den_n)
                     for n, y in zip(self.exponents, self.numerators))

    @property
    def n_params(self) -> int:
        return len(self.exponents)

    def dense_coeffs(self) -> np.ndarray:
        """Float coefficients on the full 0..k exponent range (zeros filled)."""
        dense = np.zeros(self.k + 1)
        for n, c in zip(self.exponents, self.coeffs):
            dense[n] = c
        return dense

    def __call__(self, xs) -> np.ndarray:
        return horner_many(self.dense_coeffs(), np.asarray(xs, dtype=float))


# ----------------------------------------------------------------------
# moment sources
# ----------------------------------------------------------------------

def moments_from_samples(samples: SampleSet, space: SpaceSpec,
                         k: int) -> MomentVector:
    """Composite-Simpson moments of sampled data on a uniform grid.

    Only bounded intervals with unit weight make sense here (a finite grid
    cannot carry a half-line integral); anything else raises
    :class:`UnsupportedSpaceError`.  The Simpson sum is exact over the
    samples' binary float values: x and y are integers over one power of
    two each, so a moment is one integer sum, divided once.  Repeated runs
    are bit-identical and the only approximation is Simpson's own O(h^4)
    truncation.
    """
    if space.weight is not Weight.UNIT:
        raise UnsupportedSpaceError(
            "sampled moments need a bounded interval with unit weight")
    xs, w, h = _simpson(samples)
    n = len(xs)
    if not np.allclose(np.diff(xs), h, rtol=UNIFORM_GRID_RTOL,
                       atol=abs(h) * UNIFORM_GRID_RTOL):
        raise NonUniformGridError("sample grid is not uniform")

    xi, ex = _dyadic(xs)
    yi, ey = _dyadic(samples.ys)
    wy = list(map(mul, w.astype(int).tolist(), yi))
    span = xi[-1] - xi[0]                 # (b - a) * 2**ex
    pows = [1] * n
    exact = []
    for i in range(k + 1):
        if i:
            pows = list(map(mul, pows, xi))
        # (h/3) * sum_j w_j y_j x_j^i, with h = span / ((n - 1) * 2**ex)
        exact.append(Fraction(span * sum(map(mul, pows, wy)),
                              (3 * (n - 1)) << (ey + (i + 1) * ex)))
    return MomentVector(mu=tuple(float(e) for e in exact), space=space,
                        provenance=f"simpson-samples(n={n})",
                        mu_exact=tuple(exact))


def _dyadic(values: np.ndarray) -> tuple[list[int], int]:
    """Integers N_j and one exponent e with values[j] == N_j / 2**e exactly."""
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    e = max(d.bit_length() for _, d in ratios) - 1
    return [num << (e + 1 - d.bit_length()) for num, d in ratios], e


def _decay_ladder(space: SpaceSpec, alpha: Fraction, n: int) -> list[Fraction]:
    """I_0..I_n, I_i = integral of x^i e^{-alpha x} under the space's weight,
    by parts: I_0 = (1 - E)/a, I_i = (i I_{i-1} - b^i E)/a.

    Half line (weight e^{-x}): a = alpha + 1 and E = 0, so I_i = i!/a^{i+1}.
    Bounded [0, b] (unit weight): a = alpha and E = e^{-alpha b}, promoted
    from its float value (the only non-rational ingredient).
    """
    if space.weight is Weight.EXP_NEG:
        a, b, e = alpha + 1, 0, Fraction(0)
    elif space.weight is Weight.UNIT and space.lo == 0:
        a, b, e = alpha, space.hi, Fraction(math.exp(-float(alpha * space.hi)))
    else:
        raise UnsupportedSpaceError(
            "decay moments exist for the half line and [0, b] only")
    ladder: list[Fraction] = []
    b_pow = 1
    for i in range(n + 1):
        ladder.append(((i * ladder[-1] if i else 1) - b_pow * e) / a)
        b_pow *= b
    return ladder


def moments_expdecay(space: SpaceSpec, k: int,
                     alpha: RationalLike = 1) -> MomentVector:
    """Closed-form moments of f(x) = e^{-alpha x}.

    Half line (weight e^{-x}):  mu_i = i! / (alpha+1)^{i+1}, exactly.
    Bounded [0, b] (unit weight): the same ladder against e^{-alpha b}.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    exact = tuple(_decay_ladder(space, alpha, k))
    return MomentVector(mu=tuple(float(e) for e in exact), space=space,
                        provenance=f"analytic-expdecay(alpha={alpha})",
                        mu_exact=exact)


def moments_gamma(space: SpaceSpec, k: int) -> MomentVector:
    """Closed-form moments of the gamma-density target f(x) = x e^{-x}.

    These are the alpha = 1 decay moments shifted up one power; on the
    half line they collapse to mu_i = (i+1)! / 2^{i+2}.
    """
    exact = tuple(_decay_ladder(space, Fraction(1), k + 1)[1:])
    return MomentVector(mu=tuple(float(e) for e in exact), space=space,
                        provenance="analytic-gamma",
                        mu_exact=exact)


def _simpson(where: SpaceSpec | SampleSet) -> tuple[np.ndarray, np.ndarray, float]:
    """Composite-Simpson nodes, weights 1, 4, 2, ..., 4, 1 and step h: over
    a sample set's own abscissae, or DEFAULT_PANELS equal panels over a
    bounded space (in theta, x = cos(theta), for the Chebyshev weight, which
    removes both endpoint singularities)."""
    if isinstance(where, SampleSet):
        xs = where.xs
        h = (xs[-1] - xs[0]) / (len(xs) - 1)
    elif where.weight is Weight.UNIT:
        xs = np.linspace(float(where.lo), float(where.hi), DEFAULT_PANELS + 1)
        h = (float(where.hi) - float(where.lo)) / DEFAULT_PANELS
    elif where.weight is Weight.CHEBYSHEV:
        xs = np.cos(np.linspace(0.0, math.pi, DEFAULT_PANELS + 1))
        h = math.pi / DEFAULT_PANELS
    else:
        raise UnsupportedSpaceError(
            "composite Simpson covers bounded and Chebyshev spaces only")
    if len(xs) % 2 == 0:
        raise EvenPanelParityError(
            f"composite Simpson needs an odd point count, got {len(xs)}")
    w = np.full(len(xs), 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return xs, w, h


def moments_quadrature(fn: Callable[[np.ndarray], np.ndarray],
                       space: SpaceSpec, k: int) -> MomentVector:
    """Composite-Simpson moments of a callable target.

    Bounded unit-weight and Chebyshev spaces only: the built-in half-line
    targets all have closed forms.
    """
    xs, w, h = _simpson(space)
    base = fn(xs)
    w = w * (h / 3.0)
    mu = []
    pw = np.ones_like(xs)
    for i in range(k + 1):
        if i:
            pw = pw * xs
        mu.append(float(np.dot(w, pw * base)))
    return MomentVector(mu=tuple(mu), space=space,
                        provenance=f"simpson-function(panels={DEFAULT_PANELS})")


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------

def fit(fam: FamilySpec, k: int, moments: MomentVector,
        removals: int = 0) -> FitModel:
    """Project onto order k, then greedily remove ``removals`` exponents.

    Each removal step picks the exponent whose deletion costs the least
    squared error on the current (already pruned) set and drops it.  The
    fit projects once: removing l updates every remaining coefficient by
    the exact identity c_n <- c_n - (G[l][n] / G[l][l]) c_l, which equals
    re-projecting onto the pruned set, so the selection still sees the
    pruned set's own coefficients every round.  The update runs on the
    integer numerators, y_n <- (K[l][l] y_n - K[l][n] y_l) / c and
    den <- den K[l][l] / c, with c the content ``downgrade`` divides out
    of K; the division is exact because y = K nu.
    """
    if moments.order < k:
        raise MomentShortfallError(
            f"order {k} fit needs moments up to {k}, got {moments.order}")
    if not 0 <= removals <= k:
        raise ValueError("removals must leave at least one active exponent")
    s = build(fam, k)
    model = project(s, moments)
    removed = []
    for _ in range(removals):
        ell = cheapest_removal(s, model.coeffs)
        pruned = downgrade(s, ell)
        row_l = s.kmat[ell]
        a = row_l[ell]
        c = (s.q * a / pruned.q).numerator   # the content downgrade divided out
        y_l = model.numerators[s.active.index(ell)]
        numerators = tuple((a * y - row_l[n] * y_l) // c
                           for n, y in zip(s.active, model.numerators) if n != ell)
        model = FitModel.from_projection(pruned, numerators,
                                         model.denominator * a / c)
        s = pruned
        removed.append(ell)
    return dataclasses.replace(model, removed=tuple(removed))


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

Reference = Union[Callable[[np.ndarray], np.ndarray], SampleSet]


def l2_error(model: FitModel, reference: Reference) -> float:
    """Weighted L2 norm of (reference - model) over the model's space.

    A callable reference is integrated over the whole space; bounded
    intervals use composite Simpson, the half line uses Gauss-Laguerre
    nodes so the polynomial part of the residual is integrated without
    a truncation tail.  A SampleSet reference integrates the squared
    residual over the sampled grid with composite Simpson.
    """
    space = model.family.space
    if isinstance(reference, SampleSet):
        xs, w, h = _simpson(reference)
        ys = reference.ys
    elif space.weight is Weight.EXP_NEG:
        # half line: the weight is built into Gauss-Laguerre nodes, which
        # integrate the polynomial part of the squared residual exactly (no
        # truncation tail, which matters for the removal error identity)
        xs, ws = np.polynomial.laguerre.laggauss(96)
        resid2 = (reference(xs) - model(xs)) ** 2
        return math.sqrt(abs(float(np.dot(ws, resid2))))
    else:
        xs, w, h = _simpson(space)
        ys = reference(xs)
    resid2 = (ys - model(xs)) ** 2
    return math.sqrt(abs(np.dot(w, resid2) * h / 3.0))


def space_measure(space: SpaceSpec) -> float:
    """Total mass of the space's weight: the normaliser for mean-square error."""
    if space.weight is Weight.UNIT:
        return float(space.hi) - float(space.lo)
    if space.weight is Weight.CHEBYSHEV:
        return math.pi
    return 1.0  # integral of e^{-x} over the half line


def rms_error(model: FitModel, reference: Reference) -> float:
    """Measure-normalised (root-mean-square) form of :func:`l2_error`.

    Dividing the weighted L2 norm by the square root of the weight's
    total mass makes errors comparable across intervals of different
    length and across weights: the value is the RMS deviation under the
    weight, the same number a discrete RMS over equidistributed points
    converges to.
    """
    return l2_error(model, reference) / math.sqrt(
        space_measure(model.family.space))


def max_abs_error(model: FitModel, reference: Reference) -> float:
    """Max |reference - model| at the samples, or on a dense grid over the
    model's interval (the [0, 10] reporting window for half-line models).
    """
    if isinstance(reference, SampleSet):
        return float(np.max(np.abs(reference.ys - model(reference.xs))))
    space = model.family.space
    hi = 10.0 if space.hi is None else float(space.hi)
    xs = np.linspace(float(space.lo), hi, MAX_ERROR_POINTS)
    return float(np.max(np.abs(reference(xs) - model(xs))))


def bic_score(model: FitModel, samples: SampleSet) -> float:
    """Bayesian information criterion of the model against sampled data.

    gamma * log(N) + N * log(mean squared residual), natural logarithms,
    with gamma the number of active parameters.  A perfect interpolation
    (zero residual) returns -inf.
    """
    n = len(samples)
    resid = samples.ys - model(samples.xs)
    mse = float(np.mean(resid * resid))
    if mse == 0.0:
        return float("-inf")
    return model.n_params * math.log(n) + n * math.log(mse)
