"""Moment-based polynomial regression and its diagnostics.

The fitting pipeline is deliberately linear-algebra free: a target enters
as a vector of generalised moments

    mu_i = integral  x^i f(x) w(x) dx,      i = 0 .. k,

and the fitted coefficients are the dot products of the moment vector with
the exact biorthogonal rows from :mod:`biopoly.biorth`.  Moments can come
from three sources, recorded in the vector's provenance; each hands its
moments, exact where it can, to ``MomentVector``, which rounds and checks them:

* sampled data on a uniform grid (composite Simpson, carried out exactly
  over the binary values the floats already are: integer sums over one
  power of two, and one division per moment);
* closed forms for the built-in exponential-decay and gamma-density
  targets;
* direct quadrature of a callable target.

Every error figure a fit reports comes from one path, :func:`error_figures`:
one evaluation on the nodes of :func:`l2_error`'s rule and its residual.
Each rule carries the measure :func:`rms_error` divides by: a sample set's
span xs[-1] - xs[0], or the space's <1, 1> floated by ``exact.PI_FLOAT``
(b - a on a bounded interval, pi under the Chebyshev weight, 1 on the half
line).

Keeping analytic and sampled moments exact (rather than rounding each one
back to float) costs nothing and removes a genuine noise floor: at order
~17 on [0, 1] the inverse-Gram map amplifies incoherent per-moment rounding
of ~1e-16 into ~1e-2 of fitted-function error, which would be visible next
to the quantities reported here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Union

import numpy as np

from .biorth import FitModel, MomentShortfallError, MomentVector, fit
from .exact import PI_FLOAT, RationalLike, SpaceSpec, Weight, inner_monomial

#: panel count of the composite Simpson rule over a bounded or Chebyshev space
DEFAULT_PANELS = 10_000
#: relative tolerance on the sample spacing for a grid to count as uniform
UNIFORM_GRID_RTOL = 1e-9


class UnsupportedSpaceError(ValueError):
    """The requested moment source does not exist for this space."""


class NonUniformGridError(ValueError):
    """Sample abscissae are not uniformly spaced."""


class EvenPanelParityError(ValueError):
    """Composite Simpson needs an odd number of points (even panel count)."""


# ----------------------------------------------------------------------
# data carriers
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleSet:
    """Observations (x_i, y_i) with strictly increasing abscissae, kept as
    read-only copies; two sets compare and hash by identity."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float)
        ys = np.array(self.ys, dtype=float)
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


# ----------------------------------------------------------------------
# moment sources
# ----------------------------------------------------------------------

def moments_from_samples(samples: SampleSet, space: SpaceSpec,
                         k: int) -> MomentVector:
    """Composite-Simpson moments of sampled data on a uniform grid.

    Only bounded intervals with unit weight make sense here (a finite grid
    cannot carry a half-line integral), and the grid must run from end to
    end (to ``UNIFORM_GRID_RTOL`` of a step); anything else raises
    :class:`UnsupportedSpaceError`.  The Simpson sum is exact over the
    samples' binary float values: x and y are integers over one power of
    two each, so a moment is one integer sum, divided once.  One list of
    the integer terms w_j y_j x_j^i is kept and multiplied by x_j once per
    order, so each order costs one product per sample.  Repeated runs
    are bit-identical and the only approximation is Simpson's own O(h^4)
    truncation.
    """
    if space.weight is not Weight.UNIT:
        raise UnsupportedSpaceError(
            "sampled moments need a bounded interval with unit weight")
    xs, w, h = _simpson(samples)
    n = len(xs)
    tol = abs(h) * UNIFORM_GRID_RTOL       # compared exactly, even for a huge b
    if max(abs(Fraction(xs[0]) - space.lo), abs(Fraction(xs[-1]) - space.hi)) > tol:
        raise UnsupportedSpaceError(
            f"samples span [{xs[0]:g}, {xs[-1]:g}], not the whole interval "
            "and no more; sampled moments need a grid that starts and ends "
            "at its ends")

    xi, ex = _dyadic(xs)
    yi, ey = _dyadic(samples.ys)
    terms = list(map(mul, w.astype(int).tolist(), yi))
    span = xi[-1] - xi[0]                 # (b - a) * 2**ex
    exact = []
    for i in range(k + 1):
        if i:
            terms = list(map(mul, terms, xi))   # w_j y_j x_j^i
        # (h/3) * sum_j w_j y_j x_j^i, with h = span / ((n - 1) * 2**ex)
        exact.append(Fraction(span * sum(terms),
                              (3 * (n - 1)) << (ey + (i + 1) * ex)))
    return MomentVector(exact, space, f"simpson-samples(n={n})", exact)


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
    exact = _decay_ladder(space, alpha, k)
    return MomentVector(exact, space, f"analytic-expdecay(alpha={alpha})", exact)


def moments_gamma(space: SpaceSpec, k: int) -> MomentVector:
    """Closed-form moments of the gamma-density target f(x) = x e^{-x}.

    These are the alpha = 1 decay moments shifted up one power; on the
    half line they collapse to mu_i = (i+1)! / 2^{i+2}.
    """
    exact = _decay_ladder(space, Fraction(1), k + 1)[1:]
    return MomentVector(exact, space, "analytic-gamma", exact)


def _simpson(where: SpaceSpec | SampleSet) -> tuple[np.ndarray, np.ndarray, float]:
    """Composite-Simpson nodes, weights 1, 4, 2, ..., 4, 1 and step h: over
    a sample set's own abscissae, or DEFAULT_PANELS equal panels over a
    bounded space (in theta, x = cos(theta), for the Chebyshev weight, which
    removes both endpoint singularities).  A sample set raises
    ``EvenPanelParityError`` for an even count, then ``NonUniformGridError``
    for a step off h by more than ``UNIFORM_GRID_RTOL``: one h cannot sum it."""
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
    if isinstance(where, SampleSet) and not np.allclose(
            np.diff(xs), h, rtol=UNIFORM_GRID_RTOL, atol=abs(h) * UNIFORM_GRID_RTOL):
        raise NonUniformGridError("sample grid is not uniform")
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
    with np.errstate(over="ignore", invalid="ignore"):  # MomentVector refuses nan, inf
        for i in range(k + 1):
            if i:
                pw = pw * xs
            mu.append(float(np.dot(w, pw * base)))
    return MomentVector(mu=tuple(mu), space=space,
                        provenance=f"simpson-function(panels={DEFAULT_PANELS})")


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
    return _residual(model, reference)[2]


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray, None]:
    """96 Gauss-Laguerre nodes and weights, read-only, made on first use,
    and no Simpson step."""
    xs, ws = np.polynomial.laguerre.laggauss(96)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws, None


def _residual(model: FitModel, reference: Reference) -> tuple:
    """The model's values on the nodes of :func:`l2_error`'s rule for
    ``reference``, the residual (reference - model) there, its L2 norm and
    the rule's measure: the samples' span, or the space's zeroth moment."""
    space = model.family.space
    if isinstance(reference, SampleSet):
        (xs, w, h), ys = _simpson(reference), reference.ys
        measure = float(xs[-1] - xs[0])
    else:
        measure = float(inner_monomial(space, 0, 0)) * PI_FLOAT[space.pi_power]
        # the half line takes Gauss-Laguerre nodes, which build in the weight
        # and integrate the polynomial part of the squared residual exactly
        # (no truncation tail, which matters for the removal error identity)
        xs, w, h = (_laguerre_rule() if space.weight is Weight.EXP_NEG
                    else _simpson(space))
        ys = reference(xs)
    values = model(xs)
    resid = ys - values
    sq = np.dot(w, resid ** 2)
    return (values, resid, math.sqrt(abs(sq if h is None else sq * h / 3.0)),
            measure)


def rms_error(model: FitModel, reference: Reference) -> float:
    """:func:`l2_error` over the root of its rule's measure: against a
    SampleSet the samples' span xs[-1] - xs[0], which gives what the
    discrete RMS at the samples converges to; against a callable the
    weight's mass over the space (b - a, pi under the Chebyshev weight, 1
    on the half line), which gives the RMS deviation under the weight."""
    _, _, l2, measure = _residual(model, reference)
    return l2 / math.sqrt(measure)


def max_abs_error(model: FitModel, reference: Reference) -> float:
    """Max |reference - model| at the samples, or at DEFAULT_PANELS + 1
    equispaced points over the model's interval (the [0, 10] reporting
    window for half-line models)."""
    if isinstance(reference, SampleSet):
        return float(np.max(np.abs(reference.ys - model(reference.xs))))
    space = model.family.space
    hi = 10.0 if space.hi is None else float(space.hi)
    xs = np.linspace(float(space.lo), hi, DEFAULT_PANELS + 1)
    return float(np.max(np.abs(reference(xs) - model(xs))))


def bic_score(model: FitModel, samples: SampleSet) -> float:
    """Bayesian information criterion of the model against sampled data.

    gamma * log(N) + N * log(mean squared residual), natural logarithms,
    with gamma the number of active parameters.  A perfect interpolation
    (zero residual) returns -inf.
    """
    return _bic(model.n_params, samples.ys - model(samples.xs))


def _bic(n_params: int, resid: np.ndarray) -> float:
    """``bic_score`` of a model with ``n_params`` active exponents whose
    residual at the samples is ``resid``."""
    n = len(resid)
    mse = float(np.mean(resid * resid))
    if mse == 0.0:
        return float("-inf")
    return n_params * math.log(n) + n * math.log(mse)


def error_figures(model: FitModel,
                  reference: Reference) -> tuple[np.ndarray, dict[str, float]]:
    """The model's values on the nodes of :func:`l2_error`'s rule for
    ``reference``, and its ``l2_error``, ``rms_error``, ``max_abs_error``
    and, against a SampleSet, ``bic``, bit for bit.  The max shares the one
    evaluation where the nodes are :func:`max_abs_error`'s grid too: the
    samples, and on a unit-weight interval the Simpson nodes, which are the
    same ``np.linspace`` call over DEFAULT_PANELS + 1 points."""
    values, resid, l2, measure = _residual(model, reference)
    space, samples = model.family.space, isinstance(reference, SampleSet)
    figures = {"l2_error": l2, "rms_error": l2 / math.sqrt(measure),
               "max_abs_error": float(np.max(np.abs(resid)))
               if samples or space.weight is Weight.UNIT
               else max_abs_error(model, reference)}
    if samples:
        figures["bic"] = _bic(model.n_params, resid)
    return values, figures
