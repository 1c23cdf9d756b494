"""Exact rational polynomials over weighted inner-product spaces.

Everything in this module is built on ``fractions.Fraction`` so that the
algebraic identities the rest of the package relies on (biorthogonality,
recursion consistency, Gram updates) hold exactly, not merely to rounding.

The one irrational constant the library ever meets is pi, introduced by the
Chebyshev weight 1/sqrt(1-x^2).  It is never materialised inside rational
arithmetic; instead it is tracked symbolically by two conventions:

* ``inner_monomial`` under the Chebyshev weight returns the rational ``r``
  such that the true integral equals ``r * pi``.
* an :class:`ExactPoly` tagged :data:`ScaleTag.INV_PI` stands for
  ``(1/pi) * (stored rational coefficients)``.

``inner_poly`` combines both bookkeeping rules and only returns a value when
the pi factors cancel to a pure rational; otherwise it raises
:class:`ScaleMismatchError`.  Floating point enters exclusively through the
``horner_many`` evaluator, which uses compensated Horner summation so that
even the wildly cancelling high-order coefficient vectors produced at
degree ~36 evaluate to near full precision.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

RationalLike = Union[Fraction, int]

#: float value of 1/pi used only when materialising INV_PI-scaled quantities.
INV_PI_FLOAT = 1.0 / math.pi


class ScaleMismatchError(ValueError):
    """Raised when pi factors cannot cancel to a rational result."""


class ScaleTag(enum.Enum):
    """Symbolic global factor multiplying all coefficients of a polynomial."""

    ONE = 0
    INV_PI = -1

    @property
    def pi_power(self) -> int:
        return self.value


class Weight(enum.Enum):
    UNIT = "unit"
    EXP_NEG = "exp-neg"
    CHEBYSHEV = "chebyshev"


@dataclass(frozen=True)
class SpaceSpec:
    """An integration domain plus weight function.

    Three combinations are supported: a bounded interval with unit weight,
    the half line [0, inf) with weight e^{-x}, and [-1, 1] with the
    Chebyshev weight 1/sqrt(1-x^2).
    """

    weight: Weight
    lo: Fraction | None
    hi: Fraction | None

    @classmethod
    def bounded(cls, lo: RationalLike, hi: RationalLike) -> "SpaceSpec":
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise ValueError(f"bounded interval needs lo < hi, got [{lo}, {hi}]")
        return cls(Weight.UNIT, lo, hi)

    @classmethod
    def half_line(cls) -> "SpaceSpec":
        return cls(Weight.EXP_NEG, Fraction(0), None)

    @classmethod
    def chebyshev(cls) -> "SpaceSpec":
        return cls(Weight.CHEBYSHEV, Fraction(-1), Fraction(1))

    @property
    def pi_power(self) -> int:
        """Power of pi implicit in rational inner-product values here."""
        return 1 if self.weight is Weight.CHEBYSHEV else 0

    def contains(self, x: float) -> bool:
        if self.hi is None:
            return x >= self.lo
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class ExactPoly:
    """Dense polynomial with exact rational coefficients.

    ``coeffs[i]`` multiplies x^i; trailing zeros are permitted.  ``scale``
    tags an optional global 1/pi factor, which ``inner_poly`` accounts for
    rather than silently coercing.
    """

    coeffs: tuple[Fraction, ...]
    scale: ScaleTag = ScaleTag.ONE

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[RationalLike],
                    scale: ScaleTag = ScaleTag.ONE) -> "ExactPoly":
        return cls(tuple(Fraction(c) for c in coeffs), scale)


def inner_monomial(space: SpaceSpec, i: int, j: int) -> Fraction:
    """Exact <x^i, x^j> in ``space``, as a rational.

    For the Chebyshev weight the returned rational ``r`` means ``r * pi``;
    all other spaces return the value itself.
    """
    if i < 0 or j < 0:
        raise ValueError("monomial exponents must be nonnegative")
    s = i + j
    if space.weight is Weight.UNIT:
        return (space.hi ** (s + 1) - space.lo ** (s + 1)) / (s + 1)
    if space.weight is Weight.EXP_NEG:
        return Fraction(math.factorial(s))
    # Chebyshev: int x^s / sqrt(1-x^2) over [-1,1] is 0 for odd s and
    # pi * binom(s, s/2) / 2^s for even s (Wallis).
    if s % 2:
        return Fraction(0)
    return Fraction(math.comb(s, s // 2), 2 ** s)


def inner_poly(space: SpaceSpec, a: ExactPoly, b: ExactPoly) -> Fraction:
    """Exact <a, b> in ``space`` by bilinear expansion.

    Raises :class:`ScaleMismatchError` unless the pi factors contributed by
    the scale tags and by the Chebyshev weight cancel to a pure rational.
    """
    net = a.scale.pi_power + b.scale.pi_power + space.pi_power
    if net != 0:
        raise ScaleMismatchError(
            f"pi factors do not cancel (net power {net}) for scales "
            f"{a.scale.name}/{b.scale.name} under weight {space.weight.value}")
    total = Fraction(0)
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb:
                total += ca * cb * inner_monomial(space, i, j)
    return total


# ----------------------------------------------------------------------
# Floating-point evaluation.
#
# Error-free transforms; these work elementwise on numpy arrays as well as
# on Python floats.  No FMA is assumed, so TwoProd uses Dekker splitting.
# ----------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


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


def horner_many(coeffs: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """Compensated Horner evaluation of sum(coeffs[i] * xs**i), vectorised.

    Accurate to ~1 ulp of the true value even when intermediate terms are
    ~1e16 times larger than the result, which is routine for the monomial
    coefficient vectors this package produces at high order.
    """
    xs = np.asarray(xs, dtype=float)
    acc = np.full(xs.shape, float(coeffs[-1]))
    comp = np.zeros(xs.shape)
    for c in reversed(coeffs[:-1]):
        p, e1 = _two_prod(acc, xs)
        acc, e2 = _two_sum(p, float(c))
        comp = comp * xs + (e1 + e2)
    return acc + comp
