"""Exact rational polynomials over weighted inner-product spaces, and the
float evaluator of fitted monomial sums.

The inner products and polynomials here are built on ``fractions.Fraction``
so that the algebraic identities the rest of the package relies on
(biorthogonality, recursion consistency, Gram updates) hold exactly, not
merely to rounding.  ``horner_many`` is the one float routine.

The one irrational constant the library ever meets is pi, introduced by the
Chebyshev weight 1/sqrt(1-x^2).  It is never materialised inside rational
arithmetic; instead it is tracked symbolically by two conventions:

* ``inner_monomial`` under the Chebyshev weight returns the rational ``r``
  such that the true integral equals ``r * pi``.
* an :class:`ExactPoly` tagged :data:`ScaleTag.INV_PI` stands for
  ``(1/pi) * (stored rational coefficients)``.

``inner_poly`` combines both bookkeeping rules and only returns a value when
the pi factors cancel to a pure rational; otherwise it raises
:class:`ScaleMismatchError`.  Floats enter as quadrature moments, as the
coefficients ``FitModel`` rounds to double once, and in the ``horner_many``
evaluator.  It uses compensated Horner summation, as accurate as Horner in
twice the working precision: about 1 ulp while the condition number of p
at x stays below about 2**53, and worse beyond.  The cancelling monomial
coefficients of a high-order fit on [0, b] go past that, and there the
limit is the rounding of the coefficients to double before evaluation, not
the summation.  From two blocks of points on, ``horner_many`` shares its
blocks out dynamically among one thread per CPU this process may run on,
the helpers on a ``concurrent.futures.ThreadPoolExecutor`` that lives for
one call.  The result bits do not depend on the thread count, every thread
runs under the caller's ``np.errstate``, and nothing sets the count but
the CPUs.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
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
# Floating-point evaluation: compensated Horner (Langlois, Graillat and
# Louvet, 2005).  No FMA is assumed, so the product's rounding error comes
# from Dekker splitting with this splitter.
# ----------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1

#: points per block of ``horner_many``; its nine work arrays of this length
#: (128 KB each) stay in a 2 MB per-core L2 cache across all the terms.
_BLOCK = 16384

#: CPUs this process may run on: ``horner_many`` shares its blocks among
#: at most this many threads, the caller's included.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def horner_many(coeffs: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """Compensated Horner evaluation of sum(coeffs[i] * xs**i), vectorised.

    Each Horner step r <- r*x + c is made error-free: TwoProd (Dekker
    splitting) and TwoSum give the rounding errors of the product and the
    sum, and a second Horner recurrence accumulates them into a correction
    added once at the end.  The result r satisfies

        |r - p(x)| <= u |p(x)| + gamma_2n^2 sum_i |c_i| |x|^i,

    for degree n, with u = 2**-53 and gamma_m = m u / (1 - m u): as
    accurate as Horner in twice the working precision, then rounded once.
    That is about 1 ulp only while the condition number
    sum_i |c_i| |x|^i / |p(x)| stays below about 1/u; past that the error
    grows with it.  The coefficients are themselves doubles, each already
    rounded once, and at high order on [0, b] that rounding, amplified by
    the same condition number, is what limits the accuracy of a fit's
    evaluation, not this loop.

    The points go through in blocks of ``_BLOCK``.  Per block the split of
    x is computed once, and each term is a fixed sequence of ufunc calls
    that write into the same work arrays, so no temporary is allocated per
    term.  From two blocks on, the blocks are shared out dynamically among
    one thread per CPU this process may run on (fewer if there are fewer
    blocks), the calling thread included: each takes the next block start
    as it finishes one, so a stalled CPU holds back one block, not a fixed
    share of the points.  The helpers run on a
    ``concurrent.futures.ThreadPoolExecutor`` made for this call and shut
    down before it returns; no pool outlives a call.  Once the interpreter
    has begun to exit, when no pool can be made or given work, the
    calling thread takes every block.  The ufuncs release
    the interpreter lock, so the blocks run in parallel.  There is no
    setting for the thread count.  Every point sees the same float
    operations in the same order whatever the block size or thread count,
    so the result bits depend on neither.  Each thread runs under the
    caller's numpy error state (``np.errstate``), and once all have
    finished, an exception raised in the caller, or else the first helper's
    in submission order, is raised here.  The result is a new float64
    array of ``xs``'s shape; ``xs`` is not written.
    """
    xs = np.asarray(xs, dtype=float)
    # Scalars go in as 0-d arrays: a Python float is converted on every
    # call, and a (1,) array takes numpy's slower broadcasting path, whose
    # cost shows on a few hundred points.  And no call writes into one
    # of its own inputs, because numpy copies an operand that aliases the
    # output of a one-element call first.
    top = float(coeffs[-1])
    rest = [np.array(float(c)) for c in reversed(coeffs[:-1])]
    flat = xs.reshape(-1)
    out = np.empty(xs.shape)
    # next() on a range iterator is one C call, atomic under the
    # interpreter lock, so the threads can share it without a lock
    task = (top, rest, flat, out.reshape(-1), iter(range(0, flat.size, _BLOCK)))
    helpers = min(_WORKERS, flat.size // _BLOCK) - 1
    if helpers < 1:
        _horner_blocks(*task)
    else:
        _horner_shared(task, helpers)
    return out if out.ndim else out[()]


def _horner_shared(task: tuple, helpers: int) -> None:
    """Run ``_horner_blocks(*task)`` on this thread and ``helpers`` more."""
    state, call = np.geterr(), np.geterrcall()

    def helper():
        with np.errstate(call=call, **state):
            _horner_blocks(*task)

    futures = []
    with contextlib.ExitStack() as stack:    # leaving it joins every helper
        try:
            # imported here: its ~6 ms would otherwise start every
            # ``biopoly`` process
            from concurrent.futures import ThreadPoolExecutor
            pool = stack.enter_context(ThreadPoolExecutor(helpers))
            for _ in range(helpers):
                futures.append(pool.submit(helper))
        except RuntimeError:
            # at interpreter exit (in an atexit handler) the import cannot
            # register its own exit hook and a pool takes no new work; the
            # blocks no helper takes are this thread's
            pass
        _horner_blocks(*task)
    for future in futures:
        future.result()          # a helper's exception is raised here


def _horner_blocks(top: float, rest: list[np.ndarray], flat: np.ndarray,
                   out_flat: np.ndarray, starts) -> None:
    """Evaluate the blocks of ``flat`` whose starts this call takes from
    ``starts`` into ``out_flat``, with a work array of its own."""
    split = np.array(_SPLITTER)
    mul, sub, add = np.multiply, np.subtract, np.add
    work = np.empty((9, min(flat.size, _BLOCK)))
    for lo in starts:
        x = flat[lo:lo + _BLOCK]
        m = x.size
        acc, comp, xh, xl, p, h, t, u, w = work[:, :m]
        mul(x, split, t)
        sub(t, x, u)
        sub(t, u, xh)                # xh = high half of x
        sub(x, xh, xl)               # xl = x - xh
        acc.fill(top)
        comp.fill(0.0)
        for c in rest:
            # TwoProd(acc, x) = p + e1, e1 in t
            mul(acc, x, p)
            mul(acc, split, h)
            sub(h, acc, t)
            sub(h, t, u)             # u = high half of acc
            sub(acc, u, h)           # h = acc - u
            mul(u, xh, t)
            sub(t, p, w)
            mul(u, xl, acc)          # acc is scratch until TwoSum
            add(w, acc, t)
            mul(h, xh, acc)
            add(t, acc, w)
            mul(h, xl, acc)
            add(w, acc, t)
            # TwoSum(p, c) = acc + e2, e2 in u
            add(p, c, acc)
            sub(acc, p, u)
            sub(acc, u, h)
            sub(p, h, w)
            sub(c, u, h)
            add(w, h, u)
            # comp = comp * x + (e1 + e2)
            mul(comp, x, w)
            add(t, u, h)
            add(w, h, comp)
        add(acc, comp, out_flat[lo:lo + m])
