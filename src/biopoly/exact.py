"""Exact rational polynomials over weighted inner-product spaces, and the
float evaluator of fitted monomial sums.

The inner products and polynomials here are built on ``fractions.Fraction``
so that the algebraic identities the rest of the package relies on
(biorthogonality, recursion consistency, Gram updates) hold exactly, not
merely to rounding.  ``horner_many`` is the one float routine, and the
one here that needs numpy: it and its block helpers import numpy when
they run, so this module, and ``families`` and ``biorth`` above it, load
without numpy.

The one irrational constant the library ever meets is pi, introduced by the
Chebyshev weight 1/sqrt(1-x^2).  It is never materialised inside rational
arithmetic; instead it is tracked symbolically by two conventions:

* ``inner_monomial`` under the Chebyshev weight returns the rational ``r``
  such that the true integral equals ``r * pi``.
* an :class:`ExactPoly` tagged :data:`ScaleTag.INV_PI` stands for
  ``(1/pi) * (stored rational coefficients)``.

``inner_poly`` combines both bookkeeping rules and only returns a value when
the pi factors cancel to a pure rational; otherwise it raises
:class:`ScaleMismatchError`.  A symbolic pi becomes a float in one place,
the table :data:`PI_FLOAT` of pi**p by the ``pi_power`` p in {-1, 0, 1} of a
:class:`ScaleTag` or :class:`SpaceSpec`: a fitted model's 1/pi, the naive
Gram matrix's pi and a space's measure all index it.  Floats enter as
quadrature moments, as exact moments and coefficients rounded to double
once (:class:`FloatRangeError` past the double range), and in
``horner_many``, compensated Horner summation; its docstring tells its
accuracy and how it blocks, chunks and threads the points, none of which
moves a result bit.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[Fraction, int]

#: pi**p as a float by ``pi_power`` p: the one place pi becomes a float.
PI_FLOAT = {-1: 1.0 / math.pi, 0: 1.0, 1: math.pi}


class FloatRangeError(OverflowError):
    """An exact moment or fit coefficient, named with its order, is too
    large for a float."""


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

    Supported, with finite ends stored as ``Fraction``s (anything else raises
    ``ValueError``): a bounded interval with unit weight, the half line [0, inf)
    with weight e^{-x}, and [-1, 1] with the Chebyshev weight 1/sqrt(1-x^2).
    """

    weight: Weight
    lo: Fraction | None
    hi: Fraction | None

    def __post_init__(self):
        try:
            lo, hi = (None if v is None else Fraction(v) for v in (self.lo, self.hi))
        except (OverflowError, ValueError):     # an infinite or nan end
            lo = hi = None                      # matches no space below
        if not (self.weight is Weight.UNIT and None not in (lo, hi) and lo < hi
                or (self.weight, lo, hi) in ((Weight.EXP_NEG, 0, None),
                                             (Weight.CHEBYSHEV, -1, 1))):
            raise ValueError(f"unsupported space: {self.weight} on [{self.lo}, {self.hi}]")
        vars(self).update(lo=lo, hi=hi)

    @classmethod
    def bounded(cls, lo: RationalLike, hi: RationalLike) -> "SpaceSpec":
        return cls(Weight.UNIT, lo, hi)

    @classmethod
    def half_line(cls) -> "SpaceSpec":
        return cls(Weight.EXP_NEG, 0, None)

    @classmethod
    def chebyshev(cls) -> "SpaceSpec":
        return cls(Weight.CHEBYSHEV, -1, 1)

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
#: Also the point-terms per chunk: a block of m points takes its terms
#: r = min(k, max(1, _BLOCK // m)) at a time, in 6r + 3 work rows of m
#: floats, which is never more than a full block's nine
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

    The points go through in blocks of ``_BLOCK``, and per block the split
    of x is computed once.  Only two of the recurrences are sequential in
    the terms: the Horner sum acc <- acc*x + c and the correction
    comp <- comp*x + e.  So a block of m points takes its k terms in chunks
    of r = min(k, max(1, _BLOCK // m)), in two passes over each.  The first
    runs the plain Horner sum term by term, p_i = acc_i*x and
    acc_{i+1} = p_i + c_i, and keeps every acc and p row.  Then the 18
    operations of the error terms, TwoProd(acc_i, x), TwoSum(p_i, c_i) and
    e_i = e1 + e2, each take one ufunc call over the whole (r, m) chunk, and
    the second pass runs comp = comp*x + e_i term by term, straight into the
    result.  That is about 4 + 18/r calls a term where one term at a time
    takes 22: at 201 points and k = 48 the whole sum is one chunk, and a
    full block has r = 1, 22 one-dimensional calls a term.  Every float
    operation gets the same operands as in the loop that takes one term at
    a time, and only operations that do not depend on each other change
    order, so the bits are the same.  A block's 6r + 3 work rows are never
    more than a full block's nine, and nothing is allocated per term.
    With no coefficients the result is the empty sum, +0.0.

    From two blocks on, the blocks are shared out dynamically among
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
    operations on the same operands whatever the block size, chunk length
    or thread count, so the result bits depend on none of them.  Each
    thread runs under the caller's numpy error state (``np.errstate``), and
    once all have finished, an exception raised in the caller, or else the
    first helper's in submission order, is raised here.  The result is a new float64
    array of ``xs``'s shape; ``xs`` is not written.
    """
    import numpy as np
    xs = np.asarray(xs, dtype=float)
    if len(coeffs) == 0:
        coeffs = [0.0]                       # the empty sum
    # Scalars go in as 0-d arrays: a Python float is converted on every
    # call, and a (1,) array takes numpy's slower broadcasting path, whose
    # cost shows on a few hundred points.  And only a block's last call,
    # acc + comp into comp, writes into one of its own inputs: numpy copies
    # an operand that aliases the output of a one-element call first.
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
    import numpy as np
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
    import numpy as np
    k = len(rest)
    cols = np.fromiter(rest, float, k).reshape(k, 1)  # as a column
    work = None
    for lo in starts:
        x = flat[lo:lo + _BLOCK]
        r = max(1, min(k, _BLOCK // x.size))  # terms per chunk
        if work is None or work.size != (6 * r + 3) * x.size:
            # the first block, or the last and shorter one: the old array
            # goes first (its views die with _horner_block's frame), so no
            # two are held at once
            work = None
            work = np.empty((6 * r + 3) * x.size)
        _horner_block(top, rest, cols, r, x, out_flat[lo:lo + x.size], work)


def _horner_block(top: float, rest: list[np.ndarray], cols: np.ndarray,
                  r: int, x: np.ndarray, comp: np.ndarray,
                  work: np.ndarray) -> None:
    """Evaluate one block of points ``x`` into ``comp``, r terms a chunk, in
    the 6r + 3 rows of ``work``."""
    import numpy as np
    split = np.array(_SPLITTER)
    mul, sub, add = np.multiply, np.subtract, np.add
    k, m = len(rest), x.size
    xh, xl = work[:2 * m].reshape(2, m)
    accs = work[2 * m:(r + 3) * m].reshape(r + 1, m)
    rows = work[(r + 3) * m:].reshape(5, r, m)
    p, h, t, u, w = rows
    # the rows used one term at a time, as lists, so a term takes no view;
    # the correction's products all go through one row of t
    A, P, W, tmp = list(accs), list(p), list(w), t[0]
    mul(x, split, h[0])
    sub(h[0], x, tmp)
    sub(h[0], tmp, xh)                       # xh = high half of x
    sub(x, xh, xl)                           # xl = x - xh
    A[0].fill(top)
    comp.fill(0.0)                           # the correction sums in place
    # chunks run down the acc rows and back up in turn, so each starts on
    # the row where the one before ended, with no copy.  A full chunk's
    # error terms take these operands: rows when it has one term, which run
    # on numpy's faster one-dimensional path, else (r, m) blocks.
    ways = []
    for a, stack in ((A, accs), (A[::-1], accs[::-1])):
        if r == 1:
            ways.append((a, (a[0], a[1], P[0], h[0], tmp, u[0], W[0])))
        else:
            ways.append((a, (stack[:-1], stack[1:], *rows)))
    last = A[0]
    for j in range(0, k, r):
        a, ops = ways[j // r % 2]
        if r == 1:
            # one-term chunks, as in full blocks: no loops, whose setup
            # would be most of a term's interpreter time, which other
            # threads wait on under the interpreter lock
            acc, s, pp, hh, tt, uu, ww = ops
            c = rest[j]
            mul(acc, x, pp)                  # 1. p = acc * x, s = p + c
            add(pp, c, s)
            last = s
        else:
            n = min(r, k - j)
            # 1. plain Horner: p_i = acc_i * x, acc_{i+1} = p_i + c_i
            for i in range(n):
                mul(a[i], x, P[i])
                add(P[i], rest[j + i], a[i + 1])
            last = a[n]
            if n < r:                        # the last chunk, a shorter one
                stack = (accs[::-1] if j // r % 2 else accs)[:n + 1]
                ops = (stack[:-1], stack[1:], *rows[:, :n])
            acc, s, pp, hh, tt, uu, ww = ops
            c = cols[j:j + n]
        # 2. the error terms of every term of the chunk at once
        # TwoProd(acc, x) = p + e1, e1 in uu
        mul(acc, split, hh)
        sub(hh, acc, tt)
        sub(hh, tt, uu)                      # uu = high half of acc
        sub(acc, uu, hh)                     # hh = acc - uu
        mul(uu, xh, tt)
        sub(tt, pp, ww)
        mul(uu, xl, tt)
        add(ww, tt, uu)
        mul(hh, xh, tt)
        add(uu, tt, ww)
        mul(hh, xl, tt)
        add(ww, tt, uu)
        # TwoSum(p, c) = s + e2, e2 in tt
        sub(s, pp, tt)
        sub(s, tt, hh)
        sub(pp, hh, ww)
        sub(c, tt, hh)
        add(ww, hh, tt)
        add(uu, tt, ww)                      # ww = e1 + e2
        # 3. the correction: comp = comp * x + (e1 + e2)
        if r == 1:
            mul(comp, x, tmp)
            add(tmp, ww, comp)
        else:
            for i in range(n):
                mul(comp, x, tmp)
                add(tmp, W[i], comp)
    add(last, comp, comp)
