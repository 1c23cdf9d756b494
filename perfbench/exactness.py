"""The benchmark's exactness gate, independent of the library's own code.

A least-squares fit on the active exponents A satisfies the normal
equations exactly:

    sum_{n in A} <x^m, x^n> c_n == mu_m        for every m in A,

with <x^m, x^n> the exact monomial inner product of the family's space
(a rational times pi under the Chebyshev weight, which cancels the 1/pi
carried by Chebyshev coefficients) and mu the exact moments the fit was
projected from.  The check holds for any seed and any removal set.

Sampled moments are recomputed here in integer arithmetic (every float
is a dyadic rational, so scaling to a common power of two makes the
composite Simpson sum a sum of Python ints) and cross-checked against a
float Simpson sum.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np


def inner_monomial(weight: str, lo: Fraction, hi: Fraction | None, s: int) -> Fraction:
    """Exact <x^i, x^j> for i + j = s; 'chebyshev' values are in units of pi."""
    if weight == "unit":
        return (hi ** (s + 1) - lo ** (s + 1)) / (s + 1)
    if weight == "exp-neg":
        return Fraction(math.factorial(s))
    if s % 2:
        return Fraction(0)
    return Fraction(math.comb(s, s // 2), 2 ** s)


def space_of(family: str, b: Fraction | None = None):
    """(weight, lo, hi) of one of the four families."""
    if family == "legendre0b":
        return "unit", Fraction(0), Fraction(b)
    if family == "legendre":
        return "unit", Fraction(-1), Fraction(1)
    if family == "laguerre":
        return "exp-neg", Fraction(0), None
    return "chebyshev", Fraction(-1), Fraction(1)


def describe_defects(bad: list[int], exponents) -> str:
    return (f"normal equations fail at {len(bad)} of {len(exponents)} active m "
            f"(first m={bad[0]})")


def normal_equation_defects(space, exponents, coeffs, mu) -> list[int]:
    """Active exponents m whose normal equation does not hold exactly."""
    weight, lo, hi = space
    gram = {}
    bad = []
    for m in exponents:
        total = Fraction(0)
        for n, c in zip(exponents, coeffs):
            s = m + n
            if s not in gram:
                gram[s] = inner_monomial(weight, lo, hi, s)
            total += gram[s] * c
        if total != mu[m]:
            bad.append(m)
    return bad


def _scaled_ints(values) -> tuple[list[int], int]:
    """Integers N_j and one exponent E with values[j] == N_j / 2**E."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = max(d.bit_length() - 1 for _, d in ratios)
    return [n << (e - (d.bit_length() - 1)) for n, d in ratios], e


def simpson_moments_exact(xs: np.ndarray, ys: np.ndarray, k: int) -> list[Fraction]:
    """Exact composite-Simpson moments mu_0..mu_k of (xs, ys) on a uniform grid.

    mu_i = (h/3) * sum_j w_j y_j x_j^i with w = 1, 4, 2, ..., 4, 1 and
    h = (x_last - x_first) / (n - 1), all over the floats' exact values.
    """
    n = len(xs)
    w = [4 if j % 2 else 2 for j in range(n)]
    w[0] = w[-1] = 1
    big_x, ex = _scaled_ints(xs)
    big_y, ey = _scaled_ints(ys)
    wy = [wj * yj for wj, yj in zip(w, big_y)]
    third_h = (Fraction(float(xs[-1])) - Fraction(float(xs[0]))) / (3 * (n - 1))
    out = []
    pows = wy
    for i in range(k + 1):
        if i:
            pows = [p * x for p, x in zip(pows, big_x)]
        out.append(third_h * Fraction(sum(pows), 1 << (ey + i * ex)))
    return out


def simpson_float_mismatch(xs: np.ndarray, ys: np.ndarray, mu_exact, rel_tol=1e-12) -> list[int]:
    """Orders i where a float Simpson sum disagrees with mu_exact[i].

    The tolerance is relative to the sum of absolute terms, which bounds
    the float rounding even when the moment itself cancels to near zero.
    """
    n = len(xs)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    h3 = (xs[-1] - xs[0]) / (n - 1) / 3.0
    bad = []
    pw = np.ones(n)
    for i, m in enumerate(mu_exact):
        if i:
            pw = pw * xs
        terms = w * ys * pw
        scale = float(np.sum(np.abs(terms))) * h3
        if abs(float(np.sum(terms)) * h3 - float(m)) > rel_tol * max(scale, 1e-300):
            bad.append(i)
    return bad


def parse_rational(text: str) -> Fraction:
    """'p/q' or '(p/q)/pi' as written in model.json; the /pi is implied."""
    text = text.strip()
    if text.endswith("/pi"):
        text = text[:-3].strip("()")
    return Fraction(text)


def digest(*parts) -> str:
    """sha256 over the reprs / bytes of the given parts, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()
