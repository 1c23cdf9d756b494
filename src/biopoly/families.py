"""Classical orthonormal polynomial families in split-coefficient form.

Four families are supported, two per structural type:

* full-support ladder (p_j = sum_{i=0..j} a_i^j x^i):
    - Legendre, shifted and renormalised to [0, b] with unit weight;
    - Laguerre on [0, inf) with weight e^{-x}.
* parity-support ladder (p_j = sum_{l=0..j//2} a_l^j x^{j-2l}):
    - Legendre on [-1, 1] with unit weight;
    - Chebyshev on [-1, 1] with weight 1/sqrt(1-x^2).

Each coefficient a_e^j of x^e is stored split as ``c * D_e * s_j``: ``c``
an integer (``int_coeff``), ``D_e`` an exact rational scale of the exponent
alone (b^-e, 1/e! or 1, ``coeff_scales``) and ``s_j = sqrt(norm_sq_j)`` a
per-degree normalisation shared by the whole row; ``rat_coeff`` is the
rational part c D_e.  Only ``norm_sq_j`` (rational) is ever stored; an
isolated square root never appears, and every quantity the package derives
downstream multiplies two coefficients of the same degree, so the result
stays rational.  For Chebyshev, ``norm_sq_j`` follows the module-wide pi
convention: the stored rational c means c / pi.

The integer rows come from one three-term recurrence per family
(``_RECURRENCE``, DLMF 18.9), checked against the classical closed forms in the
tests, and memoised by family kind: legendre0b's are in u = x/b, so every
``b`` shares them.  The scales D_e are memoised here beside them, by spec,
as is ``biorth.build``, the one memo above; a spec's ``b`` is a ``Fraction``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .exact import ExactPoly, RationalLike, ScaleTag, SpaceSpec, inner_poly


class FamilyKind(enum.Enum):
    LEGENDRE_SHIFTED = "legendre0b"
    LAGUERRE = "laguerre"
    LEGENDRE_SYM = "legendre"
    CHEBYSHEV = "chebyshev"


@dataclass(frozen=True)
class FamilySpec:
    """One of the four supported orthonormal families.

    ``kind`` is a ``FamilyKind`` or its value (anything else raises
    ``ValueError``).  ``b`` is the right end of the shifted Legendre interval,
    stored as the exact ``Fraction`` of an int, str, float or ``Fraction``; None
    for the other three.
    """

    kind: FamilyKind
    b: Fraction | None = None

    def __post_init__(self):
        vars(self)["kind"] = FamilyKind(self.kind)
        if self.kind is not FamilyKind.LEGENDRE_SHIFTED:
            if self.b is not None:
                raise ValueError(f"family {self.kind.value} takes no b parameter; "
                                 "only legendre0b does")
            return
        try:    # a str is parsed; None, nan, inf and non-numbers are no b > 0
            b = Fraction(self.b) if isinstance(self.b, str) or 0 < self.b < math.inf else 0
        except ZeroDivisionError:
            raise ValueError("its denominator is zero") from None
        except TypeError:
            b = 0
        if b <= 0:
            raise ValueError("legendre0b needs a rational b > 0")
        vars(self)["b"] = b

    @classmethod
    def legendre_shifted(cls, b: RationalLike | str | float) -> "FamilySpec":
        return cls(FamilyKind.LEGENDRE_SHIFTED, b)

    @classmethod
    def laguerre(cls) -> "FamilySpec":
        return cls(FamilyKind.LAGUERRE)

    @classmethod
    def legendre_sym(cls) -> "FamilySpec":
        return cls(FamilyKind.LEGENDRE_SYM)

    @classmethod
    def chebyshev(cls) -> "FamilySpec":
        return cls(FamilyKind.CHEBYSHEV)

    @functools.cached_property
    def space(self) -> SpaceSpec:
        if self.kind is FamilyKind.LEGENDRE_SHIFTED:
            return SpaceSpec.bounded(0, self.b)
        if self.kind is FamilyKind.LAGUERRE:
            return SpaceSpec.half_line()
        if self.kind is FamilyKind.LEGENDRE_SYM:
            return SpaceSpec.bounded(-1, 1)
        return SpaceSpec.chebyshev()

    @property
    def poly_scale(self) -> ScaleTag:
        """Scale tag of squared-row polynomials: the inverse of the weight's pi power."""
        return ScaleTag(-self.space.pi_power)

    @property
    def name(self) -> str:
        return self.kind.value

    def describe(self) -> str:
        return self.kind.value if self.b is None else f"legendre0b(b={self.b})"


def norm_sq(fam: FamilySpec, j: int) -> Fraction:
    """Squared per-degree normalisation s_j^2, as an exact rational.

    Chebyshev values follow the pi convention (stored c means c / pi).
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    k = fam.kind
    if k is FamilyKind.LEGENDRE_SHIFTED:
        return Fraction(2 * j + 1) / fam.b
    if k is FamilyKind.LAGUERRE:
        return Fraction(1)
    if k is FamilyKind.LEGENDRE_SYM:
        return Fraction(2 * j + 1, 2 ** (2 * j + 1))
    return Fraction(1) if j == 0 else Fraction(2)


#: (a_j, b_j, g_j, d_j) of c_{j+1} = (a_j S(c_j) + b_j c_j - g_j c_{j-1}) / d_j
#: for P_j(2x/b - 1) in u = x/b, L_j, 2^j P_j and T_j
_RECURRENCE = {
    FamilyKind.LEGENDRE_SHIFTED: lambda j: (2 * (2 * j + 1), -(2 * j + 1), j, j + 1),
    FamilyKind.LAGUERRE: lambda j: (-1, 2 * j + 1, j, j + 1),
    FamilyKind.LEGENDRE_SYM: lambda j: (2 * (2 * j + 1), 0, 4 * j, j + 1),
    FamilyKind.CHEBYSHEV: lambda j: (2 if j else 1, 0, 1, 1),
}
#: per family kind, the rows c_{-1} = (), c_0 = (1,), ... formed so far
_ROWS: dict[FamilyKind, tuple[tuple[int, ...], ...]] = {}
_SCALES: dict[FamilySpec, tuple[Fraction, ...]] = {}    # see coeff_scales


def _integer_row(fam: FamilySpec, j: int) -> tuple[int, ...]:
    """c_j, the integers of x^0..x^j in p_j, by one exact recurrence step
    per degree (no recursion).  S shifts a row up one exponent, times
    e + 1 for Laguerre's D_e = 1/e!.  The rows depend on the family's kind
    alone and are memoised by it, so every ``b`` of legendre0b reads the
    same tuples.  Rows grow in a new tuple, published whole, so threads
    racing on a kind form equal rows."""
    kind = fam.kind
    rows = _ROWS.get(kind, ((), (1,)))
    if len(rows) <= j + 1:
        step, shift = _RECURRENCE[kind], kind is FamilyKind.LAGUERRE
        grown = list(rows)
        for i in range(len(rows) - 2, j):
            a, b, g, d = step(i)
            prev, cur = grown[-2:]
            up = (0, *(c * (e + 1) for e, c in enumerate(cur))) if shift else (0, *cur)
            grown.append(tuple((a * u + b * c - g * p) // d for u, c, p
                               in zip_longest(up, cur, prev, fillvalue=0)))
        _ROWS[kind] = rows = tuple(grown)
    return rows[j + 1]


def int_coeff(fam: FamilySpec, j: int, e: int) -> int:
    """c, the integer in the coefficient c D_e s_j of x^e in p_j; zero off
    the row's support (e out of range or of the wrong parity)."""
    if j < 0:
        raise ValueError("degree must be nonnegative")
    return _integer_row(fam, j)[e] if 0 <= e <= j else 0


def coeff_scales(fam: FamilySpec, k: int) -> tuple[Fraction, ...]:
    """D_0..D_k, or more: D_e is the family's factor of every coefficient
    of x^e (b^-e, 1/e! or 1).  One tuple per family spec, grown and
    published whole as ``_ROWS`` is; callers index or zip it."""
    if len(d := _SCALES.get(fam, ())) <= k:
        if fam.kind is FamilyKind.LEGENDRE_SHIFTED:
            new = [1 / fam.b ** e for e in range(len(d), k + 1)]
        elif fam.kind is FamilyKind.LAGUERRE:
            new = [Fraction(1, math.factorial(e)) for e in range(len(d), k + 1)]
        else:
            new = [Fraction(1)] * (k + 1 - len(d))
        _SCALES[fam] = d = d + tuple(new)
    return d


def rat_coeff(fam: FamilySpec, j: int, exponent: int) -> Fraction:
    """Rational part of the coefficient of x^exponent in p_j."""
    c = int_coeff(fam, j, exponent)
    return c * coeff_scales(fam, exponent)[exponent] if c else Fraction(0)


def verify_orthonormal(fam: FamilySpec, kmax: int) -> list[tuple[int, int, Fraction]]:
    """Check <p_n, p_m> == delta_nm exactly for all n, m <= kmax.

    Returns a list of (n, m, rational defect) triples; an empty list means
    the family is exactly orthonormal through degree kmax.  The check works
    entirely on rational parts: one side carries the family's scale tag, so
    the Chebyshev weight's pi cancels the pi in norm_sq.
    """
    space = fam.space
    rows = [[rat_coeff(fam, j, e) for e in range(j + 1)] for j in range(kmax + 1)]
    plain = [ExactPoly.from_coeffs(r) for r in rows]
    tagged = [ExactPoly.from_coeffs(r, fam.poly_scale) for r in rows]
    bad = []
    for n in range(kmax + 1):
        for m in range(n, kmax + 1):
            total = inner_poly(space, tagged[n], plain[m])
            # s_n * s_m (n != m) is irrational: orthogonality must come from
            # the rational bilinear part vanishing identically
            defect = total * norm_sq(fam, n) - 1 if n == m else total
            if defect:
                bad.append((n, m, defect))
    return bad
