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
alone (``coeff_scale``: b^-e, 1/e! or 1) and ``s_j = sqrt(norm_sq_j)`` a
per-degree normalisation shared by the whole row; ``rat_coeff`` is the
rational part c D_e.  Only ``norm_sq_j`` (rational) is ever stored; an
isolated square root never appears, and every quantity the package derives
downstream multiplies two coefficients of the same degree, so the result
stays rational.  For Chebyshev, ``norm_sq_j`` follows the module-wide pi
convention: the stored rational c means c / pi.

The integer rows come from one three-term recurrence per family
(``_RECURRENCE``, DLMF 18.9); the test suite asserts them against the
classical closed forms, signs included.
"""

from __future__ import annotations

import enum
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

    ``b`` is the right endpoint of the interval for the shifted Legendre
    family and must be omitted (None) for the other three.
    """

    kind: FamilyKind
    b: Fraction | None = None

    def __post_init__(self):
        if self.kind is FamilyKind.LEGENDRE_SHIFTED:
            if self.b is None or self.b <= 0:
                raise ValueError("legendre0b needs a rational b > 0")
        elif self.b is not None:
            raise ValueError(f"family {self.kind.value} takes no b parameter; "
                             "only legendre0b does")

    @classmethod
    def legendre_shifted(cls, b: RationalLike) -> "FamilySpec":
        return cls(FamilyKind.LEGENDRE_SHIFTED, Fraction(b))

    @classmethod
    def laguerre(cls) -> "FamilySpec":
        return cls(FamilyKind.LAGUERRE)

    @classmethod
    def legendre_sym(cls) -> "FamilySpec":
        return cls(FamilyKind.LEGENDRE_SYM)

    @classmethod
    def chebyshev(cls) -> "FamilySpec":
        return cls(FamilyKind.CHEBYSHEV)

    @property
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
        """Scale tag carried by polynomials assembled from squared rows."""
        return ScaleTag.INV_PI if self.kind is FamilyKind.CHEBYSHEV else ScaleTag.ONE

    @property
    def name(self) -> str:
        return self.kind.value

    def describe(self) -> str:
        if self.kind is FamilyKind.LEGENDRE_SHIFTED:
            return f"legendre0b(b={self.b})"
        return self.kind.value


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
#: per family, the rows c_{-1} = (), c_0 = (1,), ... formed so far
_ROWS: dict[FamilySpec, tuple[tuple[int, ...], ...]] = {}


def _integer_row(fam: FamilySpec, j: int) -> tuple[int, ...]:
    """c_j, the integers of x^0..x^j in p_j, by one exact recurrence step
    per degree (memoised, no recursion).  S shifts a row up one exponent,
    times e + 1 for Laguerre's D_e = 1/e!.  Rows grow in a new tuple,
    published whole, so threads racing on a family form equal rows."""
    rows = _ROWS.get(fam, ((), (1,)))
    if len(rows) <= j + 1:
        step, shift = _RECURRENCE[fam.kind], fam.kind is FamilyKind.LAGUERRE
        grown = list(rows)
        for i in range(len(rows) - 2, j):
            a, b, g, d = step(i)
            prev, cur = grown[-2:]
            up = (0, *(c * (e + 1) for e, c in enumerate(cur))) if shift else (0, *cur)
            grown.append(tuple((a * u + b * c - g * p) // d for u, c, p
                               in zip_longest(up, cur, prev, fillvalue=0)))
        _ROWS[fam] = rows = tuple(grown)
    return rows[j + 1]


def int_coeff(fam: FamilySpec, j: int, e: int) -> int:
    """c, the integer in the coefficient c D_e s_j of x^e in p_j; zero off
    the row's support (e out of range or of the wrong parity)."""
    if j < 0:
        raise ValueError("degree must be nonnegative")
    return _integer_row(fam, j)[e] if 0 <= e <= j else 0


def coeff_scale(fam: FamilySpec, e: int) -> Fraction:
    """D_e: the family's factor of every coefficient of x^e."""
    if fam.kind is FamilyKind.LEGENDRE_SHIFTED:
        return 1 / fam.b ** e
    if fam.kind is FamilyKind.LAGUERRE:
        return Fraction(1, math.factorial(e))
    return Fraction(1)


def rat_coeff(fam: FamilySpec, j: int, exponent: int) -> Fraction:
    """Rational part of the coefficient of x^exponent in p_j."""
    c = int_coeff(fam, j, exponent)
    return c * coeff_scale(fam, exponent) if c else Fraction(0)


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
            if n == m:
                value = total * norm_sq(fam, n)
                expect = Fraction(1)
            else:
                # s_n * s_m is irrational; orthogonality must come from the
                # rational bilinear part vanishing identically
                value = total
                expect = Fraction(0)
            if value != expect:
                bad.append((n, m, value - expect))
    return bad
