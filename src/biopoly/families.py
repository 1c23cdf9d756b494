"""Classical orthonormal polynomial families in split-coefficient form.

Four families are supported, two per structural type:

* full-support ladder (p_j = sum_{i=0..j} a_i^j x^i):
    - Legendre, shifted and renormalised to [0, b] with unit weight;
    - Laguerre on [0, inf) with weight e^{-x}.
* parity-support ladder (p_j = sum_{l=0..j//2} a_l^j x^{j-2l}):
    - Legendre on [-1, 1] with unit weight;
    - Chebyshev on [-1, 1] with weight 1/sqrt(1-x^2).

Each coefficient a^j is stored split as ``rat * s_j`` where ``rat`` is an
exact rational and ``s_j = sqrt(norm_sq_j)`` is a per-degree normalisation
shared by the whole row.  Only ``norm_sq_j`` (rational) is ever stored; an
isolated square root never appears, and every quantity the package derives
downstream multiplies two coefficients of the same degree, so the result
stays rational.  For Chebyshev, ``norm_sq_j`` follows the module-wide pi
convention: the stored rational c means c / pi.

Sign conventions match the classical closed forms, including the (-1)^j
prefactor of the shifted Legendre polynomials; they are asserted verbatim
by the test suite against three-term-recurrence reconstructions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

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


def rat_coeff(fam: FamilySpec, j: int, exponent: int) -> Fraction:
    """Rational part of the coefficient of x^exponent in p_j.

    Zero when the exponent is out of range or of the wrong parity for a
    parity-support family,
    so callers can sum over support without case analysis.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    e = exponent
    if e < 0 or e > j:
        return Fraction(0)
    k = fam.kind
    if k is FamilyKind.LEGENDRE_SHIFTED:
        sign = -1 if (e + j) % 2 else 1
        return Fraction(sign * math.comb(j, e) * math.comb(j + e, e)) / fam.b ** e
    if k is FamilyKind.LAGUERRE:
        sign = -1 if e % 2 else 1
        return Fraction(sign * math.comb(j, e), math.factorial(e))
    if (j - e) % 2:
        return Fraction(0)
    l = (j - e) // 2
    if k is FamilyKind.LEGENDRE_SYM:
        sign = -1 if l % 2 else 1
        return Fraction(sign * math.comb(j, l) * math.comb(2 * j - 2 * l, j))
    if j == 0:
        return Fraction(1)
    sign = -1 if l % 2 else 1
    num = sign * j * 2 ** (j - 2 * l) * math.factorial(j - l - 1)
    return Fraction(num, 2 * math.factorial(l) * math.factorial(j - 2 * l))


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
