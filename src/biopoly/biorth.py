"""Biorthogonal companions to the monomials, with exact recursion.

Given an orthonormal family p_0..p_k spanning V_k, this module constructs
the unique polynomials beta_0..beta_k in V_k with

    <beta_n, x^m> = delta_nm        for all n, m <= k,

entirely in rational arithmetic.  The least-squares projection of f onto
V_k is then simply  P_k f = sum_n <f, beta_n> x^n : the monomial-basis
coefficients of the fit come from inner products alone, with no linear
system ever solved.

Construction: the coefficient of p_j in beta_n is t_j[n], the rational
part of the coefficient of x^n in p_j.  With d_j the family's ``norm_sq``
of degree j, the monomial coefficients of the rows beta_n form one
symmetric matrix

    G = sum_j d_j t_j t_j^T,

and G is also their Gram matrix: G[n][m] is both the coefficient of x^m
in beta_n and <beta_n, beta_m>.  (G is the inverse of the monomial Gram
matrix of V_k.)  A set stores only G, and three operations stay closed
over exact rationals:

* ``upgrade``  - extend a full set from order k to k+1 by adding the one
  rank-one term of degree k+1; no previously computed quantity is redone.
* ``downgrade`` - remove one monomial exponent l from the active set by a
  single Schur-complement step

      G'[n][m] = G[n][m] - G[l][n] * G[l][m] / G[l][l],

  which is the rank-one update beta_n' = beta_n - beta_l * <beta_l, beta_n>
  / <beta_l, beta_l>: it re-biorthogonalises the remaining rows against the
  remaining monomials and updates their Gram entries in the same pass.
* ``project`` - dot each active row of G with a moment vector.

For parity-support families t_j[n] vanishes unless j - n is even, so G is
zero between exponents of opposite parity.  For Chebyshev sets all stored
rationals carry the package-wide 1/pi convention, which cancels in every
ratio the recursions use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING

from .exact import ExactPoly
from .families import FamilySpec, norm_sq, rat_coeff

if TYPE_CHECKING:  # pragma: no cover
    from .regress import FitModel, MomentVector


class UpgradeAfterRemovalError(ValueError):
    """Order upgrade is only defined on full (never-downgraded) sets."""


class NotActiveError(KeyError):
    """The requested exponent is not in the active set."""


class LastElementError(ValueError):
    """Refusing to downgrade a set with a single active element."""


@dataclass(frozen=True)
class BiorthSet:
    """The rows beta_n of order k for the active exponents n.

    ``g`` is the symmetric (k+1) x (k+1) exact matrix whose row n holds the
    monomial coefficients of beta_n, which are also its Gram entries
    <beta_n, beta_m>.  The rows and columns of removed exponents are zero.
    Immutable; ``upgrade`` and ``downgrade`` return new sets.
    """

    family: FamilySpec
    k: int
    active: tuple[int, ...]
    g: tuple[tuple[Fraction, ...], ...]

    @property
    def is_full(self) -> bool:
        return len(self.active) == self.k + 1

    def beta(self, n: int) -> ExactPoly:
        if n not in self.active:
            raise NotActiveError(n)
        return ExactPoly(self.g[n], self.family.poly_scale)

    def gram_entry(self, n: int, m: int) -> Fraction:
        """Exact <beta_n, beta_m> (rational part; /pi implied for Chebyshev)."""
        if n not in self.active or m not in self.active:
            raise NotActiveError((n, m))
        return self.g[n][m]


def _add_degree(fam: FamilySpec, g: list[list[Fraction]], j: int) -> None:
    """Add the rank-one term d_j t_j t_j^T of degree j to ``g`` in place."""
    t = [rat_coeff(fam, j, e) for e in range(j + 1)]
    d = norm_sq(fam, j)
    for n, tn in enumerate(t):
        if not tn:
            continue
        w = d * tn
        row = g[n]
        for m in range(n, j + 1):
            if t[m]:
                row[m] += w * t[m]
                g[m][n] = row[m]


def _full_set(fam: FamilySpec, g: list[list[Fraction]]) -> BiorthSet:
    k = len(g) - 1
    return BiorthSet(fam, k, tuple(range(k + 1)), tuple(map(tuple, g)))


def build(fam: FamilySpec, k: int) -> BiorthSet:
    """Construct the full biorthogonal set of order k from scratch."""
    if k < 0:
        raise ValueError("order k must be nonnegative")
    g = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    for j in range(k + 1):
        _add_degree(fam, g, j)
    return _full_set(fam, g)


def upgrade(s: BiorthSet) -> BiorthSet:
    """Extend a full set from order k to order k+1 incrementally.

    Every row n gains t_{k+1}[n] * p_{k+1}, and the new row k+1 is a single
    multiple of p_{k+1}: both are the rank-one term of degree k+1, added
    to the padded matrix.
    """
    if not s.is_full:
        raise UpgradeAfterRemovalError(
            "cannot upgrade a set after removals; rebuild at the new order")
    g = [list(row) + [Fraction(0)] for row in s.g]
    g.append([Fraction(0)] * (s.k + 2))
    _add_degree(s.family, g, s.k + 1)
    return _full_set(s.family, g)


def downgrade(s: BiorthSet, ell: int) -> BiorthSet:
    """Remove exponent ``ell`` from the active set.

    One Schur-complement step on the matrix: row n loses G[ell][n] / G[ell][ell]
    times row ell, which keeps the remaining rows biorthogonal to the
    remaining monomials and is the rank-one update of their Gram entries.
    Row and column ``ell`` become zero.  All arithmetic is rational: the
    1/pi factors (Chebyshev) cancel in the correction ratio.
    """
    if ell not in s.active:
        raise NotActiveError(ell)
    if len(s.active) == 1:
        raise LastElementError("cannot remove the only active exponent")
    row_l = s.g[ell]
    g_ll = row_l[ell]
    g = []
    for row, g_ln in zip(s.g, row_l):
        r = g_ln / g_ll
        g.append(tuple(x - r * y for x, y in zip(row, row_l)) if r else row)
    active = tuple(n for n in s.active if n != ell)
    return BiorthSet(s.family, s.k, active, tuple(g))


def project(s: BiorthSet, moments: "MomentVector") -> "FitModel":
    """Least-squares coefficients <f, beta_n> for all active n.

    The dot products are exact (float moments are promoted to the
    rationals they already are) and fraction-free: integer numerators of
    the row and of the moments, over one common denominator each, give one
    ``Fraction`` per coefficient, rounded to float exactly once.  So the
    huge cancellations inside high-order beta rows cost no precision: order
    ~36 fits come out clean where solved normal equations lose everything.
    """
    from .regress import FitModel, MomentShortfallError

    mu = moments.exact_values()
    need = max(s.active) + 1
    if len(mu) < need:
        raise MomentShortfallError(
            f"moment vector of length {len(mu)} too short for exponents "
            f"up to {need - 1}")
    # entries past the largest active exponent are zero, so rows stop at need
    mu_num, mu_den = _common_denominator(mu[:need])
    exact = []
    for n in s.active:
        row_num, den = _common_denominator(s.g[n][:need])
        exact.append(Fraction(sum(map(mul, row_num, mu_num)), den * mu_den))
    return FitModel.from_projection(s, tuple(exact))


def _common_denominator(xs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integers N_i and one D > 0 with xs[i] == N_i / D exactly."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def select_removal(s: BiorthSet, moments: "MomentVector") -> int:
    """Exponent whose removal increases the squared fit error least.

    Removing l adds |<f, beta_l>|^2 / ||beta_l||^2 to the squared error,
    so the arg-min of that score is returned; ties break to the smallest
    exponent.  Scores are compared in float (they involve measured
    moments), which is far finer than any tie the data can produce.
    """
    if len(s.active) == 1:
        raise LastElementError("cannot select a removal from a single element")
    model = project(s, moments)
    best_l = None
    best_score = None
    for n, c in zip(s.active, model.coeffs):
        score = c * c / float(s.gram_entry(n, n))
        if best_score is None or score < best_score:
            best_l, best_score = n, score
    return best_l
