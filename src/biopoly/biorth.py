"""Biorthogonal companions to the monomials, with exact recursion.

Given an orthonormal family p_0..p_k spanning V_k, this module constructs
the unique polynomials beta_0..beta_k in V_k with

    <beta_n, x^m> = delta_nm        for all n, m <= k,

entirely in exact arithmetic.  The least-squares projection of f onto
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
matrix of V_k.)

Integer kernel: t_j[n] = D_n c_j[n] with c_j[n] an integer, and only the
scale D_n depends on the family: b^-n for legendre0b, 1/n! for laguerre
and 1 for legendre and chebyshev.  A set therefore stores G as

    G = D K D / q,        K = sum_j (q d_j) c_j c_j^T,

one integer matrix K and one positive rational q (at build, the least
common multiple of the denominators of the d_j, so that every weight
q d_j is an integer).  ``BiorthSet.g`` is a derived view: G as
``Fraction`` entries, computed from K, D and q on first use and cached.
Four operations stay in integers:

* ``build``    - add the rank-one terms of degrees 0..k.  Sets are
  immutable, so ``build`` is memoised per (family, k) and callers share
  one set.
* ``upgrade``  - extend a full set from order k to k+1 by adding the one
  integer rank-one term of degree k+1 (after rescaling K when q gains a
  factor, as it does by 4 per order for legendre); no previously
  computed quantity is redone.
* ``downgrade`` - remove one monomial exponent l from the active set by a
  single fraction-free elimination step

      K' = (K[l][l] K - K_l K_l^T) / c,        q' = q K[l][l] / c,

  where c is the content (the gcd of all entries) of the numerator.  This
  is the Schur complement G' = G - G_l G_l^T / G[l][l], the rank-one update
  beta_n' = beta_n - beta_l <beta_l, beta_n> / <beta_l, beta_l>: it
  re-biorthogonalises the remaining rows against the remaining monomials
  and updates their Gram entries in the same pass.  Bareiss (1968) divides
  by the previous pivot instead, which is exact too, but leaves each entry
  a minor of the full set's K that gains about K's bit size per removal;
  dividing out the whole content removes most of that growth.
* ``project``  - c_n = D_n y_n / den with y_n = sum_m K[n][m] nu_m, where
  nu / nu_den = D mu brings the moments to one denominator once per call
  and den = q nu_den.  Each numerator y_n is one integer dot product with
  a row of K; the model keeps these integers and their one denominator,
  rounds c_n to float by one correctly rounded integer division, and
  normalises the ``Fraction`` coefficients only when they are read.

Removing l changes every remaining coefficient by the same exact identity,
c_n <- c_n - (G[l][n] / G[l][l]) c_l, which on the numerators is the
fraction-free step of ``downgrade``:

    y_n' = (K[l][l] y_n - K[l][n] y_l) / c,        den' = den K[l][l] / c,

exact because y' = K' nu.  So a greedy pruning loop projects once and
updates its integers (``regress.fit``).  ``select_removal`` and that loop
rank removals with one scoring helper, ``cheapest_removal``.

For parity-support families t_j[n] vanishes unless j - n is even, so G is
zero between exponents of opposite parity.  For Chebyshev sets all stored
rationals carry the package-wide 1/pi convention, which cancels in every
ratio the recursions use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .exact import ExactPoly
from .families import FamilyKind, FamilySpec, norm_sq, rat_coeff

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

    ``kmat`` is the symmetric (k+1) x (k+1) integer matrix K with
    G = D K D / q, where D_n = ``_scales(family, k)[n]``.  Row n of G holds the
    monomial coefficients of beta_n, which are also its Gram entries
    <beta_n, beta_m>; the rows and columns of removed exponents are zero.
    Immutable; ``upgrade`` and ``downgrade`` return new sets.
    """

    family: FamilySpec
    k: int
    active: tuple[int, ...]
    kmat: tuple[tuple[int, ...], ...]
    q: Fraction

    @property
    def is_full(self) -> bool:
        return len(self.active) == self.k + 1

    @functools.cached_property
    def g(self) -> tuple[tuple[Fraction, ...], ...]:
        """G as exact rationals: a view derived from K, D and q."""
        d = _scales(self.family, self.k)
        return tuple(tuple(x * (dn * dm) / self.q for x, dm in zip(row, d))
                     for row, dn in zip(self.kmat, d))

    def beta(self, n: int) -> ExactPoly:
        if n not in self.active:
            raise NotActiveError(n)
        return ExactPoly(self.g[n], self.family.poly_scale)

    def gram_entry(self, n: int, m: int) -> Fraction:
        """Exact <beta_n, beta_m> (rational part; /pi implied for Chebyshev)."""
        if n not in self.active or m not in self.active:
            raise NotActiveError((n, m))
        d = _scales(self.family, self.k)
        return self.kmat[n][m] * (d[n] * d[m]) / self.q


@functools.cache
def _scales(fam: FamilySpec, k: int) -> tuple[Fraction, ...]:
    """D_0..D_k: the family's factor of each monomial coefficient."""
    if fam.kind is FamilyKind.LEGENDRE_SHIFTED:
        return tuple(1 / fam.b ** n for n in range(k + 1))
    if fam.kind is FamilyKind.LAGUERRE:
        return tuple(Fraction(1, math.factorial(n)) for n in range(k + 1))
    return (Fraction(1),) * (k + 1)


@functools.cache
def _integer_row(fam: FamilySpec, j: int) -> tuple[int, ...]:
    """c_j: the coefficients of x^0..x^j in p_j over D, integers (memoised)."""
    row = [rat_coeff(fam, j, n) / dn for n, dn in enumerate(_scales(fam, j))]
    assert all(c.denominator == 1 for c in row), (fam, j)
    return tuple(c.numerator for c in row)


def _add_term(kmat: list[list[int]], w: int, c: Sequence[int]) -> None:
    """Add the rank-one term w c c^T to ``kmat`` in place."""
    support = [(n, cn) for n, cn in enumerate(c) if cn]
    for i, (n, cn) in enumerate(support):
        wn = w * cn
        row = kmat[n]
        for m, cm in support[i:]:
            row[m] += wn * cm
            kmat[m][n] = row[m]


def _full_set(fam: FamilySpec, kmat: list[list[int]], q: int) -> BiorthSet:
    k = len(kmat) - 1
    return BiorthSet(fam, k, tuple(range(k + 1)), tuple(map(tuple, kmat)),
                     Fraction(q))


@functools.cache
def build(fam: FamilySpec, k: int) -> BiorthSet:
    """Construct the full biorthogonal set of order k (memoised)."""
    if k < 0:
        raise ValueError("order k must be nonnegative")
    d = [norm_sq(fam, j) for j in range(k + 1)]
    q = math.lcm(*(dj.denominator for dj in d))
    kmat = [[0] * (k + 1) for _ in range(k + 1)]
    for j, dj in enumerate(d):
        _add_term(kmat, (q * dj).numerator, _integer_row(fam, j))
    return _full_set(fam, kmat, q)


def upgrade(s: BiorthSet) -> BiorthSet:
    """Extend a full set from order k to order k+1 incrementally.

    Every row n gains t_{k+1}[n] * p_{k+1}, and the new row k+1 is a single
    multiple of p_{k+1}: both are the rank-one term of degree k+1, added
    to the padded matrix.
    """
    if not s.is_full:
        raise UpgradeAfterRemovalError(
            "cannot upgrade a set after removals; rebuild at the new order")
    j = s.k + 1
    d = norm_sq(s.family, j)
    q = math.lcm(s.q.numerator, d.denominator)  # a full set's q is an integer
    f = q // s.q.numerator
    kmat = [[f * x for x in row] + [0] for row in s.kmat]
    kmat.append([0] * (j + 1))
    _add_term(kmat, (q * d).numerator, _integer_row(s.family, j))
    return _full_set(s.family, kmat, q)


def downgrade(s: BiorthSet, ell: int) -> BiorthSet:
    """Remove exponent ``ell`` from the active set.

    One fraction-free elimination step on K with pivot K[ell][ell]: row n
    becomes (K[ell][ell] * row n - K[ell][n] * row ell) / c, exactly, where
    c is the gcd of all entries of that numerator, and q absorbs
    K[ell][ell] / c.  On G this is the Schur-complement step that keeps
    the remaining rows biorthogonal to the remaining monomials.  Row and
    column ``ell`` become zero.
    """
    if ell not in s.active:
        raise NotActiveError(ell)
    if len(s.active) == 1:
        raise LastElementError("cannot remove the only active exponent")
    row_l = s.kmat[ell]
    a = row_l[ell]
    rows = [[a * x - k_ln * y for x, y in zip(row, row_l)] if k_ln
            else [a * x for x in row]
            for row, k_ln in zip(s.kmat, row_l)]
    c = math.gcd(*(x for row in rows for x in row))
    kmat = tuple(tuple(x // c for x in row) for row in rows)
    active = tuple(n for n in s.active if n != ell)
    return BiorthSet(s.family, s.k, active, kmat, s.q * a / c)


def project(s: BiorthSet, moments: "MomentVector") -> "FitModel":
    """Least-squares coefficients <f, beta_n> for all active n.

    The dot products are exact (float moments are promoted to the
    rationals they already are) and fraction-free: the numerators of
    D mu over one common denominator, dotted with an integer row of K,
    give one integer numerator per coefficient over one shared
    denominator.  Each coefficient is rounded to float exactly once, and
    the ``Fraction``s are built only if ``coeffs_exact`` is read.  So the
    huge cancellations inside high-order beta rows cost no precision:
    order ~36 fits come out clean where solved normal equations lose
    everything.
    """
    from .regress import FitModel, MomentShortfallError

    mu = moments.exact_values()
    need = max(s.active) + 1
    if len(mu) < need:
        raise MomentShortfallError(
            f"moment vector of length {len(mu)} too short for exponents "
            f"up to {need - 1}")
    d = _scales(s.family, s.k)
    # entries past the largest active exponent are zero, so rows stop at need;
    # nu_num / nu_den == D mu, over one common denominator
    nu = [m * dm for m, dm in zip(mu[:need], d)]
    nu_den = math.lcm(*(x.denominator for x in nu))
    nu_num = [x.numerator * (nu_den // x.denominator) for x in nu]
    # c_n = D_n (K_n . nu_num) / (q nu_den)
    numerators = tuple(sum(map(mul, s.kmat[n], nu_num)) for n in s.active)
    return FitModel.from_projection(s, numerators, s.q * nu_den)


def cheapest_removal(s: BiorthSet, coeffs: Sequence[float]) -> int:
    """Exponent whose removal increases the squared fit error least.

    ``coeffs`` are the float coefficients of the set's active exponents.
    Removing l adds |<f, beta_l>|^2 / ||beta_l||^2 to the squared error,
    so the arg-min of that score is returned; ties break to the smallest
    exponent.  Scores are compared in float (they involve measured
    moments), which is far finer than any tie the data can produce.
    ||beta_n||^2 = G[n][n] = K[n][n] D_n^2 / q is rounded by one correctly
    rounded integer division, the same float as that of the ``Fraction``.
    """
    d = _scales(s.family, s.k)
    qn, qd = s.q.numerator, s.q.denominator
    best_l = None
    best_score = None
    for n, c in zip(s.active, coeffs):
        dn = d[n]
        g_nn = (s.kmat[n][n] * dn.numerator ** 2 * qd) / (dn.denominator ** 2 * qn)
        score = c * c / g_nn
        if best_score is None or score < best_score:
            best_l, best_score = n, score
    return best_l


def select_removal(s: BiorthSet, moments: "MomentVector") -> int:
    """``cheapest_removal`` on the projection of ``moments`` onto ``s``."""
    if len(s.active) == 1:
        raise LastElementError("cannot select a removal from a single element")
    return cheapest_removal(s, project(s, moments).coeffs)
