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

Integer kernel: t_j[n] = D_n c_j[n] with c_j[n] = ``families.int_coeff``
an integer, and D_n = ``families.coeff_scale`` a scale that depends only on
the family and the exponent.  A set therefore stores G as

    G = D K D / q,        K = sum_j (q d_j) c_j c_j^T,

one integer matrix K and one positive rational q (for a full set, the
least common multiple of the denominators of the d_j, so that every weight
q d_j is an integer).  ``BiorthSet.g`` is a derived view: G as
``Fraction`` entries, computed from K, D and q on first use and cached.
Four operations stay in integers:

* ``upgrade``  - extend a full set from order k to k+1 in O(k): the new
  set gets its q (the lcm of q and the denominator of d_{k+1}) and a link
  to its predecessor, and nothing else.  Its K is the predecessor's,
  rescaled by f = q'/q when q gains a factor (by 4 per order for
  legendre; the rows are reused as they are when f is 1), plus the one
  integer rank-one term of degree k+1.  That step is deferred to the
  first read of ``kmat``, which takes it in a loop from the nearest
  ancestor whose K is stored, stores K on each set of the chain and drops
  their links.  An order scan that projects each upgrade (the carried
  projection below needs only k, q and the family) builds no K at all.
* ``build``    - k+1 upgrades of the empty set of order -1 (q = 1), each
  read at once, so a built set stores its K and links to nothing: the one
  place K is always stored.  Sets are immutable, so it is memoised per
  (family, k) and callers share one.
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
  nu / nu_den = D mu brings the moments to one denominator and
  den = q nu_den.  Each numerator y_n is one integer dot product with a
  row of K; the ``FitModel`` keeps them and their one denominator,
  rounds c_n to float by one correctly rounded integer division, and
  normalises the ``Fraction`` coefficients only when they are read.
  The projection of a full set is carried across an ``upgrade`` to order
  k+1: with f = q'/q and w c c^T the upgrade's rescale and new term (c the
  integer row of degree k+1), and g = nu_den'/nu_den the growth of the
  prefix lcm of the denominators of D mu,

      y_n' = f g y_n + w c_n z  (n <= k),   y_{k+1}' = w c_{k+1} z,

  with z = c . nu' one dot product instead of k+2; the integers are the
  same.  One module-level slot holds what that needs: a weak reference
  to the last moment vector projected, its D mu over one denominator with
  the prefix lcms, and the last full-set projection of it.  Any other
  set, a pruned one included, takes the product.

Removing l changes every remaining coefficient by the same exact identity,
c_n <- c_n - (G[l][n] / G[l][l]) c_l, which on the numerators is the
fraction-free step of ``downgrade``:

    y_n' = (K[l][l] y_n - K[l][n] y_l) / c,        den' = den K[l][l] / c,

exact because y' = K' nu.  So a greedy pruning loop (``regress.fit``)
projects once and takes this step (``_prune``) per removal.
``select_removal`` and that loop rank removals with one scoring helper,
``cheapest_removal``.

For parity-support families t_j[n] vanishes unless j - n is even, so G is
zero between exponents of opposite parity.  For Chebyshev sets all stored
rationals carry the package-wide 1/pi convention, which cancels in every
ratio the recursions use.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .exact import INV_PI_FLOAT, ExactPoly, ScaleTag, horner_many
from .families import FamilySpec, coeff_scale, int_coeff, norm_sq

if TYPE_CHECKING:  # pragma: no cover
    from .regress import MomentVector


class UpgradeAfterRemovalError(ValueError):
    """Order upgrade is only defined on full (never-downgraded) sets."""


class NotActiveError(KeyError):
    """The requested exponent is not in the active set."""


class LastElementError(ValueError):
    """Refusing to downgrade a set with a single active element."""


class MomentShortfallError(ValueError):
    """Fewer moments supplied than the construction order needs."""


@dataclass(frozen=True)
class BiorthSet:
    """The rows beta_n of order k for the active exponents n.

    ``kmat`` is the symmetric (k+1) x (k+1) integer matrix K with
    G = D K D / q, where D_n = ``_scales(family, k)[n]``.  Row n of G holds the
    monomial coefficients of beta_n, which are also its Gram entries
    <beta_n, beta_m>; the rows and columns of removed exponents are zero.
    Immutable; ``upgrade`` and ``downgrade`` return new sets.  A set that
    ``upgrade`` returns holds a link to its predecessor in place of K, and
    builds K the first time ``kmat`` is read (``_fill_kmat``); it compares,
    hashes, prints and ``dataclasses.replace``s like a set holding K.
    """

    family: FamilySpec
    k: int
    active: tuple[int, ...]
    kmat: tuple[tuple[int, ...], ...]
    q: Fraction

    def __getattr__(self, name: str):
        # called only for a missing attribute: ``kmat`` of an unread upgrade,
        # or of one whose K another thread stored after the lookup missed it
        # (``_fill_kmat`` stores K before it drops the link)
        if name != "kmat" or not {"kmat", "_prev"} & vars(self).keys():
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        return _fill_kmat(self)

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
        return self.g[n][m]


@functools.cache
def _scales(fam: FamilySpec, k: int) -> tuple[Fraction, ...]:
    """D_0..D_k: the family's factor of each monomial coefficient."""
    return tuple(coeff_scale(fam, n) for n in range(k + 1))


@functools.cache
def _integer_row(fam: FamilySpec, j: int) -> tuple[int, ...]:
    """c_j: the integer coefficients of x^0..x^j in p_j over D (memoised)."""
    return tuple(int_coeff(fam, j, n) for n in range(j + 1))


def _add_term(kmat: list[list[int]], w: int, c: Sequence[int]) -> None:
    """Add the rank-one term w c c^T to ``kmat`` in place."""
    support = [(n, cn) for n, cn in enumerate(c) if cn]
    for i, (n, cn) in enumerate(support):
        wn = w * cn
        row = kmat[n]
        for m, cm in support[i:]:
            row[m] += wn * cm
            kmat[m][n] = row[m]


def _next_kmat(kmat: tuple[tuple[int, ...], ...], q_prev: int,
               s: BiorthSet) -> tuple[tuple[int, ...], ...]:
    """K of the full set ``s`` of order j from K and q of its predecessor:
    f (K (+) 0) + w c_j c_j^T, with f = q / q_prev and w = q d_j."""
    j = s.k
    q = s.q.numerator                      # a full set's q is an integer
    f = q // q_prev
    rows = ([[*row, 0] for row in kmat] if f == 1
            else [[f * x for x in row] + [0] for row in kmat])
    rows.append([0] * (j + 1))
    _add_term(rows, (q * norm_sq(s.family, j)).numerator,
              _integer_row(s.family, j))
    return tuple(map(tuple, rows))


_fill_lock = threading.Lock()


def _fill_kmat(s: BiorthSet) -> tuple[tuple[int, ...], ...]:
    """Store K on ``s``, an ``upgrade`` result whose K was never read.

    Walks the predecessor links back to the nearest set whose K is stored,
    then takes one ``_next_kmat`` step per set on the way back, in a loop
    (a chain of any length stays off the call stack).  Each set of the
    chain stores its K and drops its link, so no chain outlives its first
    read.
    """
    with _fill_lock:
        chain = []
        t = s
        while "kmat" not in vars(t):
            chain.append(t)
            t = vars(t)["_prev"]
        kmat, q_prev = t.kmat, t.q.numerator
        for t in reversed(chain):
            kmat = _next_kmat(kmat, q_prev, t)
            vars(t)["kmat"] = kmat          # the instance dict: t is frozen
            del vars(t)["_prev"]
            q_prev = t.q.numerator
    return kmat


@functools.cache
def build(fam: FamilySpec, k: int) -> BiorthSet:
    """The full set of order k: k+1 upgrades of the empty set (memoised).

    Each upgrade's K is read at once, so the set stores its K and holds
    no chain of predecessors.
    """
    if k < 0:
        raise ValueError("order k must be nonnegative")
    s = BiorthSet(fam, -1, (), (), Fraction(1))
    for _ in range(k + 1):
        s = upgrade(s)
        _fill_kmat(s)
    return s


def upgrade(s: BiorthSet) -> BiorthSet:
    """Extend a full set from order k to order k+1, in O(k).

    Every row n gains t_{k+1}[n] * p_{k+1}, and the new row k+1 is a single
    multiple of p_{k+1}: both are the rank-one term of degree k+1, added
    to the padded matrix.  The returned set has its order, active set and
    q, and a link to ``s``; the K step waits for the first read of its
    ``kmat`` (see ``BiorthSet``), with the same integers either way.
    """
    if len(s.active) != s.k + 1:
        raise UpgradeAfterRemovalError(
            "cannot upgrade a set after removals; rebuild at the new order")
    j = s.k + 1
    # a full set's q is an integer
    q = math.lcm(s.q.numerator, norm_sq(s.family, j).denominator)
    t = object.__new__(BiorthSet)
    vars(t).update(family=s.family, k=j, active=tuple(range(j + 1)),
                   q=Fraction(q), _prev=s)
    return t


def downgrade(s: BiorthSet, ell: int) -> BiorthSet:
    """Remove exponent ``ell`` from the active set.

    One fraction-free elimination step on K with pivot K[ell][ell]: row n
    becomes (K[ell][ell] * row n - K[ell][n] * row ell) / c, exactly, where
    c is the gcd of all entries of that numerator, and q absorbs
    K[ell][ell] / c.  On G this is the Schur-complement step that keeps
    the remaining rows biorthogonal to the remaining monomials.  Row and
    column ``ell`` become zero.  The numerator is symmetric, like K, so
    only its entries (n, m) with n <= m are formed and divided (their gcd
    is c), and the other triangle is their mirror.
    """
    if ell not in s.active:
        raise NotActiveError(ell)
    if len(s.active) == 1:
        raise LastElementError("cannot remove the only active exponent")
    row_l = s.kmat[ell]
    a = row_l[ell]
    upper = [[a * x - k_ln * y for x, y in zip(row[n:], row_l[n:])] if k_ln
             else [a * x for x in row[n:]]
             for n, (row, k_ln) in enumerate(zip(s.kmat, row_l))]
    c = math.gcd(*(x for row in upper for x in row))
    upper = [[x // c for x in row] for row in upper]
    kmat = tuple(tuple([upper[m][n - m] for m in range(n)] + row)
                 for n, row in enumerate(upper))
    active = tuple(n for n in s.active if n != ell)
    return BiorthSet(s.family, s.k, active, kmat, s.q * a / c)


@dataclass(frozen=True)
class FitModel:
    """A fitted polynomial sum(c_n x^n over active exponents n).

    ``coeffs`` are floats ready for evaluation (the family's 1/pi scale,
    if any, already applied).  The exact rational parts behind them are
    kept as integer ``numerators`` y_n over one positive ``denominator``
    den, c_n = D_n y_n / den with D_n the family's monomial scale; each
    float is one correctly rounded integer division.  ``coeffs_exact``
    normalises them to ``Fraction``s on first read (``None`` for a
    float-only model such as ``cli.load_model`` returns).
    ``diagnostics`` starts empty; callers record the error figures they
    compute there.
    """

    family: FamilySpec
    k: int
    exponents: tuple[int, ...]
    coeffs: tuple[float, ...]
    removed: tuple[int, ...] = ()
    diagnostics: dict = field(default_factory=dict)
    numerators: tuple[int, ...] | None = field(default=None, repr=False)
    denominator: Fraction | None = field(default=None, repr=False)

    @classmethod
    def from_projection(cls, s: BiorthSet, numerators: tuple[int, ...],
                        denominator: Fraction) -> "FitModel":
        factor = INV_PI_FLOAT if s.family.poly_scale is ScaleTag.INV_PI else 1.0
        d = _scales(s.family, s.k)
        den_n, den_d = denominator.numerator, denominator.denominator
        # int / int is correctly rounded: the same float as float(c_n)
        coeffs = tuple((y * d[n].numerator * den_d) / (d[n].denominator * den_n)
                       * factor for n, y in zip(s.active, numerators))
        return cls(family=s.family, k=s.k, exponents=tuple(s.active),
                   coeffs=coeffs, numerators=numerators, denominator=denominator)

    @functools.cached_property
    def coeffs_exact(self) -> tuple[Fraction, ...] | None:
        """c_n as normalised ``Fraction``s, built on first read."""
        if self.numerators is None:
            return None
        d = _scales(self.family, self.k)
        den_n, den_d = self.denominator.numerator, self.denominator.denominator
        return tuple(Fraction(y * d[n].numerator * den_d, d[n].denominator * den_n)
                     for n, y in zip(self.exponents, self.numerators))

    @property
    def n_params(self) -> int:
        return len(self.exponents)

    def dense_coeffs(self) -> np.ndarray:
        """Float coefficients on the full 0..k exponent range (zeros filled)."""
        dense = np.zeros(self.k + 1)
        for n, c in zip(self.exponents, self.coeffs):
            dense[n] = c
        return dense

    def __call__(self, xs) -> np.ndarray:
        return horner_many(self.dense_coeffs(), np.asarray(xs, dtype=float))


def _require_moments(moments: "MomentVector", top: int) -> None:
    """Raise ``MomentShortfallError`` unless ``moments`` reach exponent ``top``."""
    if moments.order < top:
        raise MomentShortfallError(
            f"exponents up to {top} need moments up to {top}, "
            f"got {moments.order}")


def _scaled_moments(fam: FamilySpec, moments: "MomentVector"
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """D mu for the whole vector: integer numerators over the lcm L of
    all its denominators, and the prefix lcms L_0..L_n (L_n = L)."""
    nu = list(map(mul, moments.exact_values(), _scales(fam, moments.order)))
    lcms = tuple(accumulate((x.denominator for x in nu), math.lcm))
    return tuple(x.numerator * (lcms[-1] // x.denominator) for x in nu), lcms


#: one slot: (weak reference to a moment vector, family, ``_scaled_moments``
#: of the two, and (k, q, numerators) of the last full set projected or None)
_slot = None


def _carry(s: BiorthSet, nums: tuple[int, ...], lcms: tuple[int, ...],
           last: tuple[int, int, tuple[int, ...]]) -> tuple[int, ...] | None:
    """The numerators of the full set ``s`` from ``last``, the projection
    of the same moments onto the full set of order s.k - 1; None unless
    ``s`` is that set's ``upgrade``."""
    k_prev, q_prev, y = last
    k = s.k
    if k_prev != k - 1:
        return None
    d = norm_sq(s.family, k)
    q = math.lcm(q_prev, d.denominator)
    if s.q != q:
        return None
    # K' = f (K (+) 0) + w c c^T and nu' = g (nu (+) 0) + nu'_k e_k give
    # y'_n = f g y_n + w c_n z with z = c . nu'
    c = _integer_row(s.family, k)
    fg = q // q_prev * (lcms[k] // lcms[k - 1])
    wz = (q * d).numerator * (sum(map(mul, c, nums)) // (lcms[-1] // lcms[k]))
    return tuple([fg * yn + wz * cn for yn, cn in zip(y, c)] + [wz * c[k]])


def project(s: BiorthSet, moments: "MomentVector") -> FitModel:
    """Least-squares coefficients <f, beta_n> for all active n.

    The dot products are exact (float moments are promoted to the
    rationals they already are) and fraction-free: the numerators of
    D mu over one common denominator, dotted with an integer row of K,
    give the model's integer numerators over one shared denominator.  So
    the huge cancellations inside high-order beta rows cost no precision:
    order ~36 fits come out clean where solved normal equations lose
    everything.  A full set that is the ``upgrade`` of the last full set
    projected onto the same moments takes its numerators from that
    projection in one rank-one step (``_carry``); the integers are the
    same.
    """
    global _slot
    top = max(s.active)
    _require_moments(moments, top)
    slot = _slot
    if slot is None or slot[0]() is not moments or slot[1] != s.family:
        slot = (weakref.ref(moments), s.family,
                *_scaled_moments(s.family, moments), None)
    _, _, nums, lcms, last = slot
    full = len(s.active) == s.k + 1
    numerators = _carry(s, nums, lcms, last) if full and last else None
    if numerators is None:
        # entries past the largest active exponent are zero, so rows stop
        # at top; nu / L_top == D mu, c_n = D_n (K_n . nu) / (q L_top)
        r = lcms[-1] // lcms[top]
        nu = nums[:top + 1] if r == 1 else [x // r for x in nums[:top + 1]]
        numerators = tuple(sum(map(mul, s.kmat[n], nu)) for n in s.active)
    _slot = slot[:4] + ((s.k, s.q.numerator, numerators),) if full else slot
    return FitModel.from_projection(s, numerators, s.q * lcms[top])


def _prune(s: BiorthSet, model: FitModel,
           ell: int) -> tuple[BiorthSet, FitModel]:
    """``downgrade(s, ell)`` and the projection onto it, by the same step
    on the numerators of ``model``, the projection onto ``s``."""
    pruned = downgrade(s, ell)
    row_l = s.kmat[ell]
    a = row_l[ell]
    c = (s.q * a / pruned.q).numerator   # the content downgrade divided out
    y_l = model.numerators[s.active.index(ell)]
    numerators = tuple((a * y - row_l[n] * y_l) // c
                       for n, y in zip(s.active, model.numerators) if n != ell)
    return pruned, FitModel.from_projection(pruned, numerators,
                                            model.denominator * a / c)


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
