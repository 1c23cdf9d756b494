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

Integer kernel: t_j[n] = D_n c_j[n], with c_j the family's integer row
(``families._integer_row``) and D_n = ``families.coeff_scales(family, k)[n]``
the scale of x^n, which depends on the family alone.  G is therefore

    G = D K D / q,        K = sum_j (q d_j) c_j c_j^T,

one integer matrix K and one positive rational q (for a full set, the
least common multiple of the denominators of the d_j, so that every weight
q d_j is an integer).  (K, q) is the one stored form of G: ``beta`` and
``gram_entry`` form their ``Fraction``s from K, D and q when called.
A set is just its family, order and active exponents.  K and q are one
pair, formed on the first read of either and cached: a full set forms the
closed-form sum above over the memoised integer rows c_j, ``downgrade``
stores the pair of the pruned set it returns, and any other pruned set
takes ``build``'s pair and one ``downgrade`` per missing exponent.  Four
operations stay in integers:

* ``upgrade``  - raise any set from order k to k+1 with k+1 active, in
  O(k): the new set is (family, k+1, active + (k+1,)), and nothing else.
  Its K, if it is ever read, is the predecessor's rescaled by f = q'/q plus
  the one integer rank-one term of degree k+1, with the same removals
  applied; an order scan that projects each upgrade (the projection below
  needs only k and the family) forms no K at all.
* ``build``    - the full set of order k, nothing else.  Sets are
  immutable, so it is memoised per (family, k) and callers share one, K
  included once it is read.
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
* ``project``  - c_n = D_n y_n / den with y = K nu, where nu / nu_den = D mu
  brings the moments to one denominator and den = q nu_den; the ``FitModel``
  is made from y and den; its floats are never an input.  One path serves
  every set: the full set of order top, the set's largest active exponent,
  folds y forward by one upgrade's rank-one step per order, reading no K,
  and the step below then removes each exponent under top that the set
  lacks, in increasing order.  From order j-1 to j, with f = q'/q and
  w c c^T the upgrade's rescale and new term (c the integer row of degree
  j), and g = nu_den'/nu_den the growth of the prefix lcm of the
  denominators of D mu,

      y_n' = f g y_n + w c_n z  (n < j),   y_j' = w c_j z,

  with z = c . nu' one dot product.  The fold starts from the vector's last
  fold at an order no higher, or from the empty set of order -1; the
  integers are those of K nu.  Each moment vector carries what that needs
  in one private entry, ``_carry``, of its ``vars``: its D mu over one
  denominator with the prefix lcms, and its last fold with its q, read
  only after the vector's space is checked (a space names its family).

Removing l changes every remaining coefficient by the same exact identity,
c_n <- c_n - (G[l][n] / G[l][l]) c_l, which on the numerators is the
fraction-free step of ``downgrade``, taken by one helper, ``_remove``:

    y_n' = (K[l][l] y_n - K[l][n] y_l) / c,        den' = den K[l][l] / c,

exact because y' = K' nu.  It is the paper's posterior removal, and the
one way a pruned set's numerators are formed.  G on active exponents A
inverts the monomial Gram matrix on A at any order, so ``project`` reads
moments up to the top exponent only.  ``fit`` projects the full set once,
then each round takes ``cheapest_removal`` (on y and K alone, as
``select_removal`` does) on the set pruned so far, and ``_remove``.  It
forms one ``FitModel`` from ``project``'s (y, den) and one at the end.

For parity-support families t_j[n] vanishes unless j - n is even, so G is
zero between exponents of opposite parity.  For Chebyshev sets all stored
rationals carry the package-wide 1/pi convention, which cancels in every
ratio the recursions use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import index, lt, mul
from typing import Sequence

from .exact import PI_FLOAT, ExactPoly, FloatRangeError, SpaceSpec, horner_many
from .families import FamilySpec, _integer_row, coeff_scales, norm_sq

ORDER_BOUND = 256


class NotActiveError(KeyError):
    """The requested exponent is not in the active set."""


class LastElementError(ValueError):
    """Refusing to downgrade a set with a single active element."""


class MomentShortfallError(ValueError):
    """Fewer moments supplied than the construction order needs."""


class MomentSpaceError(ValueError):
    """The moments were taken in another space than the family's."""


@dataclass(frozen=True)
class MomentVector:
    """Generalised moments mu_0..mu_k of one target in one space.

    ``mu`` is the float contract every consumer can rely on, and
    ``mu_exact``, always stored as ``Fraction``s, is what the projection
    reads: the exact values of the ints and floats given there, whose
    ``mu`` entries must be their floats (else ``ValueError``), or without
    it the values of the floats in ``mu``.  A moment past the float range
    raises ``FloatRangeError``, one that is not finite ``ValueError``
    before any ``Fraction`` is formed, both naming it.
    """

    mu: tuple[float, ...]
    space: SpaceSpec
    provenance: str
    mu_exact: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        given = self.mu if self.mu_exact is None else self.mu_exact
        if any(isinstance(seq, (str, bytes, dict)) for seq in (self.mu, self.mu_exact)):
            raise TypeError(f"moments of {self.provenance} are no sequence of numbers")
        if len(given) != len(self.mu):
            raise ValueError("mu_exact must match mu in length")
        mu = []
        for i, (m, given_mu) in enumerate(zip(given, self.mu)):
            name = f"moment mu_{i} of {self.provenance}"
            try:
                mu.append(float(m))
                if not math.isfinite(mu[i]):
                    raise ValueError(f"{name} is {mu[i]}, not finite")
                if given_mu is not m and float(given_mu) != mu[i]:
                    raise ValueError(f"{name} is {given_mu!r} in mu, not "
                                     f"{mu[i]!r}, the float of its exact value")
            except OverflowError:
                raise FloatRangeError(f"{name} overflows the float range") from None
        exact = mu if self.mu_exact is None else given  # floats stand for themselves
        vars(self).update(mu=tuple(mu), mu_exact=tuple(
            m if isinstance(m, Fraction) else Fraction(m) for m in exact))

    @property
    def order(self) -> int:
        return len(self.mu) - 1

    def exact_values(self) -> tuple[Fraction, ...]:
        return self.mu_exact


def _check_exponents(exponents: Sequence[int], k: int) -> tuple[int, ...]:
    """The exponents as a tuple of ints; a non-integer raises ``TypeError``,
    and an order k outside 0..``ORDER_BOUND``, or a tuple that is empty,
    unordered, repeated or off 0..k ``ValueError``."""
    if not 0 <= k <= ORDER_BOUND:
        raise ValueError(f"order k = {k} is outside 0..{ORDER_BOUND}")
    exponents = tuple(map(index, exponents))
    if not (exponents and 0 <= exponents[0] and exponents[-1] <= k
            and all(map(lt, exponents, exponents[1:]))):
        raise ValueError(f"exponents {exponents} are not a non-empty, "
                         f"strictly increasing tuple within 0..{k}")
    return exponents


@dataclass(frozen=True)
class BiorthSet:
    """The rows beta_n of order k for the active exponents n.

    A set is the value (family, k, active): it compares, hashes and prints
    by those three fields, k lies within 0..``ORDER_BOUND``, and ``active``
    is non-empty and strictly increasing within 0..k (``k`` and the
    exponents are ints: a non-integer raises ``TypeError``).  ``kmat`` is
    the symmetric (k+1) x (k+1) integer matrix K and ``q`` the positive
    rational with G = D K D / q (D_n = ``coeff_scales(family, k)[n]``), one
    pair ``_kq`` formed on the first read of either.  Row n of G holds the
    monomial coefficients of beta_n, which are also its Gram entries
    <beta_n, beta_m>; the rows and columns of removed exponents are zero.
    """

    family: FamilySpec
    k: int
    active: tuple[int, ...]

    def __post_init__(self):
        k = index(self.k)
        vars(self).update(k=k, active=_check_exponents(self.active, k))

    @functools.cached_property
    def _kq(self) -> tuple[tuple[tuple[int, ...], ...], Fraction]:
        """(K, q).  A full set's q is the lcm of the denominators of
        d_0..d_k and its K the sum of (q d_j) c_j c_j^T over j <= k.  A
        pruned set takes ``build``'s pair and one ``downgrade`` per missing
        exponent, in increasing order: every removal order reaches the same
        pair."""
        if len(self.active) != self.k + 1:
            missing = sorted(set(range(self.k + 1)).difference(self.active))
            return functools.reduce(downgrade, missing, build(self.family, self.k))._kq
        d = [norm_sq(self.family, j) for j in range(self.k + 1)]
        q = math.lcm(*(dj.denominator for dj in d))
        kmat = [[0] * (self.k + 1) for _ in range(self.k + 1)]
        for j, dj in enumerate(d):
            _add_term(kmat, (q * dj).numerator, _integer_row(self.family, j))
        return tuple(map(tuple, kmat)), Fraction(q)

    @property
    def kmat(self) -> tuple[tuple[int, ...], ...]:
        return self._kq[0]

    @property
    def q(self) -> Fraction:
        return self._kq[1]

    def beta(self, n: int) -> ExactPoly:
        if n not in self.active:
            raise NotActiveError(n)
        d = coeff_scales(self.family, self.k)
        return ExactPoly(tuple(x * (d[n] * dm) / self.q
                               for x, dm in zip(self.kmat[n], d)),
                         self.family.poly_scale)

    def gram_entry(self, n: int, m: int) -> Fraction:
        """Exact <beta_n, beta_m> (rational part; /pi implied for Chebyshev)."""
        if n not in self.active or m not in self.active:
            raise NotActiveError((n, m))
        d = coeff_scales(self.family, self.k)
        return self.kmat[n][m] * (d[n] * d[m]) / self.q


def _add_term(kmat: list[list[int]], w: int, c: Sequence[int]) -> None:
    """Add the rank-one term w c c^T to ``kmat`` in place."""
    support = [(n, cn) for n, cn in enumerate(c) if cn]
    for i, (n, cn) in enumerate(support):
        wn = w * cn
        row = kmat[n]
        for m, cm in support[i:]:
            row[m] += wn * cm
            kmat[m][n] = row[m]


@functools.cache
def build(fam: FamilySpec, k: int) -> BiorthSet:
    """The full set of order k (memoised); its K and q are formed on the
    first read of ``kmat`` or ``q``."""
    return BiorthSet(fam, k, range(k + 1))      # checked before it is formed


def upgrade(s: BiorthSet) -> BiorthSet:
    """Raise the order of ``s`` from k to k+1 and make k+1 active.

    Every row n gains t_{k+1}[n] * p_{k+1}, and the new row k+1 is a single
    multiple of p_{k+1}: both are the rank-one term of degree k+1.  Of a
    full set this is ``build``'s set of order k+1; of a pruned set it is
    the same removals from that set.  Nothing is computed until K or q is
    read.
    """
    return BiorthSet(s.family, s.k + 1, s.active + (s.k + 1,))


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
    if c != 1:                   # x // 1 still makes a new int
        upper = [[x // c for x in row] for row in upper]
    kmat = tuple(tuple([upper[m][n - m] for m in range(n)] + row)
                 for n, row in enumerate(upper))
    t = BiorthSet(s.family, s.k, tuple(n for n in s.active if n != ell))
    vars(t)["_kq"] = kmat, s.q * a / c      # where the cached property keeps them
    return t


@dataclass(frozen=True, eq=False)
class FitModel:
    """A fitted polynomial sum(c_n x^n over active exponents n).

    ``k`` and the ``exponents`` are ints, as in ``BiorthSet``.  A model is
    made from one integer ``numerators`` y_n per exponent over a positive
    ``denominator`` den alone, c_n = D_n y_n / den (D_n the family's
    monomial scale); another count raises ``ValueError``.  Its ``coeffs``
    are an output, never an input: the floats of c_n times the family's
    1/pi from ``exact.PI_FLOAT`` (``FloatRangeError`` past the float range).
    A model is its exact value: it equals and hashes like any model with the
    same family, order, exponents and ``coeffs_exact`` (normalised on first
    read), so ``cli.load_model`` returns one equal to the fit that wrote it;
    the numerators' scale and ``removed`` are not part of it.  Only
    evaluation imports numpy.
    """

    family: FamilySpec
    k: int
    exponents: tuple[int, ...]
    coeffs: tuple[float, ...] = field(init=False)
    numerators: tuple[int, ...] = field(repr=False)
    denominator: Fraction = field(repr=False)
    removed: tuple[int, ...] = ()

    def __post_init__(self):
        k = index(self.k)
        vars(self).update(k=k, exponents=_check_exponents(self.exponents, k))
        if not isinstance(self.denominator, (int, Fraction)) or self.denominator <= 0:
            raise ValueError(f"denominator {self.denominator!r} is not a positive rational")
        vars(self)["numerators"] = tuple(map(index, self.numerators))
        if (count := len(self.numerators)) != len(self.exponents):
            raise ValueError(f"{count} numerators for {len(self.exponents)} exponents")
        factor = PI_FLOAT[self.family.poly_scale.pi_power]
        try:    # int / int is correctly rounded: the same float as float(c_n)
            vars(self)["coeffs"] = tuple(a / b * factor for a, b in self._ratios())
        except OverflowError:
            raise FloatRangeError(f"a coefficient of the order-{k} fit "
                                  "overflows the float range") from None

    def _ratios(self) -> list[tuple[int, int]]:
        """c_n = D_n y_n / den as one integer ratio per exponent."""
        d = coeff_scales(self.family, self.exponents[-1])
        den_n, den_d = self.denominator.numerator, self.denominator.denominator
        return [(y * d[n].numerator * den_d, d[n].denominator * den_n)
                for n, y in zip(self.exponents, self.numerators)]

    @functools.cached_property
    def coeffs_exact(self) -> tuple[Fraction, ...]:
        """c_n as normalised ``Fraction``s, built on first read."""
        return tuple(Fraction(a, b) for a, b in self._ratios())

    def __eq__(self, other):
        if not isinstance(other, FitModel):
            return NotImplemented
        return (self.family, self.k, self.exponents, self.coeffs_exact) == (
            other.family, other.k, other.exponents, other.coeffs_exact)

    def __hash__(self):
        return hash((self.family, self.k, self.exponents, self.coeffs_exact))

    @property
    def n_params(self) -> int:
        return len(self.exponents)

    def dense_coeffs(self) -> np.ndarray:
        """Float coefficients on the full 0..k exponent range (zeros filled)."""
        import numpy as np
        dense = np.zeros(self.k + 1)
        dense[list(self.exponents)] = self.coeffs
        return dense

    def __call__(self, xs) -> np.ndarray:
        return horner_many(self.dense_coeffs(), xs)


def _require_moments(moments: MomentVector, top: int) -> None:
    """Raise ``MomentShortfallError`` unless ``moments`` reach exponent ``top``."""
    if moments.order < top:
        raise MomentShortfallError(
            f"exponents up to {top} need moments up to {top}, got {moments.order}")


def _scaled_moments(fam: FamilySpec, moments: MomentVector
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """D mu for the whole vector: integer numerators over the lcm L of
    all its denominators, and the prefix lcms L_0..L_n (L_n = L)."""
    nu = list(map(mul, moments.exact_values(), coeff_scales(fam, moments.order)))
    lcms = tuple(accumulate((x.denominator for x in nu), math.lcm))
    return tuple(x.numerator * (lcms[-1] // x.denominator) for x in nu), lcms


def _carry(s: BiorthSet, nums: tuple[int, ...], lcms: tuple[int, ...],
           last: tuple[int, int, tuple[int, ...]] | None
           ) -> tuple[tuple[int, ...], int]:
    """The numerators of the full set ``s`` and its q, folded forward by
    one ``upgrade``'s rank-one step per order from ``last``, the projection
    of the same moments onto a full set of order at most s.k, or from the
    empty set of order -1 when there is none."""
    k_prev, q_prev, y = last if last and last[0] <= s.k else (-1, 1, ())
    for j in range(k_prev + 1, s.k + 1):
        # K' = f (K (+) 0) + w c c^T and nu' = g (nu (+) 0) + nu'_j e_j give
        # y'_n = f g y_n + w c_n z with z = c . nu' (y is empty at j = 0)
        d = norm_sq(s.family, j)
        q = math.lcm(q_prev, d.denominator)
        c = _integer_row(s.family, j)
        fg = q // q_prev * (lcms[j] // lcms[j - 1])
        wz = (q * d).numerator * (sum(map(mul, c, nums)) // (lcms[-1] // lcms[j]))
        y = [fg * yn + wz * cn for yn, cn in zip(y, c)] + [wz * c[j]]
        q_prev = q
    return tuple(y), q_prev


def _remove(s: BiorthSet, y: Sequence[int], den: Fraction, ell: int
            ) -> tuple[BiorthSet, tuple[int, ...], Fraction]:
    """``downgrade(s, ell)``, and the numerators y over den of a projection
    onto ``s`` moved to it by the step of the module docstring."""
    pruned = downgrade(s, ell)
    row_l = s.kmat[ell]
    a = row_l[ell]
    c = (s.q * a / pruned.q).numerator
    y_l = y[s.active.index(ell)]
    return pruned, tuple((a * yn - row_l[n] * y_l) // c
                         for n, yn in zip(s.active, y) if n != ell), den * a / c


def project(s: BiorthSet, moments: MomentVector) -> FitModel:
    """Least-squares coefficients <f, beta_n> for all active n.

    The dot products are exact (float moments are promoted to the
    rationals they already are) and fraction-free: the numerators of
    D mu over one common denominator give the model's integer numerators
    over one shared denominator.  So the huge cancellations inside
    high-order beta rows cost no precision: order ~36 fits come out clean
    where solved normal equations lose everything.  The full set of order
    top, the largest active exponent (``s`` itself when full), folds its
    numerators forward from the vector's own carry (``_carry``), and
    ``_remove`` then takes out each exponent below top that ``s`` lacks.
    Moments on another space than the family's raise ``MomentSpaceError``.
    """
    top = s.active[-1]
    _require_moments(moments, top)
    if moments.space != s.family.space:
        raise MomentSpaceError(f"{s.family.describe()} needs moments on its own "
                               f"space, got moments on {moments.space}")
    nums, lcms, last = vars(moments).get("_carry") or (
        *_scaled_moments(s.family, moments), None)
    t = s if len(s.active) == s.k + 1 else build(s.family, top)
    y, q = _carry(t, nums, lcms, last)
    vars(moments)["_carry"] = nums, lcms, (top, q, y)
    den = Fraction(q * lcms[top])
    for ell in sorted(set(range(top)).difference(s.active)):
        t, y, den = _remove(t, y, den, ell)
    return FitModel(s.family, s.k, s.active, y, den)


def cheapest_removal(s: BiorthSet, numerators: Sequence[int]) -> int:
    """Exponent whose removal increases the squared fit error least.

    ``numerators`` are the integers y_n of the projection onto ``s``.
    Removing l adds c_l^2 / G[l][l] = y_l^2 q / (den^2 K[l][l]) to the
    squared error, so the arg-min of y_l^2 / K[l][l] is returned, compared
    exactly by cross-multiplying; ties go to the smallest exponent.
    """
    scores = [(y * y, s.kmat[n][n], n) for n, y in zip(s.active, numerators)]
    by_score = functools.cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])
    return min(scores, key=by_score)[2]


def select_removal(s: BiorthSet, moments: MomentVector) -> int:
    """``cheapest_removal`` on the projection of ``moments`` onto ``s``."""
    if len(s.active) == 1:
        raise LastElementError("cannot select a removal from a single element")
    return cheapest_removal(s, project(s, moments).numerators)


def fit(fam: FamilySpec, k: int, moments: MomentVector,
        removals: int = 0) -> FitModel:
    """Project onto order k, then greedily remove ``removals`` exponents,
    each the cheapest on the set pruned so far, by ``_remove``, as
    ``project`` removes a pruned set's; ``removed`` lists them in order."""
    _require_moments(moments, k)
    s = build(fam, k)           # an order off 0..ORDER_BOUND is refused here
    if not 0 <= removals <= k:
        raise ValueError("removals must leave at least one active exponent")
    model = project(s, moments)
    y, den, removed = model.numerators, model.denominator, []
    for _ in range(removals):
        removed.append(cheapest_removal(s, y))
        s, y, den = _remove(s, y, den, removed[-1])
    return FitModel(fam, k, s.active, y, den, tuple(removed))
