"""Accuracy of evaluated fits, against references that share no rounding
with the package.

Each fit's L2 error, evaluated by ``FitModel.__call__``, is compared with
that of the best fit of the same order: the L2 projection onto the
family's degree-k polynomials, from Gauss moments (numpy's ``leggauss``,
``chebgauss`` or ``laggauss`` on 4k + 40 nodes, Gauss-Laguerre capped at
150 because ``laggauss(200)`` returns nan weights) taken in the family's
own basis and evaluated by ``legval``, ``chebval`` or ``lagval``.  Both
errors are taken in the family's own norm, on the same Gauss rule.  The
package calls none of that code.  Sampled moments stay out: their gap to
the best fit is Simpson's truncation, not a rounding defect.

The strict xfails are the cells more than 10x off today; each names the
ROADMAP items expected to mend it, and the change that lands them removes
the marker.
"""

import math
from math import comb

import pytest
from numpy.polynomial import chebyshev, laguerre, legendre

from biopoly.biorth import build
from biopoly.families import FamilyKind, FamilySpec
from biopoly.regress import fit, moments_expdecay, moments_gamma, moments_quadrature
from biopoly.targets import damped_wiggle, exp_decay, gamma_density

#: the largest Gauss-Laguerre rule numpy gives finite weights for, with margin
MAX_LAGUERRE_NODES = 150


def _gauss_rule(fam: FamilySpec, n: int):
    """Nodes, weights (the family's weight built in), the Vandermonde
    matrix of the family's basis at the nodes, and its evaluator."""
    if fam.kind is FamilyKind.LAGUERRE:
        xs, ws = laguerre.laggauss(min(n, MAX_LAGUERRE_NODES))
        return xs, ws, laguerre.lagvander, laguerre.lagval
    if fam.kind is FamilyKind.CHEBYSHEV:
        xs, ws = chebyshev.chebgauss(n)
        return xs, ws, chebyshev.chebvander, chebyshev.chebval
    ts, ws = legendre.leggauss(n)
    if fam.kind is FamilyKind.LEGENDRE_SYM:
        return ts, ws, legendre.legvander, legendre.legval
    b = float(fam.b)                  # shifted Legendre P_j(2x/b - 1) on [0, b]
    return (b * (ts + 1) / 2, ws * b / 2,
            lambda x, k: legendre.legvander(2 * x / b - 1, k),
            lambda x, c: legendre.legval(2 * x / b - 1, c))


def _l2_errors(fam: FamilySpec, target, moments, k: int) -> tuple[float, float]:
    """The L2 errors of ``fit`` and of the best fit of order k."""
    xs, ws, vander, val = _gauss_rule(fam, 4 * k + 40)
    fx = target(xs)
    basis = vander(xs, k)
    best = val(xs, (ws * fx) @ basis / (ws @ basis ** 2))
    model = fit(fam, k, moments(fam.space, k))
    return (math.sqrt(ws @ (fx - model(xs)) ** 2),
            math.sqrt(ws @ (fx - best) ** 2))


def _quadrature(space, k):
    return moments_quadrature(damped_wiggle, space, k)


def _decay(space, k):
    return moments_expdecay(space, k, alpha=1)


#: id -> (family, target, moment source of that target)
CASES = {
    "legendre0b-quadrature": (FamilySpec.legendre_shifted(1), damped_wiggle, _quadrature),
    "legendre0b-decay": (FamilySpec.legendre_shifted(1), exp_decay, _decay),
    "legendre-quadrature": (FamilySpec.legendre_sym(), damped_wiggle, _quadrature),
    "chebyshev-quadrature": (FamilySpec.chebyshev(), damped_wiggle, _quadrature),
    "laguerre-decay": (FamilySpec.laguerre(), exp_decay, _decay),
    "laguerre-gamma": (FamilySpec.laguerre(), gamma_density, moments_gamma),
}

_EVALUATION = ("FitModel.__call__ rounds the monomial coefficients to double, "
               "and cancellation amplifies that (ROADMAP item 2)")
_QUADRATURE = ("float monomial quadrature moments, amplified by |G| (ROADMAP "
               "item 3), then monomial evaluation (item 2)")
_LADDER = ("the forward decay ladder on [0, b] amplifies the rounding of "
           "e^(-b) (ROADMAP item 14), then monomial evaluation (item 2)")

#: (case, k) -> why the fit is more than 10x off the best fit today
KNOWN_INACCURATE = {
    ("legendre0b-quadrature", 36): _QUADRATURE,
    ("legendre0b-quadrature", 64): _QUADRATURE,
    ("legendre0b-decay", 17): _LADDER,
    ("legendre0b-decay", 36): _LADDER,
    ("legendre0b-decay", 64): _LADDER,
    ("legendre-quadrature", 64): _QUADRATURE,
    ("chebyshev-quadrature", 64): _QUADRATURE,
    ("laguerre-decay", 64): _EVALUATION,
    ("laguerre-gamma", 64): _EVALUATION,
}


@pytest.mark.parametrize("case, k", [
    pytest.param(case, k, id=f"{case}-k{k}", marks=[
        pytest.mark.xfail(strict=True, reason=KNOWN_INACCURATE[case, k])]
        if (case, k) in KNOWN_INACCURATE else [])
    for case in CASES for k in (17, 36, 64)])
def test_fit_is_within_ten_times_the_best_fit(case, k):
    fam, target, moments = CASES[case]
    err, best = _l2_errors(fam, target, moments, k)
    assert err <= 10 * best, f"L2 error {err:.3g}, best fit {best:.3g}"


def test_unit_interval_kmat_is_the_inverse_hilbert_matrix():
    """On [0, 1] the monomial Gram matrix is the Hilbert matrix, so G is its
    inverse; with every scale D_n = 1 and q = 1, K is that inverse, entry
    for entry: (-1)^(i+j) (i+j+1) C(n+i, n-j-1) C(n+j, n-i-1) C(i+j, i)^2
    with n = k + 1 (Choi 1983, "Tricks or treats with the Hilbert matrix")."""
    k = 64
    n = k + 1
    s = build(FamilySpec.legendre_shifted(1), k)
    assert s.q == 1
    assert s.kmat == tuple(
        tuple((-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1)
              * comb(n + j, n - i - 1) * comb(i + j, i) ** 2 for j in range(n))
        for i in range(n))
