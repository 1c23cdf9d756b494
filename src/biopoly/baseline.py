"""Naive normal-equations regression over the monomial Gram matrix.

This module is the foil for :mod:`biopoly.biorth`.  It assembles the
dense Gram matrix G[n, j] = <x^n, x^j> in double precision and solves
G c = mu by Gaussian elimination, which is exactly the route the
biorthogonal construction exists to avoid.  For every weight the
matrix is Hankel, G[n, j] = m_{n+j} with m_s = <x^s, 1>, and on
[-1, 1] it is the notoriously ill-conditioned Hankel/Hilbert type: by
order ~36 its float condition number saturates around 1e16..1e18 and
the solved coefficients are garbage.  Nothing here tries to rescue
that (no pivoted QR, no SVD, no preconditioning); demonstrating the
failure is the module's job.

``gram`` returns a plain read-only float64 array, which the solver,
the condition estimate and the determinant take directly.  Its 2k+1
distinct entries are computed from the exact rational moments and
rounded to float once, so the only approximation under study is the
solve itself.
"""

from __future__ import annotations

import numpy as np

from .exact import PI_FLOAT, SpaceSpec, inner_monomial

__all__ = [
    "SingularToWorkingPrecision",
    "gram",
    "solve_normal_equations",
    "condition_estimate",
    "determinant",
]

# A pivot below this fraction of the largest matrix entry means the
# elimination has hit noise; we report it instead of dividing through.
PIVOT_RTOL = 1e-30


class SingularToWorkingPrecision(ArithmeticError):
    """Raised when elimination meets a pivot indistinguishable from zero."""


def gram(space: SpaceSpec, k: int) -> np.ndarray:
    """Assemble the order-k monomial Gram matrix of a space in float.

    The matrix is Hankel for every weight: row n is m_n, ..., m_{n+k},
    where m_s = <x^s, 1> is the exact rational moment rounded once, so
    only the 2k+1 distinct moments are computed.  For the Chebyshev
    weight the rational carries an implied factor pi, which
    ``exact.PI_FLOAT`` makes a float here, because the baseline lives
    entirely in plain float arithmetic.  The result is a read-only
    (k+1) x (k+1) float64 array.
    """
    if k < 0:
        raise ValueError("order k must be >= 0")
    values = [float(inner_monomial(space, s, 0)) * PI_FLOAT[space.pi_power]
              for s in range(2 * k + 1)]
    m = np.array([values[n:n + k + 1] for n in range(k + 1)], dtype=float)
    m.setflags(write=False)
    return m


def _lu_factor(a: np.ndarray):
    """Doolittle LU with partial pivoting; returns (lu, perm, sign).

    ``lu`` packs L (unit diagonal, below) and U (on and above); ``perm``
    is the row permutation applied and ``sign`` its parity, -1.0 per row
    swap.  Raises SingularToWorkingPrecision when the best available
    pivot is below PIVOT_RTOL times the largest entry of the original
    matrix.
    """
    lu = np.array(a, dtype=float)
    n = lu.shape[0]
    perm = np.arange(n)
    sign = 1.0
    floor = PIVOT_RTOL * float(np.max(np.abs(lu))) if lu.size else 0.0
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(lu[col:, col])))
        if abs(lu[pivot_row, col]) <= floor:
            raise SingularToWorkingPrecision(
                f"pivot {lu[pivot_row, col]:.3e} in column {col} is below "
                f"the working-precision floor {floor:.3e}")
        if pivot_row != col:
            lu[[col, pivot_row]] = lu[[pivot_row, col]]
            perm[[col, pivot_row]] = perm[[pivot_row, col]]
            sign = -sign
        below = lu[col + 1:, col] / lu[col, col]
        lu[col + 1:, col] = below
        lu[col + 1:, col + 1:] -= np.outer(below, lu[col, col + 1:])
    return lu, perm, sign


def _lu_solve(lu: np.ndarray, perm: np.ndarray, b: np.ndarray,
              transpose: bool = False) -> np.ndarray:
    n = lu.shape[0]
    if not transpose:
        x = np.asarray(b, dtype=float)[perm].copy()
        for i in range(1, n):           # forward: L y = P b
            x[i] -= lu[i, :i] @ x[:i]
        for i in range(n - 1, -1, -1):  # backward: U x = y
            x[i] = (x[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
        return x
    # A^T x = b  via  U^T z = b, L^T w = z, x = P^T w
    x = np.asarray(b, dtype=float).copy()
    for i in range(n):
        x[i] = (x[i] - lu[:i, i] @ x[:i]) / lu[i, i]
    for i in range(n - 1, -1, -1):
        x[i] -= lu[i + 1:, i] @ x[i + 1:]
    out = np.empty(n)
    out[perm] = x
    return out


def solve_normal_equations(g: np.ndarray, rhs) -> np.ndarray:
    """Solve G c = rhs by partial-pivoted elimination, no safeguards.

    ``rhs`` holds the target's monomial moments <f, x^j>.  At small
    orders this returns the same least-squares coefficients as the
    biorthogonal projection; at large orders it returns whatever the
    ill-conditioned solve produces, which is the behaviour under study.
    """
    b = np.asarray(rhs, dtype=float)
    if b.shape != (len(g),):
        raise ValueError(f"rhs must have length {len(g)}")
    lu, perm, _ = _lu_factor(g)
    return _lu_solve(lu, perm, b)


def condition_estimate(g: np.ndarray) -> float:
    """1-norm condition estimate of the Gram matrix.

    ||G||_1 is exact; ||G^-1||_1 comes from the classic iterative
    lower-bound estimator (Hager's method) driven by triangular solves
    on the LU factors, the same approach LAPACK's xGECON takes.  The
    result is a lower bound that is almost always within a small factor
    of the truth, which is all an order-of-magnitude conditioning
    argument needs.
    """
    n = len(g)
    norm_a = float(np.max(np.abs(g).sum(axis=0)))
    if n == 1:
        return 1.0
    lu, perm, _ = _lu_factor(g)

    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(5):
        y = _lu_solve(lu, perm, x)
        est = float(np.abs(y).sum())
        xi = np.where(y >= 0.0, 1.0, -1.0)
        z = _lu_solve(lu, perm, xi, transpose=True)
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(n)
        x[j] = 1.0
    return norm_a * est


def determinant(g: np.ndarray) -> float:
    """Float determinant via the LU factors: the pivot product, negated
    once per row swap.

    For the order-36 Gram on [-1, 1] this underflows to zero or lands
    below 1e-300, which is the cheapest way to see why inverting the
    matrix is hopeless.
    """
    try:
        lu, _, sign = _lu_factor(g)
    except SingularToWorkingPrecision:
        return 0.0
    det = sign
    for d in np.diag(lu):
        det *= d
    return float(det)
