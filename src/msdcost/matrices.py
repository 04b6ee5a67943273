"""Closed-form matrices of the minimum mean-squared-derivative problem.

For order n and horizon h the boundary-value system for the optimal
degree-(2n-1) polynomial splits into a lower monomial block (1..t**(n-1),
derivative matrix V) and an upper block (t**n..t**(2n-1), derivative
matrix A).  This module builds A, V, the right-hand-side gap vector b,
the bilinear-form matrix B, the Gram matrix K of the upper-block n-th
derivatives, the triangular factors A = L U and their inverses, and the
closed-form determinant of A.

All indices are 0-based.  Entry formulas (i = row, j = column):

    A[i,j]    = (n+j)!/(n+j-i)! * h**(n+j-i)
    V[i,j]    = j!/(j-i)! * h**(j-i)                      (j >= i)
    B[i,j]    = (-1)**(n-i-1) * (n+j)!/(i+j-n+1)! * h**(i+j-n+1)   (i+j >= n-1)
    U[i,j]    = j!/(j-i)! * h**(n+j-i)                    (j >= i)
    L[i,j]    = C(i,j) * n!/(n-i+j)! * h**(j-i)           (j <= i)
    Uinv[i,j] = (-1)**(i+j) * h**(j-i-n) / (i! (j-i)!)    (j >= i)
    Linv[i,j] = (-1)**(i-j) * (i!/j!) * C(n+i-j-1, i-j) * h**(j-i)  (i >= j)
    K[i,j]    = (n!)**2 * C(n+i,n) * C(n+j,n) * h**(i+j+1)/(i+j+1)

Integer parts are computed exactly (Python integers) and converted to
float once; powers of h come from a single cached table so identical
entries are bit-identical across builders.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .types import CostProblem, DomainError

#: Largest supported derivative order.  Factorials up to (2n-1)! and the
#: conditioning of A stay comfortably inside double precision up to here;
#: raise it at your own risk.
N_MAX = 12


def _check_order(n: int) -> int:
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 1 or n > N_MAX:
        raise DomainError(f"order out of range: n={n} (supported 1..{N_MAX})")
    return int(n)


def _check_horizon(h: float, allow_zero: bool = False) -> float:
    h = float(h)
    if not np.isfinite(h) or h < 0.0 or (h == 0.0 and not allow_zero):
        kind = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"horizon must be {kind} and finite, got h={h}")
    return h


def h_power_table(n: int, h: float) -> dict[int, float]:
    """Powers h**e for e in [-2n, 2n], by repeated multiplication.

    Every builder draws from this table so that, for fixed (n, h), equal
    powers are bit-identical everywhere.  Negative powers are skipped for
    h = 0 (only V is defined there).
    """
    table = {0: 1.0}
    for e in range(1, 2 * n + 1):
        table[e] = table[e - 1] * h
    if h != 0.0:
        inv = 1.0 / h
        for e in range(-1, -2 * n - 1, -1):
            table[e] = table[e + 1] * inv
    return table


def build_A(n: int, h: float) -> np.ndarray:
    """Derivative matrix of the upper monomial block at t = h (n x n)."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (math.factorial(n + j) // math.factorial(n + j - i)) * p[n + j - i]
    return out


def build_V(n: int, h: float) -> np.ndarray:
    """Derivative matrix of the lower monomial block at t = h (upper triangular).

    V(0) = diag(0!, 1!, ..., (n-1)!), which is what maps initial derivative
    values to the low-order polynomial coefficients.
    """
    n = _check_order(n)
    h = _check_horizon(h, allow_zero=True)
    p = h_power_table(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = (math.factorial(j) // math.factorial(j - i)) * p[j - i]
    return out


def build_B(n: int, h: float) -> np.ndarray:
    """Bilinear-form matrix pairing the gap vector with the solved coefficients.

    Entries vanish exactly (bit zero) above the anti-diagonal i + j = n - 1.
    """
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        sign = (-1.0) ** (n - i - 1)
        for j in range(max(0, n - 1 - i), n):
            out[i, j] = sign * (
                math.factorial(n + j) // math.factorial(i + j - n + 1)
            ) * p[i + j - n + 1]
    return out


def taylor_propagate(values: np.ndarray, h: float) -> np.ndarray:
    """Propagate a derivative stack forward by time h under zero n-th derivative.

    Row k of the result is sum_{j>=k} h**(j-k)/(j-k)! * values[j] -- the
    free-flight end state of a start stack ``values``.  Accepts an (n,)
    or (n, d) stack, or stacks of them (..., n, d) propagated along axis
    -2 in one pass; each stack's result is bit-identical to propagating
    it alone.
    """
    values = np.asarray(values, dtype=float)
    rows = (values[:, None] if values.ndim == 1 else values).swapaxes(0, -2)
    n = rows.shape[0]
    h = _check_horizon(h)
    p = h_power_table(n, h)
    out = np.zeros_like(rows)
    for k in range(n):
        acc = np.zeros(rows.shape[1:])
        for j in range(k, n):
            acc = acc + (p[j - k] / math.factorial(j - k)) * rows[j]
        out[k] = acc
    return out.swapaxes(0, -2).reshape(values.shape)


def build_b(problem: CostProblem) -> np.ndarray:
    """Gap vector b (n x d): end stack minus the free-flight image of the start."""
    _check_order(problem.n)
    return problem.end.values - taylor_propagate(problem.start.values, problem.h)


def build_U(n: int, h: float) -> np.ndarray:
    """Upper triangular factor of A; diagonal entry (k, k) is k! * h**n."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = (math.factorial(j) // math.factorial(j - i)) * p[n + j - i]
    return out


def build_L(n: int, h: float) -> np.ndarray:
    """Unit lower triangular factor of A (A = L U)."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table(n, h)
    out = np.zeros((n, n))
    nfact = math.factorial(n)
    for i in range(n):
        for j in range(i + 1):
            out[i, j] = math.comb(i, j) * (nfact / math.factorial(n - i + j)) * p[j - i]
    return out


def build_U_inv(n: int, h: float) -> np.ndarray:
    """Closed-form inverse of the upper factor U."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = (-1.0) ** (i + j) * p[j - i - n] / (
                math.factorial(i) * math.factorial(j - i)
            )
    return out


def build_L_inv(n: int, h: float) -> np.ndarray:
    """Closed-form inverse of the unit lower factor L."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            out[i, j] = (
                (-1.0) ** (i - j)
                * (math.factorial(i) // math.factorial(j))
                * math.comb(n + i - j - 1, i - j)
            ) * p[j - i]
    return out


@lru_cache(maxsize=None)
def _a_inv_coefficients(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact rational coefficients c with A(h)^-1[i,j] = c[i][j] * h**(j-i-n).

    The product U^-1 L^-1 is accumulated in exact integer arithmetic so each
    entry of the inverse is correctly rounded after the single float
    conversion; a float-by-float product would lose ~5 digits by n = 12
    through cancellation between the large alternating terms.
    """
    ui = [[Fraction(0)] * n for _ in range(n)]
    li = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ui[i][j] = Fraction(
                (-1) ** (i + j), math.factorial(i) * math.factorial(j - i)
            )
        for j in range(i + 1):
            li[i][j] = Fraction(
                (-1) ** (i - j)
                * (math.factorial(i) // math.factorial(j))
                * math.comb(n + i - j - 1, i - j)
            )
    rows = []
    for i in range(n):
        rows.append(
            tuple(sum(ui[i][k] * li[k][j] for k in range(i, n)) for j in range(n))
        )
    return tuple(rows)


def build_A_inv(n: int, h: float) -> np.ndarray:
    """Inverse of A as the product U^-1 L^-1 (exact rational coefficients)."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table(n, h)
    coef = _a_inv_coefficients(n)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = float(coef[i][j]) * p[j - i - n]
    return out


def build_K(n: int, h: float) -> np.ndarray:
    """Gram matrix of the n-th derivatives of the upper monomials on [0, h].

    Symmetric positive definite; a diagonally scaled Hilbert-type matrix.
    """
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table(n, h)
    nfact2 = math.factorial(n) ** 2
    c = [nfact2 * math.comb(n + i, n) for i in range(n)]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (c[i] * math.comb(n + j, n)) * p[i + j + 1] / (i + j + 1)
    return out


def det_A(n: int, h: float) -> float:
    """Closed-form determinant of A: h**(n**2) * prod_{k<n} k!.

    The h exponent follows from summing the monomial degrees n..2n-1 and
    subtracting C(n, 2) for the derivative rows, which gives n**2; direct
    2x2/3x3 cofactor expansion confirms it.  Strictly positive for h > 0.
    """
    n = _check_order(n)
    h = _check_horizon(h)
    superfact = math.prod(math.factorial(k) for k in range(1, n))
    return float(superfact) * h ** (n * n)
