"""Closed-form matrices of the minimum mean-squared-derivative problem.

For order n and horizon h the boundary-value system for the optimal
degree-(2n-1) polynomial splits into a lower monomial block (1..t**(n-1),
derivative matrix V) and an upper block (t**n..t**(2n-1), derivative
matrix A).  This module builds A, V, the right-hand-side gap vector b,
the bilinear-form matrix B, the Gram matrix K of the upper-block n-th
derivatives, the triangular factors A = L U and their inverses, the
free-flight propagator T(h) = V(h) V(0)^-1, and the closed-form
determinant of A.

All indices are 0-based.  Entry formulas (i = row, j = column):

    A[i,j]    = (n+j)!/(n+j-i)! * h**(n+j-i)
    V[i,j]    = j!/(j-i)! * h**(j-i)                      (j >= i)
    B[i,j]    = (-1)**(n-i-1) * (n+j)!/(i+j-n+1)! * h**(i+j-n+1)   (i+j >= n-1)
    U[i,j]    = j!/(j-i)! * h**(n+j-i)                    (j >= i)
    L[i,j]    = C(i,j) * n!/(n-i+j)! * h**(j-i)           (j <= i)
    Uinv[i,j] = (-1)**(i+j) * h**(j-i-n) / (i! (j-i)!)    (j >= i)
    Linv[i,j] = (-1)**(i-j) * (i!/j!) * C(n+i-j-1, i-j) * h**(j-i)  (i >= j)
    Ainv[i,j] = (-1)**(i+j)/j! * sum_{k>=i,j} C(k,i) C(n-1+k-j, k-j) * h**(j-i-n)
    K[i,j]    = (n!)**2 * C(n+i,n) * C(n+j,n) * h**(i+j+1)/(i+j+1)
    T[i,j]    = h**(j-i)/(j-i)!                           (j >= i)

Each builder is an entry function giving the exact integer or rational
coefficient, the h exponent and a divisor (applied after the power, as in
the Uinv and K formulas); the coefficients are rounded once per n and
cached.  A call multiplies them by powers of h from one helper that forms
every power by repeated multiplication, so equal powers are bit-identical
across builders, and writes only the assigned entries: structural zeros
stay bit zero even when a power overflows.

The cost form B(h) A(h)^-1 (``form_matrix``) and the Taylor propagation
table are cached per (n, h) in bounded LRU caches, read-only, so a
horizon used again costs a lookup instead of a rebuild.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .types import N_MAX  # re-exported
from .types import CostProblem, DomainError, _check_horizon, _check_order

#: Entries kept by each per-(n, h) cache (the form matrix and the
#: propagation table): under 1 MB in all at n = N_MAX.
_HORIZON_CACHE_SIZE = 256


def _powers(h: float, lo: int, hi: int) -> list[float]:
    """[h**lo, ..., h**hi] for lo <= 0 <= hi, each by repeated multiplication.

    Every power of h in the package comes from here, so for fixed h equal
    powers are bit-identical everywhere.
    """
    up = list(accumulate(repeat(h, hi), mul, initial=1.0))
    return list(accumulate(repeat(1.0 / h, -lo), mul))[::-1] + up if lo else up


def h_power_table(n: int, h: float) -> dict[int, float]:
    """Powers h**e for e in [-2n, 2n]; negative powers are skipped for h = 0."""
    lo = -2 * n if h else 0
    return dict(zip(range(lo, 2 * n + 1), _powers(h, lo, 2 * n)))


@lru_cache(maxsize=None)
def _table(entry, n: int) -> tuple:
    """Flat positions, coefficients, power indices, divisors and power range.

    ``entry(n, i, j)`` returns (coefficient, exponent, divisor) for an
    assigned entry and None for a structural zero.
    """
    cells = [
        (i * n + j, float(cell[0]), cell[1], float(cell[2]))
        for i in range(n)
        for j in range(n)
        if (cell := entry(n, i, j)) is not None
    ]
    pos, coef, exponent, div = (np.array(column) for column in zip(*cells))
    lo, hi = min(exponent.min(), 0), max(exponent.max(), 0)
    return pos, coef, exponent - lo, div, int(lo), int(hi)


def _tabulate(entry, n: int, h: float, allow_zero: bool = False) -> np.ndarray:
    n = _check_order(n)
    h = _check_horizon(h, allow_zero)
    pos, coef, power_index, div, lo, hi = _table(entry, n)
    out = np.zeros(n * n)
    out[pos] = coef * np.array(_powers(h, lo, hi))[power_index] / div
    return out.reshape(n, n)


def _a_entry(n, i, j):
    return math.factorial(n + j) // math.factorial(n + j - i), n + j - i, 1


def build_A(n: int, h: float) -> np.ndarray:
    """Derivative matrix of the upper monomial block at t = h (n x n)."""
    return _tabulate(_a_entry, n, h)


def _v_entry(n, i, j):
    if j >= i:
        return math.factorial(j) // math.factorial(j - i), j - i, 1


def build_V(n: int, h: float) -> np.ndarray:
    """Derivative matrix of the lower monomial block at t = h (upper triangular).

    V(0) = diag(0!, 1!, ..., (n-1)!), which is what maps initial derivative
    values to the low-order polynomial coefficients.
    """
    return _tabulate(_v_entry, n, h, allow_zero=True)


def _b_entry(n, i, j):
    if i + j >= n - 1:
        e = i + j - n + 1
        return (-1) ** (n - i - 1) * math.factorial(n + j) // math.factorial(e), e, 1


def build_B(n: int, h: float) -> np.ndarray:
    """Bilinear-form matrix pairing the gap vector with the solved coefficients.

    Entries vanish exactly (bit zero) above the anti-diagonal i + j = n - 1.
    """
    return _tabulate(_b_entry, n, h)


def _t_entry(n, i, j):
    if j >= i:
        return 1, j - i, math.factorial(j - i)


@lru_cache(maxsize=_HORIZON_CACHE_SIZE, typed=True)
def _propagation_table(n: int, h: float) -> np.ndarray:
    """The free-flight propagator T(h) = V(h) V(0)^-1, read-only.

    Stored transposed as a (j, k, 1) array, the layout ``taylor_propagate``
    multiplies by.  Checked on a miss only: an invalid (n, h) raises and is
    never cached.  Keys are typed, so a horizon True misses the entry of
    1.0 and is refused.
    """
    T = np.ascontiguousarray(_tabulate(_t_entry, n, h).T)[:, :, None]
    T.setflags(write=False)
    return T


def taylor_propagate(values: np.ndarray, h: float) -> np.ndarray:
    """Propagate a derivative stack forward by time h under zero n-th derivative.

    Row k of the result is sum_{j>=k} h**(j-k)/(j-k)! * values[j] -- the
    free-flight end state of a start stack ``values``.  Accepts an (n,)
    or (n, d) stack, or stacks of them (..., n, d) propagated along axis
    -2 in one pass; each stack's result is bit-identical to propagating
    it alone.

    The terms T[k, j] values[j] are laid out (..., j, k, d) and summed by
    ``np.add.reduce`` over j, starting from +0.0.  numpy sums pairwise
    only along the fast memory axis, and j is never that axis, so it adds
    the terms strictly in increasing j: row k is bit for bit the
    left-to-right sum of its terms from zero, and never -0.0 (the
    structural zeros, j < k, add only signed zeros).  The result is C
    order: a strided stack would change the bits of a later matmul.
    """
    values = np.asarray(values, dtype=float)
    stack = values[:, None] if values.ndim == 1 else values
    terms = _propagation_table(stack.shape[-2], h) * stack[..., :, None, :]
    return np.add.reduce(terms, axis=-3, initial=0.0).reshape(values.shape)


def build_b(problem: CostProblem) -> np.ndarray:
    """Gap vector b (n x d): end stack minus the free-flight image of the start."""
    return problem.end.values - taylor_propagate(problem.start.values, problem.h)


def _u_entry(n, i, j):
    if j >= i:
        return math.factorial(j) // math.factorial(j - i), n + j - i, 1


def build_U(n: int, h: float) -> np.ndarray:
    """Upper triangular factor of A; diagonal entry (k, k) is k! * h**n."""
    return _tabulate(_u_entry, n, h)


def _l_entry(n, i, j):
    if j <= i:
        coef = math.comb(i, j) * math.factorial(n) // math.factorial(n - i + j)
        return coef, j - i, 1


def build_L(n: int, h: float) -> np.ndarray:
    """Unit lower triangular factor of A (A = L U)."""
    return _tabulate(_l_entry, n, h)


def _u_inv_entry(n, i, j):
    if j >= i:
        return (-1) ** (i + j), j - i - n, math.factorial(i) * math.factorial(j - i)


def build_U_inv(n: int, h: float) -> np.ndarray:
    """Closed-form inverse of the upper factor U."""
    return _tabulate(_u_inv_entry, n, h)


def _l_inv_entry(n, i, j):
    if j <= i:
        coef = (-1) ** (i - j) * math.factorial(i) // math.factorial(j)
        return coef * math.comb(n + i - j - 1, i - j), j - i, 1


def build_L_inv(n: int, h: float) -> np.ndarray:
    """Closed-form inverse of the unit lower factor L."""
    return _tabulate(_l_inv_entry, n, h)


@lru_cache(maxsize=None)
def _a_inv_coefficients(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact rational coefficients c with A(h)^-1[i,j] = c[i][j] * h**(j-i-n).

    The paper's explicit Wronskian inverse, the entrywise sum of U^-1[i,k] L^-1[k,j]:
    c[i][j] = (-1)**(i+j) / j! * sum_{k=max(i,j)}^{n-1} C(k,i) C(n-1+k-j, k-j).
    Each entry is exact, so it is correctly rounded by its one float
    conversion; a float product of the factors would lose ~5 digits by
    n = 12 through cancellation between the large alternating terms.
    """
    return tuple(
        tuple(
            Fraction(
                (-1) ** (i + j) * sum(math.comb(k, i) * math.comb(n - 1 + k - j, k - j)
                                      for k in range(max(i, j), n)),
                math.factorial(j),
            )
            for j in range(n)
        )
        for i in range(n)
    )


def _a_inv_entry(n, i, j):
    return _a_inv_coefficients(n)[i][j], j - i - n, 1


def build_A_inv(n: int, h: float) -> np.ndarray:
    """Closed-form inverse of A: the explicit Wronskian inverse, rounded once."""
    return _tabulate(_a_inv_entry, n, h)


@lru_cache(maxsize=_HORIZON_CACHE_SIZE, typed=True)
def form_matrix(n: int, h: float) -> np.ndarray:
    """The cost form B(h) @ A(h)^-1, read-only and cached per (n, h).

    The cost of a gap b is sum_k b_k^T M b_k over its columns.  Every
    caller of the product goes through here, so a horizon used again
    costs one cache lookup.  The order and horizon are checked on a miss;
    an invalid pair raises and is never cached.  Keys are typed, so an
    order True or 1.0 misses the entry of 1 and is refused.  At most
    ``_HORIZON_CACHE_SIZE`` (n, h) pairs are kept, least recently used
    first out.
    """
    M = build_B(n, h) @ build_A_inv(n, h)
    M.setflags(write=False)
    return M


def _k_entry(n, i, j):
    coef = math.factorial(n) ** 2 * math.comb(n + i, n) * math.comb(n + j, n)
    return coef, i + j + 1, i + j + 1


def build_K(n: int, h: float) -> np.ndarray:
    """Gram matrix of the n-th derivatives of the upper monomials on [0, h].

    Symmetric positive definite; a diagonally scaled Hilbert-type matrix.
    """
    return _tabulate(_k_entry, n, h)


#: The public builders by their CLI name, in the default output order.
BUILDERS = {
    "A": build_A,
    "B": build_B,
    "V": build_V,
    "L": build_L,
    "U": build_U,
    "Linv": build_L_inv,
    "Uinv": build_U_inv,
    "Ainv": build_A_inv,
    "K": build_K,
}


def det_A(n: int, h: float) -> float:
    """Closed-form determinant of A: h**(n**2) * prod_{k<n} k!.

    The h exponent follows from summing the monomial degrees n..2n-1 and
    subtracting C(n, 2) for the derivative rows, which gives n**2; direct
    2x2/3x3 cofactor expansion confirms it.  Strictly positive for h > 0:
    rounded once, and a value outside the normal doubles raises DomainError.
    """
    n = _check_order(n)
    num, den = _check_horizon(h).as_integer_ratio()
    superfact = math.prod(math.factorial(k) for k in range(1, n))
    det = Fraction(superfact * num ** (n * n), den ** (n * n))
    if not sys.float_info.min <= det <= sys.float_info.max:
        raise DomainError(f"det A for n={n}, h={h} is outside double precision")
    return float(det)
