"""Independent numerical checks for the closed-form machinery.

Nothing here touches the closed-form inverses: linear systems go through
dense elimination with scaled partial pivoting, the trajectory functional
is integrated by numpy's Gauss-Legendre rule (companion-matrix eigenvalues
plus one Newton step), and determinants come from the elimination pivots:
the reference paths the closed-form results are validated against.
"""

from __future__ import annotations

import math

import numpy as np

from .types import DomainError, SingularMatrixError, TrajectoryPolynomial

#: A pivot below this fraction of its row's max-norm flags singularity.
#: The ratio is scale-invariant: the boundary matrices are strongly graded
#: (rows spanning 14 orders of magnitude are legitimate), so thresholding
#: against the global matrix norm would misclassify them.
PIVOT_THRESHOLD = 1e-13

MAX_NODES = 16


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's m-node Gauss-Legendre rule on [-1, 1], exact to degree 2m-1."""
    if m < 1 or m > MAX_NODES:
        raise DomainError(f"node count out of range: {m} (supported 1..{MAX_NODES})")
    return np.polynomial.legendre.leggauss(m)


def _eliminate(a: np.ndarray, rhs: np.ndarray | None):
    """Forward elimination with scaled partial pivoting, in place.

    Pivot rows are chosen by largest entry relative to the row's max-norm
    (plain column-max pivoting loses ~2 digits on strongly graded rows).
    Returns (sign, smallest scaled pivot ratio); a near-zero ratio means
    rank deficiency, independent of row scaling.
    """
    n = a.shape[0]
    scale = np.abs(a).max(axis=1)
    scale[scale == 0.0] = 1.0
    sign = 1.0
    worst_ratio = np.inf
    for k in range(n):
        ratios = np.abs(a[k:, k]) / scale[k:]
        p = k + int(np.argmax(ratios))
        if p != k:
            a[[k, p]] = a[[p, k]]
            scale[[k, p]] = scale[[p, k]]
            if rhs is not None:
                rhs[[k, p]] = rhs[[p, k]]
            sign = -sign
        piv = a[k, k]
        worst_ratio = min(worst_ratio, abs(piv) / scale[k])
        if piv == 0.0:
            return sign, 0.0
        for r in range(k + 1, n):
            f = a[r, k] / piv
            if f != 0.0:
                a[r, k:] -= f * a[k, k:]
                if rhs is not None:
                    rhs[r] -= f * rhs[k]
    return sign, worst_ratio


def pivoted_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs by Gaussian elimination with scaled partial pivoting.

    ``rhs`` may be a vector or an (n, d) block of right-hand sides; the
    result has the same shape.  Raises SingularMatrixError when a pivot
    falls below PIVOT_THRESHOLD relative to its row scale.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    vector_rhs = np.ndim(rhs) == 1
    b = np.array(rhs, dtype=float)
    if vector_rhs:
        b = b[:, None]
    if b.shape[0] != a.shape[0]:
        raise DomainError(
            f"right-hand side has {b.shape[0]} rows, matrix has {a.shape[0]}"
        )
    n = a.shape[0]
    _, ratio = _eliminate(a, b)
    if ratio <= PIVOT_THRESHOLD:
        raise SingularMatrixError(
            f"scaled pivot {ratio:.3e} below threshold {PIVOT_THRESHOLD:.0e}"
        )
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x[:, 0] if vector_rhs else x


def elimination_det(a: np.ndarray) -> float:
    """Determinant as the signed product of elimination pivots (0 if singular)."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    sign, ratio = _eliminate(a, None)
    if ratio == 0.0:
        return 0.0
    det = sign
    for k in range(a.shape[0]):
        det *= a[k, k]
    return float(det)


def quadrature_cost(poly: TrajectoryPolynomial) -> float:
    """Integral of |xi^(n)|^2 over [0, h] by (n+1)-node Gauss-Legendre.

    The integrand is a polynomial of degree 2n-2, so the rule is exact up
    to rounding.  Evaluation is Horner on the n-times-differentiated
    coefficients; no closed-form matrices are involved.
    """
    n = poly.n
    dcoef = [
        (math.factorial(i) // math.factorial(i - n)) * poly.coeffs[i]
        for i in range(n, 2 * n)
    ]
    nodes, weights = gauss_legendre(n + 1)
    half = 0.5 * poly.h
    total = 0.0
    for x, w in zip(nodes, weights):
        t = half * (x + 1.0)
        val = dcoef[-1].copy()
        for row in reversed(dcoef[:-1]):
            val = val * t + row
        total += w * float(val @ val)
    return half * total
