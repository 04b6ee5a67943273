"""Independent numerical checks for the closed-form machinery.

Nothing here touches the closed-form inverses: the trajectory functional
is integrated by numpy's Gauss-Legendre rule (companion-matrix eigenvalues
plus one Newton step), and determinants come from the pivots of dense
elimination: the reference paths the closed-form results are validated
against.
"""

from __future__ import annotations

import math

import numpy as np

from .types import DomainError, TrajectoryPolynomial, _float_copy

MAX_NODES = 16


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's m-node Gauss-Legendre rule on [-1, 1], exact to degree 2m-1."""
    if m < 1 or m > MAX_NODES:
        raise DomainError(f"node count out of range: {m} (supported 1..{MAX_NODES})")
    return np.polynomial.legendre.leggauss(m)


def elimination_det(a: np.ndarray) -> float:
    """Determinant as the signed product of elimination pivots (0 if singular).

    Forward elimination with scaled partial pivoting: pivot rows are chosen
    by largest entry relative to the row's max-norm (plain column-max
    pivoting loses ~2 digits on strongly graded rows, and the boundary
    matrices have rows spanning 14 orders of magnitude).
    """
    a = _float_copy(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    scale = np.abs(a).max(axis=1)
    scale[scale == 0.0] = 1.0
    det = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k]) / scale[k:]))
        if p != k:
            a[[k, p]] = a[[p, k]]
            scale[[k, p]] = scale[[p, k]]
            det = -det
        piv = a[k, k]
        if abs(piv) / scale[k] == 0.0:  # singular, or a pivot that underflows
            return 0.0
        for r in range(k + 1, n):
            f = a[r, k] / piv
            if f != 0.0:
                a[r, k:] -= f * a[k, k:]
    for k in range(n):
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
