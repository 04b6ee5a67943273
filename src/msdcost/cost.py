"""Cost evaluation routes, optimal trajectories, and qualitative predicates.

The minimum of the integrated squared n-th derivative over curves joining
two derivative stacks is a quadratic form in the gap vector b.  Three
evaluation routes are provided:

* ``algorithm51`` (default): b^T B A^-1 b with the closed-form inverse,
  summed over spatial dimensions.
* ``kform``: solve for the upper polynomial coefficients a = A^-1 b and
  evaluate a^T K a against the Gram matrix K.  This route is evaluated in
  exact rational arithmetic (the float inputs are exact rationals) with a
  single rounding at the end: the bilinear form has alternating-sign
  cancellation that costs ~7 digits in plain float by n = 8, which would
  defeat its purpose as a cross-check.
* ``scaled``: pull the horizon into the boundary data (b row i scaled by
  h**i), evaluate everything at h = 1, and multiply by h**(1-2n).
  Better conditioned when h is far from 1.  At h = 1 this reproduces the
  default route bit for bit.

Every route refuses a gap b that overflowed double precision.  The
optimal trajectory is sampled in two-point Hermite form from its
endpoint stacks, never from its monomial coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .matrices import (
    _a_inv_coefficients,
    _check_horizon,
    _check_order,
    _powers,
    build_A_inv,
    build_B,
    build_b,
    h_power_table,
    taylor_propagate,
)
from .types import (
    BoundaryState,
    ConsistencyError,
    CostBreakdown,
    CostProblem,
    DomainError,
    TrajectoryPolynomial,
)

ROUTES = ("algorithm51", "kform", "scaled")

#: Totals in [-NEGATIVE_CLAMP, 0) are rounding noise on a nonnegative form
#: and are reported as 0; anything more negative is a real inconsistency.
NEGATIVE_CLAMP = 1e-9

#: Default relative tolerance for the free-flight predicate.
FREE_FLIGHT_TOL = 1e-10


def form_totals(M: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Quadratic form g^T M g summed over spatial dimensions, per gap.

    ``G`` stacks gaps of shape (n, d) along any leading axes; the result
    has the leading shape.  Each gap goes through the same per-slice
    matmul and the same accumulation order (rows, then the d columns left
    to right) whatever the stack, so a batched total is bit-identical to
    the total of that gap alone.
    """
    per_column = (G * (M @ G)).sum(axis=-2)
    total = per_column[..., 0]
    for k in range(1, G.shape[-1]):
        total = total + per_column[..., k]
    return total


def finalize_totals(totals) -> np.ndarray:
    """Costs from raw form totals, under the one sign and finiteness rule.

    Totals in [-NEGATIVE_CLAMP, 0) are reported as 0.  A non-finite total
    raises DomainError (the form overflowed double precision) and a total
    below -NEGATIVE_CLAMP raises ConsistencyError.
    """
    totals = np.asarray(totals, dtype=float)
    if totals.ndim:
        lo, hi = float(totals.min()), float(totals.max())
    else:
        lo = hi = float(totals)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = hi if math.isfinite(lo) else lo
        raise DomainError(f"cost evaluated to {bad}, outside double precision")
    if lo < -NEGATIVE_CLAMP:
        raise ConsistencyError(
            f"cost evaluated to {lo}, far below zero for a nonnegative form"
        )
    return np.maximum(totals, 0.0) if lo < 0.0 else totals


@lru_cache(maxsize=None)
def _gram_coefficients(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact h-free part of K: (n!)^2 C(n+i,n) C(n+j,n) / (i+j+1)."""
    nfact2 = math.factorial(n) ** 2
    return tuple(
        tuple(
            Fraction(nfact2 * math.comb(n + i, n) * math.comb(n + j, n), i + j + 1)
            for j in range(n)
        )
        for i in range(n)
    )


def _kform_total(n: int, h: float, b: np.ndarray) -> float:
    hf = Fraction(h)
    hp = {e: hf ** e for e in range(1 - 2 * n, 2 * n)}
    ainv = _a_inv_coefficients(n)
    gram = _gram_coefficients(n)
    total = Fraction(0)
    for k in range(b.shape[1]):
        bf = [Fraction(v) for v in b[:, k]]
        a = [
            sum(ainv[i][j] * hp[j - i - n] * bf[j] for j in range(n))
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                total += gram[i][j] * hp[i + j + 1] * a[i] * a[j]
    try:
        return float(total)
    except OverflowError:
        raise DomainError("exact cost is beyond double precision") from None


def _scaled_total(n: int, h: float, b: np.ndarray) -> float:
    p = h_power_table(n, h)
    row_scale = np.array([p[i] for i in range(n)])[:, None]
    b_tilde = b * row_scale
    M1 = build_B(n, 1.0) @ build_A_inv(n, 1.0)
    return p[1 - 2 * n] * form_totals(M1, b_tilde)


def cost(problem: CostProblem, route: str = "algorithm51") -> CostBreakdown:
    """Minimum integrated squared n-th derivative between the two endpoints.

    Deterministic for fixed inputs; all routes share the same gap vector b.
    """
    n = _check_order(problem.n)
    h = _check_horizon(problem.h)
    # an overflow shows as a non-finite total, which finalize_totals refuses
    with np.errstate(over="ignore", invalid="ignore"):
        b = build_b(problem)
        if not np.isfinite(b).all():
            raise DomainError("gap vector b is beyond double precision")
        if route == "algorithm51":
            M = build_B(n, h) @ build_A_inv(n, h)
            total = form_totals(M, b)
        elif route == "kform":
            total = _kform_total(n, h, b)
        elif route == "scaled":
            total = _scaled_total(n, h, b)
        else:
            raise DomainError(f"unknown cost route {route!r}, expected one of {ROUTES}")
    return CostBreakdown(
        total=float(finalize_totals(total)), route=route, b=b, clamped=bool(total < 0.0)
    )


def cost_via_K(problem: CostProblem) -> float:
    """Cost through the Gram-matrix route a^T K a (exact evaluation)."""
    return cost(problem, route="kform").total


def cost_scaled(problem: CostProblem) -> float:
    """Cost through the h = 1 rescaled route, times h**(1-2n)."""
    return cost(problem, route="scaled").total


def hessian(n: int, h: float) -> np.ndarray:
    """Symmetric positive-definite matrix H of the cost form b^T H b."""
    M = build_B(n, h) @ build_A_inv(n, h)
    return 0.5 * (M + M.T)


def solve_trajectory(problem: CostProblem) -> TrajectoryPolynomial:
    """The optimal polynomial (degree <= 2n-1): the Hermite interpolant of the stacks.

    The result carries the endpoint stacks, which ``eval_trajectory``
    samples, and the monomial coefficients as derived output: a_k = x_k / k!
    below n, and the upper block solves A a = b through the closed-form
    inverse.
    """
    n = _check_order(problem.n)
    h = _check_horizon(problem.h)
    x = problem.start.values
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(n)])[:, None]
    # a coefficient may overflow where the stacks do not: it stays inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        upper = build_A_inv(n, h) @ build_b(problem)
    return TrajectoryPolynomial(
        n=n,
        h=h,
        d=problem.d,
        coeffs=np.vstack([x * inv_fact, upper]),
        start=x,
        end=problem.end.values,
    )


#: A sample with s = t/h in [0, 1] whose bound from ``_sampler`` is below
#: this cannot overflow, so it skips the floating-point guard.
_NO_OVERFLOW_BOUND = 1e300


@lru_cache(maxsize=None)
def _hermite_table(n: int, k: int) -> tuple:
    """k-th derivatives of the 2n two-point Hermite basis functions in Bernstein form.

    In s = t/h, basis function j < n has j-th derivative 1 at s = 0 and
    every other derivative below n zero at s = 0 and s = 1; function n + j
    is its mirror image times (-1)**j, so the same holds at s = 1.  In
    degree N = 2n-1 Bernstein form, N! times the control points of function
    j are the integers C(r, j)(N-j)! for r < n and 0 from r = n on.  Their
    k-th forward differences times C(m, r)/m!, with m = N-k, are exact
    rationals, rounded once into row j of T, so that the k-th derivative of
    function j at s is sum_r T[j, r] s**r (1-s)**(m-r).  Returns T, the two
    exponent vectors and the largest row sum of |T|, which bounds every
    basis value for s in [0, 1].
    """
    N = 2 * n - 1
    m = N - k
    start = [
        [math.comb(r, j) * math.factorial(N - j) if r < n else 0 for r in range(N + 1)]
        for j in range(n)
    ]
    end = [[(-1) ** j * v for v in reversed(row)] for j, row in enumerate(start)]
    rows = start + end
    for _ in range(k):
        rows = [[b - a for a, b in zip(row, row[1:])] for row in rows]
    scale = [Fraction(math.comb(m, r), math.factorial(m)) for r in range(m + 1)]
    T = np.array([[float(v * c) for v, c in zip(row, scale)] for row in rows])
    exponents = np.arange(m + 1.0)
    return T, exponents, exponents[::-1].copy(), float(np.abs(T).sum(axis=1).max())


def _sampler(poly: TrajectoryPolynomial, k: int) -> tuple:
    """Table, exponents, scaled stacks D and a no-overflow flag; once per (poly, k).

    For k < n, D stacks h**(j-k) x_j over h**(j-k) y_j (h**0 is exactly 1,
    so both endpoints come out bit-exact).  For k >= n only the gap b
    drives the derivative, so D is zero over h**(j-k) b_j and free flight
    gives exact zeros.
    """
    entry = poly._samplers.get(k)
    if entry is None:
        n, h = poly.n, poly.h
        T, e, f, t_norm = _hermite_table(n, k)
        with np.errstate(over="ignore", invalid="ignore"):
            if k < n:
                p = np.array(_powers(h, -k, n - 1 - k))[:, None]
                D = np.vstack([p * poly.start, p * poly.end])
            else:
                p = np.array(_powers(h, -k, 0)[:n])[:, None]
                gap = poly.end - taylor_propagate(poly.start, h)
                D = np.vstack([np.zeros_like(gap), p * gap])
            bounded = bool(t_norm * np.abs(D).sum(axis=0).max() < _NO_OVERFLOW_BOUND)
        entry = poly._samplers[k] = (T, e, f, D, bounded)
    return entry


def _hermite_sample(T, e, f, D, s: float) -> np.ndarray:
    return T.dot(s**e * (1.0 - s) ** f).dot(D)


def eval_trajectory(poly: TrajectoryPolynomial, k: int, t: float) -> np.ndarray:
    """k-th derivative of the trajectory at time t, as a d-vector.

    Samples the two-point Hermite form: the k-th derivatives of the 2n
    basis functions at s = t/h, from cached exact Bernstein tables, are
    combined with the endpoint stacks scaled by h**(j-k).  For k < n the
    samples at t = 0 and t = h are the stack rows x_k and y_k bit for bit.
    Times outside [0, h] extrapolate the polynomial.  Any k >= 2n returns
    zeros (the optimizer satisfies the stationarity condition xi^(2n) = 0).
    A sample beyond double precision raises DomainError naming t.
    """
    if k < 0:
        raise DomainError(f"derivative order must be nonnegative, got k={k}")
    if k >= 2 * poly.n:
        return np.zeros(poly.d)
    T, e, f, D, bounded = _sampler(poly, k)
    s = float(t) / poly.h
    if bounded and 0.0 <= s <= 1.0:  # cannot overflow: no guard needed
        return _hermite_sample(T, e, f, D, s)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _hermite_sample(T, e, f, D, s)
    if not np.isfinite(value).all():
        raise DomainError(
            f"trajectory derivative k={k} at t={t} is beyond double precision"
        )
    return value


def free_flight_target(n: int, h: float, start: BoundaryState) -> BoundaryState:
    """The unique end state reachable at zero cost from ``start`` over h.

    Row j of the target is sum_{i>=j} h**(i-j)/(i-j)! x_i, i.e. the Taylor
    propagation of the start stack with vanishing n-th derivative.
    """
    n = _check_order(n)
    if start.n != n:
        raise DomainError(f"start state has order {start.n}, expected {n}")
    return BoundaryState(taylor_propagate(start.values, h))


def is_free_flight(problem: CostProblem, tol: float = FREE_FLIGHT_TOL) -> bool:
    """True when the gap vector vanishes relative to the boundary data."""
    return gap_is_free_flight(problem, build_b(problem), tol)


def gap_is_free_flight(
    problem: CostProblem, b: np.ndarray, tol: float = FREE_FLIGHT_TOL
) -> bool:
    """``is_free_flight`` on the problem's gap b, already computed by ``cost``."""
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    scale = float(
        max(np.abs(problem.start.values).max(), np.abs(problem.end.values).max())
    )
    return bool(np.abs(b).max() <= tol * (1.0 + scale))


def reduce_order(problem: CostProblem) -> CostProblem:
    """Drop the position rows and decrement the order.

    The derivative of the order-n optimizer is admissible for the reduced
    problem, so the reduced cost never exceeds the original.
    """
    if problem.n < 2:
        raise DomainError("cannot reduce a first-order problem")
    return CostProblem(
        n=problem.n - 1,
        h=problem.h,
        d=problem.d,
        start=BoundaryState(problem.start.values[1:]),
        end=BoundaryState(problem.end.values[1:]),
    )
