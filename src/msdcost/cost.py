"""Cost evaluation routes, optimal trajectories, and qualitative predicates.

The minimum of the integrated squared n-th derivative over curves joining
two derivative stacks is a quadratic form in the gap vector b.  Its three
evaluation routes are the one table ``_ROUTE_TOTALS``, keyed by ``ROUTES``:

* ``algorithm51`` (default): b^T B A^-1 b with the closed-form inverse,
  summed over spatial dimensions.
* ``kform``: the paper's sum of squares h**(1-2n) sum_i (2i+1) (R_i . c)**2
  over the integer Legendre table R, c_j = h**j b_j, evaluated exactly on
  Python ints (every float is an integer over a power of two) and rounded
  once: an exact cross-check of the float routes.
* ``scaled``: pull the horizon into the boundary data (b row i scaled by
  h**i), evaluate everything at h = 1, and multiply by h**(1-2n).
  Better conditioned when h is far from 1.  At h = 1 this reproduces the
  default route bit for bit.

``DEFAULT_ROUTE`` is the one choice of route: ``cost()`` uses it when none
is named, and the ground cost of ``transport`` evaluates its entry on
stacks of gaps.  Every route refuses a gap b that overflowed double
precision, and so does the ground cost.  The optimal trajectory is
sampled in two-point Hermite form from its endpoint stacks, never from
its monomial coefficients.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .matrices import _powers, build_A_inv, build_b, form_matrix, taylor_propagate
from .types import (
    BoundaryState,
    ConsistencyError,
    CostBreakdown,
    CostProblem,
    DomainError,
    TrajectoryPolynomial,
    _check_order,
    _float_copy,
    _trusted,
)

#: Totals in [-NEGATIVE_CLAMP, 0) are rounding noise on a nonnegative form
#: and are reported as 0; anything more negative is a real inconsistency.
NEGATIVE_CLAMP = 1e-9

#: Default relative tolerance for the free-flight predicate.
FREE_FLIGHT_TOL = 1e-10


def form_totals(M: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Quadratic form g^T M g summed over spatial dimensions, per gap.

    ``G`` stacks gaps of shape (n, d) along any leading axes; the result
    has the leading shape.  Two stacked matmuls do the work: MG = M G,
    then the dot product of each gap with its MG, both flattened row-major
    to n*d entries.  Every gap goes through the same per-slice matmuls
    whatever the stack, so a batched total is bit-identical to the total
    of that gap alone.
    """
    lead, size = G.shape[:-2], G.shape[-2] * G.shape[-1]
    MG = M @ G
    return (G.reshape(lead + (1, size)) @ MG.reshape(lead + (size, 1)))[..., 0, 0]


def finalize_totals(totals) -> np.ndarray:
    """Costs from raw form totals, under the one sign and finiteness rule.

    Totals in [-NEGATIVE_CLAMP, 0) are reported as 0.  A non-finite total
    raises DomainError (the form overflowed double precision) and a total
    below -NEGATIVE_CLAMP raises ConsistencyError.
    """
    totals = np.asarray(totals, dtype=float)
    lo, hi = float(totals.min()), float(totals.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = hi if math.isfinite(lo) else lo
        raise DomainError(f"cost evaluated to {bad}, outside double precision")
    if lo < -NEGATIVE_CLAMP:
        raise ConsistencyError(
            f"cost evaluated to {lo}, far below zero for a nonnegative form"
        )
    return np.maximum(totals, 0.0) if lo < 0.0 else totals


@lru_cache(maxsize=None)
def _legendre_rows(n: int) -> np.ndarray:
    """Read-only integer table R, R[i][n-1-k] = (-1)**k k! C(i,k) C(i+k,k).

    Row i is k! times the shifted Legendre polynomial of degree i, so the
    cost of a gap b is h**(1-2n) sum_i (2i+1) (R_i . c)**2, c_j = h**j b_j.
    """
    R = np.array([[(-1) ** k * math.comb(i, k) * math.perm(i + k, k)
                   for k in reversed(range(n))] for i in range(n)], dtype=object)
    R.setflags(write=False)
    return R


def _kform_total(n: int, h: float, b: np.ndarray) -> float:
    """The Legendre sum of squares on Python ints, rounded once.

    With h = p/q and b = G/D over one power-of-two denominator, the ints
    g_j = G_j p**j q**(n-1-j) give the cost as
    q sum_i (2i+1) (R g)_i**2 / (p**(2n-1) D**2), a correctly rounded division.
    """
    _check_gap(b)  # first, as an exact int cannot hold an inf
    p, q = h.as_integer_ratio()
    ratios = [v.as_integer_ratio() for v in b.ravel().tolist()]
    D = max(den for _, den in ratios)
    G = np.array([num * (D // den) for num, den in ratios], dtype=object).reshape(b.shape)
    scale = np.array([[p**j * q ** (n - 1 - j)] for j in range(n)], dtype=object)
    v = _legendre_rows(n) @ (G * scale)
    squares = sum((2 * i + 1) * (row * row).sum() for i, row in enumerate(v))
    try:
        return q * squares / (p ** (2 * n - 1) * D * D)
    except OverflowError:
        raise DomainError("exact cost is beyond double precision") from None


def _scaled_totals(n: int, h: float, B: np.ndarray) -> np.ndarray:
    p = _powers(h, 1 - 2 * n, n - 1)  # h**(1-2n), ..., h**(n-1)
    row_scale = np.array(p[2 * n - 1 :])[:, None]
    return p[0] * form_totals(form_matrix(n, 1.0), B * row_scale)


#: The routes, one table: each maps (n, h, B) to the raw totals of the cost
#: form.  The float routes take a (..., n, d) stack of gaps B and return the
#: totals over its leading shape, each bit for bit the total of its gap
#: alone; ``kform`` takes one (n, d) gap and returns a float.
_ROUTE_TOTALS = {
    "algorithm51": lambda n, h, B: form_totals(form_matrix(n, h), B),
    "kform": _kform_total,
    "scaled": _scaled_totals,
}
ROUTES = tuple(_ROUTE_TOTALS)

#: The one default route: of ``cost()``, the ground cost and the CLI.
DEFAULT_ROUTE = "algorithm51"


def _check_gap(b: np.ndarray) -> None:
    if not np.isfinite(b).all():
        raise DomainError("gap vector b is beyond double precision")


def cost(problem: CostProblem, route: str = DEFAULT_ROUTE) -> CostBreakdown:
    """Minimum integrated squared n-th derivative between the two endpoints.

    Deterministic for fixed inputs; all routes share the same gap vector b.
    ``CostProblem`` validated the order, horizon and shapes when built.

    A non-finite gap b raises DomainError on every route, and on an
    unknown route before the route is refused.  The float routes check b
    only when their total is not a finite nonnegative number: the form's
    diagonal is positive, so an inf or nan anywhere in b reaches the
    total.  A finite nonnegative total is returned as it is; any other
    total goes through ``finalize_totals``.
    """
    n, h = problem.n, problem.h
    # an overflow shows as a non-finite total, which finalize_totals refuses
    with np.errstate(over="ignore", invalid="ignore"):
        b = build_b(problem)
        if route not in ROUTES:  # a tuple test, so an unhashable route is refused too
            _check_gap(b)
            raise DomainError(f"unknown cost route {route!r}, expected one of {ROUTES}")
        total = float(_ROUTE_TOTALS[route](n, h, b))
    if 0.0 <= total < math.inf:
        return CostBreakdown(total, route, b)
    _check_gap(b)
    return CostBreakdown(float(finalize_totals(total)), route, b, total < 0.0)


def hessian(n: int, h: float) -> np.ndarray:
    """Fresh symmetric positive-definite H of the cost form b^T H b, finite or refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = form_matrix(n, h)
        H = 0.5 * (M + M.T)
    if not np.isfinite(H).all():
        raise DomainError(f"hessian at n={n}, h={h} is beyond double precision")
    return H


def solve_trajectory(problem: CostProblem) -> TrajectoryPolynomial:
    """The optimal polynomial (degree <= 2n-1): the Hermite interpolant of the stacks.

    The result carries the endpoint stacks, which ``eval_trajectory``
    samples, and the monomial coefficients as derived output: a_k = x_k / k!
    below n, and the upper block solves A a = b through the closed-form
    inverse.
    """
    n, h = problem.n, problem.h
    x = problem.start.values
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(n)])[:, None]
    # a coefficient may overflow where the stacks do not: it stays inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        upper = build_A_inv(n, h) @ build_b(problem)
    coeffs = np.vstack([x * inv_fact, upper])
    coeffs.setflags(write=False)
    return _trusted(
        TrajectoryPolynomial, n=n, h=h, d=problem.d, coeffs=coeffs,
        start=x, end=problem.end.values,
    )


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
    function j at s is sum_r T[j, r] s**r (1-s)**(m-r).  Returns T and
    the exponent vectors of s and of 1-s.
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
    T = np.array([[v * math.comb(m, r) / math.factorial(m) for r, v in enumerate(row)]
                  for row in rows])
    exponents = np.arange(m + 1.0)
    return T, exponents, exponents[::-1].copy()


def _sampler(poly: TrajectoryPolynomial, k: int) -> tuple:
    """(T, e, f, D): the cached ``_hermite_table(n, k)`` and the scaled stacks D.

    D is built on each call.  For k < n, D stacks h**(j-k) x_j over
    h**(j-k) y_j (h**0 is exactly 1, so both endpoints come out bit-exact).
    For k >= n only the gap b drives the derivative, so D is zero over
    h**(j-k) b_j and free flight gives exact zeros.
    """
    n, h = poly.n, poly.h
    with np.errstate(over="ignore", invalid="ignore"):  # eval_trajectory refuses it
        if k < n:
            p = np.array(_powers(h, -k, n - 1 - k))[:, None]
            D = np.vstack([p * poly.start, p * poly.end])
        else:
            p = np.array(_powers(h, -k, 0)[:n])[:, None]
            gap = poly.end - taylor_propagate(poly.start, h)
            D = np.vstack([np.zeros_like(gap), p * gap])
    return (*_hermite_table(n, k), D)


def eval_trajectory(poly: TrajectoryPolynomial, k: int, t) -> np.ndarray:
    """k-th derivative of the trajectory at time t, as a d-vector.

    A sequence of times gives a (len(times), d) array whose row i is, bit
    for bit, the sample at times[i].  Samples the two-point Hermite
    form: the k-th derivatives of the 2n basis functions at s = t/h, from
    cached exact Bernstein tables, are combined with the endpoint stacks
    scaled by h**(j-k).  For k < n the samples at t = 0 and t = h are the
    stack rows x_k and y_k bit for bit.  Times outside [0, h] extrapolate
    the polynomial.  Any k >= 2n returns zeros (the optimizer satisfies the
    stationarity condition xi^(2n) = 0).  Every batch is computed with
    overflow warnings off and then checked: a sample beyond double
    precision raises DomainError naming the first such t.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise DomainError(f"derivative order must be an integer, got k={k!r}")
    if k < 0:
        raise DomainError(f"derivative order must be nonnegative, got k={k}")
    times = _float_copy(t, "times")
    shape = times.shape + (poly.d,)
    if k >= 2 * poly.n:
        return np.zeros(shape)
    T, e, f, D = _sampler(poly, k)
    s = (times.ravel() / poly.h)[:, None]
    # Stacked matmuls give each s a lone sample's products, so each row is
    # its one-at-a-time sample bit for bit; a gemm is not.
    with np.errstate(over="ignore", invalid="ignore"):
        basis = np.matmul(T, (s**e * (1.0 - s) ** f)[:, :, None])[:, :, 0]
        values = np.matmul(basis[:, None, :], D)[:, 0, :]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DomainError(
            f"trajectory derivative k={k} at t={float(times.ravel()[finite.argmin()])}"
            " is beyond double precision"
        )
    return values.reshape(shape)


def free_flight_target(n: int, h: float, start: BoundaryState) -> BoundaryState:
    """The unique end state reachable at zero cost from ``start`` over h.

    Row j of the target is sum_{i>=j} h**(i-j)/(i-j)! x_i, i.e. the Taylor
    propagation of the start stack with vanishing n-th derivative.  A
    target beyond double precision raises DomainError.
    """
    n = _check_order(n)
    if start.n != n:
        raise DomainError(f"start state has order {start.n}, expected {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        target = taylor_propagate(start.values, h)
    if not np.isfinite(target).all():
        raise DomainError(f"free-flight target over h={h} is beyond double precision")
    return BoundaryState(target)


def is_free_flight(problem: CostProblem, tol: float = FREE_FLIGHT_TOL) -> bool:
    """True when the gap vector vanishes relative to the boundary data.

    A gap beyond double precision raises DomainError, as in ``cost``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        b = build_b(problem)
    _check_gap(b)
    return gap_is_free_flight(problem, b, tol)


def gap_is_free_flight(
    problem: CostProblem, b: np.ndarray, tol: float = FREE_FLIGHT_TOL
) -> bool:
    """``is_free_flight`` on the problem's gap b, already computed by ``cost``."""
    if isinstance(tol, (bool, np.bool_)) or not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
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
