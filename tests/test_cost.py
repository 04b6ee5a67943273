import importlib
import math
import re
import sys
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ENVELOPE, envelope_stacks
from msdcost import (
    N_MAX,
    BoundaryState,
    ConsistencyError,
    CostProblem,
    DomainError,
    TrajectoryPolynomial,
    build_b,
    cost,
    eval_trajectory,
    free_flight_target,
    hessian,
    is_free_flight,
    make_problem,
    reduce_order,
    solve_trajectory,
    taylor_propagate,
)
from msdcost.cost import (
    _ROUTE_TOTALS,
    NEGATIVE_CLAMP,
    ROUTES,
    _hermite_table,
    _legendre_rows,
    _sampler,
    finalize_totals,
    form_totals,
)
from msdcost.matrices import _a_inv_coefficients, form_matrix, h_power_table

REST_TO_REST = {1: 1.0, 2: 12.0, 3: 720.0, 4: 100800.0}


def rest_problem(n, h=1.0, displacement=1.0):
    x = np.zeros(n)
    y = np.zeros(n)
    y[0] = displacement
    return make_problem(h, x, y)


# ------------------------------------------------------------------ cost


def test_cost_examples():
    assert cost(make_problem(2.0, [1.0], [5.0])).total == pytest.approx(8.0, rel=1e-12)
    for n, want in REST_TO_REST.items():
        assert cost(rest_problem(n)).total == pytest.approx(want, rel=1e-12)
    free = make_problem(1.0, [0.0, 1.0], [1.0, 1.0])
    assert cost(free).total == 0.0


def test_cost_breakdown_fields():
    breakdown = cost(rest_problem(2))
    assert breakdown.route == "algorithm51"
    assert breakdown.clamped is False
    np.testing.assert_allclose(breakdown.b.ravel(), [1.0, 0.0], rtol=0)


def test_finalize_totals_rule():
    np.testing.assert_array_equal(finalize_totals([2.5, -1e-12, 0.0]), [2.5, 0.0, 0.0])
    assert finalize_totals(np.float64(-NEGATIVE_CLAMP)) == 0.0
    with pytest.raises(ConsistencyError):
        finalize_totals([1.0, -1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            finalize_totals([1.0, bad, -1e-12])


def test_cost_unknown_route():
    with pytest.raises(DomainError):
        cost(rest_problem(2), route="fast")


def test_problem_construction_validation():
    with pytest.raises(DomainError):
        make_problem(0.0, [0.0], [1.0])
    with pytest.raises(DomainError):
        make_problem(-1.0, [0.0], [1.0])
    with pytest.raises(DomainError):
        make_problem(1.0, [[0.0], [0.0]], [[1.0, 0.0], [0.0, 0.0]])


def test_value_types_refuse_an_order_at_construction():
    rows = np.zeros((N_MAX + 1, 2))
    with pytest.raises(DomainError, match="order out of range"):
        make_problem(1.0, rows, rows)
    with pytest.raises(DomainError, match="order out of range"):
        TrajectoryPolynomial(n=N_MAX + 1, h=1.0, d=2, coeffs=np.vstack([rows, rows]))
    x = BoundaryState([0.0, 1.0])
    with pytest.raises(DomainError, match="must be an integer"):
        CostProblem(n=2.0, h=1.0, d=1, start=x, end=x)
    with pytest.raises(DomainError, match="must be an integer, got True"):
        CostProblem(n=True, h=1.0, d=1, start=BoundaryState([0.0]), end=BoundaryState([1.0]))
    with pytest.raises(DomainError, match="must be an integer, got True"):
        TrajectoryPolynomial(True, 1.0, 1, [[0.0], [1.0]])


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_value_types_refuse_a_horizon_with_one_message(h):
    from msdcost.types import _check_horizon  # the one horizon check

    x = BoundaryState([0.0, 1.0])
    with pytest.raises(DomainError) as problem_error:
        CostProblem(n=2, h=h, d=1, start=x, end=x)
    with pytest.raises(DomainError) as poly_error:
        TrajectoryPolynomial(n=2, h=h, d=1, coeffs=np.zeros((4, 1)))
    with pytest.raises(DomainError) as check_error:
        _check_horizon(h)
    assert str(problem_error.value) == str(poly_error.value) == str(check_error.value)


def test_cost_via_K_examples():
    for n, want in REST_TO_REST.items():
        if n == 1:
            continue
        assert cost(rest_problem(n), route="kform").total == pytest.approx(want, rel=1e-12)
    free = make_problem(1.0, [0.0, 1.0], [1.0, 1.0])
    assert abs(cost(free, route="kform").total) <= 1e-12


def test_cost_via_K_matches_default_route():
    rng = np.random.default_rng(5)
    p = make_problem(0.7, rng.uniform(-5, 5, (5, 3)), rng.uniform(-5, 5, (5, 3)))
    ref = cost(p).total
    assert abs(cost(p, route="kform").total - ref) <= 1e-9 * ref


def test_cost_scaled_examples():
    assert cost(rest_problem(2, h=2.0), route="scaled").total == pytest.approx(1.5, rel=1e-12)
    assert cost(rest_problem(3, h=0.5), route="scaled").total == pytest.approx(23040.0, rel=1e-12)


def test_cost_scaled_bit_identical_at_unit_horizon():
    rng = np.random.default_rng(11)
    for n in (1, 3, 6):
        p = make_problem(1.0, rng.uniform(-5, 5, (n, 2)), rng.uniform(-5, 5, (n, 2)))
        assert cost(p, route="scaled").total == cost(p).total


# --------------------------------------------------------------- hessian


def test_hessian_examples():
    for h in (0.5, 1.0, 3.0):
        np.testing.assert_allclose(hessian(1, h), [[1.0 / h]], rtol=1e-15)
    for n in (2, 4, 7):
        m = hessian(n, 1.3)
        assert (m == m.T).all()


def test_hessian_positive_definite():
    for n in range(1, 11):
        for h in (0.5, 1.0, 2.0):
            np.linalg.cholesky(hessian(n, h))


def test_cost_matches_hessian_quadratic_form(random_problem_set):
    for p in random_problem_set[:50]:
        ref = cost(p).total
        b = build_b(p)
        h_mat = hessian(p.n, p.h)
        via_h = sum(float(b[:, k] @ h_mat @ b[:, k]) for k in range(p.d))
        assert abs(via_h - ref) <= 1e-9 * max(ref, via_h, 1e-300)


def test_telescoping_difference_has_rank_one():
    # embedding drops the first gap coordinate: reduced b equals b[1:]
    for n in (2, 3, 4):
        for h in (0.5, 1.0, 2.0):
            full = hessian(n, h)
            embedded = np.zeros((n, n))
            embedded[1:, 1:] = hessian(n - 1, h)
            sv = np.linalg.svd(full - embedded, compute_uv=False)
            assert sv[1] <= 1e-8 * sv[0]


@pytest.mark.parametrize("n, h", [(12, 1e30), (12, 1e-30), (4, 1e200)])
def test_hessian_beyond_double_precision_is_refused(n, h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"hessian at n={n}, h={h}")):
            hessian(n, h)


# ------------------------------------------------------------ trajectory


def test_solve_trajectory_examples():
    line = solve_trajectory(make_problem(1.0, [0.0], [1.0]))
    np.testing.assert_allclose(line.coeffs.ravel(), [0.0, 1.0], atol=1e-15)

    smooth = solve_trajectory(rest_problem(2))
    np.testing.assert_allclose(smooth.coeffs.ravel(), [0, 0, 3, -2], atol=1e-12)

    jerk_free = solve_trajectory(rest_problem(3))
    np.testing.assert_allclose(jerk_free.coeffs.ravel(), [0, 0, 0, 10, -15, 6], atol=1e-10)


def test_trajectory_reproduces_boundary_states():
    # strict bound where the monomial representation can deliver it (n <= 5;
    # by n = 8 the coefficient/evaluation conditioning reaches ~1e12 and no
    # double-precision pipeline reproduces boundaries to 1e-8)
    rng = np.random.default_rng(4242)
    for n in range(1, 6):
        for h in (0.5, 1.0, 2.0, 5.0, 10.0):
            p = make_problem(h, rng.uniform(-5, 5, (n, 2)), rng.uniform(-5, 5, (n, 2)))
            poly = solve_trajectory(p)
            scale = 1.0 + max(
                np.abs(p.start.values).max(), np.abs(p.end.values).max()
            )
            for k in range(n):
                at0 = eval_trajectory(poly, k, 0.0)
                ath = eval_trajectory(poly, k, p.h)
                assert np.abs(at0 - p.start.values[k]).max() <= 1e-8 * scale
                assert np.abs(ath - p.end.values[k]).max() <= 1e-8 * scale


def test_trajectory_boundary_error_is_backward_stable(random_problem_set):
    # over the full range the error stays tiny relative to the evaluated
    # term magnitudes (the intrinsic conditioning of the monomial form)
    for p in random_problem_set[:40]:
        poly = solve_trajectory(p)
        scale = 1.0 + max(
            np.abs(p.start.values).max(), np.abs(p.end.values).max()
        )
        for k in range(p.n):
            dcoef = np.array(
                [
                    (math.factorial(i) // math.factorial(i - k)) * poly.coeffs[i]
                    for i in range(k, 2 * p.n)
                ]
            )
            for t, want in ((0.0, p.start.values[k]), (p.h, p.end.values[k])):
                err = np.abs(eval_trajectory(poly, k, t) - want).max()
                mags = np.abs(dcoef) * (t ** np.arange(dcoef.shape[0]))[:, None]
                assert err <= 1e-12 * (scale + float(mags.sum()))


def test_eval_trajectory_examples():
    poly = solve_trajectory(rest_problem(2))
    assert eval_trajectory(poly, 0, 1.0)[0] == pytest.approx(1.0, rel=1e-12)
    assert eval_trajectory(poly, 1, 0.5)[0] == pytest.approx(1.5, rel=1e-12)
    for t in (0.0, 0.3, 1.0, 2.5):
        assert eval_trajectory(poly, 4, t)[0] == 0.0
        assert eval_trajectory(poly, 9, t)[0] == 0.0


def test_eval_trajectory_rejects_negative_order():
    poly = solve_trajectory(rest_problem(2))
    with pytest.raises(DomainError):
        eval_trajectory(poly, -1, 0.5)


@pytest.mark.parametrize("k", [1.5, 1.0, "1", None, True])
def test_eval_trajectory_refuses_a_non_integer_order(k):
    poly = solve_trajectory(rest_problem(2))
    with pytest.raises(DomainError, match=re.escape(f"must be an integer, got k={k!r}")):
        eval_trajectory(poly, k, 0.5)
    assert (eval_trajectory(poly, np.int64(1), 0.5) == eval_trajectory(poly, 1, 0.5)).all()


SAMPLER_HORIZONS = (1e-3, 1e-2, 0.37, 1.0, 100.0, 1e3)


def horner_reference(poly, k, t):
    """The former sampler: Horner on the differentiated monomial coefficients."""
    if k < 0:
        raise DomainError(f"derivative order must be nonnegative, got k={k}")
    deg = 2 * poly.n
    if k >= deg:
        return np.zeros(poly.d)
    dcoef = [
        (math.factorial(i) // math.factorial(i - k)) * poly.coeffs[i]
        for i in range(k, deg)
    ]
    val = dcoef[-1].copy()
    for row in reversed(dcoef[:-1]):
        val = val * t + row
    return val


def exact_hermite_coefficients(h, x, y):
    """Monomial coefficients of the two-point Hermite interpolant, as Fractions.

    x and y are the derivative stacks of one column; the upper block is
    solved by exact Gauss-Jordan elimination, independent of the package.
    """
    n = len(x)
    hf = Fraction(h)
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    low = [xs[j] / math.factorial(j) for j in range(n)]
    gap = [
        ys[j] - sum(hf ** (i - j) / math.factorial(i - j) * xs[i] for i in range(j, n))
        for j in range(n)
    ]
    rows = [
        [Fraction(math.factorial(n + c), math.factorial(n + c - r)) * hf ** (n + c - r)
         for c in range(n)] + [gap[r]]
        for r in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * c for a, c in zip(rows[r], rows[col])]
    return low + [rows[r][n] / rows[r][r] for r in range(n)]


def exact_derivative(coeffs, k, t):
    tf = Fraction(t)
    return sum(
        c * Fraction(math.factorial(i), math.factorial(i - k)) * tf ** (i - k)
        for i, c in enumerate(coeffs)
        if i >= k
    )


def test_trajectory_endpoints_are_bit_exact():
    rng = np.random.default_rng(606)
    for n in range(1, 13):
        for h in SAMPLER_HORIZONS:
            p = make_problem(h, rng.uniform(-5, 5, (n, 2)), rng.uniform(-5, 5, (n, 2)))
            poly = solve_trajectory(p)
            for k in range(n):
                at0 = eval_trajectory(poly, k, 0.0)
                ath = eval_trajectory(poly, k, h)
                assert at0.tobytes() == p.start.values[k].tobytes(), (n, h, k)
                assert ath.tobytes() == p.end.values[k].tobytes(), (n, h, k)


def test_trajectory_interior_matches_exact_hermite():
    # the former Horner sampler was off by up to 2.5e1 here (n = 12, h = 1e3)
    rng = np.random.default_rng(607)
    for n in range(1, 13):
        for h in SAMPLER_HORIZONS:
            x, y = rng.uniform(-5, 5, (n, 2)), rng.uniform(-5, 5, (n, 2))
            poly = solve_trajectory(make_problem(h, x, y))
            exact = [exact_hermite_coefficients(h, x[:, c], y[:, c]) for c in range(2)]
            for t in (0.3 * h, 0.77 * h):
                for k in range(n):
                    got = eval_trajectory(poly, k, t)
                    for c in range(2):
                        want = exact_derivative(exact[c], k, t)
                        err = abs(Fraction(got[c]) - want) / max(1, abs(want))
                        assert err <= 1e-10, (n, h, t, k, float(err))


def test_trajectory_upper_derivatives_match_exact_hermite_of_the_float_gap():
    # for k >= n only the float gap b enters, so the reference is the exact
    # interpolant whose end stack is the exact Taylor image of x plus that b;
    # worst measured: 6.0e-7 relative at n = 12, h = 100
    rng = np.random.default_rng(611)
    for n in range(1, 13):
        for h in SAMPLER_HORIZONS:
            x, y = rng.uniform(-5, 5, (n, 2)), rng.uniform(-5, 5, (n, 2))
            poly = solve_trajectory(make_problem(h, x, y))
            b = poly.end - taylor_propagate(poly.start, h)
            hf = Fraction(h)
            exact = []
            for c in range(2):
                image = [
                    sum(hf ** (i - j) / math.factorial(i - j) * Fraction(x[i, c]) for i in range(j, n))
                    for j in range(n)
                ]
                end = [v + Fraction(g) for v, g in zip(image, b[:, c])]
                exact.append(exact_hermite_coefficients(h, x[:, c], end))
            for k in range(n, 2 * n):
                got, want = [], []
                for t in (0.3 * h, 0.77 * h):
                    sample = eval_trajectory(poly, k, t)
                    for c in range(2):
                        got.append(Fraction(sample[c]))
                        want.append(exact_derivative(exact[c], k, t))
                scale = max(abs(w) for w in want)
                err = max(abs(g - w) for g, w in zip(got, want)) / scale
                assert err <= 6e-6, (n, h, k, float(err))


def test_trajectory_free_flight_upper_derivatives_are_exact_zeros():
    rng = np.random.default_rng(608)
    for n in range(1, 13):
        for h in (1e-2, 0.8, 100.0):
            x = rng.uniform(-5, 5, (n, 3))
            y = free_flight_target(n, h, BoundaryState(x)).values
            poly = solve_trajectory(make_problem(h, x, y))
            for k in range(n, 2 * n):
                for t in (0.0, 0.3 * h, h, 1.5 * h):
                    assert (eval_trajectory(poly, k, t) == 0.0).all(), (n, h, k, t)


def test_trajectory_from_coeffs_samples_its_coefficients():
    # stacks derived from the coefficients; checked against the former
    # sampler, relative to the sizes of its terms out to the horizon
    rng = np.random.default_rng(609)
    for n in range(1, 6):
        for h in (0.5, 1.0, 2.2):
            coeffs = rng.uniform(-2, 2, (2 * n, 2))
            poly = TrajectoryPolynomial(n=n, h=h, d=2, coeffs=coeffs)
            for t in (0.0, 0.3 * h, 0.77 * h, h, 1.25 * h):
                reach = max(t, h)
                for k in range(2 * n + 1):
                    terms = sum(
                        math.factorial(i) / math.factorial(i - k)
                        * np.abs(coeffs[i]) * reach ** (i - k)
                        for i in range(k, 2 * n)
                    )
                    err = np.abs(eval_trajectory(poly, k, t) - horner_reference(poly, k, t))
                    assert (err <= 1e-11 * (1.0 + terms)).all(), (n, h, t, k)


def test_trajectory_polynomial_endpoint_stacks():
    poly = TrajectoryPolynomial(n=2, h=1.0, d=1, coeffs=[[0.0], [0.0], [3.0], [-2.0]])
    np.testing.assert_array_equal(poly.start, [[0.0], [0.0]])
    np.testing.assert_array_equal(poly.end, [[1.0], [0.0]])
    with pytest.raises(DomainError):
        TrajectoryPolynomial(n=2, h=1.0, d=1, coeffs=np.zeros((4, 1)), start=np.zeros((2, 1)))
    with pytest.raises(DomainError):
        TrajectoryPolynomial(n=2, h=0.0, d=1, coeffs=np.zeros((4, 1)))


def test_trajectory_polynomial_promotes_one_dimensional_coefficients():
    poly = TrajectoryPolynomial(n=2, h=1.0, d=1, coeffs=[0, 0, 3, -2])
    assert poly.coeffs.shape == (4, 1)
    assert poly == TrajectoryPolynomial(n=2, h=1.0, d=1, coeffs=[[0], [0], [3], [-2]])


def test_trajectory_sample_overflow_names_time():
    poly = solve_trajectory(rest_problem(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e308, -1e308, float("inf"), float("nan")):
            with pytest.raises(DomainError, match=re.escape(f"t={t}")):
                eval_trajectory(poly, 0, t)


def dot_chain_reference(poly, k, t):
    """The per-time sampler before batching: two chained dots at one s = t/h."""
    if k >= 2 * poly.n:
        return np.zeros(poly.d)
    T, e, f, D = _sampler(poly, k)
    s = float(t) / poly.h
    return T.dot(s**e * (1.0 - s) ** f).dot(D)


def test_trajectory_batch_matches_per_time_samples_bitwise():
    rng = np.random.default_rng(610)
    for n in range(1, 13):
        for d in (1, 2, 3):
            for h in SAMPLER_HORIZONS:
                x, y = rng.uniform(-5, 5, (n, d)), rng.uniform(-5, 5, (n, d))
                poly = solve_trajectory(make_problem(h, x, y))
                times = [0.0, 0.3 * h, 0.77 * h, h, -0.5 * h, 1.5 * h]
                for k in range(2 * n + 1):
                    batch = eval_trajectory(poly, k, times)
                    lone = np.array([eval_trajectory(poly, k, t) for t in times])
                    ref = np.array([dot_chain_reference(poly, k, t) for t in times])
                    assert batch.shape == (len(times), d), (n, d, h, k)
                    assert batch.tobytes() == lone.tobytes(), (n, d, h, k)
                    assert batch.tobytes() == ref.tobytes(), (n, d, h, k)


def test_trajectory_batch_edge_cases():
    poly = solve_trajectory(make_problem(1.0, np.zeros((2, 3)), np.ones((2, 3))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert eval_trajectory(poly, 0, []).shape == (0, 3)
        assert eval_trajectory(poly, 1, np.array([0.25, 0.5])).shape == (2, 3)
        for k in (4, 9):
            zeros = eval_trajectory(poly, k, [0.0, 0.5, float("nan"), 1e308])
            assert zeros.shape == (4, 3) and (zeros == 0.0).all()
        cases = (
            ([0.5, -1e308, 1e308], "t=-1e+308"),
            ((0.5, float("nan"), 1e308), "t=nan"),
            (np.array([1.0, float("inf"), -1e308]), "t=inf"),
        )
        for times, first in cases:
            with pytest.raises(DomainError, match=re.escape(f"at {first} is")):
                eval_trajectory(poly, 0, times)


# ----------------------------------------------------------- free flight


def test_free_flight_target_examples():
    target = free_flight_target(2, 1.0, BoundaryState([0.0, 1.0]))
    np.testing.assert_allclose(target.values.ravel(), [1.0, 1.0], rtol=0)

    for c in (-2.0, 0.0, 3.5):
        target = free_flight_target(1, 2.0, BoundaryState([c]))
        assert target.values.ravel()[0] == c
        p = make_problem(2.0, [c], target.values)
        assert cost(p).total == 0.0

    target = free_flight_target(3, 2.0, BoundaryState([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(target.values.ravel(), [5.0, 3.0, 1.0], rtol=0)


def test_is_free_flight():
    assert is_free_flight(make_problem(1.0, [0.0, 1.0], [1.0, 1.0]))
    assert not is_free_flight(rest_problem(2))
    with pytest.raises(DomainError):
        is_free_flight(rest_problem(2), tol=0.0)


def test_free_flight_order_mismatch():
    with pytest.raises(DomainError):
        free_flight_target(3, 1.0, BoundaryState([0.0, 1.0]))


# ----------------------------------------------------------- reduce order


def test_reduce_order_examples():
    reduced = reduce_order(rest_problem(2))
    assert reduced.n == 1
    assert cost(reduced).total == 0.0 <= cost(rest_problem(2)).total

    assert cost(reduce_order(rest_problem(3))).total <= 720.0


def test_reduce_order_too_small():
    with pytest.raises(DomainError):
        reduce_order(rest_problem(1))


def test_reduce_order_preserves_free_flight():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        x = rng.uniform(-2, 2, (n, 2))
        y = free_flight_target(n, 1.5, BoundaryState(x)).values
        p = make_problem(1.5, x, y)
        assert is_free_flight(p)
        assert is_free_flight(reduce_order(p))


# ---------------------------------------------------- bulk invariants


def test_route_equivalence(random_problem_set):
    for p in random_problem_set:
        ref = cost(p).total
        k = cost(p, route="kform").total
        s = cost(p, route="scaled").total
        scale = max(ref, k, s, 1e-300)
        assert abs(ref - k) <= 1e-8 * scale
        assert abs(ref - s) <= 1e-8 * scale
        assert abs(k - s) <= 1e-8 * scale


def test_scaling_law(random_problem_set):
    for p in random_problem_set:
        powers = p.h ** np.arange(p.n)[:, None]
        rescaled = make_problem(1.0, p.start.values * powers, p.end.values * powers)
        lhs = cost(p).total
        rhs = p.h ** (1 - 2 * p.n) * cost(rescaled).total
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs, 1e-300)


def test_monotonicity_under_order_reduction(random_problem_set):
    for p in random_problem_set:
        if p.n < 2:
            continue
        full = cost(p).total
        reduced = cost(reduce_order(p)).total
        assert reduced <= full + 1e-9 * (1.0 + full)


def test_cost_nonnegative_and_zero_set(random_problem_set):
    for p in random_problem_set:
        breakdown = cost(p)
        assert breakdown.total >= 0.0
    rng = np.random.default_rng(8)
    for n in (1, 3, 5, 8):
        x = rng.uniform(-5, 5, (n, 2))
        y = free_flight_target(n, 0.8, BoundaryState(x)).values
        p = make_problem(0.8, x, y)
        scale = 1.0 + max(np.abs(x).max(), np.abs(y).max())
        assert cost(p).total <= 1e-9 * scale


def test_optimality_cross_term(random_problem_set):
    # admissible perturbations eta = t^n (h-t)^n q(t) keep the boundary rows;
    # first-order optimality kills the cross term against the solved curve
    from numpy.polynomial import polynomial as npoly

    from msdcost import gauss_legendre

    rng = np.random.default_rng(13)
    for p in random_problem_set[:20]:
        n, h, d = p.n, p.h, p.d
        poly = solve_trajectory(p)
        ref = cost(p).total
        if ref == 0.0:
            continue
        xi_dn = [npoly.polyder(poly.coeffs[:, k], m=n) for k in range(d)]
        envelope = np.zeros(2 * n + 1)
        for k in range(n + 1):
            envelope[n + k] = math.comb(n, k) * h ** (n - k) * (-1) ** k
        nodes, weights = gauss_legendre(min(n + 3, 16))
        t = 0.5 * h * (nodes + 1.0)
        for _ in range(50):
            q = rng.uniform(-1.0, 1.0, (3, d))
            eta_dn = [
                npoly.polyder(npoly.polymul(envelope, q[:, k]), m=n) for k in range(d)
            ]
            norm_eta = 0.5 * h * float(
                weights @ sum(npoly.polyval(t, c) ** 2 for c in eta_dn)
            )
            if norm_eta == 0.0:
                continue
            scale = math.sqrt(ref / norm_eta)
            cross = 0.5 * h * float(
                weights
                @ sum(
                    npoly.polyval(t, xi_dn[k]) * (scale * npoly.polyval(t, eta_dn[k]))
                    for k in range(d)
                )
            )
            assert abs(cross) <= 1e-8 * ref


# ------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    h=st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaling_law_property(n, h, seed):
    # looser bound than the seeded-set check in test_scaling_law: the fp
    # error tail over unrestricted draws reaches ~2e-8 (measured over 20k)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 5, (n, 1))
    y = rng.uniform(-5, 5, (n, 1))
    p = make_problem(h, x, y)
    powers = h ** np.arange(n)[:, None]
    rescaled = make_problem(1.0, x * powers, y * powers)
    lhs = cost(p).total
    rhs = h ** (1 - 2 * n) * cost(rescaled).total
    assert abs(lhs - rhs) <= 1e-7 * max(lhs, rhs, 1e-300)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    h=st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_cost_nonnegative_property(n, h, seed):
    rng = np.random.default_rng(seed)
    p = make_problem(h, rng.uniform(-5, 5, (n, 2)), rng.uniform(-5, 5, (n, 2)))
    assert cost(p).total >= 0.0


# ------------------------------------------- lazy gap check, float sign rule

GAP_MESSAGE = "gap vector b is beyond double precision"
# an inf gap (x0 + h x1 overflows) and a nan gap (h x1 + h**2/2 x2 is inf - inf)
NON_FINITE_GAPS = [
    (1.0, [[1e308], [1e308]], [[0.0], [0.0]]),
    (1e10, [0.0, 1e308, -1e308], [0.0, 0.0, 0.0]),
]


@pytest.mark.parametrize("h, x, y", NON_FINITE_GAPS)
@pytest.mark.parametrize("route", ["algorithm51", "kform", "scaled", "no-such-route"])
def test_cost_refuses_a_non_finite_gap_on_every_route(h, x, y, route):
    p = make_problem(h, x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{GAP_MESSAGE}$"):
            cost(p, route=route)


def pinned_outcome(fn):
    try:
        out = fn()
    except (DomainError, ConsistencyError) as exc:
        return type(exc), str(exc)
    return np.float64(out).tobytes()


def test_cost_total_and_gap_match_the_kernel_bitwise():
    rng = np.random.default_rng(72)
    for n in range(1, N_MAX + 1):
        for h in (1e-2, 1.0, 100.0):
            for d in (1, 3):
                p = make_problem(h, rng.standard_normal((n, d)), rng.standard_normal((n, d)))
                b = build_b(p)
                kernel = pinned_outcome(
                    lambda: finalize_totals(form_totals(form_matrix(n, h), b))
                )
                assert pinned_outcome(lambda: cost(p).total) == kernel
                if isinstance(kernel, bytes):
                    out = cost(p)
                    assert type(out.total) is float and type(out.clamped) is bool
                    assert out.b.tobytes() == b.tobytes() and out.b.shape == (n, d)


def scaled_total_from_power_table(p):
    """The scaled route written out with every power read from ``h_power_table``."""
    n, h = p.n, p.h
    pw = h_power_table(n, h)
    b = build_b(p)
    row_scale = np.array([pw[i] for i in range(n)])[:, None]
    total = float(pw[1 - 2 * n] * form_totals(form_matrix(n, 1.0), b * row_scale))
    return finalize_totals(total)


def test_scaled_route_matches_the_power_table_formula_bytewise():
    rng = np.random.default_rng(73)
    for n in range(1, N_MAX + 1):
        for h in (1e-3, 1e-2, 0.37, 1.0, 100.0, 1e3):
            for d in (1, 3):
                p = make_problem(h, rng.standard_normal((n, d)), rng.standard_normal((n, d)))
                want = pinned_outcome(lambda: scaled_total_from_power_table(p))
                assert pinned_outcome(lambda: cost(p, route="scaled").total) == want, (n, h, d)


@pytest.mark.parametrize("route", [r for r in ROUTES if r != "kform"])
def test_float_route_totals_of_a_gap_stack_match_each_gap_bitwise(route):
    # the ground cost evaluates a stack of gaps through the same table entry
    totals = _ROUTE_TOTALS[route]
    rng = np.random.default_rng(74)
    for n in range(1, N_MAX + 1):
        for h in (1e-2, 0.37, 1.0, 100.0):
            for d in (1, 3):
                stack = rng.standard_normal((4, 5, n, d))
                got = totals(n, h, stack)
                assert got.shape == (4, 5)
                for idx in np.ndindex(4, 5):
                    alone = np.float64(totals(n, h, stack[idx]))
                    assert got[idx].tobytes() == alone.tobytes(), (n, h, d, idx)


@pytest.mark.parametrize(
    "raw",
    [0.0, -0.0, 2.5, 5e-324, -5e-324, -1e-12, -NEGATIVE_CLAMP, -2e-9, -1.0, math.inf,
     -math.inf, math.nan],
)
@pytest.mark.parametrize("route", ["algorithm51", "scaled"])
def test_cost_applies_the_one_sign_rule_to_its_total(monkeypatch, raw, route):
    cost_module = importlib.import_module("msdcost.cost")  # the package's `cost` is the function
    p = make_problem(1.0, [0.0, 1.0], [1.0, 0.0])
    monkeypatch.setattr(cost_module, "form_totals", lambda M, G: np.float64(raw))
    want = pinned_outcome(lambda: finalize_totals(raw))
    assert pinned_outcome(lambda: cost(p, route=route).total) == want
    if isinstance(want, bytes):
        assert cost(p, route=route).clamped is (raw < 0.0)


# ------------------------------------------- free-flight helpers at overflow


def test_free_flight_helpers_refuse_an_overflowing_gap_without_warnings():
    p = make_problem(1e10, 1e300 * np.ones((4, 1)), 1e300 * np.ones((4, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{GAP_MESSAGE}$"):
            cost(p)
        with pytest.raises(DomainError, match=f"^{GAP_MESSAGE}$"):
            is_free_flight(p)
        with pytest.raises(DomainError, match="free-flight target .* beyond double"):
            free_flight_target(4, 1e10, p.start)


def test_free_flight_target_does_not_blame_a_finite_start():
    start = BoundaryState(np.arange(12.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            free_flight_target(12, 1e200, start)
    assert "free-flight target over h=1e+200 is beyond double precision" == str(info.value)


# ------------------------------------- exact kform: Legendre sum of squares


def exact_inverse(rows):
    """Inverse of a square Fraction matrix by exact Gauss-Jordan elimination."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * c for a, c in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@pytest.mark.parametrize("h", [Fraction(1), Fraction(2, 7)])
def test_legendre_rows_diagonalize_the_gram_form_exactly(h):
    # A^-T K A^-1 = h**(1-2n) H R^T diag(1, 3, ..., 2n-1) R H with H = diag(h**j),
    # with A, K and A^-1 built here from their entry formulas, not the package's
    for n in range(1, N_MAX + 1):
        A = [[Fraction(math.factorial(n + j), math.factorial(n + j - i)) * h ** (n + j - i)
              for j in range(n)] for i in range(n)]
        K = [[Fraction(math.factorial(n) ** 2 * math.comb(n + i, n) * math.comb(n + j, n),
                       i + j + 1) * h ** (i + j + 1) for j in range(n)] for i in range(n)]
        Ainv = exact_inverse(A)
        KAinv = [[sum(K[i][k] * Ainv[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        lhs = [[sum(Ainv[k][i] * KAinv[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        R = _legendre_rows(n)
        rhs = [[h ** (1 - 2 * n + i + j) * sum((2 * k + 1) * R[k][i] * R[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
        assert lhs == rhs, n


@lru_cache(maxsize=None)
def gram_coefficients(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact h-free part of K: (n!)^2 C(n+i,n) C(n+j,n) / (i+j+1)."""
    nfact2 = math.factorial(n) ** 2
    return tuple(
        tuple(
            Fraction(nfact2 * math.comb(n + i, n) * math.comb(n + j, n), i + j + 1)
            for j in range(n)
        )
        for i in range(n)
    )


def kform_reference(n: int, h: float, b: np.ndarray) -> float:
    """The Gram-matrix form a^T K a, a = A^-1 b, over Fractions: the earlier kform."""
    hf = Fraction(h)
    hp = {e: hf ** e for e in range(1 - 2 * n, 2 * n)}
    ainv = _a_inv_coefficients(n)
    gram = gram_coefficients(n)
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


def test_kform_matches_the_gram_form_reference_bytewise():
    rng = np.random.default_rng(74)
    for n in range(1, N_MAX + 1):
        for h in (1e-6, 1e-3, 0.37, 1.0, 82.6, 100.0, 1e3, 1e6):
            for d in (1, 3):
                for scale in (1e-3, 1.0, 1e3):
                    x = scale * rng.standard_normal((n, d))
                    p = make_problem(h, x, rng.standard_normal((n, d)))
                    want = pinned_outcome(lambda: kform_reference(n, h, build_b(p)))
                    assert pinned_outcome(lambda: cost(p, route="kform").total) == want, (
                        n, h, d, scale)


def test_kform_refuses_an_exact_cost_beyond_double_precision():
    p = make_problem(1e-200, [[0.0], [0.0]], [[1.0], [0.0]])
    message = "exact cost is beyond double precision"
    with pytest.raises(DomainError, match=f"^{message}$"):
        kform_reference(2, 1e-200, build_b(p))
    with pytest.raises(DomainError, match=f"^{message}$"):
        cost(p, route="kform")


def test_hermite_table_matches_its_fraction_formula_bytewise():
    for n in range(1, N_MAX + 1):
        N = 2 * n - 1
        start = [[math.comb(r, j) * math.factorial(N - j) if r < n else 0
                  for r in range(N + 1)] for j in range(n)]
        rows = start + [[(-1) ** j * v for v in reversed(row)] for j, row in enumerate(start)]
        for k in range(2 * n):
            m = N - k
            scale = [Fraction(math.comb(m, r), math.factorial(m)) for r in range(m + 1)]
            want = np.array([[float(v * c) for v, c in zip(row, scale)] for row in rows])
            assert _hermite_table(n, k)[0].tobytes() == want.tobytes(), (n, k)
            rows = [[b - a for a, b in zip(row, row[1:])] for row in rows]


@settings(max_examples=300, deadline=None)
@given(**ENVELOPE)
def test_kform_envelope_is_nonnegative_and_exactly_homogeneous(n, log10_h, d, seed):
    h, (x, y) = 10.0**log10_h, envelope_stacks(n, d, seed)
    try:
        total = cost(make_problem(h, x, y), route="kform").total
    except DomainError:
        return
    assert math.isfinite(total) and total >= 0.0
    if total >= sys.float_info.min and math.isfinite(4.0 * total):
        assert cost(make_problem(h, 2.0 * x, 2.0 * y), route="kform").total == 4.0 * total
