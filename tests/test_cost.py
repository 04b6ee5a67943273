import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdcost import (
    BoundaryState,
    ConsistencyError,
    DomainError,
    TrajectoryPolynomial,
    build_b,
    cost,
    cost_scaled,
    cost_via_K,
    eval_trajectory,
    free_flight_target,
    hessian,
    is_free_flight,
    make_problem,
    reduce_order,
    solve_trajectory,
)
from msdcost.cost import NEGATIVE_CLAMP, finalize_totals

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


def test_cost_via_K_examples():
    for n, want in REST_TO_REST.items():
        if n == 1:
            continue
        assert cost_via_K(rest_problem(n)) == pytest.approx(want, rel=1e-12)
    free = make_problem(1.0, [0.0, 1.0], [1.0, 1.0])
    assert abs(cost_via_K(free)) <= 1e-12


def test_cost_via_K_matches_default_route():
    rng = np.random.default_rng(5)
    p = make_problem(0.7, rng.uniform(-5, 5, (5, 3)), rng.uniform(-5, 5, (5, 3)))
    ref = cost(p).total
    assert abs(cost_via_K(p) - ref) <= 1e-9 * ref


def test_cost_scaled_examples():
    assert cost_scaled(rest_problem(2, h=2.0)) == pytest.approx(1.5, rel=1e-12)
    assert cost_scaled(rest_problem(3, h=0.5)) == pytest.approx(23040.0, rel=1e-12)


def test_cost_scaled_bit_identical_at_unit_horizon():
    rng = np.random.default_rng(11)
    for n in (1, 3, 6):
        p = make_problem(1.0, rng.uniform(-5, 5, (n, 2)), rng.uniform(-5, 5, (n, 2)))
        assert cost_scaled(p) == cost(p).total


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


def test_trajectory_sample_overflow_names_time():
    poly = solve_trajectory(rest_problem(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e308, -1e308, float("inf"), float("nan")):
            with pytest.raises(DomainError, match=re.escape(f"t={t}")):
                eval_trajectory(poly, 0, t)


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
        k = cost_via_K(p)
        s = cost_scaled(p)
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
