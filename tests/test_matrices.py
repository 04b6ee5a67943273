import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdcost import (
    N_MAX,
    BoundaryState,
    DiscreteMeasure,
    DomainError,
    TrajectoryPolynomial,
    build_A,
    build_A_inv,
    build_B,
    build_K,
    build_L,
    build_L_inv,
    build_U,
    build_U_inv,
    build_V,
    build_b,
    det_A,
    h_power_table,
    hessian,
    eval_trajectory,
    make_problem,
    solve_trajectory,
    taylor_propagate,
)
from msdcost.matrices import _a_inv_coefficients, _check_horizon, _check_order

H_GRID = (0.5, 1.0, 2.0, 10.0)


# ---------------------------------------------------------------- builders


def test_build_A_examples():
    for h in (0.3, 1.0, 7.0):
        np.testing.assert_allclose(build_A(1, h), [[h]], rtol=0)
    np.testing.assert_allclose(build_A(2, 1.0), [[1, 1], [2, 3]], rtol=0)
    np.testing.assert_allclose(
        build_A(3, 2.0), [[8, 16, 32], [12, 32, 80], [12, 48, 160]], rtol=0
    )


def test_build_V_examples():
    np.testing.assert_allclose(build_V(2, 1.0), [[1, 1], [0, 1]], rtol=0)
    np.testing.assert_allclose(build_V(3, 0.0), np.diag([1.0, 1.0, 2.0]), rtol=0)
    np.testing.assert_allclose(build_V(1, 5.0), [[1.0]], rtol=0)


def test_build_V_diagonal_is_factorials():
    v = build_V(6, 3.7)
    np.testing.assert_allclose(np.diag(v), [math.factorial(k) for k in range(6)], rtol=0)


def test_build_B_examples():
    h = 3.5
    np.testing.assert_allclose(build_B(2, h), [[0, -6], [2, 6 * h]], rtol=0)
    np.testing.assert_allclose(
        build_B(3, 1.0), [[0, 0, 120], [0, -24, -120], [6, 24, 60]], rtol=0
    )
    np.testing.assert_allclose(build_B(1, 9.0), [[1.0]], rtol=0)


def test_build_B_zero_pattern_is_exact():
    for n in range(1, N_MAX + 1):
        b = build_B(n, 1.7)
        for i in range(n):
            for j in range(n):
                if i + j < n - 1:
                    assert b[i, j] == 0.0


def test_build_b_examples():
    p = make_problem(1.0, [0.0, 0.0], [1.0, 0.0])
    np.testing.assert_allclose(build_b(p).ravel(), [1.0, 0.0], rtol=0)

    p = make_problem(1.0, [0.0, 1.0], [1.0, 1.0])
    np.testing.assert_allclose(build_b(p).ravel(), [0.0, 0.0], atol=0)

    p = make_problem(2.0, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(build_b(p).ravel(), [-5.0, -3.0, -1.0], rtol=0)


def test_build_b_shape_mismatch():
    with pytest.raises(DomainError):
        make_problem(1.0, [0.0, 0.0], [1.0, 0.0, 0.0])


def test_build_L_U_examples():
    h = 2.0
    np.testing.assert_allclose(build_L(2, h), [[1, 0], [2 / h, 1]], rtol=0)
    np.testing.assert_allclose(build_U(2, h), [[h**2, h**3], [0, h**2]], rtol=0)
    np.testing.assert_allclose(
        build_L(3, 1.0), [[1, 0, 0], [3, 1, 0], [6, 6, 1]], rtol=0
    )


def test_U_diagonal_pattern():
    for n in (1, 3, 5, 8):
        for h in (0.5, 2.0):
            u = build_U(n, h)
            np.testing.assert_allclose(
                np.diag(u), [math.factorial(k) * h**n for k in range(n)], rtol=1e-15
            )


def test_build_L_inv_U_inv_examples():
    h = 4.0
    np.testing.assert_allclose(
        build_U_inv(2, h), [[1 / h**2, -1 / h], [0, 1 / h**2]], rtol=0
    )
    np.testing.assert_allclose(build_L_inv(2, h), [[1, 0], [-2 / h, 1]], rtol=0)
    np.testing.assert_allclose(build_L_inv(4, 1.0)[3], [-120, 60, -12, 1], rtol=0)
    np.testing.assert_allclose(build_L_inv(1, 3.0), [[1.0]], rtol=0)
    np.testing.assert_allclose(build_U_inv(1, 4.0), [[0.25]], rtol=0)


def test_build_A_inv_examples():
    np.testing.assert_allclose(build_A_inv(2, 1.0), [[3, -1], [-2, 1]], rtol=0)
    np.testing.assert_allclose(
        build_A_inv(3, 1.0),
        [[10, -4, 0.5], [-15, 7, -1], [6, -3, 0.5]],
        rtol=0,
    )
    np.testing.assert_allclose(build_A_inv(1, 8.0), [[0.125]], rtol=0)


def test_build_K_examples():
    np.testing.assert_allclose(build_K(2, 1.0), [[4, 6], [6, 12]], rtol=0)
    for h in (0.25, 1.0, 3.0):
        np.testing.assert_allclose(build_K(1, h), [[h]], rtol=0)


def test_build_K_symmetric_exactly():
    for n in range(1, N_MAX + 1):
        k = build_K(n, 1.3)
        assert (k == k.T).all()


def test_det_A_examples():
    assert det_A(2, 1.0) == pytest.approx(1.0, rel=0, abs=0)
    assert det_A(3, 1.0) == pytest.approx(2.0, rel=0, abs=0)
    for h in (0.5, 1.0, 4.0):
        assert det_A(1, h) == h


@pytest.mark.parametrize("n, h", [(12, 1e3), (8, 1e5), (12, 100.0), (12, 1e-3)])
def test_det_A_refuses_a_value_outside_the_normal_doubles(n, h):
    # overflow once raised a bare OverflowError or returned inf, underflow returned 0.0
    with pytest.raises(DomainError, match=f"^det A for n={n}, h={h} is outside double precision$"):
        det_A(n, h)


# ------------------------------------------------------------- validation


@pytest.mark.parametrize("bad_n", [0, -1, N_MAX + 1, True])
def test_order_out_of_range(bad_n):
    for builder in (build_A, build_V, build_B, build_L, build_U,
                    build_L_inv, build_U_inv, build_A_inv, build_K, det_A, hessian):
        with pytest.raises(DomainError):
            builder(bad_n, 1.0)


@pytest.mark.parametrize("bad_h", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_horizon_rejected(bad_h):
    with pytest.raises(DomainError):
        build_A(2, bad_h)
    with pytest.raises(DomainError):
        build_K(2, bad_h)


@pytest.mark.parametrize("rows", [0, N_MAX + 1])
def test_taylor_propagate_refuses_an_order_out_of_range(rows):
    for shape in ((rows,), (rows, 2), (3, rows, 2)):
        with pytest.raises(DomainError, match="order out of range"):
            taylor_propagate(np.zeros(shape), 1.0)


def test_V_allows_zero_horizon_only():
    build_V(4, 0.0)
    with pytest.raises(DomainError):
        build_V(4, -0.5)


# ------------------------------------------------------------- invariants


@pytest.mark.parametrize("h", H_GRID)
def test_lu_factorization_identity(h):
    for n in range(1, N_MAX + 1):
        a = build_A(n, h)
        resid = np.abs(build_L(n, h) @ build_U(n, h) - a).max()
        assert resid <= 1e-10 * np.abs(a).max()


@pytest.mark.parametrize("h", H_GRID)
def test_triangular_inverse_identities(h):
    for n in range(1, N_MAX + 1):
        ident = np.eye(n)
        assert np.abs(build_L(n, h) @ build_L_inv(n, h) - ident).max() <= 1e-9
        assert np.abs(build_U(n, h) @ build_U_inv(n, h) - ident).max() <= 1e-9


@pytest.mark.parametrize("h", H_GRID)
def test_full_inverse_identity_cond_scaled(h):
    for n in range(1, N_MAX + 1):
        a = build_A(n, h)
        a_inv = build_A_inv(n, h)
        cond = np.abs(a).sum(axis=1).max() * np.abs(a_inv).sum(axis=1).max()
        assert np.abs(a @ a_inv - np.eye(n)).max() <= 1e-9 * cond
        float_product = build_U_inv(n, h) @ build_L_inv(n, h)
        assert np.abs(a @ float_product - np.eye(n)).max() <= 1e-9 * cond


def test_A_inv_matches_float_factor_product():
    # build_A_inv is the exact-coefficient version of the same product
    for n in range(1, N_MAX + 1):
        for h in (0.5, 1.0, 2.0, 10.0):
            exact = build_A_inv(n, h)
            floated = build_U_inv(n, h) @ build_L_inv(n, h)
            np.testing.assert_allclose(floated, exact, rtol=1e-10, atol=0)


def test_shared_powers_are_bit_identical():
    # row 0 of A and U both reduce to (h**(n+j)); the cached power table
    # makes them byte-equal, not just close
    for n in (2, 5, 9):
        for h in (0.37, 1.0, 9.5):
            np.testing.assert_array_equal(build_A(n, h)[0], build_U(n, h)[0])


def test_det_closed_form_vs_elimination():
    from msdcost import elimination_det

    for n in range(1, 9):
        for h in (0.5, 1.0, 2.0):
            closed = det_A(n, h)
            pivoted = elimination_det(build_A(n, h))
            assert abs(pivoted - closed) <= 1e-8 * abs(closed)
            assert closed > 0.0


def test_triangular_structure():
    for n in (1, 4, 7):
        h = 1.9
        assert np.abs(np.tril(build_V(n, h), -1)).max() == 0.0
        assert np.abs(np.tril(build_U(n, h), -1)).max() == 0.0
        assert np.abs(np.tril(build_U_inv(n, h), -1)).max() == 0.0
        assert np.abs(np.triu(build_L(n, h), 1)).max() == 0.0
        assert np.abs(np.triu(build_L_inv(n, h), 1)).max() == 0.0
        np.testing.assert_array_equal(np.diag(build_L(n, h)), np.ones(n))
        np.testing.assert_array_equal(np.diag(build_L_inv(n, h)), np.ones(n))


def test_K_positive_definite_up_to_nmax():
    for n in range(1, N_MAX + 1):
        for h in (0.5, 1.0, 2.0):
            np.linalg.cholesky(build_K(n, h))


def test_all_entries_finite():
    for n in (1, 6, N_MAX):
        for h in (0.1, 1.0, 10.0):
            for builder in (build_A, build_V, build_B, build_L, build_U,
                            build_L_inv, build_U_inv, build_A_inv, build_K):
                assert np.isfinite(builder(n, h)).all()


def test_free_flight_gap_is_zero():
    rng = np.random.default_rng(42)
    for n in range(1, 9):
        x = rng.uniform(-5, 5, (n, 2))
        y = taylor_propagate(x, 1.7)
        p = make_problem(1.7, x, y)
        assert np.abs(build_b(p)).max() <= 1e-14


def test_taylor_propagate_stack_matches_per_point_calls():
    rng = np.random.default_rng(43)
    for n in (1, 3, 8, 12):
        for h in (1e-2, 0.8, 100.0):
            stack = rng.uniform(-3, 3, (5, n, 2))
            got = taylor_propagate(stack, h)
            assert got.shape == stack.shape
            for i in range(5):
                assert np.array_equal(got[i], taylor_propagate(stack[i], h))
            column = stack[0, :, 0]
            single = taylor_propagate(column, h)
            assert single.shape == (n,)
            p = h_power_table(n, h)
            for k in range(n):
                acc = 0.0
                for j in range(k, n):
                    acc = acc + (p[j - k] / math.factorial(j - k)) * column[j]
                assert single[k] == acc


# ------------------------------------------------------------- properties


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, N_MAX),
    h=st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False),
)
def test_lu_product_property(n, h):
    a = build_A(n, h)
    assert np.abs(build_L(n, h) @ build_U(n, h) - a).max() <= 1e-10 * np.abs(a).max()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    h=st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_gap_vanishes_iff_free_flight(n, h, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 5, (n, 1))
    y = taylor_propagate(x, h)
    assert np.abs(build_b(make_problem(h, x, y))).max() <= 1e-14 * (1 + np.abs(y).max())


def test_boundary_state_validation():
    with pytest.raises(DomainError):
        BoundaryState(np.array([[np.nan], [0.0]]))
    with pytest.raises(DomainError):
        BoundaryState(np.zeros((0, 1)))
    state = BoundaryState([1.0, 2.0, 3.0])
    assert state.n == 3 and state.d == 1


def test_value_types_compare_by_value():
    # equal but distinct arrays: == answers by value instead of raising
    x, y = [[1.0, 2.0], [0.5, -1.0]], [[3.0, 0.0], [1.0, 1.0]]
    z = [[3.0, 0.0], [1.0, 1.5]]  # y with one entry changed
    sampled = solve_trajectory(make_problem(0.5, x, y))
    eval_trajectory(sampled, 1, 0.25)  # sampling leaves the value as it was
    cases = [
        (BoundaryState(x), BoundaryState(np.array(x)), BoundaryState(z)),
        (make_problem(0.5, x, y), make_problem(0.5, x, y), make_problem(0.5, x, z)),
        (make_problem(0.5, x, y), make_problem(0.5, x, y), make_problem(0.6, x, y)),
        (
            TrajectoryPolynomial(n=1, h=2.0, d=2, coeffs=[x[0], y[0]]),
            TrajectoryPolynomial(n=1, h=2.0, d=2, coeffs=np.array([x[0], y[0]])),
            TrajectoryPolynomial(n=1, h=2.0, d=2, coeffs=[x[0], z[1]]),
        ),
        (sampled, solve_trajectory(make_problem(0.5, x, y)), solve_trajectory(make_problem(0.5, x, z))),
        (
            DiscreteMeasure.from_array([x, y]),
            DiscreteMeasure([BoundaryState(x).values, BoundaryState(y).values]),
            DiscreteMeasure.from_array([x, z]),
        ),
    ]
    for value, equal, changed in cases:
        assert value == equal and not value != equal
        assert value != changed and not value == changed
    assert BoundaryState(x) != make_problem(0.5, x, y)


# ------------------------------------------- loop references for the tables
#
# The builders as they were written before they became coefficient tables:
# one Python double loop per matrix over exact integer formulas and one
# dict of powers.  The table builders must reproduce them bit for bit.

def h_power_table_reference(n: int, h: float) -> dict[int, float]:
    """Powers h**e for e in [-2n, 2n], by repeated multiplication."""
    table = {0: 1.0}
    for e in range(1, 2 * n + 1):
        table[e] = table[e - 1] * h
    if h != 0.0:
        inv = 1.0 / h
        for e in range(-1, -2 * n - 1, -1):
            table[e] = table[e + 1] * inv
    return table


def build_A_reference(n: int, h: float) -> np.ndarray:
    """Derivative matrix of the upper monomial block at t = h (n x n)."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table_reference(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (math.factorial(n + j) // math.factorial(n + j - i)) * p[n + j - i]
    return out


def build_V_reference(n: int, h: float) -> np.ndarray:
    """Derivative matrix of the lower monomial block at t = h (upper triangular)."""
    n = _check_order(n)
    h = _check_horizon(h, allow_zero=True)
    p = h_power_table_reference(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = (math.factorial(j) // math.factorial(j - i)) * p[j - i]
    return out


def build_B_reference(n: int, h: float) -> np.ndarray:
    """Bilinear-form matrix pairing the gap vector with the solved coefficients."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table_reference(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        sign = (-1.0) ** (n - i - 1)
        for j in range(max(0, n - 1 - i), n):
            out[i, j] = sign * (
                math.factorial(n + j) // math.factorial(i + j - n + 1)
            ) * p[i + j - n + 1]
    return out


def taylor_propagate_reference(values: np.ndarray, h: float) -> np.ndarray:
    """Propagate a derivative stack forward by time h under zero n-th derivative."""
    values = np.asarray(values, dtype=float)
    rows = (values[:, None] if values.ndim == 1 else values).swapaxes(0, -2)
    n = rows.shape[0]
    h = _check_horizon(h)
    p = h_power_table_reference(n, h)
    out = np.zeros_like(rows)
    for k in range(n):
        acc = np.zeros(rows.shape[1:])
        for j in range(k, n):
            acc = acc + (p[j - k] / math.factorial(j - k)) * rows[j]
        out[k] = acc
    return out.swapaxes(0, -2).reshape(values.shape)


def build_U_reference(n: int, h: float) -> np.ndarray:
    """Upper triangular factor of A; diagonal entry (k, k) is k! * h**n."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table_reference(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = (math.factorial(j) // math.factorial(j - i)) * p[n + j - i]
    return out


def build_L_reference(n: int, h: float) -> np.ndarray:
    """Unit lower triangular factor of A (A = L U)."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table_reference(n, h)
    out = np.zeros((n, n))
    nfact = math.factorial(n)
    for i in range(n):
        for j in range(i + 1):
            out[i, j] = math.comb(i, j) * (nfact / math.factorial(n - i + j)) * p[j - i]
    return out


def build_U_inv_reference(n: int, h: float) -> np.ndarray:
    """Closed-form inverse of the upper factor U."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table_reference(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = (-1.0) ** (i + j) * p[j - i - n] / (
                math.factorial(i) * math.factorial(j - i)
            )
    return out


def build_L_inv_reference(n: int, h: float) -> np.ndarray:
    """Closed-form inverse of the unit lower factor L."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table_reference(n, h)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            out[i, j] = (
                (-1.0) ** (i - j)
                * (math.factorial(i) // math.factorial(j))
                * math.comb(n + i - j - 1, i - j)
            ) * p[j - i]
    return out


def a_inv_coefficients_reference(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact rational coefficients c with A(h)^-1[i,j] = c[i][j] * h**(j-i-n)."""
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


def build_A_inv_reference(n: int, h: float) -> np.ndarray:
    """Inverse of A as the product U^-1 L^-1 (exact rational coefficients)."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table_reference(n, h)
    coef = a_inv_coefficients_reference(n)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = float(coef[i][j]) * p[j - i - n]
    return out


def build_K_reference(n: int, h: float) -> np.ndarray:
    """Gram matrix of the n-th derivatives of the upper monomials on [0, h]."""
    n = _check_order(n)
    h = _check_horizon(h)
    p = h_power_table_reference(n, h)
    nfact2 = math.factorial(n) ** 2
    c = [nfact2 * math.comb(n + i, n) for i in range(n)]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (c[i] * math.comb(n + j, n)) * p[i + j + 1] / (i + j + 1)
    return out


REFERENCE_H = (1e-13, 1e-3, 0.37, 1.0, 2.5, 100.0, 1e3, 1e30)
TABLE_BUILDERS = (
    (build_A, build_A_reference),
    (build_V, build_V_reference),
    (build_B, build_B_reference),
    (build_U, build_U_reference),
    (build_L, build_L_reference),
    (build_U_inv, build_U_inv_reference),
    (build_L_inv, build_L_inv_reference),
    (build_A_inv, build_A_inv_reference),
    (build_K, build_K_reference),
)


def assert_bit_identical(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref, equal_nan=True)
    assert got.tobytes() == ref.tobytes()  # also tells -0.0 from 0.0


@pytest.mark.parametrize("h", REFERENCE_H)
def test_table_builders_match_loop_references(h):
    with np.errstate(all="ignore"):
        for n in range(1, N_MAX + 1):
            assert h_power_table(n, h) == h_power_table_reference(n, h)
            for builder, reference in TABLE_BUILDERS:
                assert_bit_identical(builder(n, h), reference(n, h))


def test_table_builders_match_loop_references_at_zero_horizon():
    for n in range(1, N_MAX + 1):
        assert h_power_table(n, 0.0) == h_power_table_reference(n, 0.0)
        assert_bit_identical(build_V(n, 0.0), build_V_reference(n, 0.0))


def test_exact_inverse_coefficients_match_loop_reference():
    for n in range(1, N_MAX + 1):
        assert _a_inv_coefficients(n) == a_inv_coefficients_reference(n)


@pytest.mark.parametrize("h", [Fraction(1), Fraction(2, 7)])
def test_exact_inverse_coefficients_invert_A(h):
    # A[i][j] = (n+j)!/(n+j-i)! h**(n+j-i), independent of the triangular factors
    for n in range(1, N_MAX + 1):
        A = [[Fraction(math.perm(n + j, i)) * h ** (n + j - i) for j in range(n)]
             for i in range(n)]
        c = _a_inv_coefficients(n)
        A_inv = [[c[i][j] * h ** (j - i - n) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert sum(A[i][k] * A_inv[k][j] for k in range(n)) == (i == j), (n, i, j)


@pytest.mark.parametrize("h", REFERENCE_H)
def test_taylor_propagate_matches_loop_reference(h):
    rng = np.random.default_rng(44)
    with np.errstate(all="ignore"):
        for n in range(1, N_MAX + 1):
            for shape in ((n,), (n, 3), (5, n, 2)):
                values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
                values.flat[0] = -0.0
                assert_bit_identical(
                    taylor_propagate(values, h), taylor_propagate_reference(values, h)
                )


@pytest.mark.parametrize("h", REFERENCE_H)
def test_taylor_propagate_layouts_match_loop_reference(h):
    # (n, 1) and (m, n, 1) stacks are where numpy may merge axes of the product
    rng = np.random.default_rng(45)
    with np.errstate(all="ignore"):
        for n in range(1, N_MAX + 1):
            for shape in ((n, 1), (256, n, 1), (256, n, 3)):
                values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
                values.flat[0] = -0.0
                values[..., -1, :] = -0.0
                got = taylor_propagate(values, h)
                assert got.flags.c_contiguous
                assert_bit_identical(got, taylor_propagate_reference(values, h))
