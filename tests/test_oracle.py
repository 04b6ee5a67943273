import numpy as np
import pytest

from msdcost import (
    DomainError,
    TrajectoryPolynomial,
    build_A,
    build_A_inv,
    cost,
    det_A,
    elimination_det,
    gauss_legendre,
    quadrature_cost,
    solve_trajectory,
)


# ---------------------------------------------------------- pivoted solve


class SingularMatrixError(DomainError):
    """Pivot fell below the singularity threshold during elimination."""


#: A pivot below this fraction of its row's max-norm flags singularity.
#: The ratio is scale-invariant: the boundary matrices are strongly graded
#: (rows spanning 14 orders of magnitude are legitimate), so thresholding
#: against the global matrix norm would misclassify them.
PIVOT_THRESHOLD = 1e-13


def pivoted_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs by Gaussian elimination with scaled partial pivoting.

    The package's elimination solve before the closed-form inverse made it
    test-only, kept unchanged as the float reference ``build_A_inv`` is
    checked against.  ``rhs`` may be a vector or an (n, d) block of
    right-hand sides; the result has the same shape.  Pivot rows are
    chosen by largest entry relative to the row's max-norm.  Raises
    SingularMatrixError when a pivot falls below PIVOT_THRESHOLD relative
    to its row scale.
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
    scale = np.abs(a).max(axis=1)
    scale[scale == 0.0] = 1.0
    ratio = np.inf
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k]) / scale[k:]))
        if p != k:
            a[[k, p]] = a[[p, k]]
            scale[[k, p]] = scale[[p, k]]
            b[[k, p]] = b[[p, k]]
        piv = a[k, k]
        ratio = min(ratio, abs(piv) / scale[k])
        if piv == 0.0:
            ratio = 0.0
            break
        for r in range(k + 1, n):
            f = a[r, k] / piv
            if f != 0.0:
                a[r, k:] -= f * a[k, k:]
                b[r] -= f * b[k]
    if ratio <= PIVOT_THRESHOLD:
        raise SingularMatrixError(
            f"scaled pivot {ratio:.3e} below threshold {PIVOT_THRESHOLD:.0e}"
        )
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x[:, 0] if vector_rhs else x


def test_pivoted_solve_examples():
    sol = pivoted_solve(np.array([[1.0, 1.0], [2.0, 3.0]]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(sol, [3.0, -2.0], atol=1e-14)

    rhs = np.array([0.3, -1.2, 7.0])
    np.testing.assert_allclose(pivoted_solve(np.eye(3), rhs), rhs, rtol=0)

    sol = pivoted_solve(build_A(3, 1.0), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(sol, [10.0, -15.0, 6.0], atol=1e-12)


def test_pivoted_solve_block_rhs():
    a = build_A(4, 0.7)
    rhs = np.arange(8.0).reshape(4, 2)
    sol = pivoted_solve(a, rhs)
    assert sol.shape == (4, 2)
    np.testing.assert_allclose(a @ sol, rhs, atol=1e-10)


def test_pivoted_solve_singular():
    with pytest.raises(SingularMatrixError):
        pivoted_solve(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        pivoted_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))


def test_pivoted_solve_shape_errors():
    with pytest.raises(DomainError):
        pivoted_solve(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(DomainError):
        pivoted_solve(np.eye(3), np.zeros(2))


def test_pivoted_solve_residual(random_problem_set):
    for p in random_problem_set[:30]:
        a = build_A(p.n, p.h)
        rhs = p.end.values - p.start.values
        sol = pivoted_solve(a, rhs)
        cond = np.abs(a).sum(axis=1).max() * np.abs(build_A_inv(p.n, p.h)).sum(axis=1).max()
        resid = np.abs(a @ sol - rhs).max()
        assert resid <= 1e-9 * (1.0 + np.abs(rhs).max()) * cond


# ------------------------------------------------------------ quadrature


def test_quadrature_cost_examples():
    accel = TrajectoryPolynomial(n=2, h=1.0, d=1, coeffs=[[0.0], [0.0], [3.0], [-2.0]])
    assert quadrature_cost(accel) == pytest.approx(12.0, rel=1e-13)

    jerk = TrajectoryPolynomial(
        n=3, h=1.0, d=1, coeffs=[[0.0], [0.0], [0.0], [10.0], [-15.0], [6.0]]
    )
    assert quadrature_cost(jerk) == pytest.approx(720.0, rel=1e-13)

    flat = TrajectoryPolynomial(n=2, h=3.0, d=2, coeffs=np.zeros((4, 2)))
    assert quadrature_cost(flat) == 0.0


def test_quadrature_cost_nonnegative():
    rng = np.random.default_rng(17)
    for n in (1, 3, 6):
        poly = TrajectoryPolynomial(n=n, h=2.2, d=2, coeffs=rng.normal(size=(2 * n, 2)))
        assert quadrature_cost(poly) >= 0.0


def test_gauss_legendre_table():
    for m in range(1, 17):
        nodes, weights = gauss_legendre(m)
        assert nodes.shape == weights.shape == (m,)
        assert weights.sum() == pytest.approx(2.0, abs=1e-14)
        # rule is exact for degree 2m-1
        for k in range(2 * m):
            got = float(weights @ nodes**k)
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            assert got == pytest.approx(want, abs=5e-14)
    with pytest.raises(DomainError):
        gauss_legendre(0)
    with pytest.raises(DomainError):
        gauss_legendre(17)


# ----------------------------------------------------------- determinant


def test_elimination_det_examples():
    assert elimination_det(build_A(2, 1.0)) == pytest.approx(1.0, rel=1e-12)
    assert elimination_det(build_A(3, 1.0)) == pytest.approx(2.0, rel=1e-12)
    assert elimination_det(build_A(4, 1.0)) == pytest.approx(12.0, rel=1e-12)


def test_elimination_det_triangular():
    tri = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
    assert elimination_det(tri) == pytest.approx(np.prod(np.diag(tri)), rel=1e-12)


def test_elimination_det_singular_returns_zero():
    assert elimination_det(np.zeros((3, 3))) == 0.0
    assert elimination_det(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0


def test_elimination_det_sign_tracking():
    flipped = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert elimination_det(flipped) == pytest.approx(-1.0, rel=1e-14)


# ---------------------------------------------------------- cross checks


def test_quadrature_matches_cost(random_problem_set):
    for p in random_problem_set:
        ref = cost(p).total
        quad = quadrature_cost(solve_trajectory(p))
        assert abs(quad - ref) <= 1e-8 * (1.0 + ref)


def test_closed_inverse_matches_column_solves():
    for n in range(1, 11):
        for h in (0.5, 1.0, 2.0):
            a = build_A(n, h)
            closed = build_A_inv(n, h)
            solved = pivoted_solve(a, np.eye(n))
            cond = np.abs(a).sum(axis=1).max() * np.abs(closed).sum(axis=1).max()
            assert np.abs(closed - solved).max() <= 1e-8 * cond


def test_elimination_det_matches_closed_form():
    for n in range(1, 9):
        for h in (0.5, 1.0, 2.0):
            closed = det_A(n, h)
            assert abs(elimination_det(build_A(n, h)) - closed) <= 1e-8 * closed
