import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdcost import (
    BoundaryState,
    DiscreteMeasure,
    DomainError,
    cost,
    free_flight_target,
    ground_cost_matrix,
    make_problem,
    solve_assignment,
    w2_uniform,
)
from msdcost.transport import _ROW_BLOCK, M_MAX


def rest_measure(positions, n):
    pts = []
    for pos in positions:
        values = np.zeros((n, 1))
        values[0, 0] = pos
        pts.append(BoundaryState(values))
    return DiscreteMeasure([s.values for s in pts])


def brute_force_minimum(costs):
    m = costs.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(m)):
        total = sum(costs[i, perm[i]] for i in range(m))
        best = min(best, total)
    return best


def hungarian_reference(costs: np.ndarray) -> np.ndarray:
    """Minimum-cost row-to-column assignment of a square cost matrix.

    Hungarian method with row/column potentials and shortest augmenting
    paths: the solver behind ``solve_assignment`` before its
    Jonker-Volgenant rewrite, kept as the reference it is checked against.
    """
    c = np.asarray(costs, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DomainError(f"cost matrix must be square, got shape {c.shape}")
    m = c.shape[0]
    u = np.zeros(m + 1)
    v = np.zeros(m + 1)
    owner = np.full(m + 1, -1, dtype=int)  # row matched to each column; column m is the root
    for i in range(m):
        owner[m] = i
        j_cur = m
        min_reduced = np.full(m, np.inf)
        parent = np.full(m, -1, dtype=int)
        visited = np.zeros(m + 1, dtype=bool)
        while owner[j_cur] != -1:
            visited[j_cur] = True
            row = owner[j_cur]
            reduced = c[row] - u[row] - v[:m]
            better = ~visited[:m] & (reduced < min_reduced)
            min_reduced[better] = reduced[better]
            parent[better] = j_cur
            candidates = np.where(visited[:m], np.inf, min_reduced)
            j_next = int(np.argmin(candidates))
            delta = candidates[j_next]
            u[owner[visited]] += delta
            v[visited] -= delta
            min_reduced[~visited[:m]] -= delta
            j_cur = j_next
        while j_cur != m:
            j_prev = parent[j_cur]
            owner[j_cur] = owner[j_prev]
            j_cur = j_prev
    assignment = np.empty(m, dtype=int)
    assignment[owner[:m]] = np.arange(m)
    return assignment


def sap_reference(c: np.ndarray) -> np.ndarray:
    """Shortest augmenting paths with a per-step predecessor array.

    The body of ``solve_assignment`` before its scan step was cut to four
    ufuncs (predecessors now recovered once the sink is found), kept
    unchanged as the reference the rewrite must reproduce exactly, ties
    included.
    """
    m = c.shape[0]
    col_of_row = np.full(m, -1, dtype=int)
    row_of_col = np.full(m, -1, dtype=int)
    if m == 0:
        return col_of_row

    # Column reduction, in forward column order: the lowest column wins.
    v = c.min(axis=0)
    for j, i in enumerate(c.argmin(axis=0).tolist()):
        if col_of_row[i] < 0:
            col_of_row[i] = j
            row_of_col[j] = i

    # Reduction transfer: u_i becomes the second smallest c[i, j] - v[j].
    if m > 1:
        assigned = np.flatnonzero(col_of_row >= 0)
        reduced = c[assigned] - v
        reduced[np.arange(len(assigned)), col_of_row[assigned]] = np.inf
        v[col_of_row[assigned]] -= reduced.min(axis=1)

    # One Dijkstra search per free row.  `dist` holds tentative path
    # lengths, inf once a column is scanned; `v_open` is v with scanned
    # columns at -inf, so their trial lengths are +inf and the strict
    # comparison never reopens them.
    dist = np.empty(m)
    v_open = np.empty(m)
    trial = np.empty(m)
    shorter = np.empty(m, dtype=bool)
    pred = np.empty(m, dtype=int)
    for free_row in np.flatnonzero(col_of_row < 0).tolist():
        np.subtract(c[free_row], v, out=dist)
        np.copyto(v_open, v)
        pred.fill(free_row)
        scanned = []
        scanned_dist = []
        while True:
            j = int(dist.argmin())
            lowest = dist[j]
            row = int(row_of_col[j])
            if row < 0:
                break
            scanned.append(j)
            scanned_dist.append(lowest)
            dist[j] = np.inf
            v_open[j] = -np.inf
            # Relax through `row`: lowest + c[row, k] - v[k] - u_row.
            np.subtract(c[row], v_open, out=trial)
            trial += lowest - (c[row, j] - v[j])
            np.less(trial, dist, out=shorter)
            np.copyto(dist, trial, where=shorter)
            np.copyto(pred, row, where=shorter)
        v[scanned] += np.array(scanned_dist) - lowest
        while True:
            i = int(pred[j])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == free_row:
                break
    return col_of_row


# ------------------------------------------------------------ ground cost


def test_ground_cost_singletons():
    mu = DiscreteMeasure.from_array(np.array([[[0.0], [0.0]]]))
    nu = DiscreteMeasure.from_array(np.array([[[1.0], [0.0]]]))
    got = ground_cost_matrix(mu, nu, 1.0)
    assert got.shape == (1, 1)
    assert got[0, 0] == cost(make_problem(1.0, [0.0, 0.0], [1.0, 0.0])).total


def test_ground_cost_free_flight_diagonal():
    rng = np.random.default_rng(21)
    h = 1.3
    starts = [BoundaryState(rng.uniform(-2, 2, (3, 2))) for _ in range(4)]
    targets = [free_flight_target(3, h, s) for s in starts]
    costs = ground_cost_matrix(
        DiscreteMeasure([s.values for s in starts]), DiscreteMeasure([s.values for s in targets]), h
    )
    np.testing.assert_allclose(np.diag(costs), np.zeros(4), atol=1e-12)


def test_ground_cost_rest_pair():
    mu = rest_measure([0.0, 1.0], n=2)
    nu = rest_measure([0.0, 1.0], n=2)
    np.testing.assert_allclose(
        ground_cost_matrix(mu, nu, 1.0), [[0.0, 12.0], [12.0, 0.0]], atol=1e-12
    )


def test_ground_cost_matches_cost_bitwise():
    rng = np.random.default_rng(31)
    mu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (5, 3, 2)))
    nu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (5, 3, 2)))
    h = 0.8
    costs = ground_cost_matrix(mu, nu, h)
    for i in range(5):
        for j in range(5):
            direct = cost(make_problem(h, mu.values[i], nu.values[j])).total
            assert costs[i, j] == direct


@pytest.mark.parametrize("h", [1e-2, 0.8, 100.0])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [1, 3, 8, 12])
def test_ground_cost_matches_cost_bitwise_grid(n, d, h):
    rng = np.random.default_rng(1000 * n + d)
    mu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (4, n, d)))
    nu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (4, n, d)))
    costs = ground_cost_matrix(mu, nu, h)
    for i in range(4):
        for j in range(4):
            direct = cost(make_problem(h, mu.values[i], nu.values[j])).total
            assert costs[i, j] == direct


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [11, 17])
def test_ground_cost_matches_cost_bitwise_across_row_blocks(m, d):
    # m is not a multiple of the row block, so the last block is short
    assert m % _ROW_BLOCK
    rng = np.random.default_rng(100 * m + d)
    for n in range(1, 13):
        h = (1e-2, 0.8, 1.0, 100.0)[n % 4]
        mu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (m, n, d)))
        nu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (m, n, d)))
        costs = ground_cost_matrix(mu, nu, h)
        for i in range(m):
            for j in range(m):
                direct = cost(make_problem(h, mu.values[i], nu.values[j])).total
                assert costs[i, j] == direct, (n, i, j)


@pytest.mark.parametrize(
    "x, y",
    [
        ([[1e308], [1e308]], [[0.0], [0.0]]),  # propagating the start overflows
        ([[-1.5e308]], [[1.5e308]]),  # the subtraction overflows
    ],
)
def test_ground_cost_refuses_an_overflowed_gap_as_cost_does(x, y):
    with pytest.raises(DomainError, match="^gap vector b is beyond double precision$"):
        cost(make_problem(1.0, x, y))
    ok = np.zeros((1,) + np.shape(x))
    mu = DiscreteMeasure(np.concatenate([ok, [x]]))
    nu = DiscreteMeasure(np.concatenate([[y], ok]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (ground_cost_matrix, w2_uniform):
            with pytest.raises(DomainError, match="^gap vector b is beyond double precision$"):
                run(mu, nu, 1.0)


def test_ground_cost_keeps_the_total_refusal_for_a_finite_gap():
    # the gap is finite and the form overflows: finalize_totals' message, as in cost()
    x, y = np.zeros((12, 1)), np.zeros((12, 1))
    y[0, 0] = 1.0
    with pytest.raises(DomainError) as expected:
        cost(make_problem(1e-13, x, y))
    with pytest.raises(DomainError) as got:
        ground_cost_matrix(DiscreteMeasure([x]), DiscreteMeasure([y]), 1e-13)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "cost evaluated to nan, outside double precision"


def test_ground_cost_shape_errors():
    mu = rest_measure([0.0], n=2)
    nu = rest_measure([0.0, 1.0], n=2)
    with pytest.raises(DomainError):
        ground_cost_matrix(mu, nu, 1.0)
    other = rest_measure([0.0], n=3)
    with pytest.raises(DomainError):
        ground_cost_matrix(mu, other, 1.0)


# ------------------------------------------------------------- assignment


def test_solve_assignment_small_cases():
    empty = solve_assignment(np.zeros((0, 0)))
    assert empty.shape == (0,) and empty.dtype.kind == "i"
    np.testing.assert_array_equal(solve_assignment(np.array([[5.0]])), [0])
    costs = np.array([[1.0, 10.0], [10.0, 1.0]])
    np.testing.assert_array_equal(solve_assignment(costs), [0, 1])
    costs = np.array([[10.0, 1.0], [1.0, 10.0]])
    np.testing.assert_array_equal(solve_assignment(costs), [1, 0])


def test_solve_assignment_matches_brute_force():
    rng = np.random.default_rng(55)
    for m in range(1, 9):
        for _ in range(6):
            costs = rng.uniform(0.0, 10.0, (m, m))
            assignment = solve_assignment(costs)
            assert sorted(assignment) == list(range(m))
            total = costs[np.arange(m), assignment].sum()
            assert abs(total - brute_force_minimum(costs)) <= 1e-10


def test_solve_assignment_deterministic_on_ties():
    costs = np.zeros((4, 4))
    np.testing.assert_array_equal(solve_assignment(costs), [0, 1, 2, 3])


def _reference_cases():
    rng = np.random.default_rng(202)
    for m in (1, 2, 3, 5, 16, 64):
        for scale in (1e-3, 1e-1, 1e1, 1e3):
            yield rng.uniform(0.0, scale, (m, m))
    for m in (2, 4, 7, 16, 64):
        for _ in range(4):
            yield np.round(rng.uniform(0.0, 4.0, (m, m)), 1)  # coarse grid forces ties
    for h in (0.3, 1.0, 5.0):
        mu = DiscreteMeasure.from_array(rng.standard_normal((64, 3, 2)))
        nu = DiscreteMeasure.from_array(rng.standard_normal((64, 3, 2)))
        yield ground_cost_matrix(mu, nu, h)


def test_solve_assignment_matches_hungarian_reference():
    for costs in _reference_cases():
        m = costs.shape[0]
        assignment = solve_assignment(costs)
        assert sorted(assignment.tolist()) == list(range(m))
        total = costs[np.arange(m), assignment].sum()
        expected = costs[np.arange(m), hungarian_reference(costs)].sum()
        assert total == pytest.approx(expected, rel=1e-12, abs=0.0)


def _sap_pin_cases():
    rng = np.random.default_rng(303)
    for m in range(1, 41):
        for _ in range(3):
            yield np.round(rng.uniform(0.0, 4.0, (m, m)), 1)  # coarse grid forces ties
        yield np.full((m, m), 2.5)
    for m in (1, 2, 5, 16, 64):
        for scale in (1e-3, 1e-1, 1e1, 1e3):
            yield rng.uniform(0.0, scale, (m, m))
    for m in (64, 256):
        for h in (0.3, 1.0):
            mu = DiscreteMeasure.from_array(rng.standard_normal((m, 3, 2)))
            nu = DiscreteMeasure.from_array(rng.standard_normal((m, 3, 2)))
            yield ground_cost_matrix(mu, nu, h)


def test_solve_assignment_matches_sap_reference_exactly():
    # the same assignment, ties included, not just the same optimal total
    for costs in _sap_pin_cases():
        np.testing.assert_array_equal(solve_assignment(costs), sap_reference(costs))


@pytest.mark.parametrize(
    "costs",
    [
        np.array([[np.nan, 1.0], [1.0, 0.0]]),
        np.array([[np.inf, np.inf], [1.0, 0.0]]),
        np.array([[1.0, 0.0], [-np.inf, 2.0]]),
        np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]]),
    ],
    ids=["nan", "inf", "-inf", "spread-overflow"],
)
def test_solve_assignment_refuses_non_finite(costs):
    with pytest.raises(DomainError):
        solve_assignment(costs)


# ---------------------------------------------------------------- w2


def test_w2_singletons():
    mu = rest_measure([0.0], n=2)
    nu = rest_measure([1.0], n=2)
    value, assignment = w2_uniform(mu, nu, 1.0)
    assert value == pytest.approx(12.0, rel=1e-12)
    np.testing.assert_array_equal(assignment, [0])


def test_w2_identity_assignment_on_rest_pair():
    mu = rest_measure([0.0, 1.0], n=2)
    value, assignment = w2_uniform(mu, mu, 1.0)
    assert value == 0.0
    np.testing.assert_array_equal(assignment, [0, 1])


def test_w2_zero_for_free_flight_image():
    rng = np.random.default_rng(77)
    h = 0.6
    starts = [BoundaryState(rng.uniform(-2, 2, (2, 2))) for _ in range(6)]
    targets = [free_flight_target(2, h, s) for s in starts]
    # shuffle the targets: a zero-cost perfect matching still exists
    order = rng.permutation(6)
    nu = DiscreteMeasure([targets[i].values for i in order])
    value, assignment = w2_uniform(DiscreteMeasure([s.values for s in starts]), nu, h)
    assert value <= 1e-12
    np.testing.assert_array_equal(assignment, np.argsort(order))


def test_w2_nonnegative_and_brute_force(random_problem_set):
    rng = np.random.default_rng(88)
    for _ in range(10):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 4))
        h = float(rng.uniform(0.5, 2.0))
        mu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (m, n, 1)))
        nu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (m, n, 1)))
        value, assignment = w2_uniform(mu, nu, h)
        assert value >= 0.0
        costs = ground_cost_matrix(mu, nu, h)
        brute = brute_force_minimum(costs)
        assert abs(value * m - brute) <= 1e-10 * (1.0 + brute)


def test_w2_invariant_under_reordering():
    rng = np.random.default_rng(99)
    mu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (6, 2, 2)))
    nu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (6, 2, 2)))
    base, _ = w2_uniform(mu, nu, 1.1)
    for _ in range(4):
        mu_perm = DiscreteMeasure([mu.values[i] for i in rng.permutation(6)])
        nu_perm = DiscreteMeasure([nu.values[i] for i in rng.permutation(6)])
        shuffled, _ = w2_uniform(mu_perm, nu_perm, 1.1)
        assert shuffled == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_w2_directed_values_differ():
    rng = np.random.default_rng(101)
    mu = DiscreteMeasure.from_array(rng.uniform(-2, 2, (5, 2, 1)))
    nu = DiscreteMeasure.from_array(rng.uniform(-2, 2, (5, 2, 1)))
    fwd, _ = w2_uniform(mu, nu, 1.0)
    bwd, _ = w2_uniform(nu, mu, 1.0)
    assert fwd != bwd  # squared-cost "distance" is directed for n >= 2


def test_w2_size_cap():
    big = DiscreteMeasure.from_array(np.zeros((M_MAX + 1, 1, 1)))
    with pytest.raises(DomainError):
        w2_uniform(big, big, 1.0)


@pytest.mark.parametrize("h", [1e-2, 1.0, 100.0])
def test_w2_matches_monotone_matching_at_m_max(h):
    # n = d = 1: the ground cost is (y - x)**2 / h, so the sorted (monotone)
    # matching is optimal; an exact oracle at a size brute force cannot reach
    rng = np.random.default_rng(404)
    x = rng.standard_normal(M_MAX)
    y = rng.uniform(-2.0, 2.0, M_MAX)
    value, assignment = w2_uniform(
        DiscreteMeasure.from_array(x[:, None]), DiscreteMeasure.from_array(y[:, None]), h
    )
    assert sorted(assignment.tolist()) == list(range(M_MAX))
    oracle = float(((np.sort(y) - np.sort(x)) ** 2).sum()) / h / M_MAX
    assert abs(value - oracle) <= 1e-12 * oracle


def test_measure_validation():
    with pytest.raises(DomainError):
        DiscreteMeasure(())


def test_measure_from_array_validation():
    with pytest.raises(DomainError, match="finite"):
        DiscreteMeasure.from_array(np.array([[[0.0], [np.nan]]]))
    with pytest.raises(DomainError, match="finite"):
        DiscreteMeasure.from_array(np.array([[0.0, np.inf]]))
    with pytest.raises(DomainError, match="at least one point"):
        DiscreteMeasure.from_array(np.zeros((0, 2, 1)))
    with pytest.raises(DomainError, match="shape"):
        DiscreteMeasure.from_array(np.zeros((3, 0, 1)))
    with pytest.raises(DomainError, match="shape"):
        DiscreteMeasure.from_array(np.zeros(4))
    with pytest.raises(DomainError, match="shape"):
        DiscreteMeasure.from_array(np.zeros((2, 2, 1, 1)))


def test_measure_values_and_points_round_trip():
    rng = np.random.default_rng(505)
    arr = rng.standard_normal((5, 3, 2))
    mu = DiscreteMeasure.from_array(arr)
    assert (mu.m, mu.n, mu.d) == (5, 3, 2)
    arr[0, 0, 0] = 99.0  # the measure holds its own read-only copy
    assert mu.values[0, 0, 0] != 99.0 and not mu.values.flags.writeable
    # the point stacks values[k] stack back into the same measure
    assert DiscreteMeasure(list(mu.values)) == mu
    assert DiscreteMeasure(arr) == DiscreteMeasure.from_array(arr)
    promoted = DiscreteMeasure.from_array(arr[:, :, 0])
    assert promoted.values.shape == (5, 3, 1)


def test_measure_replace_revalidates():
    mu = DiscreteMeasure(np.zeros((2, 3, 1)))
    moved = dataclasses.replace(mu, values=np.ones((4, 3)))
    assert moved == DiscreteMeasure(np.ones((4, 3, 1))) and not moved.values.flags.writeable
    with pytest.raises(DomainError, match="finite"):
        dataclasses.replace(mu, values=[[[np.nan]]])
    with pytest.raises(DomainError, match="at least one point"):
        dataclasses.replace(mu, values=np.zeros((0, 3, 1)))


# ------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_assignment_optimality_property(m, seed):
    rng = np.random.default_rng(seed)
    costs = np.round(rng.uniform(0.0, 4.0, (m, m)), 1)  # coarse grid forces ties
    assignment = solve_assignment(costs)
    total = costs[np.arange(m), assignment].sum()
    assert abs(total - brute_force_minimum(costs)) <= 1e-10
