"""Discrete optimal transport with the trajectory cost as ground cost.

Both measures are uniform over equally many points, so the optimal
coupling is a permutation (an extreme point of the coupling polytope) and
the transport problem reduces to a linear assignment, solved here by
shortest augmenting paths with a Jonker-Volgenant warm start (O(m^3) in
the worst case).

The ground cost is directed: it is not symmetric in its endpoints for
n >= 2, so w2_uniform(mu, nu) and w2_uniform(nu, mu) generally differ and
no symmetrization is applied.
"""

from __future__ import annotations

import numpy as np

from .cost import finalize_totals, form_totals
from .matrices import build_A_inv, build_B, taylor_propagate
from .types import DiscreteMeasure, DomainError

#: Largest supported measure size for the assignment solver.
M_MAX = 1024


def _check_pair(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.n != nu.n or mu.d != nu.d:
        raise DomainError(
            f"measures live in different spaces: ({mu.n}, {mu.d}) vs ({nu.n}, {nu.d})"
        )
    if mu.m != nu.m:
        raise DomainError(f"measure sizes differ: {mu.m} vs {nu.m}")
    if mu.m > M_MAX:
        raise DomainError(f"measure size {mu.m} exceeds the supported {M_MAX}")


def ground_cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, h: float) -> np.ndarray:
    """Pairwise trajectory costs: entry (i, j) moves mu point i to nu point j.

    Entries reproduce ``cost(make_problem(h, mu_i, nu_j)).total`` bit for
    bit: they go through the same form kernel and finalize rule as
    ``cost()``.  All starts are propagated in one call, and the matrix is
    filled one row block at a time (the gaps of one mu point to every nu
    point), so no (m, m, n, d) temporary is built.
    """
    _check_pair(mu, nu)
    n = mu.n
    out = np.empty((mu.m, nu.m))
    # an overflow shows as a non-finite entry, which finalize_totals refuses
    with np.errstate(over="ignore", invalid="ignore"):
        form = build_B(n, h) @ build_A_inv(n, h)
        propagated = taylor_propagate(np.stack([p.values for p in mu.points]), h)
        ends = np.stack([p.values for p in nu.points])
        for i in range(mu.m):
            out[i] = form_totals(form, ends - propagated[i])
    return finalize_totals(out)


def solve_assignment(costs: np.ndarray) -> np.ndarray:
    """Minimum-cost row-to-column assignment of a square cost matrix.

    Shortest augmenting paths with a Jonker-Volgenant warm start (Jonker &
    Volgenant 1987; Crouse 2016).  Column reduction sets each column
    potential to the column minimum and gives each row the lowest column
    whose minimum it holds; reduction transfer then lowers the potential of
    each assigned column as far as its row allows.  Every row still free
    is matched by one Dijkstra search over the reduced costs
    ``c[i, j] - v[j]``.  Row potentials are implicit: an assigned row i
    has ``u_i = c[i, x_i] - v[x_i]``.

    The same input always gives the same output, and a matrix with all
    entries equal gives the identity.  Entries must be finite, and so must
    every reduced cost and potential: NaN, +-inf, or a spread that
    overflows double precision raises DomainError.
    """
    c = np.asarray(costs, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DomainError(f"cost matrix must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise DomainError("cost matrix has a non-finite entry")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _augmenting_paths(c)
    except FloatingPointError as exc:
        raise DomainError("cost matrix spread overflows double precision") from exc


def _augmenting_paths(c: np.ndarray) -> np.ndarray:
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


def w2_uniform(
    mu: DiscreteMeasure, nu: DiscreteMeasure, h: float
) -> tuple[float, np.ndarray]:
    """Squared transport cost between uniform measures, with its assignment.

    Returns (value, assignment) where value is the optimal average ground
    cost (total / m) and assignment[i] is the nu index receiving mu point i.
    """
    costs = ground_cost_matrix(mu, nu, h)
    assignment = solve_assignment(costs)
    total = float(costs[np.arange(mu.m), assignment].sum())
    return total / mu.m, assignment
