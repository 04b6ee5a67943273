"""Discrete optimal transport with the trajectory cost as ground cost.

Both measures are uniform over equally many points, so the optimal
coupling is a permutation (an extreme point of the coupling polytope) and
the transport problem reduces to a linear assignment, solved here by the
O(m^3) Hungarian method with potentials.

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
M_MAX = 512


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
    form = build_B(n, h) @ build_A_inv(n, h)
    propagated = taylor_propagate(np.stack([p.values for p in mu.points]), h)
    ends = np.stack([p.values for p in nu.points])
    out = np.empty((mu.m, nu.m))
    for i in range(mu.m):
        out[i] = form_totals(form, ends - propagated[i])
    return finalize_totals(out)


def solve_assignment(costs: np.ndarray) -> np.ndarray:
    """Minimum-cost row-to-column assignment of a square cost matrix.

    Hungarian method with row/column potentials and shortest augmenting
    paths.  Ties are broken toward the lowest column index (argmin picks
    the first minimum), so the result is deterministic.
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
