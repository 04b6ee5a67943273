"""Discrete optimal transport with the trajectory cost as ground cost.

Both measures are uniform over equally many points, so the optimal
coupling is a permutation (an extreme point of the coupling polytope) and
the transport problem reduces to a linear assignment, solved here by
shortest augmenting paths with a Jonker-Volgenant warm start (O(m^3) in
the worst case).

A measure is one (m, n, d) array.  The ground cost takes its gaps from
those arrays a few rows at a time and evaluates them with the entry of
``cost.DEFAULT_ROUTE`` in ``cost``'s route table, under ``cost()``'s
refusals.  Each scan step of the assignment search is four
numpy calls over one row; the predecessors along the augmenting path are
recovered once its end is found, not tracked at every step.

The ground cost is directed: it is not symmetric in its endpoints for
n >= 2, so w2_uniform(mu, nu) and w2_uniform(nu, mu) generally differ and
no symmetrization is applied.
"""

from __future__ import annotations

import numpy as np

from .cost import _ROUTE_TOTALS, DEFAULT_ROUTE, _check_gap, finalize_totals
from .matrices import taylor_propagate
from .types import DiscreteMeasure, DomainError, _float_copy

#: Largest supported measure size for the assignment solver.
M_MAX = 1024

#: Rows of the ground cost filled per route-kernel call: large enough to
#: spread the per-call overhead, small enough to keep the gap block in cache.
_ROW_BLOCK = 8


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
    bit: they go through the entry of ``DEFAULT_ROUTE`` in ``cost``'s route
    table and the same finalize rule as ``cost()``.  All starts are
    propagated in one call, and the matrix is filled a block of
    ``_ROW_BLOCK`` rows at a time (the gaps of those mu points to every nu
    point), so no (m, m, n, d) temporary is built.

    A gap beyond double precision is refused with ``cost()``'s message for
    it; otherwise ``finalize_totals`` refuses the entries as ``cost()``
    refuses a total.
    """
    _check_pair(mu, nu)
    n, totals = mu.n, _ROUTE_TOTALS[DEFAULT_ROUTE]
    out = np.empty((mu.m, nu.m))
    # an overflow shows as a non-finite entry, which finalize_totals refuses
    with np.errstate(over="ignore", invalid="ignore"):
        propagated = taylor_propagate(mu.values, h)
        ends = nu.values
        for lo in range(0, mu.m, _ROW_BLOCK):
            block = slice(lo, lo + _ROW_BLOCK)
            out[block] = totals(n, h, ends - propagated[block, None])
        try:
            return finalize_totals(out)
        except DomainError:
            # Rounding is monotonic, so some gap ends - propagated is
            # non-finite exactly when one of these two extremes is.
            _check_gap(ends.max(0) - propagated.min(0))
            _check_gap(ends.min(0) - propagated.max(0))
            raise


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
    c = _float_copy(costs, "cost matrix")
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
    col_of_row = [-1] * m
    row_of_col = [-1] * m
    if m == 0:
        return np.array(col_of_row, dtype=int)

    # Column reduction, in forward column order: the lowest column wins.
    v = c.min(axis=0)
    for j, i in enumerate(c.argmin(axis=0).tolist()):
        if col_of_row[i] < 0:
            col_of_row[i] = j
            row_of_col[j] = i

    # Reduction transfer: u_i becomes the second smallest c[i, j] - v[j].
    if m > 1:
        assigned = [i for i in range(m) if col_of_row[i] >= 0]
        cols = [col_of_row[i] for i in assigned]
        reduced = c[assigned] - v
        reduced[np.arange(len(assigned)), cols] = np.inf
        v[cols] -= reduced.min(axis=1)

    # One Dijkstra search per free row.  `dist` holds tentative path
    # lengths, inf once a column is scanned; `v_open` is v with scanned
    # columns at -inf, so their trial lengths are +inf and never reopen
    # them.  Each source row (the free row, then each scanned row) offers
    # column k the length (c[row, k] - v[k]) + off_row.
    dist = np.empty(m)
    v_open = np.empty(m)
    trial = np.empty(m)
    for free_row in [i for i in range(m) if col_of_row[i] < 0]:
        np.subtract(c[free_row], v, out=dist)
        np.copyto(v_open, v)
        sources = [free_row]
        offsets = [0.0]
        scanned = []
        scanned_dist = []
        while True:
            j = int(dist.argmin())
            lowest = dist.item(j)
            row = row_of_col[j]
            if row < 0:
                break
            scanned.append(j)
            scanned_dist.append(lowest)
            dist[j] = np.inf
            v_open[j] = -np.inf
            # Relax through `row`: lowest + c[row, k] - v[k] - u_row.
            off = lowest - (c.item(row, j) - v.item(j))
            np.subtract(c[row], v_open, out=trial)
            trial += off
            np.minimum(dist, trial, out=dist)
            sources.append(row)
            offsets.append(off)
        # The predecessor of a path column is the first source, in scan
        # order, whose offer equals the column's final length: the same
        # float expression, so equality is exact and ties go to the
        # earliest source, as a strict-< relaxation would give them.  Only
        # the free row and the rows scanned before the column offered it
        # anything.  The walk starts at the sink, offered by every source;
        # each later path column is the old column of a scanned row, so it
        # was scanned itself, and its scan position gives its count and length.
        count, length = len(sources), lowest
        source_rows = np.array(sources)
        source_offsets = np.array(offsets)
        while True:
            offers = (c[source_rows[:count], j] - v[j]) + source_offsets[:count]
            i = sources[int((offers == length).argmax())]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == free_row:
                break
            t = scanned.index(j)
            count, length = t + 1, scanned_dist[t]
        v[scanned] += np.array(scanned_dist) - lowest
    return np.array(col_of_row, dtype=int)


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
