"""Built-in verification suite behind the ``selftest`` CLI subcommand.

Checks the low-order matrix tables against an independent transcription,
the triangular factorization identities, canonical cost values, the
determinant closed form, quadrature/route agreement on a seeded problem
set, and the zero-cost predicate.  Each check reports its observed error
and tolerance; ``inject_failure`` deliberately spoils one named check so
the failure path itself can be exercised.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrices as mats
from .cost import ROUTES, cost, free_flight_target, solve_trajectory
from .oracle import elimination_det, quadrature_cost
from .types import BoundaryState, CostProblem, DomainError, make_problem

_SELFTEST_SEED = 987654321


def _golden(h: float) -> dict[int, dict[str, list[list[float]]]]:
    # hand-copied low-order tables; deliberately not generated by the builders
    return {
        1: {
            "A": [[h]],
            "Ainv": [[1 / h]],
            "B": [[1]],
            "L": [[1]],
            "U": [[h]],
            "Linv": [[1]],
            "Uinv": [[1 / h]],
        },
        2: {
            "A": [[h**2, h**3], [2 * h, 3 * h**2]],
            "Ainv": [[3 / h**2, -1 / h], [-2 / h**3, 1 / h**2]],
            "B": [[0, -6], [2, 6 * h]],
            "L": [[1, 0], [2 / h, 1]],
            "U": [[h**2, h**3], [0, h**2]],
            "Linv": [[1, 0], [-2 / h, 1]],
            "Uinv": [[1 / h**2, -1 / h], [0, 1 / h**2]],
        },
        3: {
            "A": [
                [h**3, h**4, h**5],
                [3 * h**2, 4 * h**3, 5 * h**4],
                [6 * h, 12 * h**2, 20 * h**3],
            ],
            "Ainv": [
                [10 / h**3, -4 / h**2, 1 / (2 * h)],
                [-15 / h**4, 7 / h**3, -1 / h**2],
                [6 / h**5, -3 / h**4, 1 / (2 * h**3)],
            ],
            "B": [[0, 0, 120], [0, -24, -120 * h], [6, 24 * h, 60 * h**2]],
            "L": [[1, 0, 0], [3 / h, 1, 0], [6 / h**2, 6 / h, 1]],
            "U": [[h**3, h**4, h**5], [0, h**3, 2 * h**4], [0, 0, 2 * h**3]],
            "Linv": [[1, 0, 0], [-3 / h, 1, 0], [12 / h**2, -6 / h, 1]],
            "Uinv": [
                [1 / h**3, -1 / h**2, 1 / (2 * h)],
                [0, 1 / h**3, -1 / h**2],
                [0, 0, 1 / (2 * h**3)],
            ],
        },
        4: {
            "A": [
                [h**4, h**5, h**6, h**7],
                [4 * h**3, 5 * h**4, 6 * h**5, 7 * h**6],
                [12 * h**2, 20 * h**3, 30 * h**4, 42 * h**5],
                [24 * h, 60 * h**2, 120 * h**3, 210 * h**4],
            ],
            "Ainv": [
                [35 / h**4, -15 / h**3, 5 / (2 * h**2), -1 / (6 * h)],
                [-84 / h**5, 39 / h**4, -7 / h**3, 1 / (2 * h**2)],
                [70 / h**6, -34 / h**5, 13 / (2 * h**4), -1 / (2 * h**3)],
                [-20 / h**7, 10 / h**6, -2 / h**5, 1 / (6 * h**4)],
            ],
            "B": [
                [0, 0, 0, -5040],
                [0, 0, 720, 5040 * h],
                [0, -120, -720 * h, -2520 * h**2],
                [24, 120 * h, 360 * h**2, 840 * h**3],
            ],
            "L": [
                [1, 0, 0, 0],
                [4 / h, 1, 0, 0],
                [12 / h**2, 8 / h, 1, 0],
                [24 / h**3, 36 / h**2, 12 / h, 1],
            ],
            "U": [
                [h**4, h**5, h**6, h**7],
                [0, h**4, 2 * h**5, 3 * h**6],
                [0, 0, 2 * h**4, 6 * h**5],
                [0, 0, 0, 6 * h**4],
            ],
            "Linv": [
                [1, 0, 0, 0],
                [-4 / h, 1, 0, 0],
                [20 / h**2, -8 / h, 1, 0],
                [-120 / h**3, 60 / h**2, -12 / h, 1],
            ],
            "Uinv": [
                [1 / h**4, -1 / h**3, 1 / (2 * h**2), -1 / (6 * h)],
                [0, 1 / h**4, -1 / h**3, 1 / (2 * h**2)],
                [0, 0, 1 / (2 * h**4), -1 / (2 * h**3)],
                [0, 0, 0, 1 / (6 * h**4)],
            ],
        },
    }


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.error <= self.tol)


def _sample_problems(count: int = 25) -> list[CostProblem]:
    rng = np.random.default_rng(_SELFTEST_SEED)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        h = float(rng.uniform(0.1, 10.0))
        out.append(
            make_problem(h, rng.uniform(-5, 5, (n, d)), rng.uniform(-5, 5, (n, d)))
        )
    return out


def _golden_checks() -> list[CheckResult]:
    results = []
    for h in (1.0, 2.0):
        tables = _golden(h)
        for n in range(1, 5):
            err = 0.0
            for name, table in tables[n].items():
                got = mats.BUILDERS[name](n, h)
                want = np.array(table, dtype=float)
                err = max(err, float(np.abs(got - want).max()))
            results.append(CheckResult(f"golden-tables-n{n}-h{h:g}", err, 1e-12))
    return results


def _lu_checks() -> list[CheckResult]:
    err_lu = err_tri = err_inv = 0.0
    for n in range(1, 11):
        for h in (0.5, 1.0, 2.0, 10.0):
            ident = np.eye(n)
            a = mats.build_A(n, h)
            lo, up = mats.build_L(n, h), mats.build_U(n, h)
            lo_inv, up_inv = mats.build_L_inv(n, h), mats.build_U_inv(n, h)
            a_inv = mats.build_A_inv(n, h)
            err_lu = max(err_lu, np.abs(lo @ up - a).max() / np.abs(a).max())
            err_tri = max(
                err_tri,
                np.abs(up @ up_inv - ident).max(),
                np.abs(lo @ lo_inv - ident).max(),
            )
            cond = np.abs(a).sum(axis=1).max() * np.abs(a_inv).sum(axis=1).max()
            err_inv = max(err_inv, np.abs(a @ a_inv - ident).max() / cond)
    return [
        CheckResult("lu-product", err_lu, 1e-10),
        CheckResult("triangular-inverses", err_tri, 1e-10),
        CheckResult("inverse-product", err_inv, 1e-8),
    ]


def _canonical_cost_check() -> CheckResult:
    expected = {1: 1.0, 2: 12.0, 3: 720.0, 4: 100800.0}
    err = 0.0
    for n, want in expected.items():
        x = np.zeros(n)
        y = np.zeros(n)
        y[0] = 1.0
        got = cost(make_problem(1.0, x, y)).total
        err = max(err, abs(got - want) / want)
    return CheckResult("canonical-costs", err, 1e-10)


def _determinant_check() -> CheckResult:
    err = 0.0
    for n in range(1, 9):
        for h in (0.5, 1.0, 2.0):
            want = mats.det_A(n, h)
            got = elimination_det(mats.build_A(n, h))
            err = max(err, abs(got - want) / abs(want))
    return CheckResult("determinant", err, 1e-8)


def _roundtrip_checks() -> list[CheckResult]:
    err_quad = err_routes = 0.0
    for p in _sample_problems():
        ref = cost(p).total
        quad = quadrature_cost(solve_trajectory(p))
        err_quad = max(err_quad, abs(quad - ref) / (1.0 + ref))
        totals = [cost(p, route=r).total for r in ROUTES]
        err_routes = max(err_routes, (max(totals) - min(totals)) / max(*totals, 1e-300))
    return [
        CheckResult("cost-trajectory-roundtrip", err_quad, 1e-8),
        CheckResult("route-agreement", err_routes, 1e-8),
    ]


def _free_flight_check() -> CheckResult:
    rng = np.random.default_rng(_SELFTEST_SEED)
    err = 0.0
    for n in range(1, 9):
        start = BoundaryState(rng.uniform(-5, 5, (n, 2)))
        target = free_flight_target(n, 1.7, start)
        b = mats.build_b(make_problem(1.7, start.values, target.values))
        err = max(err, float(np.abs(b).max()))
    return CheckResult("free-flight-zero", err, 1e-14)


def run_selftest(inject_failure: str | None = None) -> list[CheckResult]:
    results = (
        _golden_checks()
        + _lu_checks()
        + [_canonical_cost_check(), _determinant_check()]
        + _roundtrip_checks()
        + [_free_flight_check()]
    )
    if inject_failure is not None:
        names = [r.name for r in results]
        if inject_failure not in names:
            raise DomainError(
                f"unknown selftest check {inject_failure!r}; known: {', '.join(names)}"
            )
        results = [
            CheckResult(r.name, r.tol + 1.0, r.tol) if r.name == inject_failure else r
            for r in results
        ]
    return results


def git_sha(start: Path) -> str | None:
    """Commit checked out in the nearest ``.git`` entry above ``start``.

    Read from ``HEAD`` and the loose or packed ref it names, without
    running git.  A ``.git`` file (a linked worktree or a submodule) names
    the git directory on its ``gitdir:`` line; refs are read there or in
    the directory its ``commondir`` file names.  None when there is no
    such entry or it cannot be read.
    """
    checkouts = (p / ".git" for p in (start, *start.parents))
    git = next((g for g in checkouts if g.exists()), None)
    if git is None:
        return None
    try:
        if git.is_file():
            line = git.read_text().strip()
            if not line.startswith("gitdir: "):
                return None
            git = git.parent / line[8:]
        shared = git / "commondir"
        common = git / shared.read_text().strip() if shared.is_file() else git
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        for refs in (git, common):
            if (refs / ref).is_file():
                return (refs / ref).read_text().strip()
        for line in (common / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """Python and numpy versions, CPU count and the git commit of this source."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(Path(__file__).resolve().parent),
    }


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name:<28} err {r.error:.3e}  tol {r.tol:.1e}")
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
