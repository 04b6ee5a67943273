"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible under
``pytest -s`` or in the failure output) and then asserts.  Tolerances are
pinned here and never relaxed at runtime.
"""

import itertools
import math

import numpy as np

from conftest import seeded_problems
from msdcost import (
    BoundaryState,
    DiscreteMeasure,
    build_A,
    build_A_inv,
    build_B,
    build_K,
    build_L,
    build_L_inv,
    build_U,
    build_U_inv,
    cost,
    det_A,
    elimination_det,
    free_flight_target,
    gauss_legendre,
    ground_cost_matrix,
    hessian,
    make_problem,
    reduce_order,
    solve_trajectory,
    quadrature_cost,
    w2_uniform,
)


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


# Criterion 1 -- printed factor tables for n = 1..4, h in {1, 2}, 1e-12 abs.
# Transcribed by hand, independently of the package's selftest copy.

def golden_suite(h):
    h2, h3, h4, h5, h6, h7 = h**2, h**3, h**4, h**5, h**6, h**7
    return {
        1: {
            "A": [[h]], "Ainv": [[1 / h]], "B": [[1]],
            "L": [[1]], "U": [[h]], "Linv": [[1]], "Uinv": [[1 / h]],
        },
        2: {
            "A": [[h2, h3], [2 * h, 3 * h2]],
            "Ainv": [[3 / h2, -1 / h], [-2 / h3, 1 / h2]],
            "B": [[0, -6], [2, 6 * h]],
            "L": [[1, 0], [2 / h, 1]],
            "U": [[h2, h3], [0, h2]],
            "Linv": [[1, 0], [-2 / h, 1]],
            "Uinv": [[1 / h2, -1 / h], [0, 1 / h2]],
        },
        3: {
            "A": [[h3, h4, h5], [3 * h2, 4 * h3, 5 * h4], [6 * h, 12 * h2, 20 * h3]],
            "Ainv": [
                [10 / h3, -4 / h2, 1 / (2 * h)],
                [-15 / h4, 7 / h3, -1 / h2],
                [6 / h5, -3 / h4, 1 / (2 * h3)],
            ],
            "B": [[0, 0, 120], [0, -24, -120 * h], [6, 24 * h, 60 * h2]],
            "L": [[1, 0, 0], [3 / h, 1, 0], [6 / h2, 6 / h, 1]],
            "U": [[h3, h4, h5], [0, h3, 2 * h4], [0, 0, 2 * h3]],
            "Linv": [[1, 0, 0], [-3 / h, 1, 0], [12 / h2, -6 / h, 1]],
            "Uinv": [
                [1 / h3, -1 / h2, 1 / (2 * h)],
                [0, 1 / h3, -1 / h2],
                [0, 0, 1 / (2 * h3)],
            ],
        },
        4: {
            "A": [
                [h4, h5, h6, h7],
                [4 * h3, 5 * h4, 6 * h5, 7 * h6],
                [12 * h2, 20 * h3, 30 * h4, 42 * h5],
                [24 * h, 60 * h2, 120 * h3, 210 * h4],
            ],
            "Ainv": [
                [35 / h4, -15 / h3, 5 / (2 * h2), -1 / (6 * h)],
                [-84 / h5, 39 / h4, -7 / h3, 1 / (2 * h2)],
                [70 / h6, -34 / h5, 13 / (2 * h4), -1 / (2 * h3)],
                [-20 / h7, 10 / h6, -2 / h5, 1 / (6 * h4)],
            ],
            "B": [
                [0, 0, 0, -5040],
                [0, 0, 720, 5040 * h],
                [0, -120, -720 * h, -2520 * h2],
                [24, 120 * h, 360 * h2, 840 * h3],
            ],
            "L": [
                [1, 0, 0, 0],
                [4 / h, 1, 0, 0],
                [12 / h2, 8 / h, 1, 0],
                [24 / h3, 36 / h2, 12 / h, 1],
            ],
            "U": [
                [h4, h5, h6, h7],
                [0, h4, 2 * h5, 3 * h6],
                [0, 0, 2 * h4, 6 * h5],
                [0, 0, 0, 6 * h4],
            ],
            "Linv": [
                [1, 0, 0, 0],
                [-4 / h, 1, 0, 0],
                [20 / h2, -8 / h, 1, 0],
                [-120 / h3, 60 / h2, -12 / h, 1],
            ],
            "Uinv": [
                [1 / h4, -1 / h3, 1 / (2 * h2), -1 / (6 * h)],
                [0, 1 / h4, -1 / h3, 1 / (2 * h2)],
                [0, 0, 1 / (2 * h4), -1 / (2 * h3)],
                [0, 0, 0, 1 / (6 * h4)],
            ],
        },
    }


BUILDERS = {
    "A": build_A, "Ainv": build_A_inv, "B": build_B, "L": build_L,
    "U": build_U, "Linv": build_L_inv, "Uinv": build_U_inv,
}


def test_criterion_01_golden_tables():
    worst = 0.0
    for h in (1.0, 2.0):
        tables = golden_suite(h)
        for n in range(1, 5):
            for name, builder in BUILDERS.items():
                err = np.abs(builder(n, h) - np.array(tables[n][name], float)).max()
                worst = max(worst, float(err))
    report("01-golden-tables", worst <= 1e-12, f"max abs err {worst:.2e} (tol 1e-12)")


def test_criterion_02_canonical_costs():
    expected = {1: 1.0, 2: 12.0, 3: 720.0, 4: 100800.0}
    worst = 0.0
    for n, want in expected.items():
        x = np.zeros(n)
        y = np.zeros(n)
        y[0] = 1.0
        got = cost(make_problem(1.0, x, y)).total
        worst = max(worst, abs(got - want) / want)
    # cross-check the quadratic case against the position/velocity-pair
    # closed form under its own argument convention
    h, p0, v0, p1, v1 = 1.0, 0.0, 0.0, 1.0, 0.0
    alt = (1.0 / h) * ((v1 - v0) ** 2 + 12.0 * ((p1 - p0) / h - (v1 + v0) / 2.0) ** 2)
    worst = max(worst, abs(alt - 12.0) / 12.0)
    report("02-canonical-costs", worst <= 1e-10, f"max rel err {worst:.2e} (tol 1e-10)")


def test_criterion_03_lu_correctness():
    worst_lu = worst_tri = worst_inv = 0.0
    for n in range(1, 11):
        for h in (0.5, 1.0, 2.0, 10.0):
            ident = np.eye(n)
            a = build_A(n, h)
            lo, up = build_L(n, h), build_U(n, h)
            lo_inv, up_inv = build_L_inv(n, h), build_U_inv(n, h)
            worst_lu = max(worst_lu, np.abs(lo @ up - a).max() / np.abs(a).max())
            worst_tri = max(
                worst_tri,
                np.abs(up @ up_inv - ident).max(),
                np.abs(lo @ lo_inv - ident).max(),
            )
            for a_inv in (build_A_inv(n, h), up_inv @ lo_inv):
                cond = np.abs(a).sum(axis=1).max() * np.abs(a_inv).sum(axis=1).max()
                worst_inv = max(worst_inv, np.abs(a @ a_inv - ident).max() / cond)
    ok = worst_lu <= 1e-10 and worst_tri <= 1e-10 and worst_inv <= 1e-8
    report(
        "03-lu-correctness", ok,
        f"LU {worst_lu:.2e} (1e-10), inverses {worst_tri:.2e} (1e-10), "
        f"A*Ainv/cond {worst_inv:.2e} (1e-8)",
    )


def test_criterion_04_determinant():
    worst = 0.0
    for n in range(1, 9):
        for h in (0.5, 1.0, 2.0):
            closed = h ** (n * n) * math.prod(math.factorial(k) for k in range(1, n))
            got = elimination_det(build_A(n, h))
            worst = max(worst, abs(got - closed) / closed)
            assert abs(det_A(n, h) - closed) <= 1e-14 * closed
    for n, want in ((2, 1.0), (3, 2.0), (4, 12.0)):
        got = elimination_det(build_A(n, 1.0))
        worst = max(worst, abs(got - want) / want)
    report("04-determinant", worst <= 1e-8, f"max rel err {worst:.2e} (tol 1e-8)")


def test_criterion_05_oracle_equivalence():
    problems = seeded_problems(count=200)
    worst_quad = worst_routes = 0.0
    for p in problems:
        ref = cost(p).total
        quad = quadrature_cost(solve_trajectory(p))
        worst_quad = max(worst_quad, abs(quad - ref) / (1.0 + ref))
        k = cost(p, route="kform").total
        s = cost(p, route="scaled").total
        scale = max(ref, k, s, 1e-300)
        worst_routes = max(
            worst_routes,
            abs(ref - k) / scale,
            abs(ref - s) / scale,
            abs(k - s) / scale,
        )
    ok = worst_quad <= 1e-8 and worst_routes <= 1e-8
    report(
        "05-oracle-equivalence", ok,
        f"quadrature {worst_quad:.2e}, routes {worst_routes:.2e} (tol 1e-8, 200 problems)",
    )


def test_criterion_06_scaling_and_monotonicity():
    problems = seeded_problems(count=200)
    worst_scaling = 0.0
    mono_ok = True
    for p in problems:
        powers = p.h ** np.arange(p.n)[:, None]
        rescaled = make_problem(1.0, p.start.values * powers, p.end.values * powers)
        lhs = cost(p).total
        rhs = p.h ** (1 - 2 * p.n) * cost(rescaled).total
        worst_scaling = max(worst_scaling, abs(lhs - rhs) / max(lhs, rhs, 1e-300))
        if p.n >= 2:
            reduced = cost(reduce_order(p)).total
            mono_ok = mono_ok and reduced <= lhs + 1e-9 * (1.0 + lhs)
    ok = worst_scaling <= 1e-9 and mono_ok
    report(
        "06-scaling-monotonicity", ok,
        f"scaling {worst_scaling:.2e} (tol 1e-9), monotone {mono_ok}",
    )


def test_criterion_07_free_flight():
    rng = np.random.default_rng(3141)
    worst = 0.0
    strictly_positive = True
    for n in range(1, 9):
        for h in (0.5, 1.0, 2.0):
            start = BoundaryState(rng.uniform(-5, 5, (n, 2)))
            target = free_flight_target(n, h, start)
            scale = 1.0 + max(
                np.abs(start.values).max(), np.abs(target.values).max()
            )
            zero = cost(make_problem(h, start.values, target.values)).total
            worst = max(worst, zero / scale)
            for row in range(n):
                for col in range(2):
                    bumped = np.array(target.values)
                    bumped[row, col] += 1e-3
                    perturbed = cost(make_problem(h, start.values, bumped)).total
                    strictly_positive = strictly_positive and perturbed > 0.0
    ok = worst <= 1e-12 and strictly_positive
    report(
        "07-free-flight", ok,
        f"zero-cost residual {worst:.2e} (tol 1e-12), perturbations positive {strictly_positive}",
    )


def test_criterion_08_positive_definiteness():
    ok = True
    for n in range(1, 11):
        for h in (0.5, 1.0, 2.0):
            try:
                np.linalg.cholesky(hessian(n, h))
                np.linalg.cholesky(build_K(n, h))
            except np.linalg.LinAlgError:
                ok = False
    report("08-positive-definiteness", ok, "Cholesky of H and K, n <= 10, h in {1/2,1,2}")


def test_criterion_09_trajectory_optimality():
    from numpy.polynomial import polynomial as npoly

    problems = seeded_problems(count=20, seed=271828)
    rng = np.random.default_rng(1618)
    worst = 0.0
    for p in problems:
        n, h, d = p.n, p.h, p.d
        ref = cost(p).total
        if ref == 0.0:
            continue
        poly = solve_trajectory(p)
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
            # after scaling, int |eta^(n)|^2 equals the reference cost
            worst = max(worst, abs(cross) / ref)
    report(
        "09-trajectory-optimality", worst <= 1e-8,
        f"max |cross-term| / norm {worst:.2e} (tol 1e-8, 20 problems x 50 perturbations)",
    )


def test_criterion_10_transport_brute_force():
    rng = np.random.default_rng(60221023)
    worst = 0.0
    for _ in range(30):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        h = float(rng.uniform(0.5, 2.0))
        mu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (m, n, d)))
        nu = DiscreteMeasure.from_array(rng.uniform(-3, 3, (m, n, d)))
        value, assignment = w2_uniform(mu, nu, h)
        costs = ground_cost_matrix(mu, nu, h)
        brute = min(
            sum(costs[i, perm[i]] for i in range(m))
            for perm in itertools.permutations(range(m))
        )
        worst = max(worst, abs(value * m - brute) / (1.0 + brute))
        assert sorted(assignment) == list(range(m))
    report(
        "10-transport-brute-force", worst <= 1e-10,
        f"max rel gap {worst:.2e} (tol 1e-10, 30 instances, m <= 7)",
    )
