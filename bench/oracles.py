"""Correctness oracles of the benchmark; every call here runs outside the timed loop.

* ``passed_*`` decide which timed operations passed: a failure is an exception, a
  non-finite or negative value, a non-zero CLI exit, stdout that is not
  one strict-JSON document, or a transport assignment that is not a
  permutation or not optimal against scipy's ``linear_sum_assignment``.
* ``panel_*`` run the workload's own operation on a panel of problems
  drawn with a fixed seed that covers every (n, h) cell, and return the
  largest relative error per cell against the exact ``kform`` route
  (for trajectory documents: the sampled values at t = 0 and t = h
  against the x and y rows).

The reference functions are bound when this module is imported, so a
wrapper installed later around the package's names (by the tracer, or by
a test that perturbs ``cost``) does not reach the reference.
"""

from __future__ import annotations

import importlib
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

import workloads

_cost_mod = importlib.import_module("msdcost.cost")
_matrices = importlib.import_module("msdcost.matrices")
_types = importlib.import_module("msdcost.types")
_reference_cost = _cost_mod.cost
_make_problem = _types.make_problem
_build_B = _matrices.build_B
_build_A_inv = _matrices.build_A_inv

#: Seed of the accuracy panel.  Fixed, so accuracy compares commit to
#: commit on the same problems whatever ``--seed`` a run gets.
PANEL_SEED = 1602
#: Panel problems per (n, h, d) cell.
PANEL_PER_CELL = 4
#: Relative errors are floored here before taking -log10.
ERROR_FLOOR = 1e-17
#: A returned assignment may exceed the scipy optimum by this much, relative.
ASSIGNMENT_RTOL = 1e-9

FAILED = object()


def kform(h, x, y, tracer=None) -> float:
    """The exact reference cost, recorded as span ``cost.kform`` when traced."""
    reference = tracer.wrap("cost.kform", _reference_cost) if tracer else _reference_cost
    return reference(_make_problem(h, x, y), route="kform").total


def relative_error(value, reference) -> float:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = float(np.abs(reference).max())
    err = float(np.abs(value - reference).max())
    if scale == 0.0:
        return err
    return err / scale


def digits(error: float, cap: float | None = None) -> float:
    """-log10 of a relative error floored at ERROR_FLOOR (and capped at ``cap``)."""
    error = max(error, ERROR_FLOOR)
    if cap is not None:
        error = min(error, cap)
    return -math.log10(error)


def strict_json(text: str):
    """Parse stdout as exactly one JSON document; NaN and Infinity are refused."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


# ------------------------------------------------------------------ cost_stream


def passed_cost_stream(inputs, outputs) -> list[bool]:
    return [out is not FAILED and math.isfinite(out) and out >= 0.0 for out in outputs]


def panel_cost_stream(workload, tracer=None) -> tuple[dict, int]:
    rng = np.random.default_rng(PANEL_SEED)
    errors, failed = {}, 0
    for n in workloads.ORDERS:
        for h in workloads.HORIZONS:
            for d in workloads.DIMS:
                for _ in range(PANEL_PER_CELL):
                    x, y = rng.standard_normal((n, d)), rng.standard_normal((n, d))
                    try:
                        value = workload.op((h, x, y))
                    except Exception:
                        value = FAILED
                    if not passed_cost_stream(None, [value])[0]:
                        failed += 1
                        continue
                    err = relative_error(value, kform(h, x, y, tracer))
                    errors[(n, h)] = max(errors.get((n, h), 0.0), err)
    return errors, failed


# ------------------------------------------------------------------ transport


def _taylor(n: int, h: float) -> np.ndarray:
    return np.array(
        [[h ** (j - k) / math.factorial(j - k) if j >= k else 0.0 for j in range(n)]
         for k in range(n)]
    )


def ground_costs(X: np.ndarray, Y: np.ndarray, h: float) -> np.ndarray:
    """Pairwise costs (i, j) = gap^T B A^-1 gap summed over d, vectorized."""
    n = X.shape[1]
    form = _build_B(n, h) @ _build_A_inv(n, h)
    starts = np.einsum("kj,mjd->mkd", _taylor(n, h), X)
    gaps = (Y[None, :, :, :] - starts[:, None, :, :]).transpose(0, 1, 3, 2)
    return ((gaps @ form.T) * gaps).sum(axis=(2, 3))


def transport_ok(X, Y, h, out) -> bool:
    if out is FAILED:
        return False
    w2, assignment = out
    m = X.shape[0]
    a = np.asarray(assignment)
    if a.shape != (m,) or not np.array_equal(np.sort(a), np.arange(m)):
        return False
    if not (math.isfinite(w2) and w2 >= 0.0):
        return False
    costs = ground_costs(X, Y, h)
    rows, cols = linear_sum_assignment(costs)
    best = float(costs[rows, cols].sum())
    total = float(costs[np.arange(m), a].sum())
    slack = ASSIGNMENT_RTOL * max(abs(best), np.finfo(float).tiny)
    consistent = abs(w2 * m - total) <= slack + ASSIGNMENT_RTOL * abs(total)
    return total <= best + slack and consistent


def passed_transport(inputs, outputs) -> list[bool]:
    return [
        transport_ok(X, Y, workloads.TRANSPORT_H, out)
        for (X, Y), out in zip(inputs, outputs)
    ]


def panel_transport(workload, tracer=None) -> tuple[dict, int]:
    rng = np.random.default_rng(PANEL_SEED)
    inp = workload.draw(rng)
    X, Y = inp
    h = workloads.TRANSPORT_H
    try:
        out = workload.op(inp)
    except Exception:
        return {}, 1
    if not transport_ok(X, Y, h, out):
        return {}, 1
    w2, assignment = out
    exact = sum(kform(h, X[i], Y[j], tracer) for i, j in enumerate(assignment)) / X.shape[0]
    return {(X.shape[1], h): relative_error(w2, exact)}, 0


# ------------------------------------------------------------------ cli_json


def _cli_payload(inp, out):
    """The parsed stdout of a CLI run, or None when the run failed."""
    if out is FAILED:
        return None
    code, stdout = out
    if code != 0:
        return None
    try:
        payload = strict_json(stdout)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    kind, _ = inp
    if kind == "cost":
        value = payload.get("cost")
        if not isinstance(value, float) or not math.isfinite(value) or value < 0.0:
            return None
    else:
        values = payload.get("values")
        if not isinstance(values, list) or len(values) != workloads.SAMPLE_COUNT:
            return None
    return payload


def passed_cli_json(inputs, outputs) -> list[bool]:
    return [_cli_payload(inp, out) is not None for inp, out in zip(inputs, outputs)]


def panel_cli_json(workload, tracer=None) -> tuple[dict, int]:
    rng = np.random.default_rng(PANEL_SEED)
    lo, hi = workloads.LOG10_H_RANGE
    errors, failed = {}, 0
    for kind in ("cost", "trajectory"):
        for n in workloads.ORDERS:
            for decade in range(int(lo), int(hi)):
                for d in workloads.DIMS:
                    for _ in range(PANEL_PER_CELL // 2):
                        log10_h = rng.uniform(decade, decade + 1)
                        inp = workload.document(rng, kind, n, d, log10_h)
                        try:
                            out = workload.op(inp)
                        except Exception:
                            out = FAILED
                        payload = _cli_payload(inp, out)
                        if payload is None:
                            failed += 1
                            continue
                        doc = json.loads(inp[1])
                        x, y, h = np.array(doc["x"]), np.array(doc["y"]), doc["h"]
                        if kind == "cost":
                            err = relative_error(payload["cost"], kform(h, x, y, tracer))
                        else:
                            k = doc["samples"]["k"]
                            values = payload["values"]
                            err = max(
                                relative_error(values[0], x[k]),
                                relative_error(values[-1], y[k]),
                            )
                        cell = (kind, n, decade)
                        errors[cell] = max(errors.get(cell, 0.0), err)
    return errors, failed


CHECKS = {
    "cost_stream": passed_cost_stream,
    "transport": passed_transport,
    "cli_json": passed_cli_json,
}
PANELS = {
    "cost_stream": panel_cost_stream,
    "transport": panel_transport,
    "cli_json": panel_cli_json,
}
