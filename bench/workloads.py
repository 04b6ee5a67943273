"""Seeded inputs and the timed operation of each benchmark workload.

Each workload draws its inputs from a numpy generator, one operation at a
time, so the first operation is the same however many are drawn.  The
operation calls the package only through its public names, looked up in
the package modules at call time so that the traced run's wrappers apply.
This module imports only what the operations need (numpy and the
package); the oracles live in ``oracles.py``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys

import numpy as np

_types = importlib.import_module("msdcost.types")
_cost = importlib.import_module("msdcost.cost")
_transport = importlib.import_module("msdcost.transport")
_cli = importlib.import_module("msdcost.cli")

#: Orders of the ROADMAP grid.  The weights are not equal on purpose: per
#: op latency comes in one narrow band per n, and a percentile that falls
#: on the edge of a band jumps from run to run.  With four equal weights
#: the median would sit in the gap between the n=4 and n=8 bands; with
#: these it falls inside the n=4 band, and p99 falls at the 90th
#: percentile of the n=12 band, below the ~2x slow calls that about 1 in
#: 50 n=12 calls make on a shared two-core machine.
ORDERS = (2, 4, 8, 12)
ORDER_WEIGHTS = (0.3, 0.3, 0.3, 0.1)
HORIZONS = (1e-2, 1.0, 1e2)
DIMS = (1, 3)

#: Share of trajectory documents in cli_json.  Cost documents all run
#: faster than trajectory documents, so at an even split the median
#: would sit in the gap between the two kinds; at 0.6 it falls inside
#: the dense low end of the trajectory band.
TRAJECTORY_SHARE = 0.6
SAMPLE_COUNT = 101
#: Horizons of cli_json stop at 10.  Above about h = 40 the default route
#: at n = 12 loses all digits, and about 1 in 4000 such cost documents
#: evaluate far below zero, so ``cost`` raises ``ConsistencyError`` and
#: the CLI run fails.  That defect stays measured in cost_stream, whose
#: n = 12, h = 100 cell is in its accuracy panel; at h <= 10 the worst
#: relative error at n = 12 is about 1e-5.
LOG10_H_RANGE = (-2.0, 1.0)

TRANSPORT_SHAPE = (256, 3, 2)
TINY_TRANSPORT_SHAPE = (16, 3, 2)
TRANSPORT_H = 1.0


def _order(rng) -> int:
    return int(ORDERS[rng.choice(len(ORDERS), p=ORDER_WEIGHTS)])


def _dim(rng) -> int:
    return int(DIMS[rng.integers(len(DIMS))])


class Workload:
    """``chunk``: inputs drawn at a time; ``trace_ops``: operations in a traced run.

    ``tiny`` shrinks the work per operation, for the benchmark's own tests.
    """

    name: str
    chunk: int
    trace_ops: int

    def __init__(self, tiny: bool = False):
        self.tiny = tiny


class CostStream(Workload):
    """``cost(make_problem(h, x, y))`` with the default route on the grid cells."""

    name = "cost_stream"
    chunk = 2048
    trace_ops = 20000

    def params(self) -> dict:
        return {
            "op": "cost(make_problem(h, x, y)), default route",
            "n": dict(zip(ORDERS, ORDER_WEIGHTS)),
            "h": list(HORIZONS),
            "d": list(DIMS),
            "x, y": "standard normal (n, d)",
        }

    def draw(self, rng) -> tuple:
        n, d = _order(rng), _dim(rng)
        h = float(HORIZONS[rng.integers(len(HORIZONS))])
        return h, rng.standard_normal((n, d)), rng.standard_normal((n, d))

    def op(self, inp) -> float:
        h, x, y = inp
        return _cost.cost(_types.make_problem(h, x, y)).total


class Transport(Workload):
    """``w2_uniform`` between two fresh seeded clouds at h = 1."""

    name = "transport"
    chunk = 4
    trace_ops = 24

    @property
    def shape(self) -> tuple:
        return TINY_TRANSPORT_SHAPE if self.tiny else TRANSPORT_SHAPE

    def params(self) -> dict:
        m, n, d = self.shape
        return {
            "op": "w2_uniform(DiscreteMeasure.from_array(X), ...from_array(Y), h)",
            "m": m,
            "n": n,
            "d": d,
            "h": TRANSPORT_H,
            "X, Y": "standard normal (m, n, d)",
        }

    def draw(self, rng) -> tuple:
        return rng.standard_normal(self.shape), rng.standard_normal(self.shape)

    def op(self, inp) -> tuple:
        X, Y = inp
        measure = _types.DiscreteMeasure
        return _transport.w2_uniform(
            measure.from_array(X), measure.from_array(Y), h=TRANSPORT_H
        )


class CliJson(Workload):
    """In-process ``cli.main`` on one pre-rendered JSON document from stdin."""

    name = "cli_json"
    chunk = 512
    trace_ops = 2000

    def params(self) -> dict:
        return {
            "op": "cli.main([kind]) with the document on stdin, stdout captured",
            "kind": {"cost": 1 - TRAJECTORY_SHARE, "trajectory": TRAJECTORY_SHARE},
            "n": dict(zip(ORDERS, ORDER_WEIGHTS)),
            "log10_h": "uniform on [%g, %g]" % LOG10_H_RANGE,
            "d": list(DIMS),
            "samples": {"k": "uniform on 0..n-1", "count": SAMPLE_COUNT},
        }

    def document(self, rng, kind: str, n: int, d: int, log10_h: float) -> tuple:
        doc = {
            "n": n,
            "h": float(10.0**log10_h),
            "d": d,
            "x": rng.standard_normal((n, d)).tolist(),
            "y": rng.standard_normal((n, d)).tolist(),
        }
        if kind == "trajectory":
            doc["samples"] = {"k": int(rng.integers(n)), "count": SAMPLE_COUNT}
        return kind, json.dumps(doc)

    def draw(self, rng) -> tuple:
        kind = "trajectory" if rng.random() < TRAJECTORY_SHARE else "cost"
        n, d = _order(rng), _dim(rng)
        return self.document(rng, kind, n, d, rng.uniform(*LOG10_H_RANGE))

    def op(self, inp) -> tuple:
        kind, text = inp
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _cli.main([kind])
        finally:
            sys.stdin = stdin
        return code, out.getvalue()


WORKLOADS = {w.name: w for w in (CostStream, Transport, CliJson)}


def make(name: str, tiny: bool = False):
    return WORKLOADS[name](tiny=tiny)


def chunks(workload, seed: int):
    """Endless stream of input lists; the same seed gives the same stream."""
    rng = np.random.default_rng(seed)
    while True:
        yield [workload.draw(rng) for _ in range(workload.chunk)]
