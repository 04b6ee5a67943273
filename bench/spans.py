"""In-memory span recorder for the traced benchmark run.

A span is (op, id, parent, name, start_ns, end_ns, work).  Spans are
recorded around calls into the package's public functions by replacing
the names that each calling module looks up (``install``); ``uninstall``
puts the originals back.  Nothing here edits the package source, and the
untraced run never installs anything.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types as pytypes

import numpy as np

#: Spans recorded by patching: span name -> (module, attribute).  The
#: attribute is replaced in every package module that holds the same
#: function object, so internal callers (``cost`` calling ``build_B``,
#: ``cli`` calling ``cost``) go through the wrapper too.
PATCHED = {
    "types.make_problem": ("msdcost.types", "make_problem"),
    "matrices.h_power_table": ("msdcost.matrices", "h_power_table"),
    "matrices.build_A_inv": ("msdcost.matrices", "build_A_inv"),
    "matrices.build_B": ("msdcost.matrices", "build_B"),
    "matrices.build_b": ("msdcost.matrices", "build_b"),
    "matrices.taylor_propagate": ("msdcost.matrices", "taylor_propagate"),
    "cost.cost": ("msdcost.cost", "cost"),
    "cost.is_free_flight": ("msdcost.cost", "is_free_flight"),
    "cost.solve_trajectory": ("msdcost.cost", "solve_trajectory"),
    "cost.eval_trajectory": ("msdcost.cost", "eval_trajectory"),
    "transport.w2_uniform": ("msdcost.transport", "w2_uniform"),
    "transport.ground_cost_matrix": ("msdcost.transport", "ground_cost_matrix"),
    "transport.solve_assignment": ("msdcost.transport", "solve_assignment"),
    "cli.main": ("msdcost.cli", "main"),
    "cli.build_parser": ("msdcost.cli", "build_parser"),
    "cli.parse_problem": ("msdcost.cli", "parse_problem"),
}

#: Spans with their own hook: the classmethod, the JSON calls that
#: ``cli`` makes through its ``json`` name, and the reference route,
#: which the oracle wraps itself (it runs outside the timed ops).
SPECIAL = (
    "types.DiscreteMeasure.from_array",
    "cli.parse_json",
    "cli.serialize",
    "cost.kform",
)

SPAN_NAMES = tuple(sorted((*PATCHED, *SPECIAL)))

PACKAGE_MODULES = (
    "msdcost",
    "msdcost.types",
    "msdcost.matrices",
    "msdcost.cost",
    "msdcost.transport",
    "msdcost.cli",
)


def _ground_cost_entries(mu, nu, h) -> int:
    return mu.m * nu.m


#: Work counted per call, for rates such as entries per second.
WORK = {"transport.ground_cost_matrix": _ground_cost_entries}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                count = work(*args, **kwargs) if work else 0
                spans.append((self.op, sid, parent, name, start, end, count))

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for name, (modname, attr) in PATCHED.items():
            original = getattr(importlib.import_module(modname), attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        measure = importlib.import_module("msdcost.types").DiscreteMeasure
        from_array = measure.__dict__["from_array"].__func__
        self._set(
            measure,
            "from_array",
            classmethod(self.wrap("types.DiscreteMeasure.from_array", from_array)),
        )
        cli = importlib.import_module("msdcost.cli")
        proxy = pytypes.SimpleNamespace(
            loads=self.wrap("cli.parse_json", json.loads),
            dumps=self.wrap("cli.serialize", json.dumps),
            JSONDecodeError=json.JSONDecodeError,
        )
        self._set(cli, "json", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (ms), median call time (us), work."""
        child_ns: dict[int, int] = {}
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        per_name: dict[str, dict] = {
            name: {"durations": [], "self_ns": 0, "work": 0} for name in SPAN_NAMES
        }
        for _, sid, _, name, start, end, count in self.spans:
            rec = per_name[name]
            rec["durations"].append(end - start)
            rec["self_ns"] += (end - start) - child_ns.get(sid, 0)
            rec["work"] += count
        out = {}
        for name, rec in per_name.items():
            durations = rec["durations"]
            total_s = sum(durations) / 1e9
            out[name] = {
                "calls": len(durations),
                "self_ms": rec["self_ns"] / 1e6,
                "p50_us": float(np.median(durations)) / 1e3 if durations else 0.0,
                "work": rec["work"],
                "work_per_s": rec["work"] / total_s if total_s > 0 else 0.0,
            }
        return out

    def dump(self, path) -> None:
        columns = ["op", "id", "parent", "name", "start_ns", "end_ns", "work"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": columns, "spans": self.spans}, fh, separators=(",", ":"))
