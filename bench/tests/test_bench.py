"""Tests of the benchmark itself: metric names and units, oracles, tracer.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.4",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert report["environment"]["python"] and report["params"]
    if not trace:
        assert report["fail_ratio"] == 0.0
        assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cost_stream", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cost_off_by_a_millionth_caps_accuracy_at_six_digits(monkeypatch):
    workload = workloads.make("cost_stream")
    clean, failed = oracles.panel_cost_stream(workload)
    assert failed == 0 and run.accuracy_summary(clean)["mean_cell_digits"] > 10
    cost_module = workloads._cost
    exact_cost = cost_module.cost

    def off_by_1e6(problem, route="algorithm51"):
        out = exact_cost(problem, route)
        return type(out)(out.total * (1 + 1e-6), out.route, out.b, out.clamped)

    monkeypatch.setattr(cost_module, "cost", off_by_1e6)
    errors, failed = oracles.panel_cost_stream(workload)
    summary = run.accuracy_summary(errors)
    assert failed == 0
    assert summary["accuracy_digits"] <= 6 + 1e-6
    assert summary["mean_cell_digits"] <= 6 + 1e-6
    assert max(oracles.digits(err) for err in errors.values()) <= 6 + 1e-6


def test_non_permutation_assignment_counts_as_failure(monkeypatch):
    workload = workloads.make("transport", tiny=True)
    monkeypatch.setattr(
        workloads._transport, "solve_assignment", lambda costs: np.zeros(len(costs), dtype=int)
    )
    loop = run.timed_loop(workload, 5, 10.0, max_ops=3, check=oracles.CHECKS["transport"])
    assert loop.attempted == 3 and loop.failed == 3


def test_suboptimal_assignment_counts_as_failure(monkeypatch):
    workload = workloads.make("transport", tiny=True)
    monkeypatch.setattr(
        workloads._transport, "solve_assignment", lambda costs: np.arange(len(costs))[::-1]
    )
    loop = run.timed_loop(workload, 5, 10.0, max_ops=3, check=oracles.CHECKS["transport"])
    assert loop.failed == 3


def test_cli_printing_nan_counts_as_failure(monkeypatch):
    workload = workloads.make("cli_json")
    exact_cost = workloads._cli.cost

    def nan_cost(problem, route="algorithm51"):
        out = exact_cost(problem, route)
        return type(out)(float("nan"), out.route, out.b, out.clamped)

    monkeypatch.setattr(workloads._cli, "cost", nan_cost)
    inputs = next(workloads.chunks(workload, 7))[:40]
    outputs = [workload.op(inp) for inp in inputs]
    cost_docs = sum(kind == "cost" for kind, _ in inputs)
    assert cost_docs > 0
    assert all("NaN" in out for (kind, _), (_, out) in zip(inputs, outputs) if kind == "cost")
    loop = run.timed_loop(workload, 7, 10.0, max_ops=40, check=oracles.CHECKS["cli_json"])
    assert loop.failed == cost_docs


def test_cli_json_horizons_stay_below_where_the_default_route_raises():
    workload = workloads.make("cli_json")
    for seed in (1, 1301633457):
        for _, text in next(workloads.chunks(workload, seed)):
            assert 1e-2 <= json.loads(text)["h"] <= 10.0


@pytest.mark.parametrize(
    "stdout", ['{"cost": Infinity}\n', '{"cost": 1.0}\n{"cost": 1.0}\n', "", "[1.0]\n"]
)
def test_cli_output_must_be_one_strict_json_object(stdout):
    assert oracles.passed_cli_json([("cost", "{}")], [(0, stdout)]) == [False]
    assert oracles.passed_cli_json([("cost", "{}")], [(0, '{"cost": 1.0}\n')]) == [True]
    assert oracles.passed_cli_json([("cost", "{}")], [(3, '{"cost": 1.0}\n')]) == [False]


def test_tracer_records_nested_spans_and_restores_the_package():
    workload = workloads.make("cli_json")
    inp = workload.document(np.random.default_rng(0), "trajectory", 4, 2, 0.0)
    tracer = spans.Tracer()
    originals = {
        name: getattr(sys.modules[module], attr)
        for name, (module, attr) in spans.PATCHED.items()
    }
    tracer.install()
    try:
        code, _ = workload.op(inp)
    finally:
        tracer.uninstall()
    assert code == 0
    for name, (module, attr) in spans.PATCHED.items():
        assert getattr(sys.modules[module], attr) is originals[name]
    assert sys.modules["msdcost.cli"].json is json
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["cost.eval_trajectory"]["calls"] == workloads.SAMPLE_COUNT
    roots = [s for s in tracer.spans if s[2] == -1]
    assert [s[3] for s in roots] == ["cli.main"]
    (root,) = roots
    total_self_ms = sum(rec["self_ms"] for rec in summary.values())
    assert total_self_ms == pytest.approx((root[5] - root[4]) / 1e6)
