"""Benchmark of msdcost: one workload, one seed, every metric with its unit.

    python3 bench/run.py --workload cost_stream --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; without it
the run stops with exit code 2.  One closed loop, one client, one thread:
each operation starts when the previous one has returned.

``--trace 0`` measures the end-to-end metrics: throughput and latency of
the timed loop, accuracy on a fixed panel against the exact ``kform``
route, the share of operations that passed every check, and set-up time
and peak memory from fresh interpreters (``probe.py``).  ``--trace 1``
runs the same operations untraced and then traced, and reports per span
its calls, self time and median call time, plus the tracing overhead;
the spans are written to ``.bench_out/``.

Stdout: one ``{"report": ...}`` line with the environment, the workload
parameters and every metric, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run for set-up time and peak memory.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
WARMUP_S = 0.5
#: Throughput is the median over windows of at least this much busy time,
#: so a burst of interference in one window does not move it.
WINDOW_S = 1.0
#: Candidate tail percentiles; the highest with ten samples beyond it is
#: reported.  None goes past p99: beyond it, latency on a small shared
#: machine follows interference (a fixed pure-Python loop shows p99.9 at
#: 1.6x its median) and moves 10-20% from run to run.
TAIL_PERCENTILES = (99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "mean_cell_digits": "digits",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_SPAN = {"calls": "count", "self_ms": "ms", "p50_us": "us"}


def per_layer_units() -> dict[str, str]:
    from spans import SPAN_NAMES

    units = {
        f"{span}.{field}": unit for span in SPAN_NAMES for field, unit in PER_SPAN.items()
    }
    units["transport.ground_cost_matrix.entries_per_s"] = "1/s"
    units["tracing_overhead"] = "ratio"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("cost_stream", "transport", "cli_json")
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--tiny", action="store_true",
        help="small transport clouds and one set-up probe (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ------------------------------------------------------------------ environment


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "msdcost").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(),
    }


# ------------------------------------------------------------------ measuring


class Loop:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0
        self.latencies_ns: list[int] = []
        self.passed: list[bool] = []

    def ops_per_s(self) -> float:
        """Median over consecutive windows of passed operations per busy second."""
        rates, ok, busy = [], 0, 0
        for lat, passed in zip(self.latencies_ns, self.passed):
            ok += passed
            busy += lat
            if busy >= WINDOW_S * 1e9:
                rates.append(ok / (busy / 1e9))
                ok = busy = 0
        if not rates:
            rates.append(ok / (busy / 1e9))
        return statistics.median(rates)


def timed_loop(workload, seed, seconds, max_ops=None, check=None, tracer=None) -> Loop:
    """Run operations back to back for ``seconds`` of busy time (or ``max_ops``).

    Inputs are drawn a chunk at a time and checked after each chunk; only
    the operations themselves are inside the timed stretch.
    """
    import oracles
    import workloads

    op, clock, limit = workload.op, time.perf_counter_ns, seconds * 1e9
    loop = Loop()
    for inputs in workloads.chunks(workload, seed):
        if max_ops is not None:
            inputs = inputs[: max_ops - loop.attempted]
        outputs = []
        start = clock()
        for inp in inputs:
            if tracer is not None:
                tracer.op = loop.attempted + len(outputs)
            t0 = clock()
            try:
                out = op(inp)
            except Exception:
                out = oracles.FAILED
            t1 = clock()
            loop.latencies_ns.append(t1 - t0)
            outputs.append(out)
            if loop.busy_ns + (t1 - start) >= limit:
                break
        loop.busy_ns += clock() - start
        loop.attempted += len(outputs)
        if check is None:
            passed = [out is not oracles.FAILED for out in outputs]
        else:
            passed = check(inputs[: len(outputs)], outputs)
        loop.passed.extend(passed)
        loop.failed += len(passed) - sum(passed)
        if loop.busy_ns >= limit or (max_ops is not None and loop.attempted >= max_ops):
            return loop
    raise AssertionError("input stream ended")


def warm_up(workload, seed) -> None:
    timed_loop(workload, (seed, 1), WARMUP_S)


def latency_summary(latencies_ns) -> dict:
    import numpy as np

    lat_ms = np.asarray(latencies_ns, dtype=float) / 1e6
    count = lat_ms.size
    pct = next(
        (p for p in TAIL_PERCENTILES if count * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND),
        TAIL_PERCENTILES[-1],
    )
    return {
        "latency_p50_ms": float(np.median(lat_ms)),
        "latency_tail_ms": float(np.percentile(lat_ms, pct)),
        "tail_percentile": pct,
        "latency_samples": count,
    }


def accuracy_summary(errors: dict) -> dict:
    from oracles import digits

    worst_cell = max(errors, key=errors.get)
    cells = {str(cell): round(digits(err), 3) for cell, err in sorted(errors.items(), key=str)}
    return {
        "mean_cell_digits": sum(digits(err, cap=1.0) for err in errors.values()) / len(errors),
        "accuracy_digits": digits(errors[worst_cell]),
        "worst_cell": str(worst_cell),
        "cell_digits": cells,
    }


def run_probes(name: str, seed: int, count: int, tiny: bool) -> tuple[list, list]:
    """Set-up seconds and peak resident MB, one fresh interpreter each."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed)]
    if tiny:
        cmd.append("--tiny")
    setups, peaks = [], []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            rest, err = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if first.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        setups.append(ready - start)
        peaks.append(json.loads(rest.splitlines()[-1])["peak_rss_kb"] / 1024.0)
    return setups, peaks


def measure_end_to_end(workload, args) -> tuple[dict, dict]:
    """The result fields (correct, attempted, failed, metrics) and the report details."""
    import oracles

    probes = 1 if args.tiny else SETUP_PROBES
    setups, peaks = run_probes(args.workload, args.seed, probes, args.tiny)
    errors, panel_failed = oracles.PANELS[args.workload](workload)
    warm_up(workload, args.seed)
    loop = timed_loop(workload, args.seed, args.seconds, check=oracles.CHECKS[args.workload])
    ok = loop.attempted - loop.failed
    latency = latency_summary(loop.latencies_ns)
    accuracy = accuracy_summary(errors) if errors else None
    metrics = {
        "ops_per_s": loop.ops_per_s(),
        "latency_p50_ms": latency["latency_p50_ms"],
        "latency_tail_ms": latency["latency_tail_ms"],
        "mean_cell_digits": accuracy["mean_cell_digits"] if accuracy else 0.0,
        "ok_ratio": ok / loop.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(peaks),
    }
    report = {
        "tail_percentile": latency["tail_percentile"],
        "latency_samples": latency["latency_samples"],
        "fail_ratio": loop.failed / loop.attempted,
        "accuracy": accuracy,
        "panel_failed": panel_failed,
        "setup_s_probes": setups,
        "peak_rss_mb_probes": peaks,
        "timed_s": loop.busy_ns / 1e9,
    }
    result = {
        "correct": loop.failed == 0 and panel_failed == 0 and accuracy is not None,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, report


def measure_per_layer(workload, args) -> tuple[dict, dict]:
    """Like ``measure_end_to_end``, for the per-layer metrics of a traced run."""
    import oracles
    from spans import SPAN_NAMES, Tracer

    tracer = Tracer()
    _, panel_failed = oracles.PANELS[args.workload](workload, tracer)
    warm_up(workload, args.seed)
    check = oracles.CHECKS[args.workload]
    plain = timed_loop(workload, args.seed, args.seconds / 2, workload.trace_ops, check)
    tracer.install()
    try:
        traced = timed_loop(workload, args.seed, float("inf"), plain.attempted, tracer=tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    metrics = {}
    for span in SPAN_NAMES:
        for field in PER_SPAN:
            metrics[f"{span}.{field}"] = summary[span][field]
    metrics["transport.ground_cost_matrix.entries_per_s"] = summary[
        "transport.ground_cost_matrix"
    ]["work_per_s"]
    metrics["tracing_overhead"] = sum(traced.latencies_ns) / sum(plain.latencies_ns)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_path)
    report = {
        "traced_ops": traced.attempted,
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "panel_failed": panel_failed,
    }
    failed = plain.failed + traced.failed
    result = {
        "correct": failed == 0 and panel_failed == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "msdcost" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'msdcost'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.make(args.workload, tiny=args.tiny)
    measure = measure_per_layer if args.trace else measure_end_to_end
    result, details = measure(workload, args)
    units = per_layer_units() if args.trace else END_TO_END
    result["metrics"] = {
        k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "environment": environment(),
        "metrics": result["metrics"],
        **details,
    }
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
