"""Command-line front-end with JSON input/output.

Subcommands: cost, trajectory, matrices, transport, selftest.
Exit codes: 0 success, 1 selftest failure, 2 parse/schema error,
3 domain error (including a result that overflows double precision, which
strict JSON cannot carry) or a consistency error (a cost far below zero
for a nonnegative form), and 141 (128 + SIGPIPE) from ``entry`` when
the reader of stdout has gone away.  Diagnostics go to stderr; stdout
carries only complete JSON documents (or the selftest report).

Problem schema: {"n": int, "h": number, "d": int,
                 "x": [[number x d] x n], "y": [[number x d] x n]}
where row k of x/y is the k-th derivative at the start/end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import matrices as mats
from .cost import (
    DEFAULT_ROUTE,
    FREE_FLIGHT_TOL,
    cost,
    eval_trajectory,
    gap_is_free_flight,
    solve_trajectory,
)
from .selftest import environment, render_report, run_selftest
from .transport import w2_uniform
from .types import (
    ConsistencyError,
    CostProblem,
    DiscreteMeasure,
    DomainError,
    make_problem,
)

_ROUTE_FLAGS = {"alg51": "algorithm51", "kform": "kform", "scaled": "scaled"}

#: Most samples one trajectory document may ask for, by ``samples.count``
#: or ``samples.times``; a larger request is refused before any sample
#: time is built.
MAX_SAMPLES = 10**6


class SchemaError(ValueError):
    """Malformed input document; message names the offending field."""


def _load_document(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read input {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # too long an integer, too deep a nesting
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _floats(field: str, value) -> np.ndarray:
    """Checked numbers as floats; an int beyond double range exits 3, as 1e400 does."""
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise DomainError(f"field {field!r} holds a number beyond double range") from None


def _get(doc: dict, field: str, kind, required: bool = True, default=None):
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    if field not in doc:
        if required:
            raise SchemaError(f"missing required field {field!r}")
        return default
    value = doc[field]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"field {field!r} must be an integer")
        return value
    if kind is float:
        if not _is_number(value):
            raise SchemaError(f"field {field!r} must be a number")
        return float(_floats(field, value))
    if kind is list:
        if not isinstance(value, list):
            raise SchemaError(f"field {field!r} must be an array")
        return value
    raise AssertionError(kind)


def _check_matrix(field: str, value, rows: int, cols: int) -> None:
    """Refuse anything but ``rows`` lists of ``cols`` numbers; builds no array."""
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(f"field {field!r} must be an array of {rows} rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{field}[{i}] must be an array of {cols} numbers")
        for j, entry in enumerate(row):
            if not _is_number(entry):
                raise SchemaError(f"{field}[{i}][{j}] must be a number")


def _check_domain(n: int, h: float, d: int) -> None:
    if n < 1 or n > mats.N_MAX:
        raise DomainError(f"field 'n' out of range: {n} (supported 1..{mats.N_MAX})")
    if d < 1:
        raise DomainError(f"field 'd' must be at least 1, got {d}")
    if not h > 0.0:
        raise DomainError(f"field 'h' must be positive, got {h}")


def _parse_header(doc) -> tuple[int, float, int]:
    n = _get(doc, "n", int)
    h = _get(doc, "h", float)
    d = _get(doc, "d", int)
    _check_domain(n, h, d)
    return n, h, d


def parse_problem(doc) -> CostProblem:
    n, h, d = _parse_header(doc)
    x, y = _get(doc, "x", list), _get(doc, "y", list)
    _check_matrix("x", x, n, d)
    _check_matrix("y", y, n, d)
    return make_problem(h, _floats("x", x), _floats("y", y))


def _cmd_cost(args) -> dict:
    doc = _load_document(args.input)
    problem = parse_problem(doc)
    breakdown = cost(problem, route=_ROUTE_FLAGS[args.route])
    payload = {
        "cost": breakdown.total,
        "route": breakdown.route,
        "free_flight": gap_is_free_flight(problem, breakdown.b, tol=args.tol),
        "b": breakdown.b.tolist(),
    }
    if breakdown.clamped:
        payload["clamped"] = True
    return payload


def _parse_samples(doc, h: float) -> tuple[int, list[float]]:
    samples = doc.get("samples", {}) if isinstance(doc, dict) else {}
    if not isinstance(samples, dict):
        raise SchemaError("field 'samples' must be an object")
    k = _get(samples, "k", int, required=False, default=0)
    if k < 0:
        raise DomainError(f"field 'samples.k' must be nonnegative, got {k}")
    has_times = "times" in samples
    has_count = "count" in samples
    if has_times and has_count:
        raise SchemaError("give either 'samples.count' or 'samples.times', not both")
    if has_times:
        raw = _get(samples, "times", list)
        _check_sample_count("samples.times", len(raw))
        for idx, value in enumerate(raw):
            if not _is_number(value):
                raise SchemaError(f"samples.times[{idx}] must be a number")
        return k, _floats("samples.times", raw).tolist()
    count = _get(samples, "count", int, required=False, default=11)
    if count < 1:
        raise DomainError(f"field 'samples.count' must be at least 1, got {count}")
    _check_sample_count("samples.count", count)
    return k, np.linspace(0.0, h, count).tolist()


def _check_sample_count(field: str, count: int) -> None:
    if count > MAX_SAMPLES:
        raise DomainError(
            f"field {field!r} asks for {count} samples, above the cap of {MAX_SAMPLES}"
        )


def _cmd_trajectory(args) -> dict:
    doc = _load_document(args.input)
    problem = parse_problem(doc)
    k, times = _parse_samples(doc, problem.h)
    poly = solve_trajectory(problem)
    if not np.isfinite(poly.coeffs).all():
        raise DomainError("trajectory coefficients are beyond double precision")
    values = eval_trajectory(poly, k, times).tolist()
    return {
        "n": poly.n,
        "h": poly.h,
        "d": poly.d,
        "k": k,
        "coeffs": poly.coeffs.tolist(),
        "times": times,
        "values": values,
        "extrapolated": any(t < 0.0 or t > problem.h for t in times),
    }


def _cmd_matrices(args) -> dict:
    n, h = args.n, args.h
    out = {}
    for name in args.which or mats.BUILDERS:
        with np.errstate(over="ignore"):  # an overflowed entry is refused below
            matrix = mats.BUILDERS[name](n, h)
        if not np.isfinite(matrix).all():
            raise DomainError(
                f"matrix {name} at n={n}, h={h} is beyond double precision"
            )
        out[name] = {
            "rows": matrix.shape[0],
            "cols": matrix.shape[1],
            "data": matrix.ravel().tolist(),
        }
    return {"n": n, "h": h, "matrices": out}


def _parse_measure(doc, field: str, n: int, d: int) -> DiscreteMeasure:
    raw = _get(doc, field, list)
    if not raw:
        raise SchemaError(f"field {field!r} must contain at least one point")
    for idx, point in enumerate(raw):
        _check_matrix(f"{field}[{idx}]", point, n, d)
    return DiscreteMeasure.from_array(_floats(field, raw))


def _cmd_transport(args) -> dict:
    doc = _load_document(args.input)
    n, h, d = _parse_header(doc)
    mu = _parse_measure(doc, "mu", n, d)
    nu = _parse_measure(doc, "nu", n, d)
    value, assignment = w2_uniform(mu, nu, h)
    return {"w2": value, "assignment": [int(j) for j in assignment]}


def _cmd_selftest(args) -> int:
    results = run_selftest(inject_failure=args.inject_failure)
    if args.json:
        payload = {
            "ok": all(r.ok for r in results),
            "checks": [
                {"name": r.name, "error": r.error, "tol": r.tol, "ok": r.ok}
                for r in results
            ],
            "environment": environment(),
        }
        print(json.dumps(payload))
    else:
        print(render_report(results))
    return 0 if all(r.ok for r in results) else 1


def _render(payload: dict) -> str:
    """Strict JSON (RFC 8259): a NaN or infinity is a domain error, not output."""
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not representable as JSON: {exc}") from None


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the CLI, built on first use."""
    parser = argparse.ArgumentParser(
        prog="msdcost",
        description="Minimum mean-squared-derivative costs, trajectories, and transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cost = sub.add_parser("cost", help="evaluate the cost of a problem JSON")
    p_cost.add_argument("--input", default="-", help="problem JSON path, or - for stdin")
    default_flag = next(f for f, route in _ROUTE_FLAGS.items() if route == DEFAULT_ROUTE)
    p_cost.add_argument("--route", choices=sorted(_ROUTE_FLAGS), default=default_flag)
    p_cost.add_argument(
        "--tol", type=float, default=FREE_FLIGHT_TOL, help="free-flight tolerance"
    )

    p_traj = sub.add_parser(
        "trajectory", help="solve the optimal polynomial and sample a derivative"
    )
    p_traj.add_argument("--input", default="-", help="problem JSON path, or - for stdin")

    p_mat = sub.add_parser("matrices", help="print the closed-form matrices")
    p_mat.add_argument("n", type=int)
    p_mat.add_argument("h", type=float)
    p_mat.add_argument(
        "--which", nargs="+", choices=tuple(mats.BUILDERS), metavar="NAME",
        help=f"subset of {', '.join(mats.BUILDERS)} (default: all)",
    )

    p_tr = sub.add_parser("transport", help="assignment transport between two measures")
    p_tr.add_argument("--input", default="-", help="measures JSON path, or - for stdin")

    p_self = sub.add_parser("selftest", help="run the built-in verification suite")
    p_self.add_argument("--json", action="store_true", help="machine-readable report")
    p_self.add_argument("--inject-failure", default=None, help=argparse.SUPPRESS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "cost": _cmd_cost,
        "trajectory": _cmd_trajectory,
        "matrices": _cmd_matrices,
        "transport": _cmd_transport,
    }
    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        # serialize before touching stdout so failures never emit partial output
        rendered = _render(handlers[args.command](args))
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(rendered)
    return 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Nobody reads stdout any more: send the rest of the output, and the
        # interpreter's final flush, to devnull instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a writer the pipe killed
    sys.exit(code)
