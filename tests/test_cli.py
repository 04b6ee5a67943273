import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msdcost
from conftest import ENVELOPE, envelope_stacks
from msdcost import (
    TrajectoryPolynomial,
    eval_trajectory,
    make_problem,
    quadrature_cost,
    solve_trajectory,
)
from msdcost import cli as cli_module
from msdcost.cli import build_parser, main
from msdcost.selftest import git_sha

PROBLEM = {"n": 2, "h": 1.0, "d": 1, "x": [[0.0], [0.0]], "y": [[1.0], [0.0]]}
FREE_FLIGHT = {"n": 2, "h": 1.0, "d": 1, "x": [[0.0], [1.0]], "y": [[1.0], [1.0]]}


def run_cli(args, stdin_doc=None, monkeypatch=None, capsys=None):
    if stdin_doc is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_doc)))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def run_with_file(args, doc, tmp_path, capsys, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code = main(args + ["--input", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------------ cost


def test_cost_from_stdin(monkeypatch, capsys):
    code, out, err = run_cli(["cost"], PROBLEM, monkeypatch, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] == pytest.approx(12.0, rel=1e-12)
    assert payload["route"] == "algorithm51"
    assert payload["free_flight"] is False
    assert payload["b"] == [[1.0], [0.0]]


def test_cost_from_file_with_route(tmp_path, capsys):
    code, out, _ = run_with_file(["cost", "--route", "kform"], PROBLEM, tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] == pytest.approx(12.0, rel=1e-12)
    assert payload["route"] == "kform"


def test_cost_free_flight_flag(monkeypatch, capsys):
    code, out, _ = run_cli(["cost"], FREE_FLIGHT, monkeypatch, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] == 0.0
    assert payload["free_flight"] is True


NEAR_FREE_FLIGHT = {"n": 2, "h": 1, "d": 1, "x": [[0], [1]], "y": [[1.00000001], [1]]}


def test_cost_tol_sets_the_free_flight_tolerance(monkeypatch, capsys):
    for args, free in ((["cost"], False), (["cost", "--tol", "1e-6"], True)):
        code, out, _ = run_cli(args, NEAR_FREE_FLIGHT, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["free_flight"] is free


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_cost_tol_must_be_positive(tol, monkeypatch, capsys):
    code, out, err = run_cli(["cost", "--tol", tol], NEAR_FREE_FLIGHT, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert "tolerance must be positive" in err


def test_cost_domain_error_names_field(monkeypatch, capsys):
    bad = dict(PROBLEM, n=0, x=[], y=[])
    code, out, err = run_cli(["cost"], bad, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert "'n'" in err

    bad = dict(PROBLEM, h=-2.0)
    code, out, err = run_cli(["cost"], bad, monkeypatch, capsys)
    assert code == 3
    assert "'h'" in err


def test_cost_schema_errors(monkeypatch, capsys):
    code, out, err = run_cli(["cost"], {"n": 2, "h": 1.0}, monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert "'d'" in err

    bad = dict(PROBLEM, x=[[0.0]])
    code, out, err = run_cli(["cost"], bad, monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert "'x'" in err

    bad = dict(PROBLEM, h="one")
    code, out, err = run_cli(["cost"], bad, monkeypatch, capsys)
    assert code == 2
    assert "'h'" in err


@pytest.mark.parametrize("route", ["alg51", "scaled", "kform"])
def test_cost_overflow_exits_3_without_output(route, monkeypatch, capsys):
    # the true cost is about 1.8e327: no double holds it, and strict JSON
    # has no NaN or Infinity to print instead
    y = [[0.0]] * 12
    y[0] = [1.0]
    doc = {"n": 12, "h": 1e-13, "d": 1, "x": [[0.0]] * 12, "y": y}
    code, out, err = run_cli(["cost", "--route", route], doc, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert "double precision" in err


@pytest.mark.parametrize(
    "args",
    [["cost", "--route", r] for r in ("alg51", "scaled", "kform")] + [["transport"]],
)
def test_overflow_exits_3_without_numpy_warnings(args, monkeypatch, capsys):
    # finalize_totals is the one rule for a non-finite total: the overflow
    # on the way there is expected and must not surface as a RuntimeWarning
    x, y = [[0.0]] * 12, [[1.0]] + [[0.0]] * 11
    doc = {"n": 12, "h": 1e-13, "d": 1, "x": x, "y": y, "mu": [x], "nu": [y]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(args, doc, monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert "double precision" in err


@pytest.mark.parametrize("route", ["alg51", "kform", "scaled"])
def test_cost_non_finite_gap_exits_3(route, monkeypatch, capsys):
    # propagating the start overflows: the gap b is -inf before any route runs
    doc = {"n": 2, "h": 1, "d": 1, "x": [[1e308], [1e308]], "y": [[0], [0]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["cost", "--route", route], doc, monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert "gap vector b" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("route", ["alg51", "kform", "scaled"])
def test_cost_document_propagates_start_once(route, monkeypatch, capsys):
    import msdcost.matrices as mats

    calls = []
    propagate = mats.taylor_propagate

    def counting(values, h):
        calls.append(h)
        return propagate(values, h)

    monkeypatch.setattr(mats, "taylor_propagate", counting)
    code, out, _ = run_cli(["cost", "--route", route], FREE_FLIGHT, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["free_flight"] is True
    assert len(calls) == 1


def test_trajectory_sample_overflow_names_time(monkeypatch, capsys):
    doc = dict(PROBLEM, samples={"k": 0, "times": [0.5, 1e308]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["trajectory"], doc, monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert "t=1e+308" in err


@pytest.mark.parametrize(
    "times, first", [([0.5, -1e308, 1e308], "t=-1e+308"), ([0.5, float("nan")], "t=nan")]
)
def test_trajectory_sample_overflow_names_first_bad_time(times, first, monkeypatch, capsys):
    doc = dict(PROBLEM, samples={"k": 0, "times": times})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["trajectory"], doc, monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert f"at {first} is" in err


def test_trajectory_values_match_per_time_samples(monkeypatch, capsys):
    rng = np.random.default_rng(611)
    for n in (1, 2, 5, 8, 12):
        for h in (1e-2, 0.37, 9.5):
            x, y = rng.uniform(-5, 5, (n, 3)), rng.uniform(-5, 5, (n, 3))
            poly = solve_trajectory(make_problem(h, x, y))
            base = {"n": n, "h": h, "d": 3, "x": x.tolist(), "y": y.tolist()}
            for k in (0, n - 1, n, 2 * n - 1, 2 * n):
                for samples in ({"count": 101}, {"times": [-0.5 * h, 0.3 * h, 1.5 * h]}):
                    doc = dict(base, samples=dict(samples, k=k))
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        code, out, _ = run_cli(["trajectory"], doc, monkeypatch, capsys)
                    payload = json.loads(out)
                    want = [eval_trajectory(poly, k, t).tolist() for t in payload["times"]]
                    assert code == 0 and payload["values"] == want, (n, h, k, samples)


def test_trajectory_empty_times_and_zero_derivatives(monkeypatch, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        doc = dict(PROBLEM, samples={"k": 0, "times": []})
        code, out, _ = run_cli(["trajectory"], doc, monkeypatch, capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["times"], payload["values"]) == ([], [])
        assert payload["extrapolated"] is False
        doc = dict(PROBLEM, samples={"k": 4, "times": [0.0, 0.5, 2.0]})
        code, out, _ = run_cli(["trajectory"], doc, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["values"] == [[0.0], [0.0], [0.0]]


def test_trajectory_coefficient_overflow_exits_3(monkeypatch, capsys):
    doc = {"n": 2, "h": 1, "d": 1, "x": [[1e308], [1e308]], "y": [[0], [0]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["trajectory"], doc, monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert "coefficients" in err


def test_malformed_json_reports_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 2,\n "h": }'))
    code = main(["cost"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_missing_input_file(capsys):
    code = main(["cost", "--input", "/nonexistent/problem.json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "cannot read" in err


BEYOND_DOUBLE = 10**400  # a JSON integer literal no float holds


@pytest.mark.parametrize(
    "args, doc, code",
    [
        (["cost"], dict(PROBLEM, x=[[BEYOND_DOUBLE], [0.0]]), 3),
        (["cost"], dict(PROBLEM, h=BEYOND_DOUBLE), 3),
        (["trajectory"], dict(PROBLEM, samples={"times": [BEYOND_DOUBLE]}), 3),
        (["transport"], {"n": 1, "h": 1.0, "d": 1, "mu": [[[BEYOND_DOUBLE]]],
                         "nu": [[[0.0]]]}, 3),
        # row lengths are checked before an (n, d) array is built
        (["cost"], dict(PROBLEM, d=10**15), 2),
        (["cost"], dict(PROBLEM, d=2**64), 2),
        (["transport"], {"n": 1, "h": 1.0, "d": 10**15, "mu": [[[0.0]]],
                         "nu": [[[0.0]]]}, 2),
        # raw text json.dumps cannot write: nesting past the recursion limit,
        # and an integer literal past Python's 4,300-digit conversion limit
        (["cost"], "[" * 100_000, 2),
        (["trajectory"], json.dumps(PROBLEM)[:-1] + ', "samples": {"k": ' + "9" * 5000 + "}}", 2),
    ],
    ids=["cost-x", "cost-h", "trajectory-times", "transport-mu",
         "cost-d-1e15", "cost-d-2**64", "transport-d-1e15",
         "cost-deep-nesting", "trajectory-k-5000-digits"],
)
def test_out_of_range_numbers_and_sizes_exit_cleanly(args, doc, code, monkeypatch, capsys):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(args) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


TRANSPORT = {"n": 1, "h": 1.0, "d": 1, "mu": [[[0.0]]], "nu": [[[0.0]]]}


@pytest.mark.parametrize(
    "args, doc, code, field",
    [
        (["cost"], dict(PROBLEM, x=5), 2, "field 'x' must be an array"),
        (["cost"], dict(PROBLEM, x=[[0], ["a"]]), 2, "x[1][0] must be a number"),
        (["cost"], dict(PROBLEM, d=0, x=[[], []], y=[[], []]), 3, "field 'd'"),
        (["trajectory"], dict(PROBLEM, samples=[]), 2, "field 'samples'"),
        (["trajectory"], dict(PROBLEM, samples={"k": -1}), 3, "'samples.k'"),
        (["trajectory"], dict(PROBLEM, samples={"times": [0.5, "a"]}), 2,
         "samples.times[1] must be a number"),
        (["trajectory"], dict(PROBLEM, samples={"count": 0}), 3, "'samples.count'"),
        (["transport"], dict(TRANSPORT, mu=[]), 2, "field 'mu'"),
    ],
    ids=["x-not-array", "x-entry", "d-zero", "samples-not-object", "samples-k",
         "samples-times-entry", "samples-count", "transport-mu-empty"],
)
def test_refusals_exit_with_the_field_named(args, doc, code, field, monkeypatch, capsys):
    got, out, err = run_cli(args, doc, monkeypatch, capsys)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and field in err and "Traceback" not in err


def test_undecodable_input_exits_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "problem.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["cost", "--input", str(path)]) == 2
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["cost"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: cannot read input") == 2


# ------------------------------------------------------------ trajectory


def test_trajectory_uniform_grid(monkeypatch, capsys):
    doc = dict(PROBLEM, samples={"k": 0, "count": 3})
    code, out, _ = run_cli(["trajectory"], doc, monkeypatch, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["times"] == [0.0, 0.5, 1.0]
    np.testing.assert_allclose(np.array(payload["values"]).ravel(), [0.0, 0.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(
        np.array(payload["coeffs"]).ravel(), [0.0, 0.0, 3.0, -2.0], atol=1e-12
    )
    assert payload["extrapolated"] is False


def test_trajectory_boundary_reproduction(monkeypatch, capsys):
    doc = dict(PROBLEM, samples={"k": 1, "count": 2})
    code, out, _ = run_cli(["trajectory"], doc, monkeypatch, capsys)
    payload = json.loads(out)
    # velocity rows of x and y at t = 0 and t = h
    assert payload["values"][0][0] == pytest.approx(0.0, abs=1e-8)
    assert payload["values"][1][0] == pytest.approx(0.0, abs=1e-8)


def test_trajectory_free_flight_top_derivative_is_zero(monkeypatch, capsys):
    doc = dict(FREE_FLIGHT, samples={"k": 2, "count": 5})
    code, out, _ = run_cli(["trajectory"], doc, monkeypatch, capsys)
    payload = json.loads(out)
    assert np.abs(np.array(payload["values"])).max() == 0.0


def test_trajectory_explicit_times_extrapolation(monkeypatch, capsys):
    doc = dict(PROBLEM, samples={"k": 0, "times": [0.5, 1.5]})
    code, out, _ = run_cli(["trajectory"], doc, monkeypatch, capsys)
    payload = json.loads(out)
    assert payload["extrapolated"] is True
    assert payload["values"][0][0] == pytest.approx(0.5, rel=1e-12)


def test_trajectory_rejects_count_and_times(monkeypatch, capsys):
    doc = dict(PROBLEM, samples={"k": 0, "count": 3, "times": [0.5]})
    code, out, err = run_cli(["trajectory"], doc, monkeypatch, capsys)
    assert code == 2
    assert out == ""


def test_trajectory_count_above_cap_exits_3_before_allocating(monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("the sample grid was built")

    monkeypatch.setattr(np, "linspace", no_grid)
    cap = cli_module.MAX_SAMPLES
    doc = dict(PROBLEM, samples={"k": 0, "count": cap + 1})
    code, out, err = run_cli(["trajectory"], doc, monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert "'samples.count'" in err and str(cap) in err


@pytest.mark.parametrize("field", ["count", "times"])
def test_trajectory_sample_cap_is_inclusive(field, monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "MAX_SAMPLES", 4)
    for size, want in ((4, 0), (5, 3)):
        request = size if field == "count" else [0.25 * i for i in range(size)]
        doc = dict(PROBLEM, samples={"k": 0, field: request})
        code, out, err = run_cli(["trajectory"], doc, monkeypatch, capsys)
        assert code == want
        if want:
            assert out == ""
            assert f"'samples.{field}'" in err and "cap of 4" in err
        else:
            assert len(json.loads(out)["values"]) == 4


def test_trajectory_roundtrip_reproduces_cost(monkeypatch, capsys):
    code, out, _ = run_cli(["cost"], PROBLEM, monkeypatch, capsys)
    reported = json.loads(out)["cost"]
    code, out, _ = run_cli(["trajectory"], PROBLEM, monkeypatch, capsys)
    payload = json.loads(out)
    poly = TrajectoryPolynomial(
        n=payload["n"], h=payload["h"], d=payload["d"], coeffs=payload["coeffs"]
    )
    assert abs(quadrature_cost(poly) - reported) <= 1e-8 * (1.0 + reported)


# -------------------------------------------------------------- matrices


def test_matrices_output(capsys):
    code = main(["matrices", "2", "1.0", "--which", "A"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["matrices"]["A"] == {"rows": 2, "cols": 2, "data": [1.0, 1.0, 2.0, 3.0]}


def test_matrices_scalar_inverse(capsys):
    code = main(["matrices", "1", "2.0", "--which", "Ainv"])
    out, _ = capsys.readouterr()
    assert json.loads(out)["matrices"]["Ainv"]["data"] == [0.5]


def test_matrices_quartic_bilinear_table(capsys):
    code = main(["matrices", "4", "1.0", "--which", "B"])
    out, _ = capsys.readouterr()
    got = json.loads(out)["matrices"]["B"]["data"]
    want = [
        0, 0, 0, -5040,
        0, 0, 720, 5040,
        0, -120, -720, -2520,
        24, 120, 360, 840,
    ]
    assert got == [float(v) for v in want]


def test_matrices_defaults_to_all(capsys):
    code = main(["matrices", "3", "0.5"])
    out, _ = capsys.readouterr()
    assert sorted(json.loads(out)["matrices"]) == sorted(
        ["A", "B", "V", "L", "U", "Linv", "Uinv", "Ainv", "K"]
    )


def test_matrices_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrices", "2", "1.0", "--which", "Q"])
    assert exc.value.code == 2


def test_matrices_domain_error(capsys):
    code = main(["matrices", "99", "1.0", "--which", "A"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""


@pytest.mark.parametrize(
    "args, name", [(["12", "1e30", "--which", "K"], "K"), (["12", "1e-30"], "L")]
)
def test_matrices_overflow_names_the_matrix(args, name, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["matrices", *args])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert f"matrix {name} at n=12, h={float(args[1])}" in err
    assert "double precision" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, module, totals",
    [
        (["cost"], "msdcost.cost", lambda M, G: np.float64(-1.0)),
        (["transport"], "msdcost.cost", lambda M, G: np.full(G.shape[:-2], -1.0)),
    ],
    ids=["cost", "transport"],
)
def test_consistency_error_exits_3(args, module, totals, monkeypatch, capsys):
    # a total far below zero breaks the sign rule: an error line, not a traceback
    monkeypatch.setattr(importlib.import_module(module), "form_totals", totals)
    doc = {**PROBLEM, "mu": [PROBLEM["x"]], "nu": [PROBLEM["y"]]}
    code, out, err = run_cli(args, doc, monkeypatch, capsys)
    assert (code, out) == (3, "")
    assert err == "error: cost evaluated to -1.0, far below zero for a nonnegative form\n"


def test_cost_reports_a_clamped_total(monkeypatch, capsys):
    # a total in [-NEGATIVE_CLAMP, 0) is rounding noise: reported as 0 and flagged
    cost_module = importlib.import_module("msdcost.cost")
    monkeypatch.setattr(cost_module, "form_totals", lambda M, G: np.float64(-1e-12))
    code, out, err = run_cli(["cost"], PROBLEM, monkeypatch, capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["cost"] == 0.0
    assert payload["clamped"] is True


def test_route_flags_name_every_cost_route():
    assert set(cli_module._ROUTE_FLAGS.values()) == set(msdcost.ROUTES)


# -------------------------------------------------------------- transport


def test_transport_singletons(monkeypatch, capsys):
    doc = {
        "n": 2, "h": 1.0, "d": 1,
        "mu": [[[0.0], [0.0]]],
        "nu": [[[1.0], [0.0]]],
    }
    code, out, _ = run_cli(["transport"], doc, monkeypatch, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["w2"] == pytest.approx(12.0, rel=1e-12)
    assert payload["assignment"] == [0]


def test_transport_rest_pair(monkeypatch, capsys):
    doc = {
        "n": 2, "h": 1.0, "d": 1,
        "mu": [[[0.0], [0.0]], [[1.0], [0.0]]],
        "nu": [[[0.0], [0.0]], [[1.0], [0.0]]],
    }
    code, out, _ = run_cli(["transport"], doc, monkeypatch, capsys)
    payload = json.loads(out)
    assert payload["w2"] == 0.0
    assert payload["assignment"] == [0, 1]


def test_transport_size_mismatch_exits_3(monkeypatch, capsys):
    doc = {
        "n": 1, "h": 1.0, "d": 1,
        "mu": [[[0.0]], [[1.0]]],
        "nu": [[[0.0]]],
    }
    code, out, err = run_cli(["transport"], doc, monkeypatch, capsys)
    assert code == 3
    assert out == ""


# --------------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    code = main(["selftest"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    build_parser.cache_clear()
    assert run_cli(["matrices", "2", "1.0"], None, monkeypatch, capsys)[0] == 0
    assert run_cli(["cost"], PROBLEM, monkeypatch, capsys)[0] == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_selftest_json(capsys):
    code = main(["selftest", "--json"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(check["ok"] for check in payload["checks"])
    names = {check["name"] for check in payload["checks"]}
    assert "canonical-costs" in names


def test_selftest_injected_failure(capsys):
    code = main(["selftest", "--inject-failure", "determinant"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "FAIL  determinant" in out


def test_selftest_unknown_injection(capsys):
    code = main(["selftest", "--inject-failure", "nope"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "nope" in err


def test_selftest_json_reports_environment(capsys):
    assert main(["selftest", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"ok", "checks", "environment"}
    env = payload["environment"]
    assert set(env) == {"python", "numpy", "cpu_count", "git_sha"}
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    sha = env["git_sha"]
    assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)


def test_git_sha_reads_head_without_git(tmp_path):
    sha = "0123456789abcdef0123456789abcdef01234567"
    inner = tmp_path / "src" / "pkg"
    inner.mkdir(parents=True)
    assert git_sha(inner) is None  # no checkout above
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text(f"# pack-refs\n{sha} refs/heads/main\n")
    assert git_sha(inner) == sha  # packed ref
    (git / "refs" / "heads" / "main").write_text(sha[::-1] + "\n")
    assert git_sha(inner) == sha[::-1]  # a loose ref wins
    (git / "HEAD").write_text(sha + "\n")
    assert git_sha(inner) == sha  # detached HEAD


def test_git_sha_follows_a_gitdir_file(tmp_path):
    # a linked worktree or submodule inside another checkout: its .git is a
    # file, and the enclosing checkout's commit must never be reported
    sha = "0123456789abcdef0123456789abcdef01234567"
    outer = tmp_path / ".git"
    (outer / "refs" / "heads").mkdir(parents=True)
    (outer / "HEAD").write_text("ref: refs/heads/main\n")
    (outer / "refs" / "heads" / "main").write_text(sha[::-1] + "\n")
    tree = tmp_path / "tree"
    inner = tree / "src" / "pkg"
    inner.mkdir(parents=True)
    (tree / ".git").write_text("gitdir: ../gitdirs/tree\n")
    assert git_sha(inner) is None  # the named git directory is missing
    gitdir, common = tmp_path / "gitdirs" / "tree", tmp_path / "common"
    gitdir.mkdir(parents=True)
    (common / "refs" / "heads").mkdir(parents=True)
    (gitdir / "HEAD").write_text("ref: refs/heads/wt\n")
    (gitdir / "commondir").write_text("../../common\n")
    (common / "packed-refs").write_text(f"{sha} refs/heads/wt\n")
    assert git_sha(inner) == sha  # packed ref in the common directory
    (common / "refs" / "heads" / "wt").write_text(sha.upper() + "\n")
    assert git_sha(inner) == sha.upper()  # loose ref in the common directory
    (tree / ".git").write_text(f"gitdir: {gitdir}\n")
    assert git_sha(inner) == sha.upper()  # an absolute gitdir
    (gitdir / "HEAD").write_text(sha + "\n")
    assert git_sha(inner) == sha  # detached HEAD
    (tree / ".git").write_text("not a pointer\n")
    assert git_sha(inner) is None


# ----------------------------------------------------------- subprocess


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "msdcost", "cost"],
        input=json.dumps(PROBLEM),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cost"] == pytest.approx(12.0, rel=1e-12)


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "msdcost", "selftest", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_import_leaves_scipy_unloaded():
    # importing scipy would add over half a second to every fresh process
    src = os.path.dirname(os.path.dirname(msdcost.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, msdcost; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------ envelope: strict JSON or refusal


def refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=150, deadline=None)
@given(**ENVELOPE)
def test_cli_envelope_prints_one_strict_document_or_refuses(n, log10_h, d, seed):
    x, y = envelope_stacks(n, d, seed)
    doc = json.dumps({"n": n, "h": 10.0**log10_h, "d": d, "x": x.tolist(), "y": y.tolist()})
    commands = [["cost", "--route", route] for route in ("alg51", "kform", "scaled")]
    for args in commands + [["trajectory"]]:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(doc)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (0, 2, 3), args
        assert "Traceback" not in err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=refuse_constant)
        else:
            assert out.getvalue() == "" and err.getvalue().startswith("error: "), args


# ------------------------------------------- structural fuzz: exit 0, 2 or 3 only

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.integers(-3, 3) | st.floats(-1e3, 1e3) | st.floats()


def stacks(n, d):
    return st.lists(st.lists(NUMBERS, min_size=d, max_size=d), min_size=n, max_size=n)


@st.composite
def cli_documents(draw):
    """An arbitrary JSON value, or an object whose documented fields are
    each well formed, arbitrary or absent."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    fields = {
        "n": st.just(n),
        "h": st.floats(0.01, 100.0) | st.floats(),
        "d": st.just(d),
        "x": stacks(n, d),
        "y": stacks(n, d),
        "samples": st.fixed_dictionaries({}, optional={
            "k": st.integers(0, 2 * n) | JSON_VALUES,
            "count": st.integers(-1, 20) | JSON_VALUES,
            "times": st.lists(NUMBERS, max_size=3) | JSON_VALUES,
        }),
        "mu": st.lists(stacks(n, d), min_size=1, max_size=3),
        "nu": st.lists(stacks(n, d), min_size=1, max_size=3),
    }
    doc = {}
    for name, well_formed in fields.items():
        kind = draw(st.integers(0, 5))  # 0 absent, 1 arbitrary, else well formed
        if kind:
            doc[name] = draw(JSON_VALUES if kind == 1 else well_formed)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=cli_documents(), command=st.sampled_from(["cost", "trajectory", "transport"]))
def test_cli_exits_0_2_or_3_on_any_json_document(doc, command):
    out, err = io.StringIO(), io.StringIO()
    # a lower sample cap keeps an arbitrary samples.count from running long
    with mock.patch.object(cli_module, "MAX_SAMPLES", 64), \
            mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command])
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=refuse_constant)
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
