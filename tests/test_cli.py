import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from msdcost import TrajectoryPolynomial, quadrature_cost
from msdcost.cli import build_parser, main

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
