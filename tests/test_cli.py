import csv
import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import example52_bound42_constant, two_solution_problem
from ehlcp import (BlockMatrixSet, BoundLadder, DenseMatrix, EhlcpProblem, oracle_solve,
                   problem_from_json, problem_to_json, problems, recover_solution, solvers)
from ehlcp.cli import main


def run_cli(args):
    try:
        code = main(args)
    except SystemExit as exc:
        return int(exc.code)
    return 0 if code is None else code


def read_csv(path):
    with open(path) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.reader(lines))


def test_gen_example52_schema(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli(["gen", "--example", "5.2", "--n", "30", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 30 and obj["m"] == 2
    assert "tridiag" in obj["H"][0]
    assert np.allclose(obj["d"][0], 0.1)
    assert "prescribed" in obj
    assert np.allclose(obj["prescribed"]["y"][:2], [-0.2, 0.2])


def test_gen_example53_q(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli(["gen", "--example", "5.3", "--alpha", "1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["q"] == [1.0, 0.0]
    assert obj["n"] == 2


def test_gen_example51_minimal(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli(["gen", "--example", "5.1", "--grid", "2", "--mu", "0",
                    "--nu", "0", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 4 and obj["m"] == 1 and obj["d"] == []


def test_gen_unknown_example_exit_code(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run_cli(["gen", "--example", "9.9", "--out", str(out)]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_gen_example55_schema(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli(["gen", "--example", "5.5", "--grid", "3", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 9 and obj["m"] == 2
    assert "blocktridiag" in obj["H"][0]
    assert np.allclose(obj["prescribed"]["y"][:2], [-0.2, 0.2])


@pytest.mark.parametrize("args", [
    ["gen", "--example", "5.1"],
    ["gen", "--example", "5.1", "--grid", "1"],
    ["gen", "--example", "5.1", "--grid", "3", "--mu", "nan"],
    ["gen", "--example", "5.2"],
    ["gen", "--example", "5.2", "--n", "1"],
    ["gen", "--example", "5.3", "--alpha", "0.5"],
    ["gen", "--example", "5.3", "--alpha", "nan"],
    ["gen", "--example", "5.3", "--alpha", "inf"],
    ["gen", "--example", "5.3", "--alpha", "1e200"],
    ["gen", "--example", "5.5", "--grid", "1"],
    ["gen", "--example", "5.5"],
    # 2**59 entries (4 EiB) fail in malloc at once; numpy refuses 2**62 outright
    ["gen", "--example", "5.2", "--n", str(2 ** 59)],
    ["gen", "--example", "5.5", "--grid", str(2 ** 59)],
    ["gen", "--example", "5.2", "--n", str(2 ** 62)],
    ["solve", "--method", "fp31", "--tol", "inf"],
    ["solve", "--method", "fp31", "--tol", "nan"],
    ["solve", "--method", "proj33", "--relax", "nan"],
    ["checkw", "--budget", "10", "--falsify", "-3"],
    ["checkw", "--budget", "10", "--falsify", "5", "--seed", "-1"],
    ["bounds"],
], ids=["no-grid51", "grid51", "nan-mu51", "no-n52", "n52", "alpha53", "nan-alpha53",
        "inf-alpha53", "square-overflows-alpha53", "grid55", "no-grid55",
        "out-of-memory-n52", "out-of-memory-grid55", "too-big-n52", "tol-inf", "tol-nan",
        "relax-nan", "falsify-negative", "seed-negative", "no-probe"])
def test_bad_argument_exit_code(tmp_path, capsys, args):
    problem, out = tmp_path / "p.json", tmp_path / "new.json"
    run_cli(["gen", "--example", "5.2", "--n", "12", "--out", str(problem)])
    capsys.readouterr()
    tail = ["--out", str(out)] if args[0] == "gen" else [str(problem)]
    assert run_cli(args + tail) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["5.3", "--alpha", "0.5"], "error: alpha must be >= 1\n"),
    (["5.3", "--alpha", "1e200"], "error: alpha^2 must be finite\n"),
    (["5.2", "--n", str(2 ** 62)], "error: cannot generate example 5.2: array is too big"),
], ids=["alpha53", "square-overflows-alpha53", "too-big-n52"])
def test_gen_error_messages(tmp_path, capsys, args, message):
    out = tmp_path / "p.json"
    assert run_cli(["gen", "--example"] + args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_bounds_on_too_large_dense_file_exit_code(tmp_path, capsys, monkeypatch):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.3", "--alpha", "1", "--out", str(problem)])
    capsys.readouterr()
    monkeypatch.setattr("ehlcp.bounds.DENSE_LIMIT", 1)
    assert run_cli(["bounds", str(problem), "--probe-pattern", "0.1,0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: dense layout too large")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_solve_omega32(tmp_path, capsys):
    problem = tmp_path / "p.json"
    report = tmp_path / "r.json"
    run_cli(["gen", "--example", "5.2", "--n", "200", "--out", str(problem)])
    capsys.readouterr()
    assert run_cli(["solve", "--method", "omega32", "--omega", "4",
                    "--out", str(report), str(problem)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    method, n, it, cpu, residual = line.split(",")
    assert method == "omega32" and int(n) == 200 and int(it) == 3
    assert float(residual) < 1e-6
    rep = json.loads(report.read_text())
    assert rep["status"] == "Converged" and rep["iterations"] == 3


def test_solve_omega_auto(tmp_path, capsys):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.2", "--n", "50", "--out", str(problem)])
    capsys.readouterr()
    assert run_cli(["solve", "--method", "omega32", "--omega", "auto",
                    str(problem)]) == 0


def test_solve_proj33(tmp_path, capsys):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.2", "--n", "200", "--out", str(problem)])
    capsys.readouterr()
    assert run_cli(["solve", "--method", "proj33", "--eta", "0.5",
                    "--relax", "0.25", "--ktag", "lower", str(problem)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert int(line.split(",")[2]) in (16, 17)


def test_solve_fp31_matches_oracle(tmp_path, capsys):
    from ehlcp import oracle_solve, problem_from_json
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.3", "--alpha", "1", "--out", str(problem)])
    report = tmp_path / "r.json"
    assert run_cli(["solve", "--method", "fp31", "--tol", "1e-10",
                    "--out", str(report), str(problem)]) == 0
    rep = json.loads(report.read_text())
    parsed, _ = problem_from_json(json.loads(problem.read_text()))
    res = oracle_solve(parsed)
    assert np.allclose(rep["yFinal"], res.solutions[0][0], atol=1e-7)


def test_solve_rejects_wrong_shape(tmp_path):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.3", "--alpha", "1", "--out", str(problem)])
    assert run_cli(["solve", "--method", "omega32", str(problem)]) == 2


def test_solve_nonconvergence_exit_code(tmp_path):
    problem = tmp_path / "p.json"
    obj = {"n": 1, "m": 1, "M": {"dense": [[1.0]]},
           "H": [{"dense": [[-3.0]]}], "q": [-1.0], "d": []}
    problem.write_text(json.dumps(obj))
    assert run_cli(["solve", "--method", "fp31", str(problem)]) == 3


def test_invalid_problem_exit_code(tmp_path):
    problem = tmp_path / "p.json"
    obj = {"n": 2, "m": 2, "M": {"dense": [[1.0, 0.0], [0.0, 1.0]]},
           "H": [{"dense": [[1.0, 0.0], [0.0, 1.0]]},
                 {"dense": [[1.0, 0.0], [0.0, 1.0]]}],
           "q": [0.0, 0.0], "d": [[1.0, 0.0]]}
    problem.write_text(json.dumps(obj))
    assert run_cli(["solve", "--method", "fp31", str(problem)]) == 2


def test_missing_problem_file_exit_code(tmp_path):
    assert run_cli(["solve", "--method", "fp31", str(tmp_path / "none.json")]) == 2


def test_malformed_json_exit_code(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text("{not json")
    assert run_cli(["solve", "--method", "fp31", str(problem)]) == 2


def test_order_disagreeing_with_n_exit_code(tmp_path):
    problem = tmp_path / "p.json"
    obj = {"n": 3, "m": 1, "M": {"dense": [[1.0, 0.0], [0.0, 1.0]]},
           "H": [{"dense": [[2.0, 0.0], [0.0, 2.0]]}], "q": [1.0, 1.0], "d": []}
    problem.write_text(json.dumps(obj))
    assert run_cli(["solve", "--method", "fp31", str(problem)]) == 2


def test_bounds_example53(tmp_path, capsys):
    problem = tmp_path / "p.json"
    probe = tmp_path / "y.json"
    out = tmp_path / "b.csv"
    run_cli(["gen", "--example", "5.3", "--alpha", "1", "--out", str(problem)])
    probe.write_text("[3.0, -7.0]")
    assert run_cli(["bounds", "--probe-file", str(probe), "--out", str(out),
                    str(problem)]) == 0
    rows = read_csv(out)
    header, data = rows[0], rows[1:]
    inf_row = next(r for r in data if r[0] == "inf")
    idx = {name: k for k, name in enumerate(header)}
    assert float(inf_row[idx["trueError"]]) == pytest.approx(8.0)
    assert float(inf_row[idx["eta"]]) == pytest.approx(8.0)


def test_bounds_missing_ystar(tmp_path):
    problem = tmp_path / "p.json"
    obj = {"n": 1, "m": 1, "M": {"dense": [[2.0]]},
           "H": [{"dense": [[2.0]]}], "q": [1.0], "d": []}
    problem.write_text(json.dumps(obj))
    assert run_cli(["bounds", "--probe-pattern", "0.1,0.2", str(problem)]) == 2
    # with --solve-ystar the solver supplies it
    assert run_cli(["bounds", "--probe-pattern", "0.1,0.2", "--solve-ystar",
                    str(problem)]) == 0


def test_bounds_solve_ystar_that_diverges_exit_code(tmp_path, capsys):
    # M = 1, H = -3: the fixed-point map y <- max(0, y) + 3 max(0, y) + 1 diverges
    problem = tmp_path / "p.json"
    obj = {"n": 1, "m": 1, "M": {"dense": [[1.0]]},
           "H": [{"dense": [[-3.0]]}], "q": [-1.0], "d": []}
    problem.write_text(json.dumps(obj))
    assert run_cli(["bounds", "--probe-pattern", "0.1,0.2", "--solve-ystar",
                    str(problem)]) == 3
    assert "could not solve for y*" in capsys.readouterr().err


def test_bounds_solve_ystar_on_identity_form(tmp_path, monkeypatch):
    # an m = 2 file with identity leading and trailing blocks takes method32
    problem, bare = tmp_path / "p.json", tmp_path / "bare.json"
    run_cli(["gen", "--example", "5.2", "--n", "10", "--out", str(problem)])
    obj = json.loads(problem.read_text())
    del obj["prescribed"]
    bare.write_text(json.dumps(obj))
    monkeypatch.setattr(solvers, "method31", None)
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert run_cli(["bounds", "--probe-pattern=-0.1,0.1", "--out", str(want),
                    str(problem)]) == 0
    assert run_cli(["bounds", "--probe-pattern=-0.1,0.1", "--solve-ystar",
                    "--out", str(got), str(bare)]) == 0
    want, got = read_csv(want), read_csv(got)
    assert got[0] == want[0] and len(got) == len(want) == 3
    for a, b in zip(want[1:], got[1:]):
        assert float(b[1]) == pytest.approx(float(a[1]), abs=1e-10)
        assert b[2:] == a[2:]


def _example53(tmp_path):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.3", "--alpha", "1", "--out", str(problem)])
    return problem


@pytest.mark.parametrize("text, message", [
    (None, "cannot read probe file"),
    ("[3.0, -7", "cannot parse probe file"),
    ("3", "probe shape () != (2,)"),
    ("[1.0, 2.0, 3.0]", "probe shape (3,) != (2,)"),
    ('["a", "b"]', "cannot parse probe file"),
    ('{"y": [1, 2]}', "cannot parse probe file"),
    ("[NaN, 1.0]", "non-finite"),
], ids=["missing", "malformed", "scalar", "length", "strings", "object", "nan"])
def test_bounds_bad_probe_file_exit_code(tmp_path, capsys, text, message):
    problem, probe = _example53(tmp_path), tmp_path / "y.json"
    if text is not None:
        probe.write_text(text)
    capsys.readouterr()
    assert run_cli(["bounds", "--probe-file", str(probe), str(problem)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("pattern", ["a,b", "1", "1,2,3", "nan,1", "1,inf"])
def test_bounds_bad_probe_pattern_exit_code(tmp_path, capsys, pattern):
    problem = _example53(tmp_path)
    capsys.readouterr()
    assert run_cli(["bounds", "--probe-pattern", pattern, str(problem)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("omega", ["abc", "inf", "nan", "0"])
def test_solve_bad_omega_exit_code(tmp_path, capsys, omega):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.2", "--n", "10", "--out", str(problem)])
    capsys.readouterr()
    assert run_cli(["solve", "--method", "omega32", "--omega", omega, str(problem)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_checkw(tmp_path, capsys):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.3", "--alpha", "1", "--out", str(problem)])
    capsys.readouterr()
    assert run_cli(["checkw", str(problem)]) == 0
    assert "holds" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "m": 1, "M": {"dense": [[1.0]]},
                               "H": [{"dense": [[-1.0]]}], "q": [0.0], "d": []}))
    assert run_cli(["checkw", str(bad)]) == 0
    assert "fails" in capsys.readouterr().out


def test_checkw_budget_and_falsify(tmp_path, capsys):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.1", "--grid", "4", "--mu", "5", "--nu", "5",
             "--out", str(problem)])
    capsys.readouterr()
    assert run_cli(["checkw", "--budget", "100", str(problem)]) == 4
    assert run_cli(["checkw", "--budget", "100", "--falsify", "50",
                    str(problem)]) == 0
    assert "no witness" in capsys.readouterr().out


@pytest.fixture(scope="module")
def example52_n10000(tmp_path_factory):
    """Ex 5.2 at n = 10,000: 3^10000 has more digits than Python turns into a
    string, so no message may format the vertex count as an integer."""
    path = tmp_path_factory.mktemp("paper") / "p.json"
    assert run_cli(["gen", "--example", "5.2", "--n", "10000", "--out", str(path)]) == 0
    return path


def test_checkw_budget_exit_at_paper_size(example52_n10000, capsys):
    capsys.readouterr()
    assert run_cli(["checkw", str(example52_n10000)]) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "--falsify" not in err  # falsify_random refuses n > 512


def test_checkw_falsify_at_paper_size(example52_n10000, capsys):
    capsys.readouterr()
    assert run_cli(["checkw", "--falsify", "3", str(example52_n10000)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "n <= 512" in err and "Traceback" not in err


def test_checkw_falsify_prints_witness(tmp_path, capsys):
    # M = I, H1 = -I: the midpoint selection combination is the zero matrix
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "m": 1, "M": {"dense": [[1.0, 0.0], [0.0, 1.0]]},
                               "H": [{"dense": [[-1.0, 0.0], [0.0, -1.0]]}],
                               "q": [0.0, 0.0], "d": []}))
    assert run_cli(["checkw", "--budget", "1", "--falsify", "5", str(bad)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("witness selection found")
    assert json.loads(lines[1]) == [[0.5, 0.5], [0.5, 0.5]]


def test_repro_table1(tmp_path):
    # the CLI's Table 1 against the values criterion 1 checks
    out = tmp_path / "t1.csv"
    assert run_cli(["repro", "--table", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    mus = (4, 6, 8, 10, 12, 14)
    assert rows[0] == ["quantity"] + [f"mu={mu}" for mu in mus]
    assert [r[0] for r in rows[1:]] == ["r_inf", "eta_inf", "tau_inf"]
    r_inf, eta, tau = ([float(v) for v in r[1:]] for r in rows[1:])
    assert r_inf == pytest.approx([0.05] * 6, rel=0, abs=1e-12)
    paper = [0.07650, 0.06767, 0.06325, 0.06060, 0.05883, 0.05757]
    assert eta == pytest.approx(paper, rel=0, abs=5e-6)
    assert tau == pytest.approx(eta, rel=0, abs=1e-12)


def test_repro_tables_3_4(tmp_path):
    out3 = tmp_path / "t3.csv"
    out4 = tmp_path / "t4.csv"
    assert run_cli(["repro", "--table", "3", "--out", str(out3)]) == 0
    assert run_cli(["repro", "--table", "4", "--out", str(out4)]) == 0
    rows = read_csv(out3)
    assert rows[0] == ["quantity", "n=30", "n=60", "n=90", "n=120"]
    r1 = [float(v) for v in rows[1][1:]]
    t1 = [float(v) for v in rows[2][1:]]
    assert r1 == pytest.approx([3.0, 6.0, 9.0, 12.0], abs=1e-10)
    assert t1 == pytest.approx(r1, abs=1e-10)
    rows = read_csv(out4)
    assert [r[0] for r in rows[1:]] == ["r_inf", "eta_inf"]
    rinf = [float(v) for v in rows[1][1:]]
    assert rinf == pytest.approx([0.1] * 4, abs=1e-12)
    eta = [float(v) for v in rows[2][1:]]
    exact = [float(example52_bound42_constant(n) / 10) for n in (30, 60, 90, 120)]
    assert eta == pytest.approx(exact, rel=0, abs=1e-10)


def test_repro_table2(tmp_path):
    out = tmp_path / "t2.csv"
    assert run_cli(["repro", "--table", "2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["mu", "quantity", "n=400", "n=1600", "n=3600"]
    tau5 = next(r for r in rows[1:] if r[0] == "5" and r[1] == "tau_inf")
    assert [float(v) for v in tau5[2:]] == pytest.approx([0.0712] * 3, abs=1e-12)


def test_repro_table5(tmp_path):
    out = tmp_path / "t5.csv"
    assert run_cli(["repro", "--table", "5", "--out", str(out)]) == 0
    rows = read_csv(out)
    m2_it = next(r for r in rows[1:] if r[0] == "M2" and r[1] == "IT")
    m3_it = next(r for r in rows[1:] if r[0] == "M3" and r[1] == "IT")
    assert all(2 <= int(v) <= 4 for v in m2_it[2:])
    assert all(15 <= int(v) <= 17 for v in m3_it[2:])


def test_repro_table6(tmp_path):
    out = tmp_path / "t6.csv"
    assert run_cli(["repro", "--table", "6", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0][2:] == ["n=6400", "n=10000", "n=16900", "n=22500"]
    m2_it = next(r for r in rows[1:] if r[0] == "M2" and r[1] == "IT")
    m3_it = next(r for r in rows[1:] if r[0] == "M3" and r[1] == "IT")
    assert all(4 <= int(v) <= 6 for v in m2_it[2:])
    assert all(15 <= int(v) <= 17 for v in m3_it[2:])


def test_repro_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(["repro", "--table", "3", "--out", str(a)])
    run_cli(["repro", "--table", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_module_main_guard_runs_main(tmp_path, monkeypatch):
    """The module's __main__ guard, run in this process."""
    out = tmp_path / "p.json"
    monkeypatch.delitem(sys.modules, "ehlcp.cli")  # runpy warns on a loaded module
    monkeypatch.setattr(sys, "argv", ["ehlcp", "gen", "--example", "5.2", "--n", "10",
                                      "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("ehlcp.cli", run_name="__main__")
    assert exc.value.code == 0
    assert out.exists()


def test_console_entry_point(tmp_path):
    out = tmp_path / "p.json"
    # the child finds the package where this process does, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ehlcp.cli", "gen", "--example", "5.2",
         "--n", "10", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("args", [
    ["gen", "--example", "5.2", "--n", "12"],
    ["solve", "--method", "proj33", "PROBLEM"],
    ["bounds", "--probe-pattern=-0.1,0.1", "PROBLEM"],
    ["repro", "--table", "3"],
], ids=["gen", "solve", "bounds", "repro"])
def test_unwritable_out_exit_code(tmp_path, capsys, args):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.2", "--n", "12", "--out", str(problem)])
    capsys.readouterr()
    args = [str(problem) if arg == "PROBLEM" else arg for arg in args]
    assert run_cli(args + ["--out", str(tmp_path / "no" / "such" / "f")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("field", ["n", "m", "blockOrder"])
@pytest.mark.parametrize("command", [["solve", "--method", "fp31"], ["checkw"]],
                         ids=["solve", "checkw"])
def test_overflowing_size_exit_code(tmp_path, capsys, command, field):
    """A size of 1e400 parses as inf, whose int() overflows."""
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.5", "--grid", "3", "--out", str(problem)])
    obj = json.loads(problem.read_text())
    if field == "blockOrder":
        obj["H"][0]["blocktridiag"]["blockOrder"] = "SIZE"
    else:
        obj[field] = "SIZE"
    problem.write_text(json.dumps(obj).replace('"SIZE"', "1e400"))
    capsys.readouterr()
    assert run_cli(command + [str(problem)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot parse problem file")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


ONE = {"tridiag": {"sub": 0.0, "diag": 1.0, "super": 0.0}}


@pytest.mark.parametrize("obj, message", [
    ({"n": 10 ** 12, "m": 1, "M": {"dense": [[1.0]]}, "H": [{"dense": [[1.0]]}],
      "q": [0.0]}, "cannot parse problem file: n = 1000000000000, but M has order 1"),
    ({"n": 2 ** 62, "m": 1, "M": ONE, "H": [ONE], "q": 0.0},
     "cannot parse problem file: array is too big"),
    ({"n": 2 ** 59, "m": 1, "M": ONE, "H": [ONE], "q": 0.0},
     "cannot load problem file: Unable to allocate"),
    ({"n": 2, "m": 1, "M": ONE, "H": [{"tridiag": {"sub": 0.0, "diag": True, "super": 0.0}}],
      "q": [0.0, 0.0]}, "cannot parse problem file: diag must be 1-D"),
    ({"n": 2, "m": 2, "M": ONE, "H": [ONE, ONE], "q": [0.0, 0.0], "d": [True]},
     "cannot parse problem file: ladder entry must be 1-D"),
    ({"n": 2.9, "m": 1, "M": ONE, "H": [ONE], "q": [0.0, 0.0]},
     "cannot parse problem file: n must be an integer, not 2.9"),
    ({"n": "2", "m": 1, "M": ONE, "H": [ONE], "q": [0.0, 0.0]},
     "cannot parse problem file: n must be an integer, not '2'"),
    ({"n": 2, "m": True, "M": ONE, "H": [ONE], "q": [0.0, 0.0]},
     "cannot parse problem file: m must be an integer, not True"),
    ({"n": 4, "m": 1, "M": ONE, "q": [0.0] * 4,
      "H": [{"blocktridiag": {"blockOrder": 2.5, "sub": 0.0, "super": 0.0,
                              "diagBlock": ONE["tridiag"]}}]},
     "cannot parse problem file: blockOrder must be an integer, not 2.5"),
], ids=["n-not-m-order", "one-number-too-big", "one-number-out-of-memory",
        "band-bool", "ladder-bool", "n-float", "n-string", "m-bool", "block-order-float"])
def test_absurd_or_boolean_band_file_exit_code(tmp_path, capsys, obj, message):
    """n sizes the one-number bands. numpy refuses 2**62 entries outright, and
    the 4 EiB of 2**59 exceeds any user address space, so nothing is allocated."""
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(obj))
    assert run_cli(["solve", "--method", "fp31", str(problem)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_written_json_is_the_one_shot_encoding(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli(["gen", "--example", "5.5", "--grid", "4", "--out", str(out)]) == 0
    gen = problems.gen_example55(4)
    obj = problem_to_json(gen.problem.as_general(), gen.prescribed)
    assert out.read_text() == json.dumps(obj) + "\n"


GENERATED = {
    "5.1": (["--grid", "3", "--mu", "4", "--nu", "4"],
            lambda: problems.gen_example51(3, 4.0, 4.0)),
    "5.2": (["--n", "30"], lambda: problems.gen_example52(30)),
    "5.3": (["--alpha", "1"], lambda: problems.gen_example53(1.0)),
    "5.5": (["--grid", "4"], lambda: problems.gen_example55(4)),
}


@pytest.mark.parametrize("example", sorted(GENERATED))
def test_prescribed_is_y_alone_and_recovers_the_solution(tmp_path, capsys, example):
    flags, generate = GENERATED[example]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    assert run_cli(["gen", "--example", example] + flags + ["--out", str(new)]) == 0
    obj = json.loads(new.read_text())
    assert list(obj["prescribed"]) == ["y"]
    want = generate().prescribed.solution
    problem, prescribed = problem_from_json(obj)
    got = recover_solution(prescribed["y"], problem.ladder)
    assert got.w.tobytes() == want.w.tobytes()
    assert [x.tobytes() for x in got.x] == [x.tobytes() for x in want.x]
    # the spelling that also listed w* and x* gives the same bound columns
    obj["prescribed"] = {"w": want.w.tolist(), "x": [x.tolist() for x in want.x],
                         "y": obj["prescribed"]["y"]}
    old.write_text(json.dumps(obj))
    capsys.readouterr()
    printed = []
    for path in (old, new):
        assert run_cli(["bounds", "--probe-pattern=-0.1,0.1", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and printed[0].startswith("norm,trueError")


@pytest.mark.parametrize("y, message", [
    ([0.1, 0.2, 0.3], "cannot parse problem file: prescribed y must have length 6, got 3"),
    ([[1.0]], "cannot parse problem file: prescribed y must be 1-D, got shape (1, 1)"),
    ([float("nan")] + [0.1] * 5, "invalid problem: non-finite entries in prescribed y"),
    ([0.1] * 5 + [float("inf")], "invalid problem: non-finite entries in prescribed y"),
], ids=["short", "nested", "nan", "inf"])
def test_malformed_prescribed_y_exit_code(tmp_path, capsys, y, message):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.2", "--n", "6", "--out", str(problem)])
    obj = json.loads(problem.read_text())
    obj["prescribed"]["y"] = y
    problem.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli(["bounds", "--probe-pattern=-0.1,0.1", str(problem)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_bounds_where_a_reciprocal_overflows_exits_zero_without_warnings(tmp_path, capsys):
    # 1 / 1e-320 overflows in bound42's X: numpy's LinAlgError ended this run
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "n": 2, "m": 1, "M": {"dense": [[1e-320, 0.5], [0.25, 1.0]]},
        "H": [{"dense": [[1.0, 0.0], [0.0, 1.0]]}], "q": [1.0, 1.0], "d": [],
        "prescribed": {"y": [0.0, 0.0]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["bounds", "--probe-pattern=0.1,0.1", str(problem)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.reader(captured.out.splitlines()))
    assert [(row[0], row[3], row[5]) for row in rows[1:]] == [("1", "inf", "False"),
                                                              ("inf", "inf", "False")]


@pytest.mark.parametrize("layout", ["dense", "band"])
def test_bounds_where_the_condition_fails_print_no_bound(tmp_path, capsys, layout):
    # the probe (-3, 3) is another solution, 4 (inf-norm) from y* = (-1, -1):
    # eta read 0 from the dense inverse of I - X, and tau inf * 0 = nan
    problem = tmp_path / "p.json"
    obj = problem_to_json(two_solution_problem(layout))
    obj["prescribed"] = {"y": [-1.0, -1.0]}
    problem.write_text(json.dumps(obj))
    assert run_cli(["bounds", "--probe-pattern=-3,3", str(problem)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][:6] == ["norm", "trueError", "residualNorm", "eta", "tau", "eq44Satisfied"]
    assert [row[:6] for row in rows[1:]] == [["1", "6", "0", "inf", "inf", "False"],
                                             ["inf", "4", "0", "inf", "inf", "False"]]


def test_bounds_print_no_tau_where_bound43_is_not_certified(tmp_path, capsys):
    # Column 0 of M sums to 2 - 2^-52 in floating point but exceeds 2 exactly
    # (test_bound43_flags_on_rounded_down_margins): the computed margin 2^-52
    # had given tau = 2^52 ||r||. bound42's X is nilpotent, so eta is a bound.
    a = np.eye(7)
    a[1, 0] = 1.0 - 2.0 ** -52
    a[2:, 0] = 0.45 * 2.0 ** -52
    p = EhlcpProblem(BlockMatrixSet(DenseMatrix(a), (DenseMatrix(np.eye(7)),)),
                     np.ones(7), BoundLadder((), 7))
    problem = tmp_path / "p.json"
    obj = problem_to_json(p)
    obj["prescribed"] = {"y": oracle_solve(p).solutions[0][0].tolist()}
    problem.write_text(json.dumps(obj))
    assert run_cli(["bounds", "--probe-pattern=0.1,0.2", str(problem)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0][3:5] == ["eta", "tau"]
    assert [row[4] for row in rows[1:]] == ["inf", "inf"]
    assert all(np.isfinite(float(row[3])) for row in rows[1:])


def test_bounds_where_a_diagonal_is_negative_print_tau_and_no_eta(tmp_path, capsys):
    # bound42 splits off positive diagonals and has none here, but bound43
    # certifies with constant 0.5 and the column W-property holds
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "n": 1, "m": 1, "M": {"dense": [[-2.0]]}, "H": [{"dense": [[-3.0]]}],
        "q": [3.0], "d": [], "prescribed": {"y": [1.0]}}))
    assert run_cli(["bounds", "--probe-pattern=0.5,0.5", str(problem)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[1:] == [["1", "0.5", "1.5", "inf", "0.75", "False", "True"],
                        ["inf", "0.5", "1.5", "inf", "0.75", "False", "True"]]


@pytest.mark.parametrize("command", [["checkw"], ["solve", "--method", "fp31"],
                                     ["bounds", "--probe-pattern=-0.1,0.1"]],
                         ids=["checkw", "solve", "bounds"])
def test_non_finite_block_file_exit_code(tmp_path, capsys, command):
    problem = tmp_path / "p.json"
    run_cli(["gen", "--example", "5.2", "--n", "6", "--out", str(problem)])
    obj = json.loads(problem.read_text())
    obj["H"][0]["tridiag"]["diag"] = [4.0] * 5 + [float("nan")]
    problem.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli(command + [str(problem)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: invalid problem: non-finite entries in H1\n"
    assert captured.out == ""
