"""Command-line surface: gen | solve | bounds | checkw | repro.

Problem files follow the JSON schema of blockdata; reports are JSON; tables
are CSV with 17 significant digits. ``bounds`` and ``repro --table 1``-``4``
print one bound row per norm tag. Exit codes: 0 success, 2 validation
failure (a bad file or any out-of-range argument, with one ``error:`` line),
3 solver non-convergence, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from . import problems, solvers, wproperty
from .blockdata import (Ehlcp2Problem, is_identity, problem_from_json,
                        problem_to_json, validate)
from .convergence import DENSE_EIG_MAX_ORDER, suggest_omega
from .errors import BudgetExceeded, EhlcpError, NonpositiveDiagonal
from .problems import alternating
from .transform import NORM_ORD, pls_residual, reconstruct_y

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BUDGET = 4


def _fmt(x):
    return f"{x:.17g}"


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _read_json(path, what, parse):
    """parse(the JSON value in path), failing with exit 2 on a read, parse or value error."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"cannot read {what} file: {exc}")
    except EhlcpError as exc:  # an InvalidParams is also a ValueError
        _fail(EXIT_VALIDATION, f"invalid {what}: {exc}")
    # JSONDecodeError is a ValueError; float() of a huge JSON integer overflows
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        _fail(EXIT_VALIDATION, f"cannot parse {what} file: {exc}")
    # a one-number band takes its length from n, which may be far beyond memory
    except MemoryError as exc:
        _fail(EXIT_VALIDATION, f"cannot load {what} file: {exc}")


def _load_problem(path):
    problem, prescribed = _read_json(path, "problem", problem_from_json)
    report = validate(problem)
    if not report.ok:
        _fail(EXIT_VALIDATION, "invalid problem: " + "; ".join(report.issues))
    return problem, prescribed


def _as_ehlcp2(problem):
    """The m = 2 form with identity leading and trailing blocks, or None."""
    if problem.m == 2 and is_identity(problem.blocks.M) \
            and is_identity(problem.blocks.H[1]):
        return Ehlcp2Problem(problem.blocks.H[0], problem.q, problem.ladder.d[0])
    return None


def _open_out(path):
    """path opened for writing (no newline translation, as csv wants), failing
    with exit 2 when it cannot be."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"cannot write {path}: {exc}")


def _write_json(path, obj):
    # one-shot dumps runs CPython's C encoder; dump streams through the Python one
    text = json.dumps(obj)
    with _open_out(path) as fh:
        fh.write(text + "\n")


def _write_csv(path, comment, header, rows):
    out = sys.stdout if path is None else _open_out(path)
    try:
        if comment:
            out.write(f"# {comment}\n")
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_gen(args):
    try:
        if args.example == "5.1":
            if args.grid is None:
                _fail(EXIT_VALIDATION, "example 5.1 needs --grid")
            gen = problems.gen_example51(args.grid, args.mu, args.nu)
        elif args.example == "5.2":
            if args.n is None:
                _fail(EXIT_VALIDATION, "example 5.2 needs --n")
            gen = problems.gen_example52(args.n)
        elif args.example == "5.3":
            gen = problems.gen_example53(args.alpha)
        elif args.example == "5.5":
            if args.grid is None:
                _fail(EXIT_VALIDATION, "example 5.5 needs --grid")
            gen = problems.gen_example55(args.grid)
    except EhlcpError:  # an InvalidParams is a ValueError with its own message
        raise
    # numpy refuses a size beyond its index range with a ValueError
    except (MemoryError, ValueError) as exc:
        _fail(EXIT_VALIDATION, f"cannot generate example {args.example}: {exc}")
    problem = gen.problem
    if isinstance(problem, Ehlcp2Problem):
        problem = problem.as_general()
    obj = problem_to_json(problem, gen.prescribed)
    _write_json(args.out, obj)
    print(f"wrote {args.out} (n={problem.n}, m={problem.m})")
    return 0


def _resolve_omega(args, e2):
    if args.omega is None or args.omega == "auto":
        suggestion = suggest_omega(e2.H1)
        return suggestion.value
    try:
        return float(args.omega)
    except ValueError:
        _fail(EXIT_VALIDATION, f"--omega must be a positive real or 'auto', not {args.omega!r}")


def cmd_solve(args):
    problem, _ = _load_problem(args.problem)
    cfg = solvers.IterationConfig(tol=args.tol, max_iter=args.max_iter)
    t0 = time.perf_counter()
    if args.method == "fp31":
        report = solvers.method31(problem, cfg=cfg)
    elif args.method in ("omega32", "proj33"):
        e2 = _as_ehlcp2(problem)
        if e2 is None:
            _fail(EXIT_VALIDATION,
                  "method needs the m = 2 form with identity leading and trailing blocks")
        if args.method == "omega32":
            report = solvers.method32(e2, _resolve_omega(args, e2), cfg=cfg)
        else:
            report = solvers.method33(e2, eta=args.eta, omega_relax=args.relax,
                                      ktag=args.ktag, cfg=cfg)
    cpu = time.perf_counter() - t0
    if args.out:
        _write_json(args.out, report.to_json())
    print(f"{args.method},{problem.n},{report.iterations},{cpu:.4f},"
          f"{report.residual_norm:.6e}")
    if report.status != "Converged":
        _fail(EXIT_NO_CONVERGENCE, f"solver status {report.status}")
    return 0


def _parse_pattern(text, n):
    try:
        first, second = (float(p) for p in text.split(","))
    except ValueError:  # not two parts, or a part that is not a real
        _fail(EXIT_VALIDATION, f"pattern must be two comma-separated reals, not {text!r}")
    return alternating(n, first, second)


def _probe_vector(args, n):
    if args.probe_file:
        v = _read_json(args.probe_file, "probe", lambda obj: np.asarray(obj, dtype=float))
    elif args.probe_pattern:
        v = _parse_pattern(args.probe_pattern, n)
    else:
        _fail(EXIT_VALIDATION, "need --probe-pattern or --probe-file")
    if v.shape != (n,):
        _fail(EXIT_VALIDATION, f"probe shape {v.shape} != ({n},)")
    if not np.isfinite(v).all():
        _fail(EXIT_VALIDATION, "probe vector has a non-finite entry")
    return v


def _y_star(args, problem, prescribed):
    if prescribed is not None:
        return prescribed["y"]
    if args.solve_ystar:
        cfg = solvers.IterationConfig(tol=1e-12, max_iter=100000)
        e2 = _as_ehlcp2(problem)
        if e2 is not None:
            rep = solvers.method32(e2, suggest_omega(e2.H1).value, cfg=cfg)
        else:
            rep = solvers.method31(problem, cfg=cfg)
        if rep.status != "Converged":
            _fail(EXIT_NO_CONVERGENCE, "could not solve for y*")
        return reconstruct_y(rep.solution, problem.ladder)
    _fail(EXIT_VALIDATION, "missing y*: no prescribed solution in file "
                           "(pass --solve-ystar to compute one)")


def _bound_rows(problem, y, y_star, tags):
    """Per norm tag, the residual error bounds at probe y: (true error, ||r||,
    eta = bound42 constant * ||r||, tau = bound43 constant * ||r||, each inf where
    its constant is, bound42's condition flag, bound43's condition flag); eta
    is inf and its flag False where a block's diagonal is not positive."""
    rep = pls_residual(problem, y)
    b43 = bounds_mod.bound43(problem.blocks)
    rows = []
    for tag in tags:
        try:
            b42 = bounds_mod.bound42(problem.blocks, tag)
        except NonpositiveDiagonal:  # no eta; tau needs no positive diagonal
            b42 = bounds_mod.BoundReport("Thm42Eta", np.inf, tag, False, np.nan)
        r = rep.norms[tag]
        rows.append((float(np.linalg.norm(y - y_star, NORM_ORD[tag])), r,
                     *(bounds_mod._error_bound(b.constant, r) for b in (b42, b43)),
                     b42.condition_satisfied, b43.condition_satisfied))
    return rows


def cmd_bounds(args):
    problem, prescribed = _load_problem(args.problem)
    y = _probe_vector(args, problem.n)
    rows = _bound_rows(problem, y, _y_star(args, problem, prescribed), ("1", "inf"))
    _write_csv(args.out, None,
               ["norm", "trueError", "residualNorm", "eta", "tau",
                "eq44Satisfied", "colSddSameSign"],
               [[tag] + [_fmt(v) for v in row[:4]] + list(row[4:])
                for tag, row in zip(("1", "inf"), rows)])
    return 0


def cmd_checkw(args):
    problem, _ = _load_problem(args.problem)
    try:
        report = wproperty.has_column_w_property(problem.blocks, budget=args.budget)
    except BudgetExceeded:
        if args.falsify:
            witness = bounds_mod.falsify_random(problem.blocks, trials=args.falsify,
                                                seed=args.seed)
            if witness is None:
                print(f"no witness found in {args.falsify} random selections "
                      "(property NOT certified)")
            else:
                print("witness selection found (column W-property fails):")
                print(json.dumps(witness.lambdas.tolist()))
            return 0
        # falsify_random inverts exactly, so it is offered only where it runs
        hint = "; rerun with --falsify TRIALS" if problem.n <= DENSE_EIG_MAX_ORDER else ""
        _fail(EXIT_BUDGET, "enumeration exceeds budget" + hint)
    if report.holds:
        print(f"holds: checked {report.representatives_checked} representatives, "
              f"determinant signs {report.determinant_sign_range}")
    else:
        print(f"fails: witness assignment {report.witness} "
              f"(checked {report.representatives_checked})")
    return 0


def _table_row(gen, probe, tag):
    """The bound row of a generated example at the alternating probe."""
    problem = gen.problem
    if isinstance(problem, Ehlcp2Problem):
        problem = problem.as_general()
    y = alternating(problem.n, *probe)
    return _bound_rows(problem, y, gen.prescribed.y_star, (tag,))[0]


def cmd_repro(args):
    table = args.table
    out = args.out
    if table == 1:
        mus = (4, 6, 8, 10, 12, 14)
        cells = [_table_row(problems.gen_example51(100, mu, mu), (-0.15, 0.056), "inf")
                 for mu in mus]
        rows = [[name] + [_fmt(cell[k]) for cell in cells]
                for name, k in (("r_inf", 0), ("eta_inf", 2), ("tau_inf", 3))]
        _write_csv(out, "probe y alternates (-0.15, 0.056); n = 10000",
                   ["quantity"] + [f"mu={mu}" for mu in mus], rows)
    elif table == 2:
        mus, grids = (5, 7, 9), (20, 40, 60)
        rows = []
        for mu in mus:
            cells = [_table_row(problems.gen_example51(g, mu, mu), (-0.15, 0.056), "inf")
                     for g in grids]
            rows.append([mu, "eta_inf"] + [_fmt(cell[2]) for cell in cells])
            rows.append([mu, "tau_inf"] + [_fmt(cell[3]) for cell in cells])
        _write_csv(out, "probe y alternates (-0.15, 0.056) at every size",
                   ["mu", "quantity"] + [f"n={g * g}" for g in grids], rows)
    elif table in (3, 4):
        sizes = (30, 60, 90, 120)
        tag, names, k = (("1", ("r_1", "tau_1"), 3) if table == 3
                         else ("inf", ("r_inf", "eta_inf"), 2))
        cells = [_table_row(problems.gen_example52(n), (-0.1, 0.1), tag) for n in sizes]
        rows = [[names[0]] + [_fmt(cell[0]) for cell in cells],
                [names[1]] + [_fmt(cell[k]) for cell in cells]]
        _write_csv(out, "probe y alternates (-0.1, 0.1)",
                   ["quantity"] + [f"n={n}" for n in sizes], rows)
    elif table in (5, 6):
        if table == 5:
            sizes, omega = (5000, 10000, 15000, 20000), 4.0
            make = lambda n: problems.gen_example52(n).problem
        else:
            grids, omega = (80, 100, 130, 150), 5.0
            sizes = tuple(g * g for g in grids)
            make = lambda n: problems.gen_example55(int(round(n ** 0.5))).problem
        cfg = solvers.IterationConfig(tol=1e-6)
        m2 = {}
        m3 = {}
        for n in sizes:
            e2 = make(n)
            t0 = time.perf_counter()
            rep2 = solvers.method32(e2, omega, cfg=cfg)
            t2 = time.perf_counter() - t0
            t0 = time.perf_counter()
            rep3 = solvers.method33(e2, eta=0.5, omega_relax=0.25, ktag="lower",
                                    cfg=cfg)
            t3 = time.perf_counter() - t0
            m2[n] = (rep2.iterations, t2)
            m3[n] = (rep3.iterations, t3)
        rows = [["M2", "IT"] + [m2[n][0] for n in sizes],
                ["M2", "CPU"] + [f"{m2[n][1]:.4f}" for n in sizes],
                ["M3", "IT"] + [m3[n][0] for n in sizes],
                ["M3", "CPU"] + [f"{m3[n][1]:.4f}" for n in sizes]]
        _write_csv(out, "CPU column is machine dependent",
                   ["method", "quantity"] + [f"n={n}" for n in sizes], rows)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ehlcp",
                                     description="EHLCP solvers, bounds, and "
                                                 "benchmark reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark problem file")
    p.add_argument("--example", required=True, choices=["5.1", "5.2", "5.3", "5.5"])
    p.add_argument("--grid", type=int, help="grid order (n = grid^2)")
    p.add_argument("--n", type=int, help="problem size for example 5.2")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run a solver on a problem file")
    p.add_argument("problem")
    p.add_argument("--method", required=True, choices=["fp31", "omega32", "proj33"])
    p.add_argument("--omega", default=None, help="positive scalar or 'auto'")
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--relax", type=float, default=0.25)
    p.add_argument("--ktag", choices=["lower", "upper"], default="lower")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--out", help="write the full JSON report here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bounds", help="error-bound columns for a probe vector")
    p.add_argument("problem")
    p.add_argument("--probe-pattern", help="two reals a,b meaning (a,b,a,b,...)")
    p.add_argument("--probe-file", help="JSON list of length n")
    p.add_argument("--solve-ystar", action="store_true",
                   help="solve for y* when the file has no prescribed solution")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("checkw", help="column W-property check")
    p.add_argument("problem")
    p.add_argument("--budget", type=int, default=2 ** 20)
    p.add_argument("--falsify", type=int, default=0,
                   help="random falsification trials when enumeration is too big "
                        f"(n <= {DENSE_EIG_MAX_ORDER})")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_checkw)

    p = sub.add_parser("repro", help="reproduce a benchmark table as CSV")
    p.add_argument("--table", type=int, required=True, choices=range(1, 7))
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EhlcpError as exc:
        _fail(EXIT_VALIDATION, str(exc))


if __name__ == "__main__":
    sys.exit(main())
