"""Seeded mutants of ``src/ehlcp``: each must make its tests fail.

Each mutant names a module of the package, the source of one statement or
expression in it (as ``ast.unparse`` prints it) and a replacement. For every
mutant chosen, the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, replaces that one site, and runs the mutant's
tests there with pytest. A mutant is killed when those tests fail. The tests
first run once on an unmutated copy, which must pass. A mutation whose source
no longer matches exactly one site is an error.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones
    python tools/mutants.py --list

It prints one line per mutant and exits 1 when a mutant survives or a site
does not match. It runs pytest once per mutant and is not part of the suite.
"""

import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "ehlcp"


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/ehlcp
    original: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant("enclose-unrounded-theta", "convergence.py",
           "theta_lo, theta_up = _widened(w / v, g)",
           "theta_lo, theta_up = float(np.min(w / v)), float(np.max(w / v))",
           ("tests/test_bounds.py::test_enclose_rejects_a_ratio_that_rounds_below_one",)),
    Mutant("rowsum-bracket-unwidened", "convergence.py",
           "lower, upper = _widened(sums, _gamma(2 * len(store.data) + 3))",
           "lower, upper = float(np.min(sums)), float(np.max(sums))",
           ("tests/test_convergence.py::"
            "test_spectral_radius_above_cut_brackets_by_row_sums",)),
    Mutant("sdd-unrounded-column-margin", "convergence.py",
           "np.all(margins > g * (two_diag + sums))",
           "np.all(margins > g * (two_diag + sums) * (not transposed))",
           ("tests/test_bounds.py::test_bound43_flags_on_rounded_down_margins",)),
    Mutant("sdd-unrounded-row-margin", "convergence.py",
           "np.all(margins > g * (two_diag + sums))",
           "np.all(margins > g * (two_diag + sums) * transposed)",
           ("tests/test_bounds.py::test_bound43_flags_on_rounded_down_margins",)),
    Mutant("norm-condition-unrounded", "convergence.py",
           "return (value, value if tag == '2' else _sum_up(value, len(store.data)))",
           "return (value, value)",
           ("tests/test_convergence.py::test_norm_conditions_decide_on_an_upper_end",)),
    Mutant("rho-decided-on-the-value", "convergence.py",
           "ConvergenceReport(tag, float(value), cert is not None, 0, certifying)",
           "ConvergenceReport(tag, float(value), value < 1.0, 0, certifying)",
           ("tests/test_convergence.py::"
            "test_rho_condition_is_decided_on_the_enclosure_not_the_eigenvalues",)),
    Mutant("bracket-term-ends-unordered", "solvers.py",
           "lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)",
           "pass",
           ("tests/test_sweep_kernels.py::test_bracket_examples_give_the_loop_bits",)),
    Mutant("bracket-ends-at-one-correction", "solvers.py",
           "ends[1, -offset:] += hi",
           "ends[1, -offset:] += lo",
           ("tests/test_sweep_kernels.py::test_bracket_examples_give_the_loop_bits",)),
    Mutant("bracket-deltas-from-clamp-b-only", "solvers.py",
           "deltas = np.stack((rest_x, eta * b + rest_x)) - x",
           "deltas = np.stack((eta * b + rest_x, eta * b + rest_x)) - x",
           ("tests/test_sweep_kernels.py::test_bracket_examples_give_the_loop_bits",)),
    Mutant("bracket-on-a-signed-zero-start", "solvers.py",
           "finite and self.tries and (not np.signbit(x).any())",
           "finite and self.tries",
           ("tests/test_sweep_kernels.py::test_bracket_examples_give_the_loop_bits",)),
    Mutant("bracket-one-round", "solvers.py",
           "second or not same.any()",
           "True",
           ("tests/test_sweep_kernels.py::test_bracket_examples_give_the_loop_bits",)),
    Mutant("bracket-never-stops", "solvers.py",
           "self.tries = 2 if x_new is not None else self.tries - 1",
           "self.tries = 2",
           ("tests/test_sweep_kernels.py::"
            "test_method33_stops_bracketing_after_two_undecided_sweeps",)),
    Mutant("levels-max-drops-signed-zero", "solvers.py",
           "np.maximum(0.0, z, out=out)",
           "np.maximum(z, 0.0, out=out)",
           ("tests/test_sweep_kernels.py::test_bracket_examples_give_the_loop_bits",)),
    Mutant("levels-pairwise-sum", "solvers.py",
           "sum(vals * delta[deps], 0.0)",
           "np.add.reduce(vals * delta[deps])",
           ("tests/test_sweep_kernels.py::test_kernels_match_scalar_reference",)),
    Mutant("levels-terms-reversed", "solvers.py",
           "sum(vals * delta[deps], 0.0)",
           "sum(vals[::-1] * delta[deps[::-1]], 0.0)",
           ("tests/test_sweep_kernels.py::test_kernels_match_scalar_reference",)),
    Mutant("scan-max-drops-signed-zero", "solvers.py",
           "np.minimum(b, np.maximum(0.0, z))",
           "np.minimum(np.maximum(z, 0.0), b)",
           ("tests/test_sweep_kernels.py::test_scan_keeps_the_loops_signed_zero",)),
    Mutant("unclosed-bracket-certifying", "convergence.py",
           "value, certifying = (est.value, est.converged)",
           "value, certifying = (est.value, True)",
           ("tests/test_convergence.py::"
            "test_graded_matrix_certifies_or_reports_no_certificate_without_warnings",)),
]


def sites(source, original):
    """Statements (other than bare expressions) and expressions of source
    whose ``ast.unparse`` equals that of original."""
    want = ast.unparse(ast.parse(original))
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.stmt, ast.expr)) and not isinstance(node, ast.Expr)
            and ast.unparse(node) == want]


def mutated(source, mutant):
    """source with the one site of the mutant replaced; ValueError unless
    exactly one site matches."""
    found = sites(source, mutant.original)
    if len(found) != 1:
        raise ValueError(f"{mutant.name}: {len(found)} sites match {mutant.original!r}")
    node = found[0]
    lines = source.splitlines(keepends=True)
    start = sum(len(line) for line in lines[:node.lineno - 1]) + node.col_offset
    end = sum(len(line) for line in lines[:node.end_lineno - 1]) + node.end_col_offset
    indent = "\n" + " " * node.col_offset
    return source[:start] + mutant.replacement.replace("\n", indent) + source[end:]


def run_tests(tree, tests):
    """pytest's exit code for the tests in a copied tree."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv):
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.name}: {mutant.module}: {mutant.original!r} -> "
                  f"{mutant.replacement!r}; {' '.join(mutant.tests)}")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        tests = sorted({t for m in chosen for t in m.tests})
        if run_tests(tree, tests) != 0:
            print("the mutants' tests fail on the unmutated tree")
            return 1
        for mutant in chosen:
            path = tree / PACKAGE / mutant.module
            source = path.read_text()
            try:
                path.write_text(mutated(source, mutant))
            except ValueError as exc:
                print(f"error: {exc}")
                bad += 1
                continue
            try:
                killed = run_tests(tree, mutant.tests) != 0
            finally:
                path.write_text(source)
            print(f"{mutant.name}: {'killed' if killed else 'SURVIVED'}")
            bad += not killed
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
