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
    Mutant("row-scale-by-column", "bounds.py",
           "part = values[cols] * s[rows]",
           "part = values[cols] * s[cols]",
           ("tests/test_bounds.py::test_one_pass_x_has_the_split_chain_bits",)),
    Mutant("neumann-one-step-short", "convergence.py",
           "range(steps)",
           "range(steps - 1)",
           ("tests/test_bounds.py::test_neumann_sum_has_the_bits_of_a_test_at_every_step",)),
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
           "self.tries and (not np.signbit(x).any()) and np.isfinite(g).all() "
           "and np.isfinite(x).all()",
           "self.tries and np.isfinite(g).all() and np.isfinite(x).all()",
           ("tests/test_sweep_kernels.py::test_bracket_examples_give_the_loop_bits",)),
    Mutant("bracket-one-round", "solvers.py",
           "range(2)",
           "range(1)",
           ("tests/test_sweep_kernels.py::test_bracket_examples_give_the_loop_bits",)),
    Mutant("bracket-never-stops", "solvers.py",
           "self.tries = self.tries - 1 if undecided else 2",
           "self.tries = 2",
           ("tests/test_sweep_kernels.py::"
            "test_method33_stops_bracketing_after_two_undecided_sweeps",)),
    Mutant("partial-sweep-counts-as-a-hit", "solvers.py",
           "self.tries - 1 if undecided else 2",
           "self.tries - 1 if len(undecided) == self.n else 2",
           ("tests/test_sweep_kernels.py::"
            "test_method33_interior_tridiagonal_solve_falls_back_to_the_loop",)),
    Mutant("partial-loop-decided-deltas-zero", "solvers.py",
           "(x_new - x).tolist()",
           "[0.0] * self.n",
           ("tests/test_sweep_kernels.py::"
            "test_first_ex55_sweep_is_partly_decided_and_finished_by_the_loop",)),
    Mutant("partial-loop-unsorted", "solvers.py",
           "np.flatnonzero(~same).tolist()",
           "np.flatnonzero(~same)[::-1].tolist()",
           ("tests/test_sweep_kernels.py::"
            "test_first_ex55_sweep_is_partly_decided_and_finished_by_the_loop",)),
    Mutant("loop-clamp-at-zero-le", "solvers.py",
           "z < 0.0",
           "z <= 0.0",
           ("tests/test_sweep_kernels.py::test_bracket_examples_give_the_loop_bits",)),
    Mutant("row-terms-drop-column-zero", "solvers.py",
           "j + offset >= 0",
           "j + offset > 0",
           ("tests/test_sweep_kernels.py::test_kernels_match_scalar_reference",)),
    Mutant("start-shape-unchecked", "solvers.py",
           "y0.shape != (n,)",
           "False",
           ("tests/test_solvers.py::test_start_of_the_wrong_shape_is_invalid",)),
    Mutant("dia-start-from-zeros", "blockdata.py",
           "np.zeros(self.n) if self._main is None else self._main * x",
           "np.zeros(self.n) if self._main is None else np.zeros(self.n) + self._main * x",
           ("tests/test_blockdata.py::"
            "test_band_products_have_the_bits_of_the_per_diagonal_loops",)),
    Mutant("rmatvec-resorted-offsets", "blockdata.py",
           "return (-offsets, np.reshape([np.roll(row, -o) for o, row in "
           "zip(offsets.tolist(), rows)], (-1, self.n)))",
           "order = np.argsort(-offsets)\n"
           "return (-offsets[order], np.reshape([np.roll(row, -o) for o, row in "
           "zip(offsets.tolist(), rows)], (-1, self.n))[order])",
           ("tests/test_blockdata.py::"
            "test_band_products_have_the_bits_of_the_per_diagonal_loops",)),
    Mutant("product-shape-guard-dropped", "blockdata.py",
           "_as_vector(x, n, 'product operand')",
           "np.asarray(x, dtype=float)",
           ("tests/test_blockdata.py::test_products_take_only_a_vector_of_shape_n",)),
    Mutant("column-reversal-sign-dropped", "wproperty.py",
           "(-1.0) ** (n * (n - 1) // 2)",
           "1.0",
           ("tests/test_vertex_scans.py::test_sign_range_is_the_sign_of_the_determinant",)),
    Mutant("zero-pivot-divided-by", "wproperty.py",
           "np.where(p == 0, 1.0, p)",
           "p",
           ("tests/test_vertex_scans.py::"
            "test_zero_pivot_gives_its_subtree_det_zero_without_nan",)),
    Mutant("groups-highest-counters-first", "wproperty.py",
           "_counter_order(np.arange(step), base, shared)[::-1].tolist()",
           "_counter_order(np.arange(step), base, shared).tolist()",
           ("tests/test_vertex_scans.py::test_groups_finish_lowest_counters_first",)),
    Mutant("tree-pivot-first-nonzero-row", "wproperty.py",
           "np.where(placed[:, None] >= 0, -1.0, np.abs(a)).argmax(axis=2)",
           "np.where(placed[:, None] >= 0, -1.0, np.abs(a) > 0).argmax(axis=2)",
           ("tests/test_vertex_scans.py::test_tree_solves_every_region_like_lapack",)),
    Mutant("tree-constant-column-dropped", "wproperty.py",
           "b[:, None] - w[:, :, order - 1, 1]",
           "b[:, None] - 0.0 * w[:, :, order - 1, 1]",
           ("tests/test_vertex_scans.py::test_tree_solves_every_region_like_lapack",)),
    Mutant("tree-zero-pivot-unflagged", "wproperty.py",
           "zero = p == 0",
           "zero = np.zeros_like(p, dtype=bool)",
           ("tests/test_vertex_scans.py::"
            "test_zero_column_gives_the_same_singular_count_on_both_kernels",)),
    Mutant("tree-bounds-at-the-wrong-column", "wproperty.py",
           "limits[:, :, order - 1, None]",
           "limits[:, :, 0, None]",
           ("tests/test_vertex_scans.py::test_tree_solves_every_region_like_lapack",)),
    Mutant("tiny-blocks-not-rescaled", "wproperty.py",
           "0 < top < 1",
           "False",
           ("tests/test_vertex_scans.py::test_scaling_by_a_power_of_two_keeps_the_report",)),
    Mutant("tree-overflow-warns", "oracle.py",
           "np.errstate(over='ignore', invalid='ignore')",
           "np.errstate()",
           ("tests/test_vertex_scans.py::test_oracle_near_the_float_limits_keeps_its_solutions",)),
    Mutant("block-finiteness-unchecked", "blockdata.py",
           "not all_finite(store)",
           "False",
           ("tests/test_wproperty.py::test_non_finite_blocks_are_refused_before_any_enumeration",
            "tests/test_cli.py::test_non_finite_block_file_exit_code")),
    Mutant("vertex-gate-refuses-its-budget", "wproperty.py",
           "(blocks.m + 1) ** blocks.n > budget",
           "(blocks.m + 1) ** blocks.n >= budget",
           ("tests/test_oracle.py::test_budget_admits_exactly_the_vertex_count",)),
    Mutant("bound42-uncertified-nan", "bounds.py",
           "BoundReport('Thm42Eta', np.inf, norm_tag, False, est.value, (est.lower, est.upper))",
           "BoundReport('Thm42Eta', np.nan, norm_tag, False, est.value, (est.lower, est.upper))",
           ("tests/test_bounds.py::"
            "test_bound42_gives_no_bound_where_the_problem_has_three_solutions",
            "tests/test_bounds.py::"
            "test_bound42_uncertified_band_store_below_dense_limit_forms_no_dense_inverse")),
    Mutant("thm34-scaled-overflow-unchecked", "convergence.py",
           "not all_finite(a)",
           "False",
           ("tests/test_convergence.py::"
            "test_check_thm34_refuses_an_omega_whose_scaled_h1_overflows",)),
    Mutant("unclosed-bracket-certifying", "convergence.py",
           "value, certifying = (est.value, est.converged)",
           "value, certifying = (est.value, True)",
           ("tests/test_convergence.py::"
            "test_graded_matrix_certifies_or_reports_no_certificate_without_warnings",)),
    Mutant("band-two-norm-unrefused", "convergence.py",
           "store.n > DENSE_EIG_MAX_ORDER",
           "False",
           ("tests/test_convergence.py::"
            "test_two_norm_of_a_zero_band_store_above_the_cut_is_refused",
            "tests/test_bounds.py::"
            "test_overalpha_two_norm_on_band_blocks_above_the_cut_is_refused")),
    Mutant("interval-takes-an-estimate", "bounds.py",
           "isinstance(alpha_lower_den, AlphaEstimate) and alpha_lower_den.exact",
           "isinstance(alpha_lower_den, AlphaEstimate)",
           ("tests/test_bounds.py::test_residual_error_interval_refuses_estimates",)),
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
