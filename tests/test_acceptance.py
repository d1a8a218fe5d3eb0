"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from conftest import (counter_order, example52_bound42_constant,
                      random_dominant_problem)
from ehlcp import (DenseMatrix, IterationConfig, bound42, bound43,
                   check_thm34, gen_example51, gen_example52, gen_example53,
                   gen_example55, has_column_w_property, method31, method32,
                   method33, oracle_solve, pls_residual, reconstruct_y,
                   recover_solution, residual_error_interval,
                   selection_matrices, sum_identity, underalpha_exact)
from ehlcp.problems import alternating
from ehlcp.transform import (feasibility_violations, transformation_pieces)
from ehlcp.wproperty import representative


def _criterion(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:2d}] {status}: {description}")
    assert not failures, f"criterion {num}: " + " | ".join(failures[:12])


def _table1_cells(grid, mus):
    cells = {}
    for mu in mus:
        gen = gen_example51(grid, float(mu), float(mu))
        problem = gen.problem
        y = alternating(problem.n, -0.15, 0.056)
        rep = pls_residual(problem, y)
        r_inf = float(np.max(np.abs(y - gen.prescribed.y_star)))
        eta = bound42(problem.blocks, "inf").constant * rep.norms["inf"]
        tau = bound43(problem.blocks).constant * rep.norms["inf"]
        cells[mu] = (r_inf, eta, tau)
    return cells


def test_criterion_01_table1():
    expected = {4: 0.07650, 6: 0.06767, 8: 0.06325,
                10: 0.06060, 12: 0.05883, 14: 0.05757}
    failures = []
    for mu in expected:
        t0 = time.perf_counter()
        cells = _table1_cells(100, (mu,))
        elapsed = time.perf_counter() - t0
        r_inf, eta, tau = cells[mu]
        if abs(r_inf - 0.05) > 1e-12:
            failures.append(f"mu={mu}: r_inf {r_inf!r} != 0.05000")
        if abs(eta - expected[mu]) > 5e-6:
            failures.append(f"mu={mu}: eta {eta!r} vs {expected[mu]}")
        if abs(tau - expected[mu]) > 5e-6:
            failures.append(f"mu={mu}: tau {tau!r} vs {expected[mu]}")
        if abs(eta - tau) > 1e-12:
            failures.append(f"mu={mu}: eta != tau ({eta!r} vs {tau!r})")
        if elapsed >= 10.0:
            failures.append(f"mu={mu}: took {elapsed:.1f}s >= 10s")
    _criterion(1, "n=10000 error-bound table (r, eta, tau per mu)", failures)


def test_criterion_02_table2():
    paper_eta = {(5, 400): 0.071199999286907, (5, 1600): 0.071199999286907,
                 (5, 3600): 0.071200000000000,
                 (7, 400): 0.065142857095714, (7, 1600): 0.065142857142857,
                 (7, 3600): 0.065142857142857,
                 (9, 400): 0.061777777772124, (9, 1600): 0.061777777777778,
                 (9, 3600): 0.061777777777778}
    paper_tau = {5: 0.071200000000000, 7: 0.065142857142857,
                 9: 0.061777777777778}
    failures = []
    t0 = time.perf_counter()
    for grid in (20, 40, 60):
        cells = _table1_cells(grid, (5, 7, 9))
        n = grid * grid
        for mu, (_, eta, tau) in cells.items():
            if abs(eta - paper_eta[(mu, n)]) > 1e-9:
                failures.append(f"eta(mu={mu}, n={n}) = {eta!r}")
            if abs(tau - paper_tau[mu]) > 1e-12:
                failures.append(f"tau(mu={mu}, n={n}) = {tau!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s >= 30s")
    _criterion(2, "15-digit bound values over (mu, n) grid", failures)


def test_criterion_03_tables3_4():
    failures = []
    etas = []
    for n in (30, 60, 90, 120):
        gen = gen_example52(n)
        problem = gen.problem.as_general()
        y = alternating(n, -0.1, 0.1)
        rep = pls_residual(problem, y)
        diff = y - gen.prescribed.y_star
        r_1 = float(np.sum(np.abs(diff)))
        tau_1 = bound43(problem.blocks).constant * rep.norms["1"]
        r_inf = float(np.max(np.abs(diff)))
        eta_inf = bound42(problem.blocks, "inf").constant * rep.norms["inf"]
        if abs(r_1 - n / 10) > 1e-10:
            failures.append(f"n={n}: r_1 {r_1!r}")
        if abs(tau_1 - n / 10) > 1e-10:
            failures.append(f"n={n}: tau_1 {tau_1!r}")
        if abs(r_inf - 0.1) > 1e-10:
            failures.append(f"n={n}: r_inf {r_inf!r}")
        # the exact constant times the exact probe residual ||r(y)||_inf = 0.1
        eta_ref = float(example52_bound42_constant(n) / 10)
        if abs(eta_inf - eta_ref) > 1e-10:
            failures.append(f"n={n}: eta_inf {eta_inf!r} vs exact {eta_ref!r}")
        etas.append(eta_inf)
    # The paper prints the limit 0.4 = 4 x 0.1 of the Neumann bound
    # ||(I - X)^{-1}||_inf <= 1/(1 - ||X||_inf) = 4. The column must stay
    # below it, grow with n, and match it at one decimal digit, the precision
    # assumed for Table 4's display.
    if max(etas) > 0.4 + 1e-12:
        failures.append(f"eta_inf {max(etas)!r} exceeds the Neumann bound 0.4")
    if any(b < a - 1e-12 for a, b in zip(etas, etas[1:])):
        failures.append(f"eta_inf not nondecreasing in n: {etas!r}")
    if any(round(e, 1) != 0.4 for e in etas):
        failures.append(f"eta_inf does not display as 0.4: {etas!r}")
    _criterion(3, "small-size bound table (r1=tau1=n/10, r_inf=0.1, "
                  "eta_inf=exact Thm 4.2 constant x 0.1, shown as 0.4)",
               failures)


def _table_it(gen_fn, sizes, omega):
    cfg = IterationConfig(tol=1e-6)
    out = {}
    for size in sizes:
        problem = gen_fn(size).problem
        it2 = method32(problem, omega, cfg=cfg).iterations
        it3 = method33(problem, eta=0.5, omega_relax=0.25, ktag="lower",
                       cfg=cfg).iterations
        out[size] = (it2, it3)
    return out


def test_criterion_04_table5():
    t0 = time.perf_counter()
    its = _table_it(gen_example52, (5000, 10000, 15000, 20000), 4.0)
    elapsed = time.perf_counter() - t0
    failures = []
    for n, (it2, it3) in its.items():
        if not 2 <= it2 <= 4:
            failures.append(f"n={n}: M2 IT={it2} not 3 +- 1")
        if not 15 <= it3 <= 17:
            failures.append(f"n={n}: M3 IT={it3} not 16 +- 1")
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s >= 60s")
    _criterion(4, "tridiagonal family iteration counts", failures)


def test_criterion_05_table6():
    t0 = time.perf_counter()
    its = _table_it(lambda n: gen_example55(int(round(n ** 0.5))),
                    (6400, 10000, 16900, 22500), 5.0)
    elapsed = time.perf_counter() - t0
    failures = []
    for n, (it2, it3) in its.items():
        if not 4 <= it2 <= 6:
            failures.append(f"n={n}: M2 IT={it2} not 5 +- 1")
        if not 15 <= it3 <= 17:
            failures.append(f"n={n}: M3 IT={it3} not 16 +- 1")
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s >= 120s")
    _criterion(5, "block-tridiagonal family iteration counts", failures)


def test_criterion_06_tight_two_by_two():
    failures = []
    gen = gen_example53(1.0)
    y = np.array([3.0, -7.0])
    up = bound42(gen.problem.blocks, "inf")
    under = underalpha_exact(gen.problem.blocks, "inf")
    lo, hi = residual_error_interval(gen.problem, y, up, under)
    true_err = float(np.max(np.abs(y - gen.prescribed.y_star)))
    if abs(hi - 8.0) > 1e-12 or abs(true_err - 8.0) > 1e-12:
        failures.append(f"upper {hi!r} vs true error {true_err!r} vs 8")
    if not lo <= true_err:
        failures.append(f"lower {lo!r} exceeds true error")
    for alpha in (1.0, 2.0, 3.0):
        c = bound42(gen_example53(alpha).problem.blocks, "inf").constant
        if abs(c - (1.0 + alpha * alpha)) > 1e-12:
            failures.append(f"alpha={alpha}: constant {c!r}")
    _criterion(6, "tight bound on the 2x2 family", failures)


def test_criterion_07_dense_p_matrix():
    h1 = DenseMatrix(np.array([[1.5, 1.0, 1.0],
                               [1.0, 1.5, 1.0],
                               [1.0, 1.0, 1.5]]))
    res = check_thm34(h1, 5.0)
    failures = []
    if abs(res.norms["2"].value - 0.90) > 1e-10:
        failures.append(f"2-norm {res.norms['2'].value!r}")
    if abs(res.rho.value - 1.1) > 1e-10:
        failures.append(f"rho {res.rho.value!r}")
    _criterion(7, "3x3 convergence-condition example (0.90 / 1.1)", failures)


def _criterion8_instances():
    for seed in range(100):
        yield (seed,) + random_dominant_problem(seed)


def test_criterion_08_oracle_equivalence():
    failures = []
    cfg = IterationConfig(tol=1e-10, max_iter=20000)
    for seed, problem, e2 in _criterion8_instances():
        if not bound42(problem.blocks, "inf").condition_satisfied:
            failures.append(f"seed {seed}: construction broke the condition")
            continue
        res = oracle_solve(problem)
        if len(res.solutions) != 1:
            failures.append(f"seed {seed}: {len(res.solutions)} oracle solutions")
            continue
        y_star = res.solutions[0][0]
        rep = method31(problem, cfg=cfg)
        if rep.status != "Converged" \
                or np.max(np.abs(rep.y_final - y_star)) > 1e-7:
            failures.append(f"seed {seed}: fixed-point method off")
        if e2 is not None:
            rep2 = method32(e2, np.asarray(e2.H1.diagonal()), cfg=cfg)
            if rep2.status != "Converged":
                failures.append(f"seed {seed}: scaled method did not converge")
            else:
                y2 = reconstruct_y(rep2.solution, problem.ladder)
                if np.max(np.abs(y2 - y_star)) > 1e-7:
                    failures.append(f"seed {seed}: scaled method off")
    _criterion(8, "oracle equivalence on 100 seeded instances", failures)


def test_criterion_09_transformation_properties():
    rng = np.random.default_rng(90125)
    failures = []
    checked = 0
    from conftest import random_ladder
    while checked < 10000:
        n = int(rng.integers(1, 6))
        lad = random_ladder(rng, n)
        y = rng.uniform(-10.0, 10.0, n)
        checked += 1
        sol = recover_solution(y, lad)
        if max(feasibility_violations(sol, lad).values()) != 0.0:
            failures.append(f"sample {checked}: feasibility violation")
        lhs, rhs = sum_identity(y, lad)
        target = np.maximum(0.0, y)
        if np.max(np.abs(lhs - target)) > 1e-12 \
                or np.max(np.abs(rhs - target)) > 1e-12:
            failures.append(f"sample {checked}: sum identity")
        yref = rng.uniform(-10.0, 10.0, n)
        sel = selection_matrices(y, yref, lad)
        h = rng.uniform(-3.0, 3.0, (lad.m + 1, 1))
        left = (h * (transformation_pieces(y, lad)
                     - transformation_pieces(yref, lad))).sum(axis=0)
        right = (h * sel.lambdas).sum(axis=0) * (y - yref)
        if np.max(np.abs(left - right)) > 1e-10 * (1.0 + np.max(np.abs(left))):
            failures.append(f"sample {checked}: selection identity")
        again = recover_solution(reconstruct_y(sol, lad), lad)
        if np.max(np.abs(again.w - sol.w)) > 1e-12 or any(
                np.max(np.abs(a - b)) > 1e-12 for a, b in zip(again.x, sol.x)):
            failures.append(f"sample {checked}: roundtrip")
        if len(failures) > 20:
            break
    _criterion(9, "transformation properties on 10000 samples", failures)


def test_criterion_10_bound_sandwich():
    rng = np.random.default_rng(424242)
    failures = []
    probes_done = 0
    for seed, problem, _ in _criterion8_instances():
        b42 = bound42(problem.blocks, "inf")
        b43 = bound43(problem.blocks)
        under_inf = underalpha_exact(problem.blocks, "inf")
        under_1 = underalpha_exact(problem.blocks, "1")
        res = oracle_solve(problem)
        if len(res.solutions) != 1:
            failures.append(f"seed {seed}: no unique solution")
            continue
        y_star = res.solutions[0][0]
        for _ in range(5):
            y = y_star + rng.uniform(-3.0, 3.0, problem.n)
            probes_done += 1
            rep = pls_residual(problem, y)
            err_inf = float(np.max(np.abs(y - y_star)))
            err_1 = float(np.sum(np.abs(y - y_star)))
            if err_inf > b42.constant * rep.norms["inf"] + 1e-10:
                failures.append(f"seed {seed}: inf upper bound violated")
            if err_1 > b43.constant * rep.norms["1"] + 1e-10:
                failures.append(f"seed {seed}: 1-norm upper bound violated")
            if err_inf < rep.norms["inf"] / under_inf.value - 1e-10:
                failures.append(f"seed {seed}: inf lower bound violated")
            if err_1 < rep.norms["1"] / under_1.value - 1e-10:
                failures.append(f"seed {seed}: 1-norm lower bound violated")
    if probes_done != 500:
        failures.append(f"expected 500 probes, ran {probes_done}")
    _criterion(10, "two-sided residual bound on 500 probes", failures)


def test_criterion_11_w_property_chain():
    failures = []
    for seed, problem, _ in _criterion8_instances():
        if not bound42(problem.blocks, "inf").condition_satisfied:
            failures.append(f"seed {seed}: dominance condition unexpectedly fails")
            continue
        report = has_column_w_property(problem.blocks)
        if not report.holds:
            failures.append(f"seed {seed}: W-property fails despite condition")
            continue
        for assign in counter_order(problem.n, problem.m):
            r = representative(problem.blocks, assign)
            sign, logabs = np.linalg.slogdet(r.data)
            if sign == 0.0:
                failures.append(f"seed {seed}: singular vertex {assign}")
                break
    _criterion(11, "dominance condition implies verified W-property and "
                   "nonsingular vertices", failures)
