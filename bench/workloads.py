"""The four benchmark workloads: inputs, operations and output checks.

Each workload builds a list of operations during set-up. An operation is one
call of a public ``ehlcp`` function; its check compares the output with a
reference that does not come from the code under test: the paper's table
values at the acceptance tests' tolerances, the prescribed solutions of the
problem generators, and numpy/scipy re-computations from the definitions
(residuals, vertex enumerations, bound constants). All ``ehlcp`` calls go
through module attributes at call time, so the traced run sees them.
"""

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ehlcp import (blockdata, bounds, convergence, oracle, problems, solvers,
                   transform, wproperty)

SOLVE_TOL = 1e-6          # stopping tolerance of the paper-size solves
SOLUTION_TOL = 10 * SOLVE_TOL
DESK_TOL = 1e-10          # stopping tolerance of the desk-scale solves
ORACLE_AGREEMENT = 1e-7
DESK_SAMPLES = 200        # seeded selections in overalpha_estimate / sample_rho_L
DESK_RANDOM_INSTANCES = 100

# Tables 1-4 at the acceptance tests' tolerances.
TABLE1_ETA = {4: 0.07650, 6: 0.06767, 8: 0.06325, 10: 0.06060, 12: 0.05883,
              14: 0.05757}
TABLE2_ETA = {(5, 20): 0.071199999286907, (5, 40): 0.071199999286907,
              (5, 60): 0.071200000000000, (7, 20): 0.065142857095714,
              (7, 40): 0.065142857142857, (7, 60): 0.065142857142857,
              (9, 20): 0.061777777772124, (9, 40): 0.061777777777778,
              (9, 60): 0.061777777777778}
TABLE2_TAU = {5: 0.071200000000000, 7: 0.065142857142857, 9: 0.061777777777778}
# The paper prints eta_inf = 0.4 at every n. At n = 30 the seed code computes
# 0.39999283775972766 (the acceptance test's known criterion-3 mismatch);
# that cell is checked against the computed value, at the same tolerance.
TABLE4_ETA = {30: 0.39999283775972766, 60: 0.4, 90: 0.4, 120: 0.4}


@dataclass
class Op:
    kind: str                 # operation type, e.g. "proj33"
    case: str                 # input label, e.g. "ex52-n20000"
    run: Callable             # run(results) -> output
    check: Callable           # check(output, results) -> list of failure messages
    counts: Optional[Callable] = None   # counts(output) -> exact counters

    @property
    def key(self):
        return (self.kind, self.case)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable           # build(seed, small) -> list of Op


def lazy(fn):
    """fn() computed on first use and kept, so references cost no set-up time."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def _far(label, got, want, tol):
    return [] if abs(got - want) <= tol else [f"{label} = {got!r}, want {want!r} +- {tol:g}"]


def _rel(label, got, want, rtol):
    return _far(label, got, want, rtol * max(1.0, abs(want)))


#
# Independent references, from the definitions in the package docstrings.
#

def as_sparse(store):
    """The store as a scipy sparse matrix, built from its stored fields."""
    if store.layout == "dense":
        return sp.csr_array(store.data)
    if store.layout == "tridiagonal":
        return sp.diags_array([store.sub, store.diag, store.sup], offsets=[-1, 0, 1],
                              format="csr")
    g = store.block_order
    shift = sp.diags_array([np.ones(g - 1)], offsets=[-1])
    return (sp.kron(sp.eye_array(g), as_sparse(store.diag_block))
            + store.sub * sp.kron(shift, sp.eye_array(g))
            + store.sup * sp.kron(shift.T, sp.eye_array(g))).tocsr()


def dense_blocks(blocks):
    return np.stack([s.to_dense() for s in blocks.all()])


def tuple_of(y, d):
    """(w, x_1..x_m) encoded by y under the max-min transformation."""
    w = np.maximum(0.0, -y)
    xs, s = [], np.zeros_like(y)
    for di in d:
        xs.append(np.maximum(0.0, np.minimum(y - s, di)))
        s = s + di
    xs.append(np.maximum(0.0, y - s))
    return w, xs


def residual_ref(mats, q, w, xs):
    """q + sum_i H_i x_i - M w for matrices (M, H_1, ..., H_m)."""
    r = np.array(q, dtype=float)
    for h, x in zip(mats[1:], xs):
        r = r + h @ x
    return r - mats[0] @ w


def check_residual_norm(label, mats, q, solution, reported, limit):
    r = np.max(np.abs(residual_ref(mats, q, solution.w, solution.x)))
    out = _far(f"{label} reported residual", reported, r, 1e-12 + 1e-9 * r)
    if not r <= limit:
        out.append(f"{label} residual {r!r} above {limit:g}")
    return out


def vertex_stack(a):
    """All column representatives of stacked blocks a (m+1, n, n), (V, n, n)."""
    k, n, _ = a.shape
    choice = np.array(list(itertools.product(range(k), repeat=n)))
    return np.transpose(a[choice, :, np.arange(n)], (0, 2, 1))


def underalpha_ref(a, tag):
    """Max vertex norm: rows (inf) or columns (1) take their largest |entry|."""
    mags = np.abs(a)
    if tag == "inf":
        return float(np.max(mags.max(axis=0).sum(axis=1)))
    return float(np.max(mags.sum(axis=1).max(axis=0)))


def bound42_ref(a):
    """(rho, constant) of the positive-diagonal bound in the inf-norm, dense."""
    diags = np.stack([np.diag(b) for b in a])
    off = np.abs(a) * (1.0 - np.eye(a.shape[1]))
    x = np.max(off / diags[:, :, None], axis=0)
    rho = float(np.max(np.abs(np.linalg.eigvals(x))))
    inv = np.linalg.inv(np.eye(a.shape[1]) - x)
    return rho, float(np.max(inv @ np.max(1.0 / diags, axis=0)))


def bound43_ref(a):
    margins = 2.0 * np.abs(np.stack([np.diag(b) for b in a])) - np.abs(a).sum(axis=1)
    return 1.0 / float(np.min(margins))


def selections(m, n, samples, seed):
    """Vertex selections followed by the seeded samples the package draws."""
    choice = np.array(list(itertools.product(range(m + 1), repeat=n)))
    verts = np.zeros((len(choice), m + 1, n))
    verts[np.arange(len(choice))[:, None], choice, np.arange(n)] = 1.0
    sampled = list(convergence.simplex_selections(m, n, samples, seed))
    return np.concatenate([verts, np.array(sampled).reshape(-1, m + 1, n)])


def combinations(a, lams):
    """M D_0 + sum_i H_i D_i for stacked weights lams (T, m+1, n)."""
    return np.einsum("kij,tkj->tij", a, lams)


#
# paper-solve: the timed path of Tables 5 and 6 plus the Example 5.1 solve.
#

def to_ehlcp2(problem):
    """The m = 2 identity-block form the scaled and projection methods need."""
    is_identity = blockdata.is_identity
    if problem.m != 2 or not is_identity(problem.blocks.M) \
            or not is_identity(problem.blocks.H[1]):
        raise ValueError("method needs the m = 2 form with identity blocks")
    return blockdata.Ehlcp2Problem(problem.blocks.H[0], problem.q,
                                   problem.ladder.d[0])


def _load(text):
    problem, prescribed = blockdata.problem_from_json(json.loads(text))
    return problem, prescribed, blockdata.validate(problem)


def _check_load(general, y_star):
    def check(out, results):
        problem, prescribed, report = out
        fails = [] if report.ok else [f"validate: {report.issues}"]
        if problem.n != general.n or not np.array_equal(problem.q, general.q):
            fails.append("loaded q differs from the generated q")
        if prescribed is None or not np.array_equal(prescribed["y"], y_star):
            fails.append("loaded prescribed y differs from the generated y")
        return fails
    return check


def _check_solve(label, general, prescribed, window):
    mats = lazy(lambda: [as_sparse(s) for s in general.blocks.all()])
    y_star = prescribed.y_star

    def check(report, results):
        fails = [] if report.status == "Converged" else [f"{label}: {report.status}"]
        if window and not window[0] <= report.iterations <= window[1]:
            fails.append(f"{label}: {report.iterations} iterations, want "
                         f"{window[0]}..{window[1]}")
        fails += check_residual_norm(label, mats(), general.q, report.solution,
                                     report.residual_norm, SOLUTION_TOL)
        y = sum(report.solution.x) - report.solution.w
        fails += _far(f"{label} max|y - y*|", float(np.max(np.abs(y - y_star))),
                      0.0, SOLUTION_TOL)
        return fails
    return check


def _iterations(kind):
    return lambda report: {f"iterations.{kind}": report.iterations}


def build_paper_solve(seed, small=False):
    n52, g55, g51 = (64, 8, 8) if small else (20000, 150, 100)
    cfg = solvers.IterationConfig(tol=SOLVE_TOL)
    cases = [
        (f"ex52-n{n52}", problems.gen_example52(n52), 4.0, (2, 4)),
        (f"ex55-g{g55}", problems.gen_example55(g55), 5.0, (4, 6)),
        (f"ex51-g{g51}", problems.gen_example51(g51, 4.0, 4.0), None, None),
    ]
    ops = []
    for case, gen, _, _ in cases:
        general = gen.problem
        if isinstance(general, blockdata.Ehlcp2Problem):
            general = general.as_general()
        text = json.dumps(blockdata.problem_to_json(general, gen.prescribed))
        ops.append(Op("load", case, lambda r, t=text: _load(t),
                      _check_load(general, gen.prescribed.y_star)))
    for case, gen, omega, window in cases:
        general = gen.problem
        if omega is None:
            ops.append(Op("fp31", case,
                          lambda r, c=case: solvers.method31(r[("load", c)][0], cfg=cfg),
                          _check_solve(f"fp31 {case}", general, gen.prescribed, None),
                          _iterations("fp31")))
            continue
        general = general.as_general()
        ops.append(Op("omega32", case,
                      lambda r, c=case, om=omega: solvers.method32(
                          to_ehlcp2(r[("load", c)][0]), om, cfg=cfg),
                      _check_solve(f"omega32 {case}", general, gen.prescribed, window),
                      _iterations("omega32")))
        ops.append(Op("proj33", case,
                      lambda r, c=case: solvers.method33(
                          to_ehlcp2(r[("load", c)][0]), eta=0.5, omega_relax=0.25,
                          ktag="lower", cfg=cfg),
                      _check_solve(f"proj33 {case}", general, gen.prescribed, (15, 17)),
                      _iterations("proj33")))
    return ops


#
# paper-bounds: the cells of Tables 1-4.
#

def _bound_cell_ops(case, problem, y, y_star, expect):
    """Residual, bound42 and bound43 on one probe; expect maps a quantity to
    (reference value, tolerance)."""
    @lazy
    def r_norms():
        mats = [as_sparse(s) for s in problem.blocks.all()]
        r = residual_ref(mats, problem.q, *tuple_of(y, problem.ladder.d))
        return {"1": float(np.sum(np.abs(r))), "inf": float(np.max(np.abs(r)))}

    def check_residual(rep, results):
        diff = y - y_star
        probe_err = {"r_inf": float(np.max(np.abs(diff))),
                     "r_1": float(np.sum(np.abs(diff)))}
        fails = []
        for tag, want in r_norms().items():
            fails += _rel(f"{case} ||r||_{tag}", rep.norms[tag], want, 1e-12)
        if max(rep.feasibility_violations.values()) != 0.0:
            fails.append(f"{case}: recovered tuple infeasible")
        for name in ("r_inf", "r_1"):
            if name in expect:
                fails += _far(f"{case} {name}", probe_err[name], *expect[name])
        return fails

    def norm_of(results, tag):
        return results[("residual", case)].norms[tag]

    def check_bound42(rep, results):
        fails = [] if rep.condition_satisfied else [f"{case}: bound42 condition fails"]
        eta = rep.constant * norm_of(results, "inf")
        return fails + _far(f"{case} eta_inf", eta, *expect["eta_inf"])

    def check_bound43(rep, results):
        tag = "1" if "tau_1" in expect else "inf"
        tau = rep.constant * norm_of(results, tag)
        fails = _far(f"{case} tau_{tag}", tau, *expect[f"tau_{tag}"])
        if "eta_equals_tau" in expect:
            eta = results[("bound42", case)].constant * norm_of(results, "inf")
            fails += _far(f"{case} eta - tau", eta - tau, 0.0, 1e-12)
        return fails

    return [Op("residual", case, lambda res: transform.pls_residual(problem, y),
               check_residual),
            Op("bound42", case, lambda res: bounds.bound42(problem.blocks, "inf"),
               check_bound42),
            Op("bound43", case, lambda res: bounds.bound43(problem.blocks),
               check_bound43)]


def build_paper_bounds(seed, small=False):
    ops = []
    t1 = {10: {4: None}} if small else {100: TABLE1_ETA}
    for grid, etas in t1.items():
        for mu, eta in etas.items():
            gen = problems.gen_example51(grid, float(mu), float(mu))
            y = problems.alternating(gen.problem.n, -0.15, 0.056)
            expect = {} if small else {"r_inf": (0.05, 1e-12), "eta_inf": (eta, 5e-6),
                                       "tau_inf": (eta, 5e-6), "eta_equals_tau": True}
            ops += _bound_cell_ops(f"t1-g{grid}-mu{mu}", gen.problem, y,
                                   gen.prescribed.y_star, expect)
    for grid in (() if small else (20, 40, 60)):
        for mu in (5, 7, 9):
            gen = problems.gen_example51(grid, float(mu), float(mu))
            y = problems.alternating(gen.problem.n, -0.15, 0.056)
            expect = {"eta_inf": (TABLE2_ETA[(mu, grid)], 1e-9),
                      "tau_inf": (TABLE2_TAU[mu], 1e-12)}
            ops += _bound_cell_ops(f"t2-g{grid}-mu{mu}", gen.problem, y,
                                   gen.prescribed.y_star, expect)
    for n in ((12,) if small else tuple(TABLE4_ETA)):
        gen = problems.gen_example52(n)
        y = problems.alternating(n, -0.1, 0.1)
        expect = {} if small else {"r_1": (n / 10, 1e-10), "tau_1": (n / 10, 1e-10),
                                   "r_inf": (0.1, 1e-10),
                                   "eta_inf": (TABLE4_ETA[n], 1e-10)}
        ops += _bound_cell_ops(f"t34-n{n}", gen.problem.as_general(), y,
                               gen.prescribed.y_star, expect)
    return ops


#
# desk-exhaustive: Example 5.2 in general form at n = 9 and n = 7.
#

def _check_checkw(blocks):
    total = (blocks.m + 1) ** blocks.n

    def check(rep, results):
        signs, logdets = np.linalg.slogdet(vertex_stack(dense_blocks(blocks)))
        holds = bool(np.all(signs == signs[0]) and signs[0] != 0)
        fails = [] if rep.holds == holds else [f"checkw holds={rep.holds}, want {holds}"]
        if rep.representatives_checked != total:
            fails.append(f"checkw checked {rep.representatives_checked} of {total}")
        return fails
    return check


def _check_underalpha(blocks, tag):
    def check(est, results):
        fails = _rel(f"underalpha_{tag}", est.value,
                     underalpha_ref(dense_blocks(blocks), tag), 1e-12)
        if not est.exact or est.count != (blocks.m + 1) ** blocks.n:
            fails.append(f"underalpha_{tag}: exact={est.exact} count={est.count}")
        return fails
    return check


def _check_oracle(problem, y_star=None):
    total = (problem.m + 1) ** problem.n

    def check(res, results):
        if len(res.solutions) != 1:
            return [f"oracle: {len(res.solutions)} solutions, want 1"]
        y = res.solutions[0][0]
        w, xs = tuple_of(y, problem.ladder.d)
        r = residual_ref(dense_blocks(problem.blocks), problem.q, w, xs)
        fails = _far("oracle max|r|", float(np.max(np.abs(r))), 0.0, 1e-9)
        if y_star is not None:
            fails += _far("oracle max|y - y*|", float(np.max(np.abs(y - y_star))),
                          0.0, 1e-9)
        if res.regions_checked != total or res.singular_regions != 0:
            fails.append(f"oracle regions {res.regions_checked}/{total}, "
                         f"singular {res.singular_regions}")
        return fails
    return check


def _oracle_counts(res):
    return {"oracle.regions_checked": res.regions_checked,
            "oracle.singular_regions": res.singular_regions,
            "oracle.solutions": len(res.solutions)}


def build_desk_exhaustive(seed, small=False):
    rng = random.Random(seed)
    n_enum, n_sample = (5, 4) if small else (9, 7)
    over_seed, rho_seed = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
    gen = problems.gen_example52(n_enum)
    big = gen.problem.as_general()
    small_problem = problems.gen_example52(n_sample).problem.as_general()
    sb = small_problem.blocks
    m, n = sb.m, sb.n
    total = (m + 1) ** n + DESK_SAMPLES

    def check_overalpha(est, results):
        combos = combinations(dense_blocks(sb), selections(m, n, DESK_SAMPLES, over_seed))
        want = float(np.max(np.abs(np.linalg.inv(combos)).sum(axis=2)))
        fails = _rel("overalpha", est.value, want, 1e-9)
        return fails + ([] if est.count == total else [f"overalpha count {est.count}"])

    def check_rho(rep, results):
        a = dense_blocks(sb)
        combos = combinations(a, selections(m, n, DESK_SAMPLES, rho_seed))
        iters = np.eye(n) - np.linalg.solve(a[0], combos)
        want = float(np.max(np.abs(np.linalg.eigvals(iters))))
        fails = _rel("sample_rho_L", rep.value, want, 1e-9)
        if rep.samples_used != total or rep.certifying:
            fails.append(f"sample_rho_L samples={rep.samples_used} "
                         f"certifying={rep.certifying}")
        return fails

    ops = [
        Op("checkw", f"ex52-n{n_enum}",
           lambda r: wproperty.has_column_w_property(big.blocks), _check_checkw(big.blocks),
           lambda rep: {"representatives_checked": rep.representatives_checked}),
        Op("oracle", f"ex52-n{n_enum}", lambda r: oracle.oracle_solve(big),
           _check_oracle(big, gen.prescribed.y_star), _oracle_counts),
        Op("underalpha", f"ex52-n{n_enum}-inf",
           lambda r: bounds.underalpha_exact(big.blocks, "inf"),
           _check_underalpha(big.blocks, "inf"),
           lambda est: {"underalpha.vertices": est.count}),
        Op("underalpha", f"ex52-n{n_enum}-1",
           lambda r: bounds.underalpha_exact(big.blocks, "1"),
           _check_underalpha(big.blocks, "1"),
           lambda est: {"underalpha.vertices": est.count}),
        Op("overalpha", f"ex52-n{n_sample}",
           lambda r: bounds.overalpha_estimate(sb, "inf", samples=DESK_SAMPLES,
                                               seed=over_seed),
           check_overalpha, lambda est: {"overalpha.selections": est.count}),
        Op("sample_rho_L", f"ex52-n{n_sample}",
           lambda r: convergence.sample_rho_L(sb, trials=DESK_SAMPLES, seed=rho_seed),
           check_rho, lambda rep: {"sample_rho_L.selections": rep.samples_used}),
    ]
    rng.shuffle(ops)
    return ops


#
# desk-random: seeded dense diagonally dominant instances at n = 2..5.
#

def dominant_block(rng, n, base, diag_jitter=0.01, off_scale=0.03):
    """Dense block with diagonal near ``base`` and small off-diagonal mass.

    Off-diagonal row and column sums stay below off_scale * min(base), so
    every instance meets the bound42 condition and the norm-sum convergence
    condition of the fixed-point method with margin for m <= 3 blocks.
    """
    diag = base * rng.uniform(1.0 - diag_jitter, 1.0 + diag_jitter, size=n)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    sums = max(np.abs(a).sum(axis=0).max(), np.abs(a).sum(axis=1).max(), 1e-9)
    a *= off_scale * base.min() / sums
    np.fill_diagonal(a, diag)
    return blockdata.DenseMatrix(a)


# Instance shapes cycle through a fixed schedule, so every seed does the same
# enumeration work ((m+1)^n regions per instance); the seed draws the entries.
GENERAL_SHAPES = [(n, m) for n in range(2, 6) for m in range(1, 4)]


def random_instance(seed, index):
    """(general problem, m = 2 identity-block problem or None); odd indices
    take the identity-block form."""
    rng = np.random.default_rng([seed % 2 ** 32, index])  # numpy seeds are >= 0
    if index % 2:
        n = 2 + (index // 2) % 4
        h1 = dominant_block(rng, n, rng.uniform(0.8, 1.2, size=n))
        b = rng.uniform(0.5, 1.5, size=n)
        e2 = blockdata.Ehlcp2Problem(h1, rng.uniform(-1.0, 1.0, size=n), b)
        return e2.as_general(), e2
    n, m = GENERAL_SHAPES[(index // 2) % len(GENERAL_SHAPES)]
    base = rng.uniform(1.0, 2.0, size=n)
    blocks = blockdata.BlockMatrixSet(
        dominant_block(rng, n, base), tuple(dominant_block(rng, n, base) for _ in range(m)))
    d = tuple(rng.uniform(0.5, 1.5, size=n) for _ in range(m - 1))
    q = rng.uniform(-1.0, 1.0, size=n)
    return blockdata.EhlcpProblem(blocks, q, blockdata.BoundLadder(d, n)), None


def _check_against_oracle(label, case, y_of):
    def check(rep, results):
        if rep.status != "Converged":
            return [f"{label} {case}: {rep.status}"]
        res = results[("oracle", case)]
        if len(res.solutions) != 1:
            return [f"{label} {case}: no unique oracle solution"]
        err = float(np.max(np.abs(y_of(rep) - res.solutions[0][0])))
        return _far(f"{label} {case} max|y - y_oracle|", err, 0.0, ORACLE_AGREEMENT)
    return check


def _desk_random_ops(case, problem, e2):
    cfg = solvers.IterationConfig(tol=DESK_TOL, max_iter=20000)
    blocks = problem.blocks
    a = dense_blocks(blocks)

    def check_bound42(rep, results):
        rho, constant = bound42_ref(a)
        fails = [] if rep.condition_satisfied and rho < 1.0 else \
            [f"bound42 {case}: condition {rep.condition_satisfied}, rho {rho!r}"]
        fails += _rel(f"bound42 {case} rho", rep.condition_value, rho, 1e-9)
        return fails + _rel(f"bound42 {case} constant", rep.constant, constant, 1e-9)

    def check_bound43(rep, results):
        return _rel(f"bound43 {case} constant", rep.constant, bound43_ref(a), 1e-12)

    def y_of_tuple(rep):
        return sum(rep.solution.x) - rep.solution.w

    ops = [
        Op("oracle", case, lambda r: oracle.oracle_solve(problem), _check_oracle(problem),
           _oracle_counts),
        Op("fp31", case, lambda r: solvers.method31(problem, cfg=cfg),
           _check_against_oracle("fp31", case, lambda rep: rep.y_final),
           _iterations("fp31")),
        Op("bound42", case, lambda r: bounds.bound42(blocks, "inf"), check_bound42),
        Op("bound43", case, lambda r: bounds.bound43(blocks), check_bound43),
        Op("underalpha", case, lambda r: bounds.underalpha_exact(blocks, "inf"),
           _check_underalpha(blocks, "inf"),
           lambda est: {"underalpha.vertices": est.count}),
        Op("checkw", case, lambda r: wproperty.has_column_w_property(blocks),
           _check_checkw(blocks),
           lambda rep: {"representatives_checked": rep.representatives_checked}),
    ]
    if e2 is not None:
        ops += [
            Op("omega32", case, lambda r: solvers.method32(e2, e2.H1.diagonal(), cfg=cfg),
               _check_against_oracle("omega32", case, y_of_tuple), _iterations("omega32")),
            Op("proj33", case, lambda r: solvers.method33(e2, eta=0.5, omega_relax=0.25,
                                                          ktag="lower", cfg=cfg),
               _check_against_oracle("proj33", case, y_of_tuple), _iterations("proj33")),
        ]
    return ops


def build_desk_random(seed, small=False):
    count = 4 if small else DESK_RANDOM_INSTANCES
    ops = []
    for index in range(count):
        problem, e2 = random_instance(seed, index)
        ops += _desk_random_ops(f"i{index}", problem, e2)
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "paper-solve": Workload(
        "paper-solve",
        "the paper's timed path (Tables 5/6 largest cells, Ex 5.1 fp31): the M3.3 sweep, "
        "matvec, banded LU and recovery; analysis layers idle",
        build_paper_solve),
    "paper-bounds": Workload(
        "paper-bounds",
        "the Tables 1-4 bound cells: spectral radius and band conversion in bound42 on "
        "the large banded and small dense-fallback paths; solvers idle",
        build_paper_bounds),
    "desk-exhaustive": Workload(
        "desk-exhaustive",
        "(m+1)^n enumeration on Ex 5.2 at n = 9 and 7: per-assignment Python work in "
        "wproperty, oracle and bounds, where batched enumeration would show",
        build_desk_exhaustive),
    "desk-random": Workload(
        "desk-random",
        "100 seeded dense instances at n = 2..5: per-call overhead of every public "
        "function on the dense layout, where added per-call set-up would show",
        build_desk_random),
}
