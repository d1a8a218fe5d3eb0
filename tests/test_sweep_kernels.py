"""The vectorised M3.3 sweep kernels against the scalar loop they replace.

``reference_sweep`` is the one-coordinate-at-a-time projection sweep the
kernels were written from. A band store's sweep first tries the bracket pass,
which must give its result bit for bit whenever it decides; dense stores
never enter it. The level kernel and the loop must give its result bit for
bit too; the prefix scan evaluates each coordinate with the loop's formula
from its own predecessor delta, which may differ from the loop's in the last
bits. The kernel tests switch the bracket off, so every draw and example
runs the exact kernel it plans. On the short chains drawn here it stays within 1e-15 of the iterate's
size of the loop. Along a long unclamped chain with |a_j| near 1 either may
drift further from the sweep in exact arithmetic, so there the scan is held to
the bound of its own summation tree: about log2(n) roundings of each sum.
A sweep whose g or x is non-finite takes the loop, so there every kernel gives
the reference exactly.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ehlcp import (DenseMatrix, IterationConfig, gen_example52, gen_example55,
                   implicit_sweep, method33)
from ehlcp import solvers
from ehlcp.blockdata import (BandMatrix, BlockTridiagonalMatrix, Ehlcp2Problem,
                             TridiagonalMatrix)

SCAN_TOL = 1e-15


def reference_sweep(H1, q, x, b, eta, omega_relax, e_diag, ktag):
    """The scalar sweep: K's entries summed by rising column index, on floats."""
    n = H1.n
    lower = ktag == "lower"
    g = (H1.matvec(x) + q).tolist()
    tri = sorted((offset, memoryview(values)) for offset, values in H1.diagonals()
                 if (offset < 0 if lower else offset > 0))
    xs, bs, es = (np.asarray(v, dtype=float).tolist() for v in (x, b, e_diag))
    x_new = [0.0] * n
    delta = [0.0] * n
    for j in (range(n) if lower else range(n - 1, -1, -1)):
        corr = 0.0
        for offset, values in tri:
            l = j + offset
            if 0 <= l < n:
                corr += values[l] * delta[l]
        z = xs[j] - omega_relax * es[j] * (g[j] + corr)
        x_new[j] = eta * min(max(z, 0.0), bs[j]) + (1.0 - eta) * xs[j]
        delta[j] = x_new[j] - xs[j]
    return np.array(x_new)


def exact_sweep(H1, q, x, b, eta, omega_relax, e_diag, ktag):
    """reference_sweep in exact arithmetic on the same float g, omega e_j and
    1 - eta, rounded to floats once at the end."""
    n = H1.n
    lower = ktag == "lower"
    g = (H1.matvec(x) + q).tolist()
    tri = sorted((offset, values.tolist()) for offset, values in H1.diagonals()
                 if (offset < 0 if lower else offset > 0))
    xs, bs, es = (np.asarray(v, dtype=float).tolist() for v in (x, b, e_diag))
    eta, rest = Fraction(eta), Fraction(1.0 - eta)
    x_new = [Fraction(0)] * n
    delta = [Fraction(0)] * n
    for j in (range(n) if lower else range(n - 1, -1, -1)):
        corr = sum(Fraction(values[j + offset]) * delta[j + offset]
                   for offset, values in tri if 0 <= j + offset < n)
        z = xs[j] - Fraction(omega_relax * es[j]) * (Fraction(g[j]) + corr)
        x_new[j] = eta * min(max(z, Fraction(0)), Fraction(bs[j])) + rest * Fraction(xs[j])
        delta[j] = x_new[j] - Fraction(xs[j])
    return np.array([float(v) for v in x_new])


def assert_same_bits(got, want):
    """Equal bit for bit, so -0.0 and 0.0 differ."""
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_kernel_result(kernel, got, want, scale):
    if kernel == "scan":
        assert np.abs(got - want).max() <= SCAN_TOL * scale
    else:
        assert_same_bits(got, want)


def bracket_log(monkeypatch):
    """A list that receives what each bracket pass returns from now on: the
    sweep's result in the plan's coordinates, or None when it falls back."""
    log = []
    bracket = solvers._SweepPlan._bracket

    def spy(plan, g, x):
        out = bracket(plan, g, x)
        log.append(out)
        return out

    monkeypatch.setattr(solvers._SweepPlan, "_bracket", spy)
    return log


def without_bracket(monkeypatch):
    """Every bracket pass from now on falls back, so each sweep runs its
    exact kernel."""
    monkeypatch.setattr(solvers._SweepPlan, "_bracket", lambda plan, g, x: None)


def plan_log(monkeypatch):
    """A list that receives the name of each exact kernel planned from now on."""
    log = []
    for name in ("_plan_scan", "_plan_levels"):
        def spy(plan, planner=getattr(solvers._SweepPlan, name), name=name):
            log.append(name)
            return planner(plan)
        monkeypatch.setattr(solvers._SweepPlan, name, spy)
    return log


def strict_triangle(H1, ktag):
    dense = H1.to_dense()
    return np.tril(dense, -1) if ktag == "lower" else np.triu(dense, 1)


def reference_level_count(H1, ktag):
    """Longest dependency chain through K's nonzero entries, plus one."""
    k = strict_triangle(H1, ktag)
    n = H1.n
    level = [0] * n
    for j in (range(n) if ktag == "lower" else range(n - 1, -1, -1)):
        level[j] = max((level[l] + 1 for l in np.flatnonzero(k[j])), default=0)
    return max(level) + 1


def expected_kernel(H1, ktag, eta, omega_relax, e_diag):
    """The kernel a plan must pick when the level width cut is off."""
    if isinstance(H1, DenseMatrix):
        return "loop"
    k = strict_triangle(H1, ktag)
    side = -1 if ktag == "lower" else 1
    if [o for o, _ in H1.diagonals() if o * side > 0] != [side]:
        return "levels"
    # a_j = eta omega e_j K[j, j -+ 1] on the rows that have that entry
    e_rows = e_diag[1:] if ktag == "lower" else e_diag[:-1]
    slopes = eta * (omega_relax * e_rows) * np.abs(np.diagonal(k, side))
    return "scan" if slopes.max(initial=0.0) <= 1.0 else "loop"


@st.composite
def stores(draw, rng):
    """A store of one layout; about a quarter of its off-diagonal entries zero."""
    kind = draw(st.sampled_from(["tridiagonal", "block", "band", "dense"]))
    scale = draw(st.sampled_from([0.1, 0.3, 1.0, 3.0]))

    def entries(*shape):
        vals = rng.uniform(-scale, scale, shape)
        vals[rng.random(shape) < 0.25] = 0.0
        return vals

    if kind == "block":
        g = draw(st.integers(2, 6))
        block = TridiagonalMatrix(entries(g - 1), np.full(g, 4.0 * scale), entries(g - 1))
        return BlockTridiagonalMatrix(g, *entries(1), block, *entries(1))
    n = draw(st.integers(2, 30))
    if kind == "tridiagonal":
        return TridiagonalMatrix(entries(n - 1), np.full(n, 4.0 * scale), entries(n - 1))
    if kind == "dense":
        return DenseMatrix(entries(n, n) + 4.0 * scale * np.eye(n))
    # uneven band such as offsets (3, 0, -2), up to ten per triangle
    offsets = [0] + sorted(draw(st.sets(st.sampled_from([o for o in range(-10, 11) if o]))))
    data = entries(len(offsets), n)
    data[0] = 4.0 * scale
    return BandMatrix(offsets, data)


@st.composite
def sweeps(draw):
    """Arguments of one sweep: x in [0, b], some of it on a bound; at times
    one entry of q is NaN or infinite."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h1 = draw(stores(rng))
    n = h1.n
    b = rng.uniform(0.02, 2.0, n)
    x = rng.uniform(0.0, 1.0, n) * b
    x[rng.random(n) < 0.15] = 0.0
    on_b = rng.random(n) < 0.15
    x[on_b] = b[on_b]
    q = rng.uniform(-4.0, 4.0, n)
    bad = draw(st.sampled_from([None, None, None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        q[draw(st.integers(0, n - 1))] = bad
    e = rng.uniform(0.1, 3.0, n)
    eta = draw(st.floats(0.01, 1.0))
    omega = draw(st.floats(0.01, 3.0))
    return h1, q, x, b, eta, omega, e, draw(st.sampled_from(["lower", "upper"]))


def order_sensitive_sweep(ktag):
    """Three strict diagonals whose terms in the last row swept, row 3 of a
    lower sweep or row 0 of an upper one, are 2^53, 1 and -2^53 by rising
    column index: 0 summed in that order, 1 in reverse."""
    data = np.zeros((4, 4))
    data[0] = 1.0
    if ktag == "lower":  # K[3, 0], K[3, 1], K[3, 2]
        offsets, row = (0, -1, -2, -3), 3
        data[3, 0], data[2, 1], data[1, 2] = 2.0 ** 53, 1.0, -2.0 ** 53
    else:  # K[0, 1], K[0, 2], K[0, 3]
        offsets, row = (0, 1, 2, 3), 0
        data[1, 1], data[2, 2], data[3, 3] = 2.0 ** 53, 1.0, -2.0 ** 53
    q = np.full(4, -1.0)
    q[row] = -10.0
    return (BandMatrix(offsets, data), q, np.zeros(4), np.full(4, 100.0), 1.0, 1.0,
            np.ones(4), ktag)


def pairwise_sensitive_sweep():
    """A one-coordinate level with nine terms: 2^53, seven 1s, -2^53. Summed
    one by one they give 0; numpy's pairwise sum of nine gives 6."""
    offsets = tuple(range(0, -10, -1))
    data = np.zeros((10, 10))
    data[0] = 1.0
    data[1:, 0:9] = np.diag([2.0 ** 53] + [1.0] * 7 + [-2.0 ** 53])[::-1]
    q = np.full(10, -1.0)
    q[9] = -10.0
    return (BandMatrix(offsets, data), q, np.zeros(10), np.full(10, 100.0), 1.0, 1.0,
            np.ones(10), "lower")


@settings(max_examples=300, deadline=None)
@given(sweeps())
@example(order_sensitive_sweep("lower"))
@example(order_sensitive_sweep("upper"))
@example(pairwise_sensitive_sweep())
def test_kernels_match_scalar_reference(case):
    h1, q, x, b, eta, omega, e, ktag = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "LEVEL_MIN_WIDTH", 0)  # level kernel at any width
        plan = solvers._SweepPlan(h1, b, eta, omega, e, ktag)
        plan.tries = 0  # no bracket: the exact kernel runs
        kernel = plan.kernel  # planned on first use
        got = implicit_sweep(h1, q, x, b, eta, omega, e, ktag, plan=plan)
    want = reference_sweep(h1, q, x, b, eta, omega, e, ktag)
    event(kernel)
    assert kernel == expected_kernel(h1, ktag, eta, omega, e)
    if kernel == "levels":
        assert len(plan.levels) == reference_level_count(h1, ktag)
    kernel = kernel if np.isfinite(q).all() else "loop"
    assert_kernel_result(kernel, got, want, max(np.abs(x).max(), np.abs(want).max()))


@pytest.mark.parametrize("n", [256, 1024, 2048])
@pytest.mark.parametrize("slopes", ["one", "near-one", "mixed-sign"])
@pytest.mark.parametrize("ktag", ["lower", "upper"])
def test_scan_tracks_exact_sweep_on_long_chains(n, slopes, ktag):
    """Unclamped stretches of a chain with a_j = -K[j, j -+ 1] at or near 1
    (eta = omega = e = 1, so no input to the chain is rounded). Each composed
    constant is a sum of the c_j = -g_j in a tree of depth log2(n), two
    roundings per level; the clamps and slopes |a_j| <= 1 do not enlarge an
    error."""
    rng = np.random.default_rng(n)
    k = -np.ones(n - 1)
    if slopes != "one":
        k *= rng.uniform(0.9, 1.0, n - 1)
    if slopes == "mixed-sign":
        k *= rng.choice([-1.0, 1.0], n - 1)
    h1 = TridiagonalMatrix(k, np.zeros(n), k)
    x = rng.uniform(0.0, 1e-3, n)
    case = (h1, rng.normal(0.0, 10.0, n), x, np.full(n, 1e9), 1.0, 1.0, np.ones(n), ktag)
    assert solvers._SweepPlan(h1, *case[3:]).kernel == "scan"
    got, want = implicit_sweep(*case), exact_sweep(*case)
    g = h1.matvec(x) + case[1]
    depth = int(np.ceil(np.log2(n)))
    tol = 2 * (depth + 2) * np.finfo(float).eps * (
        np.abs(g).sum() + np.abs(x).max() + np.abs(want).max())
    assert np.abs(got - want).max() <= tol


def test_scan_keeps_the_loops_signed_zero():
    """x_1 = -0.0 with omega e_1 = 1e-300 and a tiny correction: the loop's
    z_1 is -0.0 and max(z, 0.0) keeps it, so x_new_1 = -0.0. The start's
    sign bit keeps the bracket out; the scan must clamp as the loop does."""
    case = (BandMatrix((0, -1), [[1.0, 1.0], [1.0, 0.0]]), np.array([-1e-30, -1e-30]),
            np.array([1e-30, -0.0]), np.ones(2), 1.0, 1.0, np.array([1.0, 1e-300]),
            "lower")
    assert solvers._SweepPlan(case[0], *case[3:]).kernel == "scan"
    got = implicit_sweep(*case)
    assert np.signbit(got[1]) and got[1] == 0.0
    assert_same_bits(got, reference_sweep(*case))


def mixed_sign_sweep():
    """Row 2 of a lower sweep reads K[2, 0] = 1 and K[2, 1] = -1. Its clamp
    brackets put both deltas in [0, 1] and its correction in [-1, 1], so the
    first round decides rows 0 and 1 only; the second decides row 2 from their
    exact deltas 0.5 and 0.2. Term ends summed as they come (1 * 0 - 1 * 0
    and 1 * 1 - 1 * 1) would close row 2's bracket at 0 in the first round."""
    data = np.zeros((3, 3))
    data[0] = 1.0
    data[1, 1] = -1.0  # K[2, 1], offset -1
    data[2, 0] = 1.0  # K[2, 0], offset -2
    return (BandMatrix((0, -1, -2), data), np.array([-0.5, -0.2, -0.5]), np.zeros(3),
            np.ones(3), 1.0, 1.0, np.ones(3), "lower")


def signed_zero_sweep():
    """x_1 = -0.0 with g_1 = 0 and an exact delta_0 = 0: the loop's z_1 is
    -0.0 - 0.0 = -0.0, which max(z, 0.0) keeps, so x_new_1 = -0.0. The clamp
    bracket of delta_0 is [-1e-30, 1], and omega e_1 = 1e-300 takes the
    correction's ends to -0.0 and 1e-300, so both ends of x_new_1 are +0.0.
    K[2, 0] makes the exact kernel the level one; row 2 ends at +0.0."""
    data = np.zeros((3, 3))
    data[0] = 1.0
    data[1, 0] = 1.0  # K[1, 0]
    data[2, 0] = 1.0  # K[2, 0]
    return (BandMatrix((0, -1, -2), data), np.array([-1e-30, -1e-30, 0.0]),
            np.array([1e-30, -0.0, 0.0]), np.ones(3), 1.0, 1.0,
            np.array([1.0, 1e-300, 1.0]), "lower")


def interior_obstacle_sweep():
    """Ex 5.5 g = 8 with b = 0.15e from x = 0: the chains through the -g
    column entries stay inside the box, so neither round decides them."""
    problem = gen_example55(8).problem
    n = problem.n
    return (problem.H1, problem.q, np.zeros(n), np.full(n, 0.15), 0.5, 0.25, np.ones(n),
            "lower")


@settings(max_examples=300, deadline=None)
@given(sweeps())
def test_bracket_gives_the_loop_bits_when_it_decides(case):
    h1, q, x, b, eta, omega, e, ktag = case
    dense = isinstance(h1, DenseMatrix)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "LEVEL_MIN_WIDTH", 0)
        log = bracket_log(mp)
        got = implicit_sweep(*case)
    want = reference_sweep(*case)
    finite = np.isfinite(h1.matvec(x) + q).all()
    assert len(log) == (not dense and finite)
    decided = log and log[0] is not None
    event("dense" if dense else "non-finite" if not finite else
          "decided" if decided else "fell back")
    if decided:
        assert_same_bits(got, want)


@pytest.mark.parametrize("case, decides", [(mixed_sign_sweep(), True),
                                           (signed_zero_sweep(), None),
                                           (interior_obstacle_sweep(), False)],
                         ids=["mixed-sign", "signed-zero", "ex55-g8-interior"])
@pytest.mark.parametrize("level_min_width", [0, solvers.LEVEL_MIN_WIDTH])
def test_bracket_examples_give_the_loop_bits(case, decides, level_min_width, monkeypatch):
    """decides: True if the bracket decides, False if it falls back, None if
    the sweep never enters it."""
    monkeypatch.setattr(solvers, "LEVEL_MIN_WIDTH", level_min_width)
    log = bracket_log(monkeypatch)
    got = implicit_sweep(*case)
    want = reference_sweep(*case)
    assert [out is not None for out in log] == ([] if decides is None else [decides])
    assert_same_bits(got, want)
    if decides is None:
        assert np.signbit(want[1]) and want[1] == 0.0


def test_bracket_that_overflows_falls_back_without_a_warning(monkeypatch):
    """1e308 * 1e308 overflows in the correction ends: the bracket gives up
    silently and the loop, whose Python floats warn nothing, runs."""
    n = 40
    data = np.full((3, n), 1e308)
    data[0] = 1.0
    case = (BandMatrix((0, -1, -2), data), np.full(n, -1e308), np.zeros(n),
            np.full(n, 1e308), 1.0, 1.0, np.ones(n), "lower")
    log = bracket_log(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = implicit_sweep(*case)
    assert [out is None for out in log] == [True]
    assert_same_bits(got, reference_sweep(*case))


def scalar_method33(monkeypatch, problem, ktag):
    monkeypatch.setattr(solvers, "implicit_sweep",
                        lambda *args, plan=None: reference_sweep(*args))
    return method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                    cfg=IterationConfig(tol=1e-6))


@pytest.mark.parametrize("ktag", ["lower", "upper"])
@pytest.mark.parametrize("make, kernel", [(lambda: gen_example52(2000), "scan"),
                                          (lambda: gen_example55(40), "levels")],
                         ids=["ex52-n2000", "ex55-g40"])
def test_method33_paper_cells_match_scalar_loop(make, kernel, ktag, monkeypatch):
    problem = make().problem
    plan = solvers._SweepPlan(problem.H1, problem.b, 0.5, 0.25, np.ones(problem.n), ktag)
    assert plan.kernel == kernel
    if kernel == "levels":  # the 2g - 1 anti-diagonals of the grid
        assert len(plan.levels) == 2 * 40 - 1
    planned, log = plan_log(monkeypatch), bracket_log(monkeypatch)
    rep = method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                   cfg=IterationConfig(tol=1e-6))
    ref = scalar_method33(monkeypatch, problem, ktag)
    assert rep.status == ref.status == "Converged"
    assert rep.iterations == ref.iterations == len(log) == 17
    assert sum(out is not None for out in log) >= 15
    # Ex 5.2 decides every sweep, so no exact kernel is planned.
    assert planned == ([] if kernel == "scan" else ["_plan_levels"])
    assert_same_bits(rep.y_final, ref.y_final)


@pytest.mark.parametrize("ktag", ["lower", "upper"])
@pytest.mark.parametrize("make, kernel", [(lambda: gen_example52(2000), "scan"),
                                          (lambda: gen_example55(40), "levels")],
                         ids=["ex52-n2000", "ex55-g40"])
def test_method33_paper_cells_exact_kernels_match_scalar_loop(make, kernel, ktag,
                                                              monkeypatch):
    """The paper cells with the bracket off: every sweep runs the exact
    kernel, the levels bit for bit, the scan within its tolerance."""
    problem = make().problem
    without_bracket(monkeypatch)
    planned = plan_log(monkeypatch)
    rep = method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                   cfg=IterationConfig(tol=1e-6))
    assert planned == ["_plan_" + kernel]
    ref = scalar_method33(monkeypatch, problem, ktag)
    assert rep.status == ref.status == "Converged"
    assert rep.iterations == ref.iterations == 17
    assert_kernel_result(kernel, rep.y_final, ref.y_final, np.abs(ref.y_final).max())


@pytest.mark.parametrize("ktag", ["lower", "upper"])
def test_method33_interior_tridiagonal_solve_falls_back_to_the_scan(ktag, monkeypatch):
    """Ex 5.2's H1 with q = -H1 x* for x* inside the box: no clamp is ever
    decided, so the solve tries the bracket twice and runs every other sweep
    on the scan."""
    gen = gen_example52(2000).problem
    x_star = np.random.default_rng(0).uniform(0.2, 0.8, gen.n)
    problem = Ehlcp2Problem(gen.H1, -gen.H1.matvec(x_star), np.ones(gen.n))
    log, planned = bracket_log(monkeypatch), plan_log(monkeypatch)
    rep = method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                   cfg=IterationConfig(tol=1e-6))
    assert [out is None for out in log] == [True, True]
    assert planned == ["_plan_scan"]
    ref = scalar_method33(monkeypatch, problem, ktag)
    assert rep.status == ref.status == "Converged"
    assert rep.iterations == ref.iterations > 2
    # Unclamped, each scan sweep may add its last-bit difference to the
    # iterate; the converging iteration carries them on without growth.
    scale = rep.iterations * np.abs(ref.y_final).max()
    assert_kernel_result("scan", rep.y_final, ref.y_final, scale)


@pytest.mark.parametrize("ktag", ["lower", "upper"])
def test_method33_stops_bracketing_after_two_undecided_sweeps(ktag, monkeypatch):
    """With b = 10e the Ex 5.5 g = 40 solution lies inside the box, so the
    bracket decides no sweep: the solve tries two and runs the level kernel
    on the rest."""
    gen = gen_example55(40).problem
    problem = Ehlcp2Problem(gen.H1, gen.q, np.full(gen.n, 10.0))
    log = bracket_log(monkeypatch)
    rep = method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                   cfg=IterationConfig(tol=1e-6))
    ref = scalar_method33(monkeypatch, problem, ktag)
    assert [out is None for out in log] == [True, True]
    assert rep.status == ref.status == "Converged"
    assert rep.iterations == ref.iterations > 2
    assert_same_bits(rep.y_final, ref.y_final)
