"""The M3.3 sweep against the scalar loop it is built from.

``reference_sweep`` is the one-coordinate-at-a-time projection sweep. The
package's sweep must give its result bit for bit, signed zeros included. A
band store's sweep first tries the bracket pass, which decides what
coordinates it can, each with the reference's bits; the package's loop runs
on the rest, reading the decided coordinates' deltas. Dense stores and
sweeps whose g or x is non-finite never enter the bracket and run the whole
loop.
"""

import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ehlcp import (DenseMatrix, IterationConfig, gen_example52, gen_example55,
                   implicit_sweep, method33)
from ehlcp import solvers
from ehlcp.blockdata import (BandMatrix, BlockTridiagonalMatrix, Ehlcp2Problem,
                             TridiagonalMatrix)

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


def assert_same_bits(got, want):
    """Equal bit for bit, so -0.0 and 0.0 differ."""
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def bracket_log(monkeypatch):
    """A list that receives what each bracket pass returns from now on: x_new
    in the plan's coordinates and the rising indices it leaves undecided."""
    log = []
    bracket = solvers._SweepPlan._bracket

    def spy(plan, g, x):
        out = bracket(plan, g, x)
        log.append(out)
        return out

    monkeypatch.setattr(solvers._SweepPlan, "_bracket", spy)
    return log


def outcomes(log, n):
    """What each logged bracket pass decided: "all", "part" or "none" of the
    n coordinates."""
    return ["all" if not undecided else "none" if len(undecided) == n else "part"
            for _, undecided in log]


def without_bracket(monkeypatch):
    """Every bracket pass from now on decides nothing, so each sweep runs the
    whole loop."""
    monkeypatch.setattr(solvers._SweepPlan, "_bracket",
                        lambda plan, g, x: (x, range(plan.n)))


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


def signed_zero_chain_sweep():
    """x_1 = -0.0 with omega e_1 = 1e-300 and a tiny correction: the loop's
    z_1 is -0.0 and max(z, 0.0) keeps it, so x_new_1 = -0.0."""
    return (BandMatrix((0, -1), [[1.0, 1.0], [1.0, 0.0]]), np.array([-1e-30, -1e-30]),
            np.array([1e-30, -0.0]), np.ones(2), 1.0, 1.0, np.array([1.0, 1e-300]),
            "lower")


def overflowing_sweep():
    """1e308 * 1e308 overflows in the correction ends, so the bracket decides
    nothing; the loop's Python floats overflow without a warning."""
    n = 40
    data = np.full((3, n), 1e308)
    data[0] = 1.0
    return (BandMatrix((0, -1, -2), data), np.full(n, -1e308), np.zeros(n),
            np.full(n, 1e308), 1.0, 1.0, np.ones(n), "lower")


@settings(max_examples=300, deadline=None)
@given(sweeps())
@example(order_sensitive_sweep("lower"))
@example(order_sensitive_sweep("upper"))
@example(pairwise_sensitive_sweep())
@example(signed_zero_chain_sweep())
@example(overflowing_sweep())
def test_kernels_match_scalar_reference(case):
    """The sweep as planned: the bracket, then the loop on what it leaves."""
    with pytest.MonkeyPatch.context() as mp:
        log = bracket_log(mp)
        got = implicit_sweep(*case)
    want = reference_sweep(*case)
    event("no bracket" if not log else f"decided {outcomes(log, case[0].n)[0]}")
    assert_same_bits(got, want)


def test_scan_keeps_the_loops_signed_zero(monkeypatch):
    """The start's -0.0 keeps the bracket out, and the loop must clamp as the
    reference does. (The name is kept from the doubling scan this case was
    written for.)"""
    case = signed_zero_chain_sweep()
    log = bracket_log(monkeypatch)
    got = implicit_sweep(*case)
    assert log == []
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
    Row 2 reads delta_0 through K[2, 0] and ends at +0.0."""
    data = np.zeros((3, 3))
    data[0] = 1.0
    data[1, 0] = 1.0  # K[1, 0]
    data[2, 0] = 1.0  # K[2, 0]
    return (BandMatrix((0, -1, -2), data), np.array([-1e-30, -1e-30, 0.0]),
            np.array([1e-30, -0.0, 0.0]), np.ones(3), 1.0, 1.0,
            np.array([1.0, 1e-300, 1.0]), "lower")


def interior_obstacle_sweep():
    """Ex 5.5 g = 8 with b = 0.15e from x = 0: the chains through the -g
    column entries stay inside the box, so neither round decides them and
    the loop finishes them."""
    problem = gen_example55(8).problem
    n = problem.n
    return (problem.H1, problem.q, np.zeros(n), np.full(n, 0.15), 0.5, 0.25, np.ones(n),
            "lower")


@settings(max_examples=300, deadline=None)
@given(sweeps())
def test_bracket_gives_the_loop_bits_when_it_decides(case):
    """Each coordinate the bracket decides holds the reference's bits before
    the loop runs; the undecided indices rise."""
    h1, q, x, b, eta, omega, e, ktag = case
    dense = isinstance(h1, DenseMatrix)
    with pytest.MonkeyPatch.context() as mp:
        log = bracket_log(mp)
        implicit_sweep(*case)
    want = reference_sweep(*case)
    if ktag == "upper":  # the plan's coordinates
        want = want[::-1]
    finite = np.isfinite(h1.matvec(x) + q).all()
    assert len(log) == (not dense and finite)
    event("dense" if dense else "non-finite" if not finite else
          f"decided {outcomes(log, h1.n)[0]}")
    for x_new, undecided in log:
        undecided = list(undecided)
        assert undecided == sorted(set(undecided))
        decided = np.ones(h1.n, dtype=bool)
        decided[undecided] = False
        assert_same_bits(x_new[decided], want[decided])


@pytest.mark.parametrize("case, decides", [(mixed_sign_sweep(), "all"),
                                           (signed_zero_sweep(), None),
                                           (interior_obstacle_sweep(), "part")],
                         ids=["mixed-sign", "signed-zero", "ex55-g8-interior"])
@pytest.mark.parametrize("exponent", [0, 16])
def test_bracket_examples_give_the_loop_bits(case, decides, exponent, monkeypatch):
    """decides: how much of the sweep the bracket decides, None if the sweep
    never enters it. The sweep is linear in (q, x, b) and every rounding
    here stays in the normal range or underflows to zero at either scale,
    so scaling them by 2**exponent scales the loop's bits exactly and leaves
    what the bracket decides unchanged."""
    h1, q, x, b, eta, omega, e, ktag = case
    unscaled = reference_sweep(*case)
    case = (h1, np.ldexp(q, exponent), np.ldexp(x, exponent), np.ldexp(b, exponent),
            eta, omega, e, ktag)
    log = bracket_log(monkeypatch)
    got = implicit_sweep(*case)
    want = reference_sweep(*case)
    assert_same_bits(want, np.ldexp(unscaled, exponent))
    assert outcomes(log, h1.n) == ([] if decides is None else [decides])
    assert_same_bits(got, want)
    if decides is None:
        assert np.signbit(want[1]) and want[1] == 0.0


def test_bracket_that_overflows_falls_back_without_a_warning(monkeypatch):
    """The bracket gives up on the overflow silently and the loop, whose
    Python floats warn nothing, runs."""
    case = overflowing_sweep()
    log = bracket_log(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = implicit_sweep(*case)
    assert outcomes(log, case[0].n) == ["none"]
    assert_same_bits(got, reference_sweep(*case))


def scalar_method33(monkeypatch, problem, ktag):
    monkeypatch.setattr(solvers, "implicit_sweep",
                        lambda *args, plan=None: reference_sweep(*args))
    return method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                    cfg=IterationConfig(tol=1e-6))


@pytest.mark.parametrize("ktag", ["lower", "upper"])
@pytest.mark.parametrize("make, first", [(lambda: gen_example52(2000), "all"),
                                         (lambda: gen_example55(40), "part")],
                         ids=["ex52-n2000", "ex55-g40"])
def test_method33_paper_cells_match_scalar_loop(make, first, ktag, monkeypatch):
    """The bracket decides every sweep but Ex 5.5's first, from x = 0."""
    problem = make().problem
    log = bracket_log(monkeypatch)
    rep = method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                   cfg=IterationConfig(tol=1e-6))
    ref = scalar_method33(monkeypatch, problem, ktag)
    assert rep.status == ref.status == "Converged"
    assert rep.iterations == ref.iterations == len(log) == 17
    assert outcomes(log, problem.n) == [first] + ["all"] * 16
    assert_same_bits(rep.y_final, ref.y_final)


@pytest.mark.parametrize("ktag", ["lower", "upper"])
def test_first_ex55_sweep_is_partly_decided_and_finished_by_the_loop(ktag, monkeypatch):
    """Ex 5.5 g = 40 from x = 0: the bracket decides part of the first sweep,
    and the loop gives the rest the reference's bits from the decided
    deltas, visiting the undecided coordinates in sweep order."""
    problem = gen_example55(40).problem
    n = problem.n
    case = (problem.H1, problem.q, np.zeros(n), problem.b, 0.5, 0.25, np.ones(n), ktag)
    log = bracket_log(monkeypatch)
    got = implicit_sweep(*case)
    assert outcomes(log, n) == ["part"]
    assert_same_bits(got, reference_sweep(*case))


@pytest.mark.parametrize("ktag", ["lower", "upper"])
@pytest.mark.parametrize("make", [lambda: gen_example52(2000), lambda: gen_example55(40)],
                         ids=["ex52-n2000", "ex55-g40"])
def test_method33_paper_cells_exact_kernels_match_scalar_loop(make, ktag, monkeypatch):
    """The paper cells with the bracket deciding nothing: every sweep runs
    the whole loop."""
    problem = make().problem
    without_bracket(monkeypatch)
    rep = method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                   cfg=IterationConfig(tol=1e-6))
    ref = scalar_method33(monkeypatch, problem, ktag)
    assert rep.status == ref.status == "Converged"
    assert rep.iterations == ref.iterations == 17
    assert_same_bits(rep.y_final, ref.y_final)


@pytest.mark.parametrize("ktag", ["lower", "upper"])
def test_method33_interior_tridiagonal_solve_falls_back_to_the_loop(ktag, monkeypatch):
    """Ex 5.2's H1 with q = -H1 x* for x* inside the box: the bracket decides
    only the few coordinates its clamps pin, so the solve tries it twice, has
    the loop finish those sweeps and runs the whole loop on every other."""
    gen = gen_example52(2000).problem
    x_star = np.random.default_rng(0).uniform(0.2, 0.8, gen.n)
    problem = Ehlcp2Problem(gen.H1, -gen.H1.matvec(x_star), np.ones(gen.n))
    log = bracket_log(monkeypatch)
    rep = method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                   cfg=IterationConfig(tol=1e-6))
    assert outcomes(log, problem.n) == ["part", "part"]
    ref = scalar_method33(monkeypatch, problem, ktag)
    assert rep.status == ref.status == "Converged"
    assert rep.iterations == ref.iterations > 2
    assert_same_bits(rep.y_final, ref.y_final)


@pytest.mark.parametrize("ktag", ["lower", "upper"])
def test_method33_stops_bracketing_after_two_undecided_sweeps(ktag, monkeypatch):
    """With b = 10e the Ex 5.5 g = 40 solution lies inside the box, so the
    bracket decides no sweep fully: the solve tries two, each finished by the
    loop, and runs the whole loop on the rest."""
    gen = gen_example55(40).problem
    problem = Ehlcp2Problem(gen.H1, gen.q, np.full(gen.n, 10.0))
    log = bracket_log(monkeypatch)
    rep = method33(problem, eta=0.5, omega_relax=0.25, ktag=ktag,
                   cfg=IterationConfig(tol=1e-6))
    ref = scalar_method33(monkeypatch, problem, ktag)
    assert outcomes(log, problem.n) == ["part", "part"]
    assert rep.status == ref.status == "Converged"
    assert rep.iterations == ref.iterations > 2
    assert_same_bits(rep.y_final, ref.y_final)
