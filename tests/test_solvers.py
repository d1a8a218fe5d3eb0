import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from conftest import random_dominant_problem, row_scaled
from ehlcp import (BlockMatrixSet, BoundLadder, DenseMatrix, Ehlcp2Problem,
                   EhlcpProblem, InvalidParams, IterationConfig,
                   LinearOperatorFactor, SingularM, gen_example51,
                   gen_example52, gen_example53, gen_example55, identity_matrix,
                   implicit_sweep, method31, method32, method33,
                   recover_solution)
from ehlcp.blockdata import (BandMatrix, BlockTridiagonalMatrix, TridiagonalMatrix,
                             entrywise)
from ehlcp.bounds import split_diagonal
from ehlcp.solvers import _check_info
from ehlcp.transform import feasibility_violations


def test_factor_accuracy_per_layout(rng):
    stores = [
        DenseMatrix(np.eye(6) * 4 + rng.uniform(-0.5, 0.5, (6, 6))),
        TridiagonalMatrix.constant(50, 1.0, 4.0, -2.0),
        BlockTridiagonalMatrix(7, -1.0,
                               TridiagonalMatrix.constant(7, -1.0, 5.0, -1.0), -1.0),
    ]
    for store in stores:
        factor = LinearOperatorFactor(store)
        for _ in range(3):
            rhs = rng.standard_normal(store.n)
            z = factor.solve(rhs)
            res = np.max(np.abs(store.matvec(z) - rhs))
            assert res <= 1e-10 * (1.0 + np.max(np.abs(rhs)))
            zt = factor.solve_transposed(rhs)
            rest = np.max(np.abs(store.rmatvec(zt) - rhs))
            assert rest <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


def test_factor_rejects_singular():
    with pytest.raises(SingularM):
        LinearOperatorFactor(DenseMatrix(np.zeros((3, 3))))
    with pytest.raises(SingularM):
        LinearOperatorFactor(TridiagonalMatrix.constant(4, 0.0, 0.0, 0.0))
    # the path graph's Laplacian: symmetric, positive semidefinite, A 1 = 0
    diag = np.full(6, 2.0)
    diag[[0, -1]] = 1.0
    with pytest.raises(SingularM):
        LinearOperatorFactor(TridiagonalMatrix(-np.ones(5), diag, -np.ones(5)))
    # a non-finite entry, in either layout
    diag[2] = np.nan
    for store in (DenseMatrix(np.diag(diag)), TridiagonalMatrix(-np.ones(5), diag, -np.ones(5))):
        with pytest.raises(SingularM):
            LinearOperatorFactor(store)


def test_check_info_raises_on_an_illegal_argument():
    # the f2py wrappers' shape checks keep LAPACK from returning info < 0
    with pytest.raises(ValueError, match="^illegal argument 2 to dense solve$"):
        _check_info(-2, "dense solve")
    _check_info(0, "dense solve")


def test_order_zero_store_raises_typed_error_without_lapack_output(capfd):
    # LAPACK's getrf prints to stderr on an order-0 argument: the check must
    # come first, in both layouts, and a solver's problem of order 0 is
    # refused when its block set is built
    for store in (DenseMatrix(np.zeros((0, 0))), BandMatrix((0,), np.zeros((1, 0)))):
        with pytest.raises(InvalidParams):
            LinearOperatorFactor(store)
    empty = DenseMatrix(np.zeros((0, 0)))
    with pytest.raises(InvalidParams, match="^order n must be >= 1"):
        BlockMatrixSet(empty, (empty,))
    assert capfd.readouterr().err == ""


def test_dense_factor_matches_scipy_lu_bit_for_bit(rng):
    # scipy's checked wrappers call the same getrf/getrs: they are the reference
    for n in (1, 2, 3, 5, 8, 40):
        store = DenseMatrix(rng.standard_normal((n, n)))
        before = store.data.copy()
        factor = LinearOperatorFactor(store)
        lu, piv = lu_factor(before)
        assert np.array_equal(factor._impl._lu, lu)
        assert np.array_equal(factor._impl._piv, piv)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            assert np.array_equal(factor.solve(rhs), lu_solve((lu, piv), rhs))
            assert np.array_equal(factor.solve_transposed(rhs),
                                  lu_solve((lu, piv), rhs, trans=1))
        assert np.array_equal(store.data, before)


def _cholesky_route(factor):
    return factor._impl._chol is not None


def _assert_solves_match_dense(store, factor, rhs, rel):
    want = np.linalg.solve(store.to_dense(), rhs)
    want_t = np.linalg.solve(store.to_dense().T, rhs)
    assert np.max(np.abs(factor.solve(rhs) - want)) <= rel * np.max(np.abs(want))
    assert np.max(np.abs(factor.solve_transposed(rhs) - want_t)) <= rel * np.max(np.abs(want_t))


def _i_minus_x(blocks):
    """bound42's I - X: X is the entrywise max of Lambda_i^{-1} |C_i|."""
    split = split_diagonal(blocks)
    x = entrywise(np.maximum.reduce,
                  [row_scaled(s.rebuilt(np.zeros(blocks.n), np.abs), 1.0 / lam)
                   for lam, s in zip(split.Lambda, blocks.all())])
    return x.rebuilt(1.0 - x.diagonal(), np.negative)


def test_spd_band_stores_take_the_cholesky_route(rng):
    m_fp31 = gen_example51(20, 4.0, 4.0).problem.blocks.M
    table2 = _i_minus_x(gen_example51(20, 5.0, 5.0).problem.blocks)  # mu = 5, n = 400
    for store in (m_fp31, table2, identity_matrix(3)):
        factor = LinearOperatorFactor(store)
        assert _cholesky_route(factor)
        _assert_solves_match_dense(store, factor, rng.standard_normal(store.n), 1e-12)
        _assert_solves_match_dense(store, factor, rng.standard_normal((store.n, 3)), 1e-12)


def test_symmetric_indefinite_or_one_ulp_off_band_stores_take_lu(rng):
    # tridiag(1, 0.5, 1): eigenvalues 0.5 + 2 cos(k pi / 41), both signs, none 0
    indefinite = TridiagonalMatrix.constant(40, 1.0, 0.5, 1.0)
    # Ex 5.1's M with one entry of its +g diagonal one ulp off its mirror
    offsets, data = zip(*gen_example51(6, 4.0, 4.0).problem.blocks.M.diagonals())
    data = np.array(data)
    k = offsets.index(6)
    data[k, 10] = np.nextafter(data[k, 10], 0.0)
    for store in (indefinite, BandMatrix(offsets, data)):
        factor = LinearOperatorFactor(store)
        assert not _cholesky_route(factor)
        _assert_solves_match_dense(store, factor, rng.standard_normal(store.n), 1e-12)


@st.composite
def symmetric_band_stores(draw):
    """(store, dominant): a random symmetric band store; the indefinite ones
    have a negative diagonal entry, so they are never positive definite."""
    n = draw(st.integers(2, 30))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    dominant = draw(st.booleans())
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for o in sorted(rng.choice(np.arange(1, n), size=min(n - 1, 3), replace=False)):
        a += np.diag(rng.uniform(-1.0, 1.0, n - o), o)
    a += a.T
    if dominant:
        diag = np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, n)
    else:
        diag = rng.uniform(-2.0, 2.0, n)
        diag[rng.integers(n)] = -rng.uniform(0.1, 2.0)
    np.fill_diagonal(a, diag)
    offsets = [o for o in range(1 - n, n) if np.any(np.diagonal(a, o))]
    data = [np.pad(np.diagonal(a, o), (max(o, 0), max(-o, 0))) for o in offsets]
    return BandMatrix(offsets, data), dominant


@settings(max_examples=100, deadline=None)
@given(symmetric_band_stores(), st.integers(0, 2 ** 32 - 1))
def test_symmetric_band_store_routes_and_solves(drawn, seed):
    store, dominant = drawn
    factor = LinearOperatorFactor(store)  # random entries: singular with probability 0
    assert _cholesky_route(factor) == dominant
    a = store.to_dense()
    rhs = np.random.default_rng(seed).standard_normal(store.n)
    scale = np.abs(a).sum(axis=1).max()
    for x in (factor.solve(rhs), factor.solve_transposed(rhs)):
        # backward error: both factorizations are backward stable here
        residual = np.max(np.abs(a @ x - rhs))
        assert residual <= 1e-12 * (scale * np.max(np.abs(x)) + np.max(np.abs(rhs)))


def test_method31_identity_collapses():
    n = 2
    eye = identity_matrix(n)
    problem = EhlcpProblem(BlockMatrixSet(eye, (eye,)),
                           np.array([0.3, -0.4]), BoundLadder((), n))
    rep = method31(problem)
    assert rep.status == "Converged"
    assert np.allclose(rep.y_final, [-0.3, 0.4], atol=1e-15)
    assert rep.iterations <= 2


def test_method31_fixed_point_consistency():
    gen = gen_example51(3, 5.0, 5.0)
    y_star = gen.prescribed.y_star
    rep = method31(gen.problem, y0=y_star, cfg=IterationConfig(max_iter=1))
    assert np.max(np.abs(rep.y_final - y_star)) <= 1e-12 * (1 + np.max(np.abs(y_star)))


def test_method31_matches_oracle_on_grid():
    from ehlcp import oracle_solve
    gen = gen_example51(3, 5.0, 5.0)  # n = 9: 512 regions, enumerable
    res = oracle_solve(gen.problem)
    assert len(res.solutions) == 1
    rep = method31(gen.problem, cfg=IterationConfig(tol=1e-10))
    assert rep.status == "Converged"
    assert np.max(np.abs(rep.y_final - res.solutions[0][0])) <= 1e-8


def test_method31_diverges_with_guard():
    n = 2
    problem = EhlcpProblem(
        BlockMatrixSet(identity_matrix(n), (DenseMatrix(-3 * np.eye(n)),)),
        np.array([-1.0, -1.0]), BoundLadder((), n))
    rep = method31(problem, cfg=IterationConfig(max_iter=1000))
    assert rep.status == "Diverged"


def test_nonfinite_iterate_diverges_where_it_appears():
    gen = gen_example52(10)
    q = gen.problem.q.copy()
    q[3] = np.nan
    e2 = Ehlcp2Problem(gen.problem.H1, q, gen.problem.b)
    cfg = IterationConfig(max_iter=500)
    reports = [method31(e2.as_general(), cfg=cfg), method32(e2, 4.0, cfg=cfg),
               method33(e2, eta=0.5, omega_relax=0.25, cfg=cfg),
               # a dense M: the NaN comes back from its solve, as from a band one
               method31(gen_example53(1.0).problem, y0=[np.nan, 0.0], cfg=cfg)]
    for rep in reports:
        assert rep.status == "Diverged"
        assert rep.iterations == 1


@pytest.mark.parametrize("shape", [(9,), (11,), (10, 1), ()], ids=str)
@pytest.mark.parametrize("method", ["method31", "method32", "method33"])
def test_start_of_the_wrong_shape_is_invalid(method, shape):
    """A start of any shape but (n,) is a typed error, not numpy's
    broadcasting ValueError; a NaN start of the right shape still diverges."""
    problem = gen_example52(10).problem
    run = {"method31": lambda start: method31(problem.as_general(), y0=start),
           "method32": lambda start: method32(problem, 4.0, y0=start),
           "method33": lambda start: method33(problem, eta=0.5, omega_relax=0.25,
                                              x10=start)}[method]
    with pytest.raises(InvalidParams, match="shape"):
        run(np.zeros(shape))
    assert run(np.full(10, np.nan)).status == "Diverged"


def test_method31_max_iter_status():
    gen = gen_example51(3, 1.0, 1.0)
    rep = method31(gen.problem, cfg=IterationConfig(max_iter=1, tol=1e-14))
    assert rep.status == "MaxIterReached"
    assert rep.iterations == 1


def test_method32_scalar_problem():
    problem = Ehlcp2Problem(DenseMatrix([[2.0]]), np.array([-0.5]), np.array([1.0]))
    rep = method32(problem, 2.0)
    assert rep.status == "Converged"
    assert rep.y_final[0] == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(rep.solution.w, 0.0)
    assert rep.solution.x[0][0] == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(rep.solution.x[1], 0.0)
    assert rep.residual_norm <= 1e-12


def test_method32_example54_small():
    gen = gen_example52(200)
    rep = method32(gen.problem, 4.0)
    assert rep.status == "Converged"
    assert rep.iterations == 3
    assert np.allclose(rep.solution.w, gen.prescribed.solution.w, atol=1e-9)
    assert np.allclose(rep.solution.x[0], gen.prescribed.solution.x[0], atol=1e-9)
    assert np.allclose(rep.solution.x[1], gen.prescribed.solution.x[1], atol=1e-9)


def test_method32_diagonal_omega():
    gen = gen_example52(50)
    omega = np.full(50, 4.0)
    rep = method32(gen.problem, omega)
    assert rep.status == "Converged"
    assert np.allclose(rep.solution.w, gen.prescribed.solution.w, atol=1e-9)


def test_method32_rejects_bad_omega():
    gen = gen_example52(10)
    with pytest.raises(InvalidParams):
        method32(gen.problem, -1.0)
    with pytest.raises(InvalidParams):
        method32(gen.problem, np.zeros(10))


def test_method32_error_contraction():
    # iterate error contracts by ||.|H1/omega - I|.||_inf = 3/4 on this family
    gen = gen_example52(30)
    w_star = gen.prescribed.solution.w
    x2_star = gen.prescribed.solution.x[1]
    x1_star = gen.prescribed.solution.x[0]
    omega = 4.0
    y_star = np.where(w_star > 0, -w_star / omega,
                      np.where(x2_star > 0, gen.problem.b + x2_star / omega, x1_star))
    # fixed-point consistency: one step from the scaled solution stays put
    rep = method32(gen.problem, omega, y0=y_star, cfg=IterationConfig(max_iter=1))
    assert np.max(np.abs(rep.y_final - y_star)) <= 1e-12 * (1 + np.max(np.abs(y_star)))
    rho_hat = 0.75
    y = np.full(30, 3.0)
    err = np.max(np.abs(y - y_star))
    for _ in range(12):
        rep = method32(gen.problem, omega, y0=y, cfg=IterationConfig(max_iter=1))
        y = rep.y_final
        new_err = np.max(np.abs(y - y_star))
        assert new_err <= rho_hat * err + 1e-13
        err = new_err
        if err == 0.0:
            break


def test_method33_scalar_fixed_point():
    problem = Ehlcp2Problem(DenseMatrix([[2.0]]), np.array([-0.5]), np.array([1.0]))
    rep = method33(problem, eta=1.0, omega_relax=0.25,
                   cfg=IterationConfig(tol=1e-12))
    assert rep.status == "Converged"
    assert rep.solution.x[0][0] == pytest.approx(0.25, abs=1e-10)


def test_method33_param_validation():
    problem = Ehlcp2Problem(DenseMatrix([[2.0]]), np.array([-0.5]), np.array([1.0]))
    with pytest.raises(InvalidParams):
        method33(problem, eta=0.0, omega_relax=0.25)
    with pytest.raises(InvalidParams):
        method33(problem, eta=1.5, omega_relax=0.25)
    with pytest.raises(InvalidParams):
        method33(problem, eta=0.5, omega_relax=0.0)
    with pytest.raises(InvalidParams):
        method33(problem, eta=0.5, omega_relax=np.nan)
    with pytest.raises(InvalidParams):
        method33(problem, eta=0.5, omega_relax=0.25, x10=np.array([2.0]))


def test_sweep_equals_explicit_when_K_zero():
    # upper-bidiagonal H1 has an empty strictly lower part
    n = 6
    h1 = TridiagonalMatrix(np.zeros(n - 1), np.full(n, 4.0), np.full(n - 1, -2.0))
    rng = np.random.default_rng(7)
    q = rng.uniform(-1, 1, n)
    b = np.full(n, 0.5)
    x = rng.uniform(0, 0.5, n)
    eta, om, e = 0.7, 0.3, np.ones(n)
    got = implicit_sweep(h1, q, x, b, eta, om, e, "lower")
    explicit = eta * np.clip(x - om * (h1.matvec(x) + q), 0.0, b) + (1 - eta) * x
    assert np.allclose(got, explicit, atol=1e-15)


def test_sweep_uses_updated_coordinates():
    # n = 2, strictly lower K: coordinate 2 must see the updated coordinate 1
    h1 = DenseMatrix(np.array([[2.0, 0.0], [1.0, 2.0]]))
    q = np.array([-0.5, -0.5])
    b = np.array([1.0, 1.0])
    x = np.array([0.0, 0.0])
    eta, om, e = 1.0, 0.25, np.ones(2)
    got = implicit_sweep(h1, q, x, b, eta, om, e, "lower")
    x0_new = np.clip(x[0] - om * (2 * x[0] + q[0]), 0, 1)
    corr = 1.0 * (x0_new - x[0])
    x1_new = np.clip(x[1] - om * (x[0] * 1 + 2 * x[1] + q[1] + corr), 0, 1)
    assert got[0] == pytest.approx(x0_new, abs=1e-15)
    assert got[1] == pytest.approx(x1_new, abs=1e-15)


@pytest.mark.parametrize("eta, omega_relax, ktag", [
    (0.5, 0.25, "Lower"), (0.0, 0.25, "lower"), (0.5, 0.0, "lower"),
], ids=["ktag-Lower", "eta-zero", "omega-zero"])
def test_implicit_sweep_rejects_bad_arguments(eta, omega_relax, ktag):
    n = 6
    h1 = TridiagonalMatrix.constant(n, 1.0, 4.0, -2.0)
    with pytest.raises(InvalidParams):
        implicit_sweep(h1, np.zeros(n), np.zeros(n), np.ones(n), eta, omega_relax,
                       np.ones(n), ktag)


def _inner_iteration_oracle(h1, q, x, b, eta, om, e, ktag, tol=1e-12):
    # resolve the implicit update by fixed-point inner iteration on the sweep map
    hd = h1.to_dense()
    n = h1.n
    k_mat = np.tril(hd, -1) if ktag == "lower" else np.triu(hd, 1)
    g = hd @ x + q
    x_new = x.copy()
    for _ in range(10000):
        rhs = x - om * e * (g + k_mat @ (x_new - x))
        nxt = eta * np.clip(rhs, 0.0, b) + (1 - eta) * x
        if np.max(np.abs(nxt - x_new)) < tol:
            return nxt
        x_new = nxt
    return x_new


def test_sweep_matches_inner_iteration_oracle():
    rng = np.random.default_rng(3)
    for gen in (gen_example52(30), gen_example55(3)):
        p = gen.problem
        n = p.n
        x = rng.uniform(0.0, 0.1, n)
        e = rng.uniform(0.5, 2.0, n)
        for ktag in ("lower", "upper"):
            got = implicit_sweep(p.H1, p.q, x, p.b, 0.5, 0.25, e, ktag)
            want = _inner_iteration_oracle(p.H1, p.q, x, p.b, 0.5, 0.25, e, ktag)
            assert np.allclose(got, want, atol=1e-10)


def test_method33_blocktridiagonal_runs():
    gen = gen_example55(6)
    rep = method33(gen.problem, eta=0.5, omega_relax=0.25)
    assert rep.status == "Converged"
    assert np.allclose(rep.solution.x[0], gen.prescribed.solution.x[0], atol=1e-5)


def test_solution_certificate_on_random_instances():
    for seed in range(12):
        problem, e2 = random_dominant_problem(seed)
        cfg = IterationConfig(tol=1e-10)
        reports = [method31(problem, cfg=cfg)]
        if e2 is not None:
            reports.append(method32(e2, np.asarray(e2.H1.diagonal()), cfg=cfg))
        for rep in reports:
            assert rep.status == "Converged"
            viol = feasibility_violations(rep.solution, problem.ladder)
            assert max(viol.values()) <= 10 * cfg.tol
            assert rep.residual_norm <= cfg.tol * (1 + np.max(np.abs(problem.q)))


def test_solvers_leave_data_unchanged():
    gen = gen_example52(40)
    p = gen.problem
    snap = (p.H1.sub.copy(), p.H1.diag.copy(), p.H1.sup.copy(),
            p.q.copy(), p.b.copy())
    method32(p, 4.0)
    method33(p, eta=0.5, omega_relax=0.25)
    assert np.array_equal(p.H1.sub, snap[0])
    assert np.array_equal(p.H1.diag, snap[1])
    assert np.array_equal(p.H1.sup, snap[2])
    assert np.array_equal(p.q, snap[3])
    assert np.array_equal(p.b, snap[4])


def test_step_history_recorded():
    gen = gen_example52(20)
    rep = method32(gen.problem, 4.0)
    assert len(rep.step_norms) == rep.iterations
    assert rep.step_norms[-1] < 1e-6
    assert rep.to_json()["stepNorms"] == rep.step_norms


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": np.inf}, {"tol": np.nan}, {"max_iter": 0}, {"max_iter": 2.5},
], ids=["tol-zero", "tol-inf", "tol-nan", "max-iter-zero", "max-iter-fraction"])
def test_iteration_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidParams):
        IterationConfig(**kwargs)


def test_nonfinite_residual_is_diverged():
    # an infinite q entry leaves the projected iterate finite but not the residual
    gen = gen_example52(10)
    q = gen.problem.q.copy()
    q[3] = np.inf
    problem = Ehlcp2Problem(gen.problem.H1, q, gen.problem.b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf in the residual warns nothing
        rep = method33(problem, eta=0.5, omega_relax=0.25)
    assert rep.status == "Diverged" and not np.isfinite(rep.residual_norm)
