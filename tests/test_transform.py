import numpy as np
import pytest

from conftest import random_ladder
from ehlcp import (BlockMatrixSet, BoundLadder, EhlcpProblem, EhlcpSolution,
                   InfeasibleTuple, gen_example52, gen_example53,
                   identity_matrix, pls_residual, reconstruct_y,
                   recover_solution, selection_matrices, sum_identity)
from ehlcp.transform import (DiagonalSelection, _x_pieces, feasibility_violations,
                             residual_of_tuple, transformation_pieces)


def ladder1(*d):
    d = tuple(np.asarray(v, dtype=float) for v in d)
    n = 1 if not d else d[0].shape[0]
    return BoundLadder(d, n)


def test_recover_negative_branch():
    sol = recover_solution(np.array([-2.0]), ladder1([1.0]))
    assert np.array_equal(sol.w, [2.0])
    assert np.array_equal(sol.x[0], [0.0])
    assert np.array_equal(sol.x[1], [0.0])


def test_recover_saturated_middle_segment():
    sol = recover_solution(np.array([1.7]), ladder1([1.0]))
    assert np.array_equal(sol.w, [0.0])
    assert np.array_equal(sol.x[0], [1.0])
    assert np.allclose(sol.x[1], [0.7])


def test_recover_example52_prescribed():
    gen = gen_example52(6)
    sol = recover_solution(gen.prescribed.y_star, gen.problem.as_general().ladder)
    assert np.allclose(sol.w, gen.prescribed.solution.w)
    for got, want in zip(sol.x, gen.prescribed.solution.x):
        assert np.allclose(got, want)


def test_recover_m1_degenerates():
    y = np.array([-1.5, 0.0, 2.5])
    sol = recover_solution(y, BoundLadder((), 3))
    assert np.array_equal(sol.w, np.maximum(0.0, -y))
    assert len(sol.x) == 1
    assert np.array_equal(sol.x[0], np.maximum(0.0, y))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_x_pieces_have_the_bits_of_recover_solution(m):
    """The x pieces fixed-point updates take alone: signed zeros, y at each
    breakpoint 0, 0.5 and 0.75, and y far outside the ladder."""
    y = np.array([-0.0, 0.0, 0.5, 0.75, 0.3, 0.6, 2.0, 1e300, -1e300])
    ladder = BoundLadder((np.full(9, 0.5), np.full(9, 0.25))[:m - 1], 9)
    pieces = _x_pieces(y, ladder)
    want = recover_solution(y, ladder).x
    assert len(pieces) == len(want) == m
    for got, x in zip(pieces, want):
        np.testing.assert_array_equal(got.view(np.int64), x.view(np.int64))


def test_reconstruct_examples():
    lad = ladder1([1.0])
    y = reconstruct_y(EhlcpSolution(np.array([2.0]),
                                    (np.array([0.0]), np.array([0.0]))), lad)
    assert np.array_equal(y, [-2.0])
    y = reconstruct_y(EhlcpSolution(np.array([0.0]),
                                    (np.array([1.0]), np.array([0.7]))), lad)
    assert np.allclose(y, [1.7])
    y = reconstruct_y(EhlcpSolution(np.array([0.0]),
                                    (np.array([0.5]), np.array([0.0]))), lad)
    assert np.array_equal(y, [0.5])


def test_reconstruct_rejects_infeasible():
    lad = ladder1([1.0])
    with pytest.raises(InfeasibleTuple):
        reconstruct_y(EhlcpSolution(np.array([1.0]),
                                    (np.array([1.0]), np.array([0.0]))), lad)
    with pytest.raises(InfeasibleTuple):
        reconstruct_y(EhlcpSolution(np.array([0.0]),
                                    (np.array([2.0]), np.array([0.0]))), lad)


def test_roundtrip_recover_reconstruct(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        lad = random_ladder(rng, n)
        y = rng.uniform(-10, 10, n)
        sol = recover_solution(y, lad)
        again = recover_solution(reconstruct_y(sol, lad), lad)
        assert np.allclose(again.w, sol.w, atol=1e-12)
        for a, b in zip(again.x, sol.x):
            assert np.allclose(a, b, atol=1e-12)


def test_feasibility_violations_zero_for_recovered(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        lad = random_ladder(rng, n)
        sol = recover_solution(rng.uniform(-10, 10, n), lad)
        assert all(v == 0.0 for v in feasibility_violations(sol, lad).values())


def test_pls_residual_example53():
    gen = gen_example53(1.0)
    rep = pls_residual(gen.problem, np.array([-1.0, 1.0]))
    assert np.allclose(rep.r, 0.0, atol=1e-15)
    rep = pls_residual(gen.problem, np.array([3.0, -7.0]))
    assert rep.norms["inf"] == pytest.approx(4.0, abs=1e-14)


def test_pls_residual_identity_case(rng):
    n = 4
    eye = identity_matrix(n)
    problem = EhlcpProblem(BlockMatrixSet(eye, (eye,)), np.zeros(n),
                           BoundLadder((), n))
    y = rng.standard_normal(n)
    rep = pls_residual(problem, y)
    assert np.allclose(rep.r, y, atol=1e-15)


def test_pls_residual_same_arithmetic_path():
    gen = gen_example52(8)
    problem = gen.problem.as_general()
    y = np.linspace(-0.3, 0.3, 8)
    rep = pls_residual(problem, y)
    direct = residual_of_tuple(problem.blocks, problem.q,
                               recover_solution(y, problem.ladder))
    assert np.array_equal(rep.r, direct)


def test_sum_identity_examples():
    lhs, rhs = sum_identity(np.array([1.7]), ladder1([1.0]))
    assert np.allclose(lhs, [1.7]) and np.allclose(rhs, [1.7])
    lhs, rhs = sum_identity(np.array([-3.0]), ladder1([1.0]))
    assert np.array_equal(lhs, [0.0]) and np.array_equal(rhs, [0.0])


def test_sum_identity_random(rng):
    for _ in range(300):
        n = int(rng.integers(1, 7))
        lad = random_ladder(rng, n)
        y = rng.uniform(-10, 10, n)
        lhs, rhs = sum_identity(y, lad)
        target = np.maximum(0.0, y)
        assert np.allclose(lhs, target, atol=1e-12)
        assert np.allclose(rhs, target, atol=1e-12)


def test_selection_examples_m1():
    lad = BoundLadder((), 1)
    sel = selection_matrices(np.array([1.0]), np.array([-1.0]), lad)
    assert np.allclose(sel.lambdas.ravel(), [0.5, 0.5])
    sel = selection_matrices(np.array([2.0]), np.array([1.0]), lad)
    assert np.allclose(sel.lambdas.ravel(), [0.0, 1.0])
    sel = selection_matrices(np.array([-1.0]), np.array([-3.0]), lad)
    assert np.allclose(sel.lambdas.ravel(), [1.0, 0.0])


def test_selection_identity_and_simplex(rng):
    for _ in range(300):
        n = int(rng.integers(1, 6))
        lad = random_ladder(rng, n)
        m = lad.m
        y = rng.uniform(-6, 6, n)
        yref = rng.uniform(-6, 6, n)
        if rng.uniform() < 0.2:
            yref = y.copy()  # exercise the tie convention
        sel = selection_matrices(y, yref, lad)
        lam = sel.lambdas
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
        assert np.allclose(lam.sum(axis=0), 1.0, atol=1e-12)
        h = rng.uniform(-3, 3, (m + 1, 1))
        lhs = (h * (transformation_pieces(y, lad)
                    - transformation_pieces(yref, lad))).sum(axis=0)
        rhs = (h * lam).sum(axis=0) * (y - yref)
        assert np.allclose(lhs, rhs, atol=1e-10 * (1.0 + np.abs(lhs).max()))


def test_selection_chain_monotone(rng):
    # nu_i = sum_{l >= i} lambda_l must decrease in i; equivalent to lambda >= 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        lad = random_ladder(rng, n, max_m=4)
        sel = selection_matrices(rng.uniform(-6, 6, n), rng.uniform(-6, 6, n), lad)
        nus = np.cumsum(sel.lambdas[::-1], axis=0)[::-1]
        for i in range(1, nus.shape[0]):
            assert np.all(nus[i] <= nus[i - 1] + 1e-14)


def test_diagonal_selection_rejects_a_vector():
    with pytest.raises(ValueError, match=r"lambdas must be a \(m\+1, n\) array"):
        DiagonalSelection(np.ones(3))
