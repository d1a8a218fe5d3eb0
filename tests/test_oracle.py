import numpy as np
import pytest

from ehlcp import (BlockMatrixSet, BoundLadder, BudgetExceeded, DenseMatrix,
                   EhlcpProblem, gen_example52, gen_example53, has_column_w_property,
                   identity_matrix, oracle_alpha_constants, oracle_solve,
                   overalpha_estimate, sample_rho_L, underalpha_exact)
from ehlcp.blockdata import BandMatrix, EhlcpSolution
from ehlcp.transform import recover_solution


def test_oracle_example53_unique():
    gen = gen_example53(1.0)
    res = oracle_solve(gen.problem)
    assert len(res.solutions) == 1
    y, sol = res.solutions[0]
    assert np.allclose(y, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(sol.w, [1.0, 0.0], atol=1e-12)
    assert np.allclose(sol.x[0], [0.0, 1.0], atol=1e-12)
    assert res.singular_regions == 0


def test_oracle_scalar_three_regions():
    problem = EhlcpProblem(
        BlockMatrixSet(identity_matrix(1),
                       (DenseMatrix([[2.0]]), identity_matrix(1))),
        np.array([-0.5]), BoundLadder((np.array([1.0]),), 1))
    res = oracle_solve(problem)
    assert len(res.solutions) == 1
    y, sol = res.solutions[0]
    assert y[0] == pytest.approx(0.25, abs=1e-12)
    assert sol.x[0][0] == pytest.approx(0.25, abs=1e-12)


def test_oracle_zero_q_returns_zero():
    gen = gen_example53(1.0)
    problem = EhlcpProblem(gen.problem.blocks, np.zeros(2), gen.problem.ladder)
    res = oracle_solve(problem)
    assert len(res.solutions) == 1
    assert np.allclose(res.solutions[0][0], 0.0, atol=1e-12)


def test_oracle_region_pattern_consistency():
    # the accepted region's active pattern must match the recovered tuple
    problem = EhlcpProblem(
        BlockMatrixSet(identity_matrix(2),
                       (DenseMatrix([[2.0, 0.1], [0.0, 1.5]]),
                        identity_matrix(2))),
        np.array([-0.5, 0.8]), BoundLadder((np.array([1.0, 0.5]),), 2))
    res = oracle_solve(problem)
    for y, sol in res.solutions:
        again = recover_solution(y, problem.ladder)
        assert np.allclose(again.w, sol.w, atol=1e-12)
        for a, b in zip(again.x, sol.x):
            assert np.allclose(a, b, atol=1e-12)


def test_oracle_without_w_property_counts():
    # M = I, H1 = -I: q = 1 admits two solutions, q = -1 admits none
    blocks = BlockMatrixSet(identity_matrix(1), (DenseMatrix([[-1.0]]),))
    ladder = BoundLadder((), 1)
    res = oracle_solve(EhlcpProblem(blocks, np.array([1.0]), ladder))
    assert len(res.solutions) == 2
    res = oracle_solve(EhlcpProblem(blocks, np.array([-1.0]), ladder))
    assert len(res.solutions) == 0


def test_oracle_budget():
    gen = __import__("ehlcp").gen_example51(5, 1.0, 1.0)
    with pytest.raises(BudgetExceeded):
        oracle_solve(gen.problem, budget=100)


def test_oracle_alpha_constants():
    eye = identity_matrix(2)
    under, over = oracle_alpha_constants(BlockMatrixSet(eye, (eye,)))
    assert under == pytest.approx(1.0)
    assert over == pytest.approx(1.0)
    blocks = gen_example53(1.0).problem.blocks
    under, over = oracle_alpha_constants(blocks, "inf")
    assert over == pytest.approx(2.0)  # matches the closed-form bound constant
    assert under == pytest.approx(2.0)


def test_budget_messages_name_the_count_at_paper_size():
    # 3^10000 has more than the 4,300 digits Python turns into a string.
    problem = gen_example52(10000).problem.as_general()
    calls = [lambda: oracle_solve(problem),
             lambda: oracle_alpha_constants(problem.blocks),
             lambda: underalpha_exact(problem.blocks, "inf"),
             lambda: has_column_w_property(problem.blocks)]
    for call in calls:
        with pytest.raises(BudgetExceeded, match=r"\(m\+1\)\^n = 3\^10000 "):
            call()


def test_budget_admits_exactly_the_vertex_count():
    # (m+1)^n = 3^4 = 81 vertices: a budget of 81 runs them, one of 80 does not
    problem = gen_example52(4).problem.as_general()
    blocks, total = problem.blocks, 3 ** 4
    calls = [lambda budget: has_column_w_property(blocks, budget=budget),
             lambda budget: oracle_solve(problem, budget=budget),
             lambda budget: underalpha_exact(blocks, "inf", budget=budget)]
    for call in calls:
        call(total)
        with pytest.raises(BudgetExceeded,
                           match=r"^\(m\+1\)\^n = 3\^4 vertices exceed budget 80$"):
            call(total - 1)
    # the sampled scans count the vertices exactly when they fit the budget
    for budget, count in ((total, total + 5), (total - 1, 5)):
        assert overalpha_estimate(blocks, samples=5, vertex_budget=budget).count == count
        assert sample_rho_L(blocks, trials=5, vertex_budget=budget).samples_used == count


def test_budget_is_refused_before_any_dense_block_is_built(monkeypatch):
    # At n = 10,000 each dense block takes 800 MB, only to be refused.
    problem = gen_example52(10000).problem.as_general()

    def refuse(self):
        raise AssertionError("a dense block was built before the budget check")

    for store in (DenseMatrix, BandMatrix):
        monkeypatch.setattr(store, "to_dense", refuse)
    calls = [lambda: oracle_solve(problem),
             lambda: oracle_alpha_constants(problem.blocks),
             lambda: underalpha_exact(problem.blocks, "inf"),
             lambda: has_column_w_property(problem.blocks)]
    for call in calls:
        with pytest.raises(BudgetExceeded):
            call()
