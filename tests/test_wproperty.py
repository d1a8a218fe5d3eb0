import numpy as np
import pytest

from conftest import counter_order, random_dominant_problem
from ehlcp import (BlockMatrixSet, BoundLadder, BudgetExceeded, DenseMatrix,
                   EhlcpProblem, InvalidParams, TridiagonalMatrix, falsify_random,
                   gen_example51, gen_example53, has_column_w_property,
                   identity_matrix, oracle_solve, representative)
from ehlcp import wproperty
from ehlcp.wproperty import vertex_chunks

FIRST_PAIR = BlockMatrixSet(DenseMatrix([[1.0, 0.0], [-1.0, 1.0]]),
                            (DenseMatrix([[1.0, 0.0], [2.0, 1.0]]),))
MIXED_SIGN = BlockMatrixSet(identity_matrix(1), (DenseMatrix([[-1.0]]),))


def test_representative_all_from_one_block():
    gen = gen_example51(2, 1.0, 2.0)
    blocks = gen.problem.blocks
    n = blocks.n
    assert np.allclose(representative(blocks, (0,) * n).data,
                       blocks.M.to_dense())
    assert np.allclose(representative(blocks, (1,) * n).data,
                       blocks.H[0].to_dense())


def test_representative_mixed_columns():
    r = representative(FIRST_PAIR, (0, 1))
    assert np.array_equal(r.data, [[1.0, 0.0], [-1.0, 1.0]])
    assert np.linalg.det(r.data) == pytest.approx(1.0)


def test_assignments_mixed_radix_partition(monkeypatch):
    full = counter_order(3, 2)
    assert len(full) == 27
    assert full[0] == (0, 0, 0)
    assert full[1] == (1, 0, 0)  # coordinate 0 moves fastest
    # Chunks of 4 matrices of order 3 (2 of order 4): the digits follow the
    # counter order across every chunk edge, and the chunks gather the
    # representatives.
    monkeypatch.setattr(wproperty, "CHUNK_BYTES", 4 * 8 * 3 * 3)
    rng = np.random.default_rng(4)
    for n, sizes in ((3, [4] * 6 + [3]), (4, [2] * 40 + [1])):
        blocks = BlockMatrixSet(DenseMatrix(rng.standard_normal((n, n))),
                                tuple(DenseMatrix(rng.standard_normal((n, n)))
                                      for _ in "ab"))
        chunks = list(vertex_chunks(np.stack([s.to_dense() for s in blocks.all()])))
        assert [len(d) for d, _ in chunks] == sizes
        got = [(tuple(a), r) for d, st in chunks for a, r in zip(d.tolist(), st)]
        assert [a for a, _ in got] == counter_order(n, 2)
        for a, r in got:
            assert np.array_equal(r, representative(blocks, a).data)


def test_w_property_mixed_signs_fails():
    report = has_column_w_property(MIXED_SIGN)
    assert not report.holds
    assert report.determinant_sign_range == (-1, 1)
    assert report.witness is not None


def test_w_property_first_pair_holds():
    report = has_column_w_property(FIRST_PAIR)
    assert report.holds
    assert report.representatives_checked == 4
    assert report.determinant_sign_range == (1, 1)


def test_w_property_small_grid_instance():
    gen = gen_example51(2, 5.0, 5.0)  # n = 4: 16 representatives
    report = has_column_w_property(gen.problem.blocks)
    assert report.holds
    assert report.representatives_checked == 16


def test_w_property_example53():
    for alpha in (1.0, 2.0, 5.0):
        blocks = gen_example53(alpha).problem.blocks
        assert has_column_w_property(blocks).holds


def test_w_property_zero_determinant_witness():
    blocks = BlockMatrixSet(identity_matrix(1), (DenseMatrix([[0.0]]),))
    report = has_column_w_property(blocks)
    assert not report.holds
    assert report.witness == (1,)


def test_w_property_budget():
    gen = gen_example51(4, 1.0, 1.0)  # 2^16 representatives
    with pytest.raises(BudgetExceeded):
        has_column_w_property(gen.problem.blocks, budget=1000)


def test_falsify_finds_exact_cancellation():
    witness = falsify_random(MIXED_SIGN, trials=0, seed=0)
    assert witness is not None
    assert np.allclose(witness.lambdas, 0.5)


def test_falsify_no_witness_on_good_blocks():
    assert falsify_random(FIRST_PAIR, trials=1000, seed=1) is None
    gen = gen_example51(3, 5.0, 5.0)
    assert falsify_random(gen.problem.blocks, trials=200, seed=2) is None


def test_w_property_soundness_unique_solutions(rng):
    # verified property implies a unique solution for random right-hand data
    for seed in (0, 1):
        problem, _ = random_dominant_problem(seed)
        report = has_column_w_property(problem.blocks)
        assert report.holds
        n, m = problem.n, problem.m
        for _ in range(25):
            q = rng.uniform(-2.0, 2.0, n)
            d = tuple(rng.uniform(0.3, 1.5, n) for _ in range(m - 1))
            trial = EhlcpProblem(problem.blocks, q, BoundLadder(d, n))
            assert len(oracle_solve(trial).solutions) == 1


# A NaN or infinite entry makes every determinant comparison false, which read
# as a sign of 1: the check certified M = I with M[1, 2] = NaN and H1 = 2I, and
# the oracle found no solution and no singular region. Order 0 failed inside
# numpy. A block set refuses such blocks when it is built, so no scan meets them.
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_blocks_are_refused_before_any_enumeration(bad):
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(InvalidParams, match="non-finite entries in M"):
        BlockMatrixSet(DenseMatrix(m), (DenseMatrix(2.0 * np.eye(3)),))
    band = TridiagonalMatrix([1.0, bad], [2.0, 2.0, 2.0], [0.0, 0.0])
    with pytest.raises(InvalidParams, match="non-finite entries in H2"):
        BlockMatrixSet(identity_matrix(3), (identity_matrix(3), band))


def test_blocks_of_order_zero_are_refused():
    empty = DenseMatrix(np.zeros((0, 0)))
    with pytest.raises(InvalidParams, match="order 0"):
        BlockMatrixSet(empty, (empty,))
