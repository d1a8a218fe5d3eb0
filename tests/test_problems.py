import numpy as np
import pytest

from ehlcp import (BlockMatrixSet, BoundLadder, EhlcpSolution, InfeasibleTuple,
                   InvalidParams, gen_example51, gen_example52, gen_example53,
                   gen_example55, identity_matrix, oracle_solve, pls_residual,
                   prescribe_q, sdd_classify, validate)
from ehlcp.blockdata import is_symmetric


def _general(gen):
    problem = gen.problem
    return problem if hasattr(problem, "blocks") else problem.as_general()


@pytest.mark.parametrize("gen", [
    lambda: gen_example51(3, 4.0, 4.0),
    lambda: gen_example52(7),
    lambda: gen_example53(2.0),
    lambda: gen_example55(3),
])
def test_generated_problems_validate_and_solve_exactly(gen):
    g = gen()
    problem = _general(g)
    assert validate(problem).ok
    if g.prescribed is not None:
        rep = pls_residual(problem, g.prescribed.y_star)
        limit = 1e-12 * (1.0 + np.max(np.abs(problem.q)))
        assert rep.norms["inf"] <= limit


def test_example51_structure():
    g = gen_example51(2, 3.0, 1.0)
    m_dense = g.problem.blocks.M.to_dense()
    h_dense = g.problem.blocks.H[0].to_dense()
    assert np.allclose(np.diag(m_dense), 7.0)
    assert np.allclose(np.diag(h_dense), 5.0)
    # five-point block pattern on M, in-row pattern only on H1
    assert m_dense[0, 2] == -1.0 and h_dense[0, 2] == 0.0
    assert m_dense[0, 1] == -1.0 and h_dense[0, 1] == -1.0
    assert is_symmetric(g.problem.blocks.M)
    assert is_symmetric(g.problem.blocks.H[0])


def test_example51_zero_shift_symmetric():
    g = gen_example51(2, 0.0, 0.0)
    assert np.allclose(np.diag(g.problem.blocks.M.to_dense()), 4.0)


def test_example51_column_sdd_for_positive_shift():
    g = gen_example51(4, 2.0, 2.0)
    assert sdd_classify(g.problem.blocks.M).col_sdd
    assert sdd_classify(g.problem.blocks.H[0]).col_sdd
    assert np.allclose(g.prescribed.y_star[:4], [-0.1, 0.1, -0.1, 0.1])


def test_example52_band_rows():
    g = gen_example52(4)
    h = g.problem.H1.to_dense()
    assert np.array_equal(h[0], [4.0, -2.0, 0.0, 0.0])
    assert np.array_equal(h[1], [1.0, 4.0, -2.0, 0.0])
    assert np.array_equal(h[3], [0.0, 0.0, 1.0, 4.0])
    assert np.allclose(g.problem.b, 0.1)
    assert np.allclose(g.prescribed.y_star[:4], [-0.2, 0.2, -0.2, 0.2])


def test_example52_oracle_agreement():
    g = gen_example52(4)
    res = oracle_solve(g.problem.as_general())
    assert len(res.solutions) == 1
    y, sol = res.solutions[0]
    assert np.allclose(sol.w, g.prescribed.solution.w, atol=1e-9)
    for got, want in zip(sol.x, g.prescribed.solution.x):
        assert np.allclose(got, want, atol=1e-9)


def test_example53_prescribed_only_for_alpha_one():
    g = gen_example53(1.0)
    assert g.prescribed is not None
    assert np.array_equal(g.prescribed.y_star, [-1.0, 1.0])
    assert gen_example53(2.0).prescribed is None
    with pytest.raises(ValueError):
        gen_example53(0.5)


def test_example55_structure_and_shared_solution():
    g = gen_example55(2)
    h = g.problem.H1.to_dense()
    assert h.shape == (4, 4)
    assert np.allclose(np.diag(h), 4.0)
    assert is_symmetric(g.problem.H1)
    # eigenvalues of the block pattern are 4 - 2cos(j pi/3) - 2cos(k pi/3) > 0
    assert np.min(np.linalg.eigvalsh(h)) > 0
    same = gen_example52(4).prescribed.solution
    for got, want in zip(g.prescribed.solution.x, same.x):
        assert np.array_equal(got, want)
    assert np.array_equal(g.prescribed.solution.w, same.w)


def test_prescribe_q_examples():
    eye = identity_matrix(2)
    blocks = BlockMatrixSet(eye, (eye,))
    ladder = BoundLadder((), 2)
    q = prescribe_q(blocks, ladder,
                    EhlcpSolution(np.array([1.0, 0.0]), (np.array([0.0, 1.0]),)))
    assert np.array_equal(q, [1.0, -1.0])
    q = prescribe_q(blocks, ladder,
                    EhlcpSolution(np.zeros(2), (np.zeros(2),)))
    assert np.array_equal(q, [0.0, 0.0])
    with pytest.raises(InfeasibleTuple):
        prescribe_q(blocks, ladder,
                    EhlcpSolution(np.array([1.0, 0.0]), (np.array([1.0, 0.0]),)))


def test_generator_input_validation():
    with pytest.raises(ValueError):
        gen_example51(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        gen_example52(1)
    with pytest.raises(ValueError):
        gen_example55(1)


@pytest.mark.parametrize("make", [
    lambda: gen_example51(1, 0.0, 0.0),
    lambda: gen_example51(3, 0.0, np.inf),
    lambda: gen_example52(1),
    lambda: gen_example53(0.5),
    lambda: gen_example53(np.nan),
    lambda: gen_example55(1),
], ids=["grid51", "inf-nu51", "n52", "alpha53", "nan-alpha53", "grid55"])
def test_generators_raise_invalid_params(make):
    with pytest.raises(InvalidParams):
        make()
