import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import dominant_block, random_dominant_problem
from ehlcp import (BlockMatrixSet, DenseMatrix, InvalidParams, NoRuleApplies,
                   check_cor31, check_thm34, gen_example51, gen_example52,
                   gen_example55, identity_matrix, sample_rho_L, suggest_omega)
from ehlcp import convergence
from ehlcp.blockdata import BandMatrix, TridiagonalMatrix
from ehlcp.convergence import (DENSE_EIG_MAX_ORDER, DENSE_LIMIT, EIGVALS_FIRST_ORDER,
                               induced_norm, spectral_radius_nonneg)

DENSE_P_MATRIX = DenseMatrix(np.array([[1.5, 1.0, 1.0],
                                [1.0, 1.5, 1.0],
                                [1.0, 1.0, 1.5]]))


def test_spectral_radius_matches_dense(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = np.abs(rng.standard_normal((n, n)))
        est = spectral_radius_nonneg(DenseMatrix(a))
        truth = np.max(np.abs(np.linalg.eigvals(a)))
        assert est.value == pytest.approx(truth, abs=1e-8, rel=1e-8)
        assert est.lower <= truth + 1e-9 and truth <= est.upper + 1e-9


def test_spectral_radius_zero_matrix():
    est = spectral_radius_nonneg(DenseMatrix(np.zeros((5, 5))))
    assert est.value == 0.0 and est.converged


def test_spectral_radius_rejects_a_negative_entry():
    # Every row sum is positive; the entry -0.5 still voids Collatz-Wielandt.
    for store in (TridiagonalMatrix.constant(5, 1.0, 1.0, -0.5),
                  DenseMatrix([[1.0, -0.5], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="not entrywise nonnegative"):
            spectral_radius_nonneg(store)


def test_spectral_radius_of_a_non_finite_row_sum_is_an_unclosed_bracket(monkeypatch):
    def refuse(a):
        raise AssertionError("eigvals ran")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    n = EIGVALS_FIRST_ORDER + 2
    stores = (DenseMatrix([[np.nan, 0.5], [0.25, 0.5]]), DenseMatrix([[0.5, np.inf], [0.25, 0.5]]),
              TridiagonalMatrix.constant(n, 0.5, np.inf, 0.25),
              TridiagonalMatrix.constant(n, 1e308, 1e308, 1e308))  # the sums overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for store in stores:
            est = spectral_radius_nonneg(store)
            assert (est.value, est.lower, est.upper, est.converged) == (np.inf, 0.0, np.inf, False)


def test_spectral_radius_two_cyclic_takes_eigvals():
    c = 0.7
    est = spectral_radius_nonneg(DenseMatrix([[0.0, c], [c, 0.0]]))
    assert est.method == "dense" and est.iterations == 0
    assert est.value == pytest.approx(c, rel=1e-15)
    assert est.lower == est.upper == est.value


def test_spectral_radius_above_cut_brackets_by_row_sums(rng):
    n = EIGVALS_FIRST_ORDER + 16
    a = rng.uniform(0.0, 1.0, size=(n, n)) / n
    t = 0.75 * 2.0 ** -53
    cases = [  # (X, rho, whether every computed row sum is the same)
        (DenseMatrix(a), np.max(np.abs(np.linalg.eigvals(a))), False),
        # 2-cyclic
        (TridiagonalMatrix.constant(n, 0.25, 0.0, 0.5),
         2.0 * np.sqrt(0.125) * np.cos(np.pi / (n + 1)), False),
        # graded: (I - X)^{-1} e reaches 1e19 and the enclosure fails
        (TridiagonalMatrix.constant(600, 1.0, 0.0, 1.0 / 16),
         0.5 * np.cos(np.pi / 601), False),
        # |H1 - I| of Ex 5.2 at omega = 1
        (TridiagonalMatrix.constant(20000, 1.0, 3.0, 2.0),
         3.0 + 2.0 * np.sqrt(2.0) * np.cos(np.pi / 20001), False),
        # a cyclic shift plus t I: every row sums to rho = 1 + t exactly but to
        # 1 in floating point, so only the rounded-out bracket holds rho
        (DenseMatrix(np.roll(np.eye(n), 1, axis=1) + t * np.eye(n)),
         1 + Fraction(t), True),
    ]
    for x, rho, closed in cases:
        est = spectral_radius_nonneg(x)
        assert est.method == "rowsums" and est.converged == closed
        assert Fraction(est.lower) <= Fraction(rho) <= Fraction(est.upper) == est.value


def test_two_norm_of_a_zero_band_store_above_the_cut_is_refused():
    # above order 512 no kernel computes a band store's 2-norm exactly
    with pytest.raises(InvalidParams):
        induced_norm(TridiagonalMatrix.constant(600, 0.0, 0.0, 0.0), "2")


def test_check_cor31_identical_blocks():
    eye = identity_matrix(4)
    blocks = BlockMatrixSet(eye, (eye, eye, eye))
    res = check_cor31(blocks)
    assert res.satisfied
    assert res.rho.value == pytest.approx(0.0, abs=1e-12)
    assert res.norm_sum.value == pytest.approx(0.0, abs=1e-12)


def test_check_cor31_dense_p_matrix():
    blocks = BlockMatrixSet(DenseMatrix(5.0 * np.eye(3)), (DENSE_P_MATRIX,))
    res2 = check_cor31(blocks, norm_tag="2")
    assert res2.norm_sum.value == pytest.approx(0.90, abs=1e-10)
    assert res2.norm_sum.satisfied
    assert res2.rho.value == pytest.approx(1.1, abs=1e-10)
    assert not res2.rho.satisfied
    assert res2.satisfied and res2.winner == "Eq38NormSum"


def test_check_cor31_dense_size_guard_raises_invalid_params(monkeypatch):
    monkeypatch.setattr("ehlcp.convergence.DENSE_LIMIT", 3)
    with pytest.raises(InvalidParams, match="n <= 3"):
        check_cor31(BlockMatrixSet(identity_matrix(4), (identity_matrix(4),)))


@pytest.mark.parametrize("omega", [0.0, -1.0, np.nan, np.inf])
def test_check_thm34_rejects_bad_omega(omega):
    with pytest.raises(InvalidParams, match="omega"):
        check_thm34(DENSE_P_MATRIX, omega)


@pytest.mark.parametrize("omega", [1e-320, np.float64(1e-320)], ids=["float", "float64"])
def test_check_thm34_refuses_an_omega_whose_reciprocal_overflows(omega):
    # X = |H1 / omega - I| held inf, and eigvals and the 2-norm SVD raised
    # numpy's LinAlgError on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match="^omega must be finite and positive"):
            check_thm34(TridiagonalMatrix.constant(10, 1.0, 4.0, -2.0), omega)


def test_check_thm34_refuses_a_non_finite_h1():
    # H1 is a raw store here, not a block set: numpy's LinAlgError came out of
    # the 2-norm on this one
    for h1 in (DenseMatrix([[4.0, np.nan], [1.0, 4.0]]),
               TridiagonalMatrix.constant(3, -1.0, 4.0, np.inf)):
        with pytest.raises(InvalidParams, match="^non-finite entries in H1$"):
            check_thm34(h1, 4.0)


def test_check_thm34_refuses_an_omega_whose_scaled_h1_overflows(capfd):
    # 1e-300 has a finite reciprocal, but omega^{-1} H1 held inf: numpy warned,
    # LAPACK printed an illegal-value message from the 2-norm SVD, and the
    # 2-norm condition read NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match=r"^omega\^\{-1\} H1 overflows$"):
            check_thm34(TridiagonalMatrix.constant(10, 1e10, 4e10, -2e10), 1e-300)
    assert capfd.readouterr().err == ""


NEAR_FLOAT_MAX = np.full((3, 3), 1e308)
np.fill_diagonal(NEAR_FLOAT_MAX, 1.0)


@pytest.mark.parametrize("check", [
    lambda: check_cor31(BlockMatrixSet(identity_matrix(3), (DenseMatrix(NEAR_FLOAT_MAX),))),
    lambda: check_thm34(DenseMatrix(NEAR_FLOAT_MAX), 1.0),
    lambda: check_thm34(BandMatrix((0, 1, -1), [[1.0] * 3, [0.0, 1e308, 1e308],
                                                [1e308, 1e308, 0.0]]), 1.0),
], ids=["cor31", "thm34-dense", "thm34-band"])
def test_checks_of_finite_blocks_near_the_float_limit_are_unsatisfied_without_warnings(check):
    # the products and sums overflow: numpy warned from matmul and reduce
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = check()
    assert not res.satisfied and not res.rho.satisfied and res.rho.value == np.inf


def test_spectral_radius_of_an_overflowing_dense_row_sum_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = spectral_radius_nonneg(DenseMatrix([[1e308, 1e308], [0.0, 0.0]]))
    assert (est.value, est.lower, est.upper, est.converged) == (np.inf, 0.0, np.inf, False)


def test_check_thm34_identity_scaling():
    res = check_thm34(DenseMatrix(3.0 * np.eye(4)), 3.0)
    assert res.rho.value == pytest.approx(0.0, abs=1e-12)
    assert res.norms["inf"].value == 0.0


def test_check_thm34_dense_p_matrix():
    res = check_thm34(DENSE_P_MATRIX, 5.0)
    assert res.rho.value == pytest.approx(1.1, abs=1e-10)
    assert not res.rho.satisfied
    assert res.norms["2"].value == pytest.approx(0.90, abs=1e-10)
    assert res.norms["2"].satisfied  # the two conditions are incomparable
    assert res.satisfied
    assert not check_thm34(DENSE_P_MATRIX, 0.5).satisfied


def test_check_thm34_tridiagonal_closed_form():
    # |H1/4 - I| = tridiag(1/4, 0, 1/2): eigenvalues 2 sqrt(1/8) cos(k pi/(n+1))
    n = 25
    h1 = TridiagonalMatrix.constant(n, 1.0, 4.0, -2.0)
    res = check_thm34(h1, 4.0)
    closed = 2.0 * np.sqrt(0.125) * np.cos(np.pi / (n + 1))
    assert res.rho.value == pytest.approx(closed, abs=1e-8)
    assert closed < 0.7072


def test_check_thm34_scale_coherence():
    for c in (0.1, 3.0, 40.0):
        base = check_thm34(DENSE_P_MATRIX, 5.0)
        scaled = check_thm34(DenseMatrix(c * DENSE_P_MATRIX.data), 5.0 * c)
        assert scaled.rho.value == pytest.approx(base.rho.value, abs=1e-10)
        for tag in ("1", "2", "inf"):
            assert scaled.norms[tag].value == pytest.approx(
                base.norms[tag].value, abs=1e-9)


def test_check_thm34_two_norm_unavailable_for_large():
    h1 = TridiagonalMatrix.constant(2500, 1.0, 4.0, -2.0)
    res = check_thm34(h1, 4.0)
    assert res.norms["2"] is None
    assert res.norms["inf"].value == pytest.approx(0.75, abs=1e-12)
    assert res.satisfied


def test_check_thm34_two_norm_exact_up_to_the_cut_and_none_above():
    n = DENSE_EIG_MAX_ORDER
    h1 = gen_example52(n).problem.H1
    want = np.linalg.norm(h1.to_dense() / 4.0 - np.eye(n), 2)
    assert check_thm34(h1, 4.0).norms["2"].value == want
    assert check_thm34(gen_example52(n + 1).problem.H1, 4.0).norms["2"] is None



def _no_power_iteration(store):
    raise AssertionError("spectral_radius_nonneg called")


def test_check_thm34_certifies_paper_cells_without_power_steps(monkeypatch):
    # Table 5's Ex 5.2 cell (n = 20,000, omega = 4) and Ex 5.5 at g = 150
    # (omega = 5): the enclosure decides and its theta_up is the value. The
    # exact radii are 2 sqrt(1/8) cos(pi/(n+1)) and 0.2 + 0.8 cos(pi/151).
    monkeypatch.setattr(convergence, "spectral_radius_nonneg", _no_power_iteration)
    cells = [(gen_example52(20000).problem.H1, 4.0,
              2.0 * np.sqrt(0.125) * np.cos(np.pi / 20001)),
             (gen_example55(150).problem.H1, 5.0, 0.2 + 0.8 * np.cos(np.pi / 151))]
    for h1, omega, rho in cells:
        rep = check_thm34(h1, omega).rho
        assert rep.satisfied and rep.certifying
        assert rho <= rep.value < 1.0


def test_check_cor31_above_the_cut_reports_the_enclosure(monkeypatch):
    monkeypatch.setattr(convergence, "spectral_radius_nonneg", _no_power_iteration)
    n = EIGVALS_FIRST_ORDER + 72
    res = check_cor31(BlockMatrixSet(identity_matrix(n), (
        TridiagonalMatrix.constant(n, -0.25, 1.0, -0.5),)))
    # M = I: |I - H1| = tridiag(1/4, 0, 1/2), rho = 2 sqrt(1/8) cos(pi/(n+1))
    closed = 2.0 * np.sqrt(0.125) * np.cos(np.pi / (n + 1))
    assert res.rho.satisfied and res.rho.certifying
    assert closed <= res.rho.value < 0.75 + 1e-12  # gamma_(2n+3) above the row sum


def test_graded_matrix_certifies_or_reports_no_certificate_without_warnings():
    # |H1/4 - I| = tridiag(1, 0, 1/16), rho = 0.5 cos(pi/(n+1)). At n = 300
    # the enclosure certifies; at n = 600 (I - X)^{-1} e is too large to, so
    # the value is the row-sum bracket's upper end, unclosed, and nothing is
    # certifying.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = check_thm34(TridiagonalMatrix.constant(300, 4.0, 4.0, -0.25), 4.0)
        assert res.rho.satisfied and res.rho.certifying
        assert 0.5 * np.cos(np.pi / 301) <= res.rho.value < 1.0
        est = spectral_radius_nonneg(TridiagonalMatrix.constant(600, 1.0, 0.0, 1.0 / 16))
        res = check_thm34(TridiagonalMatrix.constant(600, 4.0, 4.0, -0.25), 4.0)
    rho = 0.5 * np.cos(np.pi / 601)
    assert not est.converged and est.lower <= rho <= est.upper == est.value
    assert not res.rho.satisfied and not res.rho.certifying
    assert rho <= res.rho.value == est.value


def test_check_thm34_fails_ex52_at_omega_one_on_an_upper_end():
    rep = check_thm34(gen_example52(20000).problem.H1, 1.0).rho
    assert not rep.satisfied and not rep.certifying
    assert rep.value >= 3.0 + 2.0 * np.sqrt(2.0) * np.cos(np.pi / 20001)


def test_rho_condition_is_decided_on_the_enclosure_not_the_eigenvalues():
    # |H1 - I| = [[0, 1e20], [1e-21, 0]] has rho = sqrt(0.1), exact from
    # eigvals, but (I - X)^{-1} e is too graded for its ratio 1 - 9e-21 to
    # round below one: the condition is not certified.
    rep = check_thm34(DenseMatrix([[1.0, 1e20], [1e-21, 1.0]]), 1.0).rho
    assert rep.value == pytest.approx(np.sqrt(0.1), rel=1e-12)
    assert not rep.satisfied and rep.certifying


def test_norm_conditions_decide_on_an_upper_end():
    # Row 0 of x holds 1 - 2^-53 and five entries of 0.45 2^-53: the row sum
    # rounds to 1 - 2^-53 but exceeds one exactly, so ||x||_inf < 1 is not
    # certified. The reported value stays the computed one.
    x = np.zeros((7, 7))
    x[0, 1], x[0, 2:] = 1.0 - 2.0 ** -53, 0.45 * 2.0 ** -53
    assert sum(Fraction(t) for t in x[0]) > 1
    h1 = DenseMatrix(np.eye(7) - x)
    norm = check_thm34(h1, 1.0).norms["inf"]
    assert norm.value == 1.0 - 2.0 ** -53 and not norm.satisfied
    res = check_cor31(BlockMatrixSet(identity_matrix(7), (h1,)), "inf")
    assert res.norm_sum.value == 1.0 - 2.0 ** -53 and not res.norm_sum.satisfied
    assert res.winner == "Eq38Rho"  # x is nilpotent


def test_column_sdd_tau_rule_gives_one_norm_below_one():
    gen = gen_example52(40)
    sug = suggest_omega(gen.problem.H1)
    assert sug.rule == "column-sdd-scalar-diagonal" and sug.value == 4.0
    res = check_thm34(gen.problem.H1, sug.value)
    assert res.norms["1"].value < 1.0


def test_suggest_omega_rules():
    gen = gen_example55(8)
    sug = suggest_omega(gen.problem.H1)
    assert sug.rule == "symmetric"
    assert sug.value == pytest.approx(4.04)
    sug = suggest_omega(DenseMatrix(np.diag([2.0, 3.0])))
    assert sug.rule == "positive-diagonal"
    assert np.array_equal(sug.value, [2.0, 3.0])
    # positive diagonal, unsymmetric, not sdd
    sug = suggest_omega(DenseMatrix(np.array([[1.0, 5.0], [0.0, 2.0]])))
    assert sug.rule == "positive-diagonal"
    with pytest.raises(NoRuleApplies):
        suggest_omega(DenseMatrix(np.array([[-1.0, 2.0], [0.0, 1.0]])))


def test_dense_checks_refuse_paper_sizes_before_building_a_dense_store(monkeypatch):
    blocks = gen_example51(65, 4, 4).problem.blocks  # n = 4,225 > DENSE_LIMIT

    def refuse(store):
        raise AssertionError(f"dense copy of a store of order {store.n}")

    monkeypatch.setattr(BandMatrix, "to_dense", refuse)
    for check in (check_cor31, sample_rho_L):
        with pytest.raises(InvalidParams, match=f"^check requires dense work, n <= {DENSE_LIMIT}$"):
            check(blocks)


def test_sample_rho_L_trivial_and_seeded():
    eye = identity_matrix(3)
    blocks = BlockMatrixSet(eye, (eye,))
    rep = sample_rho_L(blocks, trials=10, seed=4)
    assert rep.value <= 1e-12 and rep.satisfied and not rep.certifying
    rep2 = sample_rho_L(blocks, trials=10, seed=4)
    assert rep.value == rep2.value and rep.samples_used == rep2.samples_used


def test_sample_rho_L_vertices_example53():
    from ehlcp import gen_example53
    blocks = gen_example53(1.0).problem.blocks
    rep = sample_rho_L(blocks, trials=5, seed=0)
    assert rep.samples_used >= 4 + 5  # all four vertices plus the samples


def test_cor31_implies_sampled_rho_below_one(rng):
    for seed in range(6):
        problem, _ = random_dominant_problem(seed)
        res = check_cor31(problem.blocks)
        assert res.satisfied
        rep = sample_rho_L(problem.blocks, trials=25, seed=seed)
        assert rep.value < 1.0


def test_norm_dominance(rng):
    for seed in range(6):
        problem, _ = random_dominant_problem(seed)
        res = check_cor31(problem.blocks, norm_tag="inf")
        assert res.rho.value <= res.norm_sum.value + 1e-10


def test_cor31_two_norm_sum_is_exact():
    for seed in range(12):
        problem, _ = random_dominant_problem(seed)
        blocks = problem.blocks
        m_inv = np.linalg.inv(blocks.M.to_dense())
        want = sum(np.linalg.norm(np.eye(blocks.n) - m_inv @ h.to_dense(), 2)
                   for h in blocks.H)
        got = check_cor31(blocks, "2").norm_sum.value
        assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_induced_norms_match_numpy(rng):
    a = rng.standard_normal((7, 7))
    d = DenseMatrix(a)
    assert induced_norm(d, "1") == pytest.approx(np.linalg.norm(a, 1))
    assert induced_norm(d, "inf") == pytest.approx(np.linalg.norm(a, np.inf))
    assert induced_norm(d, "2") == pytest.approx(np.linalg.norm(a, 2), abs=1e-9)
    # a dense store's 2-norm is exact above the band cut too
    big = rng.standard_normal((DENSE_EIG_MAX_ORDER + 1,) * 2)
    assert induced_norm(DenseMatrix(big), "2") == np.linalg.norm(big, 2)
    # above the cut a band store's 2-norm is refused
    band = TridiagonalMatrix.constant(DENSE_EIG_MAX_ORDER + 1, 1.0, 4.0, -2.0)
    with pytest.raises(InvalidParams):
        induced_norm(band, "2")
    with pytest.raises(ValueError, match="unknown norm tag"):
        induced_norm(d, "Inf")
