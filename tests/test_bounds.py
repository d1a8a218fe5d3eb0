from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import counter_order, example52_bound42_constant, random_dominant_problem
from ehlcp import (BlockMatrixSet, BoundLadder, DenseMatrix, EhlcpProblem,
                   NonpositiveDiagonal, NormMismatch, SingularSelection,
                   bound42, bound43, comparison_matrix, gen_example51,
                   gen_example52, gen_example53, identity_matrix,
                   overalpha_estimate, pls_residual, residual_error_interval,
                   sample_rho_L, sdd_classify, split_diagonal, suggest_omega,
                   underalpha_exact)
from ehlcp import bounds, convergence
from ehlcp.blockdata import BandMatrix, TridiagonalMatrix, abs_colsums
from ehlcp.convergence import DENSE_EIG_MAX_ORDER, simplex_selections
from ehlcp.errors import BudgetExceeded, InvalidParams
from ehlcp.wproperty import representative, selection_combination

UNIT_TRIANGULAR_PAIR = BlockMatrixSet(DenseMatrix([[1.0, 0.0], [-1.0, 1.0]]),
                                (DenseMatrix([[1.0, 0.0], [2.0, 1.0]]),))
COLUMN_SDD_PAIR = BlockMatrixSet(
    DenseMatrix([[2.0, 0.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]),
    (DenseMatrix([[2.0, 1.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 2.0]]),))


def test_comparison_matrix_examples():
    assert np.allclose(comparison_matrix(identity_matrix(3)).to_dense(), np.eye(3))
    tri = TridiagonalMatrix.constant(4, 1.0, 4.0, -2.0)
    comp = comparison_matrix(tri).to_dense()
    assert np.array_equal(np.diag(comp, -1), -np.ones(3))
    assert np.array_equal(np.diag(comp), 4 * np.ones(4))
    assert np.array_equal(np.diag(comp, 1), -2 * np.ones(3))
    z = DenseMatrix([[2.0, -3.0], [-1.0, 5.0]])
    assert np.array_equal(comparison_matrix(z).to_dense(), z.data)


def test_sdd_classify_examples():
    rep = sdd_classify(TridiagonalMatrix.constant(10, 1.0, 4.0, -2.0))
    assert rep.row_sdd and rep.col_sdd
    assert rep.row_margins.min() == pytest.approx(1.0)
    assert rep.col_margins.min() == pytest.approx(1.0)
    assert not sdd_classify(UNIT_TRIANGULAR_PAIR.M).col_sdd
    assert not sdd_classify(UNIT_TRIANGULAR_PAIR.H[0]).col_sdd
    assert sdd_classify(COLUMN_SDD_PAIR.M).col_sdd
    assert sdd_classify(COLUMN_SDD_PAIR.H[0]).col_sdd


def test_sdd_classify_still_resolves_from_bounds():
    assert bounds.sdd_classify is convergence.sdd_classify is sdd_classify


def test_split_reconstruction(rng):
    gen = gen_example51(3, 2.0, 1.0)
    split = split_diagonal(gen.problem.blocks)
    for lam, c, store in zip(split.Lambda, split.C,
                             gen.problem.blocks.all()):
        assert np.allclose(np.diag(lam) - c.to_dense(), store.to_dense())
        assert np.allclose(c.diagonal(), 0.0)
    bad = BlockMatrixSet(DenseMatrix([[0.0]]), (identity_matrix(1),))
    with pytest.raises(NonpositiveDiagonal):
        split_diagonal(bad)


def test_bound42_identity_blocks():
    eye = identity_matrix(3)
    blocks = BlockMatrixSet(eye, (eye, eye))
    rep = bound42(blocks, "inf")
    assert rep.condition_satisfied
    assert rep.condition_value == pytest.approx(0.0, abs=1e-12)
    assert rep.constant == pytest.approx(1.0, abs=1e-12)


def test_bound42_unit_triangular_pair():
    rep = bound42(UNIT_TRIANGULAR_PAIR, "inf")
    assert rep.condition_satisfied
    assert rep.condition_value == pytest.approx(0.0, abs=1e-12)


def test_bound42_column_sdd_pair_condition_fails():
    rep = bound42(COLUMN_SDD_PAIR, "inf")
    assert not rep.condition_satisfied
    assert rep.condition_value == pytest.approx(1.0, abs=1e-8)
    # rho sits exactly at one: the resolvent blows up, reported as inf
    assert rep.constant == np.inf


def test_bound42_example51_collapses_to_M_part():
    gen = gen_example51(4, 3.0, 3.0)
    rep = bound42(gen.problem.blocks, "inf")
    m_dense = gen.problem.blocks.M.to_dense()
    expected = np.max(np.sum(np.abs(np.linalg.inv(m_dense)), axis=1))
    assert rep.constant == pytest.approx(expected, rel=1e-12)


def test_bound42_example53_closed_form():
    for alpha in (1.0, 2.0, 3.0):
        blocks = gen_example53(alpha).problem.blocks
        rep = bound42(blocks, "inf")
        assert rep.constant == pytest.approx(1.0 + alpha * alpha, abs=1e-12)


def test_bound42_banded_matches_dense(rng):
    gen = gen_example52(40)
    blocks = gen.problem.as_general().blocks
    for tag in ("1", "inf"):
        fast = bound42(blocks, tag)
        dense_blocks = BlockMatrixSet(
            DenseMatrix(blocks.M.to_dense()),
            tuple(DenseMatrix(h.to_dense()) for h in blocks.H))
        slow = bound42(dense_blocks, tag)
        assert fast.constant == pytest.approx(slow.constant, rel=1e-12)
        assert fast.condition_satisfied == slow.condition_satisfied


def test_bound42_large_cells_certify_without_spectral_radius(monkeypatch):
    # Ex 5.1 at grid 100 (Table 1): the certificate alone decides the
    # condition, so no power iteration runs.
    blocks = gen_example51(100, 4.0, 4.0).problem.blocks
    want = {tag: bound42(blocks, tag) for tag in ("1", "inf")}

    def no_power_iteration(store, *args, **kwargs):
        raise AssertionError("spectral_radius_nonneg called")

    monkeypatch.setattr(bounds, "spectral_radius_nonneg", no_power_iteration)
    for tag, ref in want.items():
        rep = bound42(blocks, tag)
        assert rep.condition_satisfied and ref.condition_satisfied
        assert rep.constant == ref.constant
        lo, hi = rep.condition_bracket
        assert 0.0 <= lo <= hi < 1.0 and rep.condition_value == hi


def as_band(a):
    dia = scipy.sparse.dia_matrix(a)
    return BandMatrix(dia.offsets, dia.data)


def bound42_x(mats):
    """max_i Lambda_i^{-1}|C_i| and max_i Lambda_i^{-1}, straight from dense blocks."""
    diags = np.stack([np.diag(a) for a in mats])
    off = np.abs(mats) * (1.0 - np.eye(mats.shape[1]))
    return np.max(off * (1.0 / diags)[:, :, None], axis=0), np.max(1.0 / diags, axis=0)


@st.composite
def bound42_instances(draw):
    """Banded blocks with positive diagonals, scaled so rho(X) is a drawn value
    on either side of one; dense or band layout."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 2))
    width = draw(st.integers(1, n - 1))
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= width
    off = draw(hnp.arrays(float, (m + 1, n, n), elements=st.floats(0.05, 1.0)))
    signs = draw(hnp.arrays(float, (m + 1, n, n), elements=st.sampled_from([-1.0, 1.0])))
    diags = draw(hnp.arrays(float, (m + 1, n), elements=st.floats(0.5, 2.0)))
    off = off * signs * (band & ~np.eye(n, dtype=bool))
    mats = off + np.stack([np.diag(d) for d in diags])
    rho = np.max(np.abs(np.linalg.eigvals(bound42_x(mats)[0])))
    target = draw(st.floats(0.05, 0.95) | st.floats(1.05, 3.0))
    mats = off * (target / rho) + np.stack([np.diag(d) for d in diags])
    wrap = DenseMatrix if draw(st.booleans()) else as_band
    blocks = BlockMatrixSet(wrap(mats[0]), tuple(wrap(a) for a in mats[1:]))
    return blocks, mats


@settings(max_examples=120, deadline=None)
@given(bound42_instances())
def test_bound42_certificate_matches_dense_reference(case):
    blocks, mats = case
    x, d_max = bound42_x(mats)
    rho = float(np.max(np.abs(np.linalg.eigvals(x))))
    assume(abs(rho - 1.0) >= 1e-8)
    try:
        inv = np.linalg.inv(np.eye(len(x)) - x) * d_max[None, :]
    except np.linalg.LinAlgError:
        inv = None
    for tag in ("1", "inf"):
        rep = bound42(blocks, tag)
        assert rep.condition_satisfied == (rho < 1.0)
        if rep.condition_satisfied:
            lo, hi = rep.condition_bracket
            assert lo - 1e-12 <= rho <= hi + 1e-12
        want = np.inf if inv is None else np.linalg.norm(inv, {"1": 1, "inf": np.inf}[tag])
        assert rep.constant == pytest.approx(want, rel=1e-12)


def test_bound42_never_certifies_rho_one():
    # Row-stochastic X with dyadic entries has rho = 1 exactly, yet rounding
    # often leaves I - X factorable with a huge positive solve whose largest
    # ratio rounds to exactly 1.
    rng = np.random.default_rng(7)
    scale = 2.0 ** 20
    for _ in range(200):
        n = int(rng.integers(3, 6))
        x = np.zeros((n, n))
        for i in range(n):
            cuts = np.concatenate([[0], np.sort(rng.integers(0, scale, n - 2)), [scale]])
            x[i, np.arange(n) != i] = np.diff(cuts) / scale
        blocks = BlockMatrixSet(DenseMatrix(np.eye(n) - x), (identity_matrix(n),))
        for tag in ("1", "inf"):
            assert not bound42(blocks, tag).condition_satisfied


def test_bound42_rejects_two_norm():
    with pytest.raises(ValueError):
        bound42(UNIT_TRIANGULAR_PAIR, "2")


def test_bound42_monotone_in_mu():
    last = np.inf
    for mu in (4.0, 6.0, 8.0, 10.0, 12.0, 14.0):
        rep = bound42(gen_example51(20, mu, mu).problem.blocks, "inf")
        assert rep.constant <= last + 1e-15
        last = rep.constant


def _band_csr(store):
    offsets, rows = zip(*store.diagonals())
    return scipy.sparse.dia_matrix((np.array(rows), offsets), shape=(store.n, store.n)).tocsr()


def sparse_bound42_x(blocks):
    """bound42's X (as COO) and d_max from band blocks, rounded the same way:
    |a_ij| times the reciprocal of a_ii."""
    mats = [_band_csr(s) for s in blocks.all()]
    diags = [a.diagonal() for a in mats]
    scaled = [scipy.sparse.diags(1.0 / d) @ abs(a - scipy.sparse.diags(d))
              for a, d in zip(mats, diags)]
    x = scaled[0]
    for other in scaled[1:]:
        x = x.maximum(other)
    return x.tocoo(), np.maximum.reduce([1.0 / d for d in diags])


def refined_resolvent(x, rhs, steps=4):
    """(I - X)^{-1} rhs as np.longdouble: a sparse LU solve, then iterative
    refinement with the residual in long double."""
    lu = scipy.sparse.linalg.splu((scipy.sparse.identity(rhs.size) - x).tocsc())
    v = lu.solve(rhs).astype(np.longdouble)
    xs = x.data.astype(np.longdouble)
    for _ in range(steps):
        xv = np.zeros(rhs.size, np.longdouble)
        np.add.at(xv, x.row, xs * v[x.col])
        v = v + lu.solve((rhs - v + xv).astype(float))
    return v


TABLE12_CELLS = [(100, mu) for mu in (4, 6, 8, 10, 12, 14)] + [
    (grid, mu) for grid in (20, 40, 60) for mu in (5, 7, 9)]


@pytest.mark.parametrize("grid, mu", TABLE12_CELLS)
def test_bound42_encloses_refined_table12_constants(grid, mu):
    # A trusted rounded solve lands below these references in 21 of 30 cases.
    blocks = gen_example51(grid, float(mu), float(mu)).problem.blocks
    x, d_max = sparse_bound42_x(blocks)
    refs = {"inf": np.max(refined_resolvent(x, d_max)),
            "1": np.max(d_max * refined_resolvent(x.T.tocoo(), np.ones(blocks.n)))}
    for tag, ref in refs.items():
        constant = np.longdouble(bound42(blocks, tag).constant)
        assert ref <= constant <= ref * (1 + np.longdouble(1e-13)), (tag, ref, constant)


def test_bound42_encloses_exact_example52_constants():
    for n in (30, 60, 90, 120):
        rep = bound42(gen_example52(n).problem.as_general().blocks, "inf")
        assert rep.condition_satisfied
        assert Fraction(rep.constant) >= example52_bound42_constant(n)


def test_enclose_rejects_a_ratio_that_rounds_below_one():
    # Row 0 of X holds a = 1 - 2^-52 and five entries of 0.45 ulp(a) each: X 1
    # sums them to a in floating point, but exactly to more than 1, so v = 1
    # bounds no ratio below one and must not certify.
    a, tiny = 1.0 - 2.0 ** -52, 0.45 * 2.0 ** -53
    offsets = range(1, 7)
    data = np.zeros((6, 7))
    for k, o in enumerate(offsets):
        data[k, o] = a if o == 1 else tiny
    x = BandMatrix(offsets, data)
    v = np.ones(7)
    assert x.matvec(v)[0] == a
    assert sum(Fraction(t) for t in data[:, 1:].sum(axis=0)) > 1
    assert convergence._enclose(x, v, v, x.matvec) is None
    v[0] = 2.0  # ratios a / 2 and 0: certified
    assert convergence._enclose(x, v, v, x.matvec)[1][1] < 0.5 + 1e-15


def _no_factor(store):
    raise AssertionError("LinearOperatorFactor called")


def test_bound42_table1_cells_take_the_neumann_sum(monkeypatch):
    monkeypatch.setattr(convergence, "LinearOperatorFactor", _no_factor)
    for mu in (4.0, 14.0):
        blocks = gen_example51(100, mu, mu).problem.blocks
        for tag in ("1", "inf"):
            assert bound42(blocks, tag).condition_satisfied


def test_bound42_narrow_bands_and_dense_blocks_factor(monkeypatch):
    orders = []

    def counted(store, real=convergence.LinearOperatorFactor):
        orders.append(store.n)
        return real(store)

    monkeypatch.setattr(convergence, "LinearOperatorFactor", counted)
    cases = [gen_example52(120).problem.as_general().blocks,  # Table 4: tridiagonal
             gen_example51(20, 5.0, 5.0).problem.blocks,      # Table 2, grid 20
             random_dominant_problem(0)[0].blocks]             # dense
    for blocks in cases:
        assert bound42(blocks, "inf").condition_satisfied
    assert orders == [blocks.n for blocks in cases]


def exact_bound42_constant(x, d_max, tag):
    """||(I - X)^{-1} diag(d_max)|| for the tag, in rational arithmetic.

    I - X is a nonsingular M-matrix (rho(X) < 1), so Gauss-Jordan needs no
    pivoting."""
    n = len(x)
    a = x if tag == "inf" else x.T
    rhs = d_max if tag == "inf" else np.ones(n)
    rows = [[Fraction(float(i == j)) - Fraction(a[i, j]) for j in range(n)] + [Fraction(rhs[i])]
            for i in range(n)]
    for k in range(n):
        for i in range(n):
            if i != k:
                f = rows[i][k] / rows[k][k]
                rows[i] = [p - f * q for p, q in zip(rows[i], rows[k])]
    z = [rows[i][n] / rows[i][i] for i in range(n)]
    return max(z) if tag == "inf" else max(Fraction(d) * zi for d, zi in zip(d_max, z))


@st.composite
def neumann_instances(draw):
    """Band blocks with positive diagonals, scaled so the largest row and
    column sum of X is a drawn value below one."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 2))
    width = draw(st.integers(1, n - 1))
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= width
    off = draw(hnp.arrays(float, (m + 1, n, n), elements=st.floats(0.05, 1.0)))
    signs = draw(hnp.arrays(float, (m + 1, n, n), elements=st.sampled_from([-1.0, 1.0])))
    diags = draw(hnp.arrays(float, (m + 1, n), elements=st.floats(0.5, 2.0)))
    off = off * signs * (band & ~np.eye(n, dtype=bool))
    x = bound42_x(off + np.stack([np.diag(d) for d in diags]))[0]
    s = max(x.sum(axis=0).max(), x.sum(axis=1).max())
    mats = off * (draw(st.floats(0.05, 0.9)) / s) + np.stack([np.diag(d) for d in diags])
    return BlockMatrixSet(as_band(mats[0]), tuple(as_band(a) for a in mats[1:])), mats


@settings(max_examples=60, deadline=None)
@given(neumann_instances())
def test_neumann_sum_encloses_the_exact_constant(case):
    blocks, mats = case
    x, d_max = bound42_x(mats)
    rho = float(np.max(np.abs(np.linalg.eigvals(x))))
    for tag in ("1", "inf"):
        exact = exact_bound42_constant(x, d_max, tag)
        with patch.object(convergence, "NEUMANN_BREAK_EVEN", 0), \
                patch.object(convergence, "LinearOperatorFactor", _no_factor):
            summed = bound42(blocks, tag)
        with patch.object(convergence, "NEUMANN_BREAK_EVEN", float("inf")):
            solved = bound42(blocks, tag)
        assert summed.condition_satisfied and solved.condition_satisfied
        assert exact <= Fraction(summed.constant) <= exact * (1 + Fraction(1, 10 ** 12))
        assert summed.constant == pytest.approx(solved.constant, rel=1e-12)
        lo, hi = summed.condition_bracket
        assert lo - 1e-12 <= rho <= hi + 1e-12


def test_bound43_examples():
    eye = identity_matrix(3)
    rep = bound43(BlockMatrixSet(eye, (eye,)))
    assert rep.constant == pytest.approx(1.0) and rep.condition_satisfied
    gen = gen_example52(30)
    rep = bound43(gen.problem.as_general().blocks)
    assert rep.constant == pytest.approx(1.0) and rep.condition_satisfied
    rep = bound43(COLUMN_SDD_PAIR)
    assert rep.constant == pytest.approx(1.0) and rep.condition_satisfied
    rep = bound43(UNIT_TRIANGULAR_PAIR)
    assert not rep.condition_satisfied  # not column sdd


@pytest.mark.parametrize("wrap", [DenseMatrix, as_band])
def test_bound43_flags_on_rounded_down_margins(wrap):
    # Column 0 holds 1, 1 - 2^-52 and five entries of 0.45 ulp(2 - 2^-52): its
    # sum rounds to 2 - 2^-52, so the computed margin 2 - sum is 2^-52 > 0,
    # while the exact sum exceeds 2 and the exact margin is negative.
    a = np.eye(7)
    a[1, 0] = 1.0 - 2.0 ** -52
    a[2:, 0] = 0.45 * 2.0 ** -52
    store = wrap(a)
    assert 2.0 - abs_colsums(store)[0] == 2.0 ** -52
    assert 2 - sum(Fraction(t) for t in a[:, 0]) < 0
    rep = bound43(BlockMatrixSet(store, (identity_matrix(7),)))
    assert not rep.condition_satisfied
    assert rep.constant == 2.0 ** 52 and rep.condition_value == 2.0 ** -52
    # the same lower ends decide dominance by columns, by rows of the
    # transpose, and so the column-sdd rule of suggest_omega
    assert not sdd_classify(store).col_sdd and not sdd_classify(wrap(a.T)).row_sdd
    assert suggest_omega(store).rule == "positive-diagonal"


def test_bound43_certifies_vertices():
    from ehlcp import has_column_w_property
    for seed in range(6):
        problem, _ = random_dominant_problem(seed)
        rep = bound43(problem.blocks)
        assert rep.condition_satisfied
        # the column-dominance hypothesis implies the column W-property
        assert has_column_w_property(problem.blocks).holds
        for assign in counter_order(problem.n, problem.m):
            r = representative(problem.blocks, assign)
            inv_norm = np.linalg.norm(np.linalg.inv(r.data), 1)
            assert inv_norm <= rep.constant + 1e-10


def test_residual_error_interval_examples():
    gen = gen_example53(1.0)
    up = bound42(gen.problem.blocks, "inf")
    under = underalpha_exact(gen.problem.blocks, "inf")
    lo, hi = residual_error_interval(gen.problem, gen.prescribed.y_star, up, under)
    assert lo == pytest.approx(0.0, abs=1e-14)
    assert hi == pytest.approx(0.0, abs=1e-14)
    y = np.array([3.0, -7.0])
    lo, hi = residual_error_interval(gen.problem, y, up, under)
    true_err = np.max(np.abs(y - gen.prescribed.y_star))
    assert hi == pytest.approx(8.0, abs=1e-12)
    assert hi == pytest.approx(true_err, abs=1e-12)  # the bound is attained
    assert lo <= true_err


def test_residual_error_interval_norm_mismatch():
    gen = gen_example53(1.0)
    up = bound42(gen.problem.blocks, "1")
    with pytest.raises(NormMismatch):
        residual_error_interval(gen.problem, np.zeros(2), up, 1.0, norm_tag="inf")
    under = underalpha_exact(gen.problem.blocks, "1")
    with pytest.raises(NormMismatch):
        residual_error_interval(gen.problem, np.zeros(2), 2.0, under, norm_tag="inf")


def test_underalpha_examples():
    eye = identity_matrix(2)
    est = underalpha_exact(BlockMatrixSet(eye, (eye,)), "inf")
    assert est.value == pytest.approx(1.0) and est.exact
    blocks = gen_example53(1.0).problem.blocks
    est = underalpha_exact(blocks, "inf")
    assert est.value == pytest.approx(2.0)  # max row sum over the 4 vertices
    est1 = underalpha_exact(UNIT_TRIANGULAR_PAIR, "1", budget=16)
    vertex_max = max(np.linalg.norm(representative(UNIT_TRIANGULAR_PAIR, a).data, 1)
                     for a in counter_order(2, 1))
    assert est1.value == pytest.approx(vertex_max)


def test_underalpha_budget_and_sampled():
    blocks = gen_example52(30).problem.as_general().blocks
    with pytest.raises(BudgetExceeded):
        underalpha_exact(blocks, "inf", budget=100)
    est = underalpha_exact(blocks, "inf", budget=100, samples=50, seed=3)
    assert not est.exact
    exact_small = underalpha_exact(gen_example52(4).problem.as_general().blocks,
                                   "inf")
    assert est.value <= exact_small.value * 30  # sanity only: it is an estimate


def test_sampled_underalpha_below_exact():
    # convexity: every interior selection norm is below the vertex max
    for seed in range(6):
        problem, _ = random_dominant_problem(seed)
        exact = underalpha_exact(problem.blocks, "inf")
        sampled = underalpha_exact(problem.blocks, "inf", budget=0, samples=40,
                                   seed=seed)
        assert sampled.value <= exact.value + 1e-12


def test_overalpha_examples():
    eye = identity_matrix(2)
    est = overalpha_estimate(BlockMatrixSet(eye, (eye,)), "inf", samples=10, seed=0)
    assert est.value == pytest.approx(1.0)
    blocks = gen_example53(1.0).problem.blocks
    est = overalpha_estimate(blocks, "inf", samples=50, seed=0)
    assert est.value == pytest.approx(2.0, abs=1e-12)  # attained at a vertex


def test_overalpha_dominated_by_bounds():
    for seed in range(8):
        problem, _ = random_dominant_problem(seed)
        b42 = bound42(problem.blocks, "inf")
        b43 = bound43(problem.blocks)
        est_inf = overalpha_estimate(problem.blocks, "inf", samples=40, seed=seed)
        est_1 = overalpha_estimate(problem.blocks, "1", samples=40, seed=seed)
        assert b42.condition_satisfied and b43.condition_satisfied
        assert est_inf.value <= b42.constant + 1e-10
        assert est_1.value <= b43.constant + 1e-10


def test_overalpha_band_equals_dense_below_the_cut():
    # up to DENSE_EIG_MAX_ORDER a band store takes the dense store's exact
    # inverse norm of every selection combination
    blocks = gen_example52(12).problem.as_general().blocks
    dense = BlockMatrixSet(DenseMatrix(blocks.M.to_dense()),
                           tuple(DenseMatrix(h.to_dense()) for h in blocks.H))
    lams = list(simplex_selections(blocks.m, blocks.n, 6, 3))
    for tag, order in (("1", 1), ("2", 2), ("inf", np.inf)):
        exact = max(np.linalg.norm(np.linalg.inv(
            selection_combination(dense, lam).to_dense()), order) for lam in lams)
        for b in (dense, blocks):
            est = overalpha_estimate(b, tag, samples=6, seed=3, vertex_budget=0)
            assert est.value == exact


def test_overalpha_repeats_above_the_cut():
    # above the cut the band estimate draws nothing from numpy's global state
    blocks = gen_example52(DENSE_EIG_MAX_ORDER + 1).problem.as_general().blocks
    values, saved = set(), np.random.get_state()
    try:
        for state in range(4):
            np.random.seed(state)
            values.add(overalpha_estimate(blocks, "inf", samples=3, seed=3,
                                          vertex_budget=0).value)
    finally:
        np.random.set_state(saved)
    assert len(values) == 1


def test_overalpha_two_norm_on_band_blocks_above_order_2000():
    # the sampled 2-norm runs power iteration on the banded LU at any order
    blocks = gen_example52(2001).problem.as_general().blocks
    est = overalpha_estimate(blocks, "2", samples=1, vertex_budget=0)
    assert np.isfinite(est.value) and est.value > 0
    assert est.count == 1


def test_overalpha_singular_selection_witness():
    blocks = BlockMatrixSet(identity_matrix(1), (DenseMatrix([[0.0]]),))
    with pytest.raises(SingularSelection) as info:
        overalpha_estimate(blocks, "inf", samples=5, seed=0)
    assert info.value.selection is not None


def test_overalpha_singular_witness_above_the_cut():
    # a zero row in both band blocks: the first sample is singular, and the
    # witness is that draw
    n = DENSE_EIG_MAX_ORDER + 1
    diag = np.ones(n)
    diag[5] = 0.0
    store = TridiagonalMatrix(np.zeros(n - 1), diag, np.zeros(n - 1))
    blocks = BlockMatrixSet(store, (store,))
    with pytest.raises(SingularSelection) as info:
        overalpha_estimate(blocks, "inf", samples=2, seed=4, vertex_budget=0)
    first = next(simplex_selections(1, n, 1, 4))
    assert np.array_equal(info.value.selection.lambdas, first)


def test_falsify_random_condition_number_witness():
    # every combination is diag(1, 1e-16): regular, with condition number 1e16
    a = DenseMatrix(np.diag([1.0, 1e-16]))
    witness = bounds.falsify_random(BlockMatrixSet(a, (a,)), trials=0)
    assert np.array_equal(witness.lambdas, np.full((2, 2), 0.5))


def test_negative_selection_count_or_seed_raises_at_the_call():
    for call in (lambda: simplex_selections(1, 2, -1, 0),
                 lambda: simplex_selections(1, 2, 1, -1),
                 lambda: bounds.falsify_random(UNIT_TRIANGULAR_PAIR, trials=-3),
                 lambda: overalpha_estimate(UNIT_TRIANGULAR_PAIR, "inf", samples=-1),
                 lambda: sample_rho_L(UNIT_TRIANGULAR_PAIR, trials=-1)):
        with pytest.raises(InvalidParams):
            call()
    # the draws: one exponential (m + 1) x n array per selection, normalized
    rng = np.random.default_rng(7)
    for lam in simplex_selections(2, 3, 4, 7):
        e = rng.exponential(size=(3, 3))
        assert np.array_equal(lam, e / e.sum(axis=0))


def test_banded_combination_norms_match_dense(rng):
    # exercise the band path of the alpha machinery against dense arithmetic
    gen = gen_example52(25)
    blocks = gen.problem.as_general().blocks
    sampled_band = underalpha_exact(blocks, "inf", budget=0, samples=20, seed=9)
    dense_blocks = BlockMatrixSet(
        DenseMatrix(blocks.M.to_dense()),
        tuple(DenseMatrix(h.to_dense()) for h in blocks.H))
    sampled_dense = underalpha_exact(dense_blocks, "inf", budget=0, samples=20,
                                     seed=9)
    assert sampled_band.value == pytest.approx(sampled_dense.value, rel=1e-12)
    over_band = overalpha_estimate(blocks, "inf", samples=15, seed=9,
                                   vertex_budget=0)
    over_dense = overalpha_estimate(dense_blocks, "inf", samples=15, seed=9,
                                    vertex_budget=0)
    assert over_band.value == pytest.approx(over_dense.value, rel=1e-6)


def test_alpha_constants_reject_unknown_norm_tag():
    band = gen_example52(3).problem.as_general().blocks
    for blocks in (UNIT_TRIANGULAR_PAIR, band):
        with pytest.raises(ValueError):
            underalpha_exact(blocks, "fro")
        with pytest.raises(ValueError):
            overalpha_estimate(blocks, "fro", samples=2)
