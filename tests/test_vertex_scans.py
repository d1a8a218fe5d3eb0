"""The chunked exhaustive scans against per-assignment references.

Each reference walks ``counter_order`` one tuple at a time, builds the
representative with ``representative`` and applies plain numpy, the way the
scans worked before they were batched. The chunk cap is shrunk so that every
scan spans several chunks, and the small integer blocks drawn here give zero
determinants, sign changes, singular regions and 0, 1 or several solutions.
The closed-form norms of ``underalpha_exact`` are checked on float-valued
dense and band blocks too, where a wrong summation would show in the bits.
``has_column_w_property`` eliminates over the tree of column choices instead
of calling ``slogdet`` per representative; its rounding differs from LAPACK's,
so its reports, not its bits, are compared with the reference, on the same
float draws and on determinants placed just either side of the zero band.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import counter_order
from ehlcp import (BlockMatrixSet, BoundLadder, DenseMatrix, EhlcpProblem,
                   SingularM, SingularSelection, gen_example52,
                   has_column_w_property, identity_matrix, oracle_solve,
                   overalpha_estimate, representative, sample_rho_L,
                   underalpha_exact)
from ehlcp import wproperty
from ehlcp.blockdata import BandMatrix
from ehlcp.solvers import LinearOperatorFactor
from ehlcp.wproperty import vertex_chunks


@st.composite
def integer_problems(draw):
    """(problem, representatives per chunk) with entries in -2..2, n 1-4, m 1-3."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    mats = draw(hnp.arrays(np.int64, (m + 1, n, n), elements=st.integers(-2, 2)))
    q = draw(hnp.arrays(np.int64, n, elements=st.integers(-2, 2)))
    d = draw(hnp.arrays(np.int64, (m - 1, n), elements=st.integers(1, 2)))
    blocks = BlockMatrixSet(DenseMatrix(mats[0].astype(float)),
                            tuple(DenseMatrix(a.astype(float)) for a in mats[1:]))
    problem = EhlcpProblem(blocks, q.astype(float),
                           BoundLadder(tuple(d.astype(float)), n))
    return problem, draw(st.integers(1, 7))


@st.composite
def float_blocks(draw, flush_below=0.0):
    """Dense or band blocks with float entries of either sign, n 1-6, m 1-3;
    entries of magnitude below flush_below are drawn as 0."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    reals = st.floats(-1e6, 1e6, allow_nan=False).map(
        lambda x: 0.0 if abs(x) < flush_below else x)
    if draw(st.booleans()):
        mats = draw(hnp.arrays(np.float64, (m + 1, n, n), elements=reals))
        stores = [DenseMatrix(a) for a in mats]
    else:
        stores = []
        for _ in range(m + 1):
            offsets = draw(st.lists(st.integers(1 - n, n - 1), min_size=1, unique=True))
            stores.append(BandMatrix(offsets, draw(
                hnp.arrays(np.float64, (len(offsets), n), elements=reals))))
    return BlockMatrixSet(stores[0], tuple(stores[1:]))


def small_chunks(mp, n, per_chunk):
    mp.setattr(wproperty, "CHUNK_BYTES", 8 * n * n * per_chunk)


def reps(blocks):
    for assign in counter_order(blocks.n, blocks.m):
        yield assign, representative(blocks, assign).data


def ref_w_property(blocks):
    n = blocks.n
    sign_min, sign_max, first, checked = 2, -2, 0, 0
    for assign, r in reps(blocks):
        sign, logabs = np.linalg.slogdet(r)
        max_col = float(np.max(np.linalg.norm(r, axis=0)))
        zero = (max_col == 0.0 or sign == 0.0
                or logabs < math.log(wproperty.DET_ZERO_COEFF) + n * math.log(max_col))
        s = 0 if zero else int(sign)
        checked += 1
        sign_min, sign_max = min(sign_min, s), max(sign_max, s)
        if s == 0 or (first and s != first):
            return False, (sign_min, sign_max), assign, checked
        first = first or s
    return True, (sign_min, sign_max), None, checked


def ref_oracle(problem, tol=1e-9, dedup=1e-8):
    m = problem.m
    cols = [s.to_dense() for s in problem.blocks.all()]
    s_breaks, d = problem.ladder.prefix, problem.ladder.d
    ys, singular = [], 0
    for assign, mat in reps(problem.blocks):
        g = np.array(problem.q, copy=True)
        for j, c in enumerate(assign):
            if c:
                g -= s_breaks[c - 1][j] * cols[c][:, j]
                for l in range(1, c):
                    g += d[l - 1][j] * cols[l][:, j]
        try:
            y = np.linalg.solve(mat, -g)
        except np.linalg.LinAlgError:
            singular += 1
            continue
        inside = all(
            (v <= tol) if c == 0 else
            (s_breaks[c - 1][j] - tol <= v <= s_breaks[c][j] + tol) if c < m else
            (v >= s_breaks[m - 1][j] - tol)
            for j, (c, v) in enumerate(zip(assign, y)))
        if inside and not any(np.max(np.abs(y - p)) <= dedup for p in ys):
            ys.append(y)
    return ys, singular


def ref_overalpha(blocks, order):
    worst = 0.0
    for assign, r in reps(blocks):
        try:
            inv = np.linalg.inv(r)
        except np.linalg.LinAlgError:
            return assign
        if not np.isfinite(inv).all():
            return assign
        worst = max(worst, float(np.linalg.norm(inv, order)))
    return worst


def ref_rho(blocks):
    factor = LinearOperatorFactor(blocks.M)
    eye = np.eye(blocks.n)
    return max(float(np.max(np.abs(np.linalg.eigvals(eye - factor.solve(r)))))
               for _, r in reps(blocks))


@settings(max_examples=150, deadline=None)
@given(integer_problems())
def test_chunked_scans_match_per_assignment_reference(case):
    problem, per_chunk = case
    blocks, n, m = problem.blocks, problem.n, problem.m
    with pytest.MonkeyPatch.context() as mp:
        small_chunks(mp, n, per_chunk)
        assert sum(len(dg) for dg, _ in vertex_chunks(blocks)) == (m + 1) ** n

        rep = has_column_w_property(blocks)
        want = ref_w_property(blocks)
        assert (rep.holds, rep.determinant_sign_range, rep.witness,
                rep.representatives_checked) == want
        assert type(rep.holds) is bool and type(rep.representatives_checked) is int
        assert all(type(v) is int for v in rep.determinant_sign_range)
        assert rep.witness is None or all(type(v) is int for v in rep.witness)

        res = oracle_solve(problem)
        ys, singular = ref_oracle(problem)
        assert (res.regions_checked, res.singular_regions) == ((m + 1) ** n, singular)
        assert len(res.solutions) == len(ys)
        for (y, _), want_y in zip(res.solutions, ys):
            assert np.max(np.abs(y - want_y)) <= 1e-12

        for tag, order in (("1", 1), ("2", 2), ("inf", np.inf)):
            want = max(float(np.linalg.norm(r, order)) for _, r in reps(blocks))
            assert underalpha_exact(blocks, tag).value == want
            want = ref_overalpha(blocks, order)
            if isinstance(want, tuple):
                with pytest.raises(SingularSelection) as info:
                    overalpha_estimate(blocks, tag, samples=0)
                lam = np.zeros((m + 1, n))
                lam[list(want), np.arange(n)] = 1.0
                assert np.array_equal(info.value.selection.lambdas, lam)
            else:
                assert overalpha_estimate(blocks, tag, samples=0).value == want

        try:
            want = ref_rho(blocks)
        except SingularM:
            with pytest.raises(SingularM):
                sample_rho_L(blocks, trials=0)
        else:
            assert sample_rho_L(blocks, trials=0).value == want


@settings(max_examples=150, deadline=None)
@given(float_blocks())
def test_closed_form_underalpha_is_the_vertex_maximum(blocks):
    for tag, order in (("1", 1), ("inf", np.inf)):
        want = max(float(np.linalg.norm(r, order)) for _, r in reps(blocks))
        est = underalpha_exact(blocks, tag)
        assert est.value.hex() == want.hex()
        assert (est.exact, est.count) == (True, (blocks.m + 1) ** blocks.n)


# M = I and H1 = diag(1, 1, h): a representative is singular or negative
# exactly when it takes column 2 from H1, first at counter 4 = (0, 0, 1).
@pytest.mark.parametrize("per_chunk", range(1, 9))
@pytest.mark.parametrize("h", [0.0, -1.0])
def test_witness_on_and_across_chunk_edges(per_chunk, h, monkeypatch):
    small_chunks(monkeypatch, 3, per_chunk)
    blocks = BlockMatrixSet(DenseMatrix(np.eye(3)), (DenseMatrix(np.diag([1.0, 1.0, h])),))
    rep = has_column_w_property(blocks)
    assert (rep.holds, rep.witness, rep.representatives_checked) == (False, (0, 0, 1), 5)
    assert rep.determinant_sign_range == ((0, 1) if h == 0.0 else (-1, 1))
    if h == 0.0:
        with pytest.raises(SingularSelection) as info:
            overalpha_estimate(blocks, "inf", samples=0)
        assert np.array_equal(info.value.selection.lambdas,
                              [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        res = oracle_solve(EhlcpProblem(blocks, np.ones(3), BoundLadder((), 3)))
        assert res.singular_regions == 4  # every region taking column 2 from H1


def report(blocks):
    """has_column_w_property's report as ref_w_property returns it, computed
    where a NaN would raise."""
    with np.errstate(invalid="raise"):
        rep = has_column_w_property(blocks)
    return (rep.holds, rep.determinant_sign_range, rep.witness, rep.representatives_checked)


# Entries below 1e-100 are drawn as 0. Below 1e-154 the reference's column
# norms, sums of squares, underflow to 0; near the subnormal range a singular
# representative's computed det is a rounding residue that no relative band
# catches, so any two elimination orders may differ there. Tiny and huge
# entries are covered by the power-of-two scaling test below.
@settings(max_examples=150, deadline=None)
@given(float_blocks(flush_below=1e-100), st.integers(1, 7))
def test_tree_matches_the_per_representative_reference(blocks, per_chunk):
    with pytest.MonkeyPatch.context() as mp:
        small_chunks(mp, blocks.n, per_chunk)
        assert report(blocks) == ref_w_property(blocks)


# M = a * U diag(1, ..., 1, delta) V^T, with delta set so that log|det M| sits
# 5e-4 below or above the zero threshold log(1e-10) + n log(max column norm).
# H1 is M with column 0 negated, or M itself: every representative has the
# column norms of M and |det M|, so all sit on the same side of the band.
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_determinants_just_either_side_of_the_zero_band(n, side, flip, scale):
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    unit = np.ones(n)
    unit[-1] = 0.0
    max_col = float(np.max(np.linalg.norm(u @ np.diag(unit) @ v.T, axis=0)))
    unit[-1] = math.exp(math.log(wproperty.DET_ZERO_COEFF) + n * math.log(max_col)
                        + side * 5e-4)
    m = scale * (u @ np.diag(unit) @ v.T)
    sign, logabs = np.linalg.slogdet(m)
    margin = logabs - (math.log(wproperty.DET_ZERO_COEFF)
                       + n * math.log(float(np.max(np.linalg.norm(m, axis=0)))))
    assert 0.0 < side * margin < 1e-3
    h = m * np.where(np.arange(n) == 0, -1.0, 1.0) if flip else m
    blocks = BlockMatrixSet(DenseMatrix(m), (DenseMatrix(h),))
    got = report(blocks)
    assert got == ref_w_property(blocks)
    if side < 0:
        assert got == (False, (0, 0), (0,) * n, 1)
    elif flip:
        assert got == (False, (-1, 1), (1,) + (0,) * (n - 1), 2)
    else:
        assert got == (True, (int(sign), int(sign)), None, 2 ** n)


# Column 1 of M is twice column 2, so the second step of the tree meets a zero
# pivot under every state that took column 2 from M: those subtrees must read
# det 0 without a division by zero or a NaN.
def test_zero_pivot_gives_its_subtree_det_zero_without_nan():
    m = DenseMatrix([[1.0, 2.0, 1.0], [0.0, 2.0, 1.0], [3.0, 0.0, 0.0]])
    blocks = BlockMatrixSet(m, (identity_matrix(3), DenseMatrix(np.diag([2.0, -1.0, 3.0]))))
    assert report(blocks) == ref_w_property(blocks) == (False, (0, 0), (0, 0, 0), 1)
    blocks = BlockMatrixSet(identity_matrix(3), (m,))
    assert report(blocks) == ref_w_property(blocks)


# H2 = diag(1, -1, 1, ...): a representative is negative exactly when it
# takes column 1 from H2, first at counter 6 = (0, 2, 0, ...). A cap of 8
# bytes makes every level finish its states one at a time; 1,944 bytes at
# n = 5 splits the 9 states of one level into groups of 3.
@pytest.mark.parametrize("n, cap", [(4, 8), (4, 8 * 3 * 3), (4, 8 * 3 * 3 * 4), (5, 1944)])
def test_groups_finish_lowest_counters_first(n, cap, monkeypatch):
    monkeypatch.setattr(wproperty, "CHUNK_BYTES", cap)
    h2 = np.eye(n)
    h2[1, 1] = -1.0
    blocks = BlockMatrixSet(identity_matrix(n), (identity_matrix(n), DenseMatrix(h2)))
    want = (False, (-1, 1), (0, 2) + (0,) * (n - 2), 7)
    assert report(blocks) == ref_w_property(blocks) == want


# The identity with column 0 negated or not, and the same block twice: every
# representative is that matrix, so the sign range is the sign of its det.
@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("negate", [False, True])
def test_sign_range_is_the_sign_of_the_determinant(n, negate):
    m = np.eye(n)
    m[0, 0] = -1.0 if negate else 1.0
    blocks = BlockMatrixSet(DenseMatrix(m), (DenseMatrix(m),))
    want = -1 if negate else 1
    assert report(blocks) == (True, (want, want), None, 2 ** n)


def test_example52_n10_against_slogdet_over_vertex_chunks():
    blocks = gen_example52(10).problem.as_general().blocks
    col_norms = np.linalg.norm(np.stack([s.to_dense() for s in blocks.all()]), axis=1)
    signs = []
    for digits, stack in vertex_chunks(blocks):
        sign, logabs = np.linalg.slogdet(stack)
        zero = math.log(wproperty.DET_ZERO_COEFF) + 10 * np.log(
            col_norms[digits, np.arange(10)].max(axis=1))
        signs.append(np.where(logabs < zero, 0, sign))
    signs = np.concatenate(signs)
    assert signs.size == 3 ** 10 and np.all(signs == 1)
    assert report(blocks) == (True, (1, 1), None, 59049)


# Scaling every block by a power of two scales each determinant and the zero
# band's norm^n alike, so the report must not change: not where the column
# norms' squares underflow (2^-600, 2^-900) or overflow (2^600) either. The
# first M has a row three times the other, up to the rounding of the
# products, so its det is a residue far inside the band; taken twice, it must
# fail at every scale.
@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** -900, 2.0 ** 600])
def test_scaling_by_a_power_of_two_keeps_the_report(scale):
    near = DenseMatrix([[0.1, 0.7], [0.1 * 3.0, 0.7 * 3.0]])
    cases = [BlockMatrixSet(near, (near,))]
    rng = np.random.default_rng(7)
    for n, m in ((2, 1), (3, 2), (4, 1)):
        mats = rng.standard_normal((m + 1, n, n)) + 3.0 * np.eye(n)
        cases.append(BlockMatrixSet(DenseMatrix(mats[0]),
                                    tuple(DenseMatrix(a) for a in mats[1:])))
    for blocks in cases:
        scaled = BlockMatrixSet(DenseMatrix(blocks.M.data * scale),
                                tuple(DenseMatrix(h.data * scale) for h in blocks.H))
        assert report(scaled) == report(blocks) == ref_w_property(blocks)
    assert report(cases[0]) == (False, (0, 0), (0, 0), 1)
