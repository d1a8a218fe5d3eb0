"""The chunked exhaustive scans against per-assignment references.

Each reference walks ``counter_order`` one tuple at a time, builds the
representative with ``representative`` and applies plain numpy, the way the
scans worked before they were batched. The chunk cap is shrunk so that every
scan spans several chunks, and the small integer blocks drawn here give zero
determinants, sign changes, singular regions and 0, 1 or several solutions.
The closed-form norms of ``underalpha_exact`` are checked on float-valued
dense and band blocks too, where a wrong summation would show in the bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import counter_order
from ehlcp import (BlockMatrixSet, BoundLadder, DenseMatrix, EhlcpProblem,
                   SingularM, SingularSelection, has_column_w_property,
                   oracle_solve, overalpha_estimate, representative,
                   sample_rho_L, underalpha_exact)
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
def float_blocks(draw):
    """Dense or band blocks with float entries of either sign, n 1-6, m 1-3."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    reals = st.floats(-1e6, 1e6, allow_nan=False)
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
