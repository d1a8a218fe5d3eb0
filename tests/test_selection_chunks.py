"""The batched sampled scans against per-selection references.

``selection_chunks`` stacks the selections it is given a chunk at a time;
``sample_rho_L`` and ``overalpha_estimate`` scan those stacks instead of one
selection per call. The chunk cap is shrunk so that the samples span several
chunks, and each result is compared with the selection-by-selection
computation it replaces.
"""

import numpy as np
import pytest

from ehlcp import (BlockMatrixSet, DenseMatrix, SingularSelection,
                   TridiagonalMatrix, overalpha_estimate, sample_rho_L)
from ehlcp import bounds, wproperty
from ehlcp.blockdata import BandMatrix
from ehlcp.convergence import simplex_selections
from ehlcp.solvers import LinearOperatorFactor
from ehlcp.wproperty import selection_chunks, selection_combination

TRIALS = 23


def float_blocks(layout, n=5, m=3, seed=11):
    """Blocks with float entries near a dominant diagonal, so every sample is
    regular; three or more blocks, so the order of the sum shows in the bits."""
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-1.0, 1.0, size=(m + 1, n, n)) + 4.0 * np.eye(n)
    if layout == "dense":
        stores = [DenseMatrix(a) for a in mats]
    else:
        offsets = [0, -1, 1, 2]
        stores = [BandMatrix(offsets, [np.concatenate([np.zeros(max(o, 0)),
                                                       np.diag(a, o),
                                                       np.zeros(max(-o, 0))])
                                       for o in offsets]) for a in mats]
    return BlockMatrixSet(stores[0], tuple(stores[1:]))


def per_chunk_cap(monkeypatch, n, per_chunk):
    monkeypatch.setattr(wproperty, "CHUNK_BYTES", 8 * n * n * per_chunk)


@pytest.mark.parametrize("per_chunk", [1, 2, 5, 23, 40])
@pytest.mark.parametrize("layout", ["dense", "band"])
def test_stacks_equal_selection_combination_bitwise(layout, per_chunk, monkeypatch):
    blocks = float_blocks(layout)
    per_chunk_cap(monkeypatch, blocks.n, per_chunk)
    draws = list(simplex_selections(blocks.m, blocks.n, TRIALS, 4))
    chunks = list(selection_chunks(blocks, iter(draws)))
    assert [len(lams) for lams, _ in chunks] == \
        [min(per_chunk, TRIALS - lo) for lo in range(0, TRIALS, per_chunk)]
    lams = np.concatenate([lams for lams, _ in chunks])
    stack = np.concatenate([stack for _, stack in chunks])
    assert lams.tobytes() == np.array(draws).tobytes()
    for lam, mat in zip(draws, stack):
        assert mat.tobytes() == selection_combination(blocks, lam).to_dense().tobytes()


@pytest.mark.parametrize("per_chunk", [1, 3, 23])
@pytest.mark.parametrize("layout", ["dense", "band"])
def test_sampled_scans_equal_per_selection_reference(layout, per_chunk, monkeypatch):
    blocks = float_blocks(layout)
    per_chunk_cap(monkeypatch, blocks.n, per_chunk)
    combos = [selection_combination(blocks, lam).to_dense()
              for lam in simplex_selections(blocks.m, blocks.n, TRIALS, 6)]
    for tag, order in (("1", 1), ("2", 2), ("inf", np.inf)):
        want = max(float(np.linalg.norm(np.linalg.inv(c), order)) for c in combos)
        est = overalpha_estimate(blocks, tag, samples=TRIALS, seed=6, vertex_budget=0)
        assert (est.value, est.count, est.exact) == (want, TRIALS, False)
    factor = LinearOperatorFactor(blocks.M)
    combos = [selection_combination(blocks, lam).to_dense()
              for lam in simplex_selections(blocks.m, blocks.n, TRIALS, 8)]
    want = max(float(np.max(np.abs(np.linalg.eigvals(np.eye(blocks.n) - factor.solve(c)))))
               for c in combos)
    rep = sample_rho_L(blocks, trials=TRIALS, seed=8, vertex_budget=0)
    assert (rep.value, rep.samples_used, rep.certifying) == (want, TRIALS, False)


# M = I and H1 = diag(-1, 1): a combination is singular exactly when the two
# weights of coordinate 0 are equal, which a continuous draw never gives. The
# draws are replaced by a fixed list that puts such selections at chosen places.
def regular(k):
    return np.array([[0.25 + 0.01 * k, 0.5], [0.75 - 0.01 * k, 0.5]])


def singular(w):
    return np.array([[w, 0.5], [w, 0.5]])


@pytest.mark.parametrize("per_chunk", range(1, 8))
@pytest.mark.parametrize("first", [0, 3, 4, 7])
def test_first_singular_sample_is_the_witness(first, per_chunk, monkeypatch):
    draws = [regular(k) for k in range(9)]
    draws[first] = singular(0.5)
    draws[first + 1] = singular(0.25)

    def fixed(m, n, trials, seed):
        yield from draws[:trials]

    monkeypatch.setattr(bounds, "simplex_selections", fixed)
    per_chunk_cap(monkeypatch, 2, per_chunk)
    blocks = BlockMatrixSet(DenseMatrix(np.eye(2)), (DenseMatrix(np.diag([-1.0, 1.0])),))
    with pytest.raises(SingularSelection) as info:
        overalpha_estimate(blocks, "inf", samples=len(draws), vertex_budget=0)
    assert np.array_equal(info.value.selection.lambdas, singular(0.5))
    est = overalpha_estimate(blocks, "inf", samples=first, vertex_budget=0)
    assert est.count == first


def test_stacks_stay_under_the_cap_at_order_400():
    n = 400
    blocks = BlockMatrixSet(TridiagonalMatrix.constant(n, 1.0, 4.0, -2.0),
                            (TridiagonalMatrix.constant(n, -1.0, 3.0, 0.5),
                             TridiagonalMatrix.constant(n, 0.0, 1.0, 0.0)))
    sizes = [len(stack) for _, stack in
             selection_chunks(blocks, simplex_selections(blocks.m, n, 200, 1))]
    assert len(sizes) > 1 and sum(sizes) == 200
    assert all(k == 1 for k in sizes)  # one 1.28 MB matrix exceeds the 1 MiB cap
    n = 100
    small = BlockMatrixSet(TridiagonalMatrix.constant(n, 1.0, 4.0, -2.0),
                           (TridiagonalMatrix.constant(n, -1.0, 3.0, 0.5),))
    chunks = [stack for _, stack in
              selection_chunks(small, simplex_selections(small.m, n, 200, 1))]
    assert len(chunks) > 1 and sum(map(len, chunks)) == 200
    assert all(stack.nbytes <= wproperty.CHUNK_BYTES for stack in chunks)
