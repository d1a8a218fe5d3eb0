import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehlcp import (BandMatrix, BlockMatrixSet, BlockTridiagonalMatrix,
                   BoundLadder, DenseMatrix, Ehlcp2Problem, EhlcpProblem, SingularM,
                   TridiagonalMatrix, identity_matrix, prefix_sums,
                   problem_from_json, problem_to_json, validate)
from ehlcp.blockdata import (abs_colsums, all_finite, is_identity, is_symmetric,
                             matrix_from_json, matrix_to_json)
from ehlcp.convergence import DENSE_EIG_MAX_ORDER, inverse_norm


def example_stores(rng):
    n = 9
    tri = TridiagonalMatrix(rng.uniform(-2, 2, n - 1), rng.uniform(1, 3, n),
                            rng.uniform(-2, 2, n - 1))
    blk = BlockTridiagonalMatrix(3, -1.5,
                                 TridiagonalMatrix(rng.uniform(-1, 1, 2),
                                                   rng.uniform(2, 4, 3),
                                                   rng.uniform(-1, 1, 2)), 0.75)
    dense = DenseMatrix(rng.uniform(-1, 1, (n, n)))
    band = BandMatrix((3, 0, -2), rng.uniform(-1, 1, (3, n)))
    return [tri, blk, band, dense]


def test_matvec_and_rmatvec_match_dense(rng):
    for store in example_stores(rng):
        x = rng.standard_normal(store.n)
        dense = store.to_dense()
        assert np.allclose(store.matvec(x), dense @ x, atol=1e-14)
        assert np.allclose(store.rmatvec(x), dense.T @ x, atol=1e-14)


def test_entrywise_transforms_match_dense(rng):
    for store in example_stores(rng):
        dense = store.to_dense()
        diag = np.diag(store.diagonal())
        # the comparison matrix <A>: |diagonal| and -|off-diagonal|
        comp = store.rebuilt(np.abs(store.diagonal()), lambda d: -np.abs(d)).to_dense()
        assert np.array_equal(comp, np.abs(diag) - np.abs(dense - diag))
        # A = Lambda - C with C the negated off-diagonal part
        neg = store.rebuilt(np.zeros(store.n), np.negative).to_dense()
        assert np.array_equal(diag - neg, dense)
        # I - 1.5 A and |A|
        shifted = store.rebuilt(1.0 - 1.5 * store.diagonal(), lambda d: -1.5 * d)
        assert np.array_equal(shifted.to_dense(), np.eye(store.n) - 1.5 * dense)
        absolute = store.rebuilt(np.abs(store.diagonal()), np.abs)
        assert np.array_equal(absolute.to_dense(), np.abs(dense))
        assert np.allclose(store.abs_rowsums(), np.abs(dense).sum(axis=1))
        assert np.allclose(abs_colsums(store), np.abs(dense).sum(axis=0))
        s = rng.uniform(0.5, 2.0, store.n)
        assert np.allclose(store.row_scaled(s).to_dense(), dense * s[:, None])


@st.composite
def store_with_reference(draw):
    """(store, dense reference) for a drawn band or dense store.

    Band stores take random offsets in -8..8, with or without a main
    diagonal; both kinds may carry exact zeros and all-zero rows. The
    reference is filled entry by entry from the constructor's input.
    """
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero_rows = draw(st.lists(st.integers(0, n - 1), max_size=2))
    if draw(st.booleans()):
        ref = rng.uniform(-2.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
        ref[zero_rows] = 0.0
        return DenseMatrix(ref), ref.copy()
    offsets = draw(st.lists(st.integers(-8, 8), unique=True, max_size=6))
    data = rng.uniform(-2.0, 2.0, (len(offsets), n)) * (rng.random((len(offsets), n)) < 0.8)
    ref = np.zeros((n, n))
    for o, row in zip(offsets, data):
        for j in range(n):
            if j - o in zero_rows:
                row[j] = 0.0
            elif 0 <= j - o < n:
                ref[j - o, j] = row[j]
    return BandMatrix(offsets, data), ref


@settings(max_examples=150, deadline=None)
@given(store_with_reference(), st.floats(-4.0, 4.0), st.integers(0, 2 ** 32 - 1))
def test_rebuilt_and_to_dense_match_dense_arithmetic(drawn, c, seed):
    store, ref = drawn
    assert np.array_equal(store.to_dense(), ref)
    main = np.random.default_rng(seed).uniform(-2.0, 2.0, store.n)
    for off in (np.abs, np.negative, lambda d: -np.abs(d), lambda d: c * d):
        want = off(ref)
        np.fill_diagonal(want, main)
        assert np.array_equal(store.rebuilt(main, off).to_dense(), want)
    # both read data, which must be zero outside the matrix
    assert np.allclose(abs_colsums(store), np.abs(ref).sum(axis=0), rtol=1e-14, atol=0.0)
    assert all_finite(store)
    assert not all_finite(store.rebuilt(np.full(store.n, np.nan), np.positive))
    # below DENSE_EIG_MAX_ORDER every store takes the dense store's exact path
    assert store.n <= DENSE_EIG_MAX_ORDER
    for tag in ("1", "2", "inf"):
        try:
            want = inverse_norm(DenseMatrix(ref), tag)
        except SingularM:
            with pytest.raises(SingularM):
                inverse_norm(store, tag)
        else:
            assert inverse_norm(store, tag) == want


CONTRACT = {"matvec", "rmatvec", "to_dense", "diagonal", "diagonals", "rebuilt",
            "row_scaled", "abs_rowsums"}


@pytest.mark.parametrize("cls", [DenseMatrix, BandMatrix])
def test_stores_define_exactly_the_contract_methods(cls):
    methods = {name for name, value in vars(cls).items()
               if not name.startswith("_") and inspect.isfunction(value)}
    assert methods == CONTRACT


def test_band_roundtrip_and_ops(rng):
    for store in example_stores(rng):
        dense = store.to_dense()
        offsets, values = zip(*store.diagonals())
        band = BandMatrix(offsets, values)
        assert np.array_equal(band.to_dense(), dense)
        assert band.bandwidth == max(abs(o) for o in offsets)
        x = rng.standard_normal(store.n)
        assert np.allclose(band.matvec(x), dense @ x)
        assert np.allclose(band.rmatvec(x), dense.T @ x)


def test_band_store_keeps_only_nonzero_diagonals_inside():
    # offset 1 is all zero, offset -5 lies outside a 4 x 4 matrix, and the
    # entries of offsets 2 and -1 that fall outside the matrix are dropped
    band = BandMatrix((2, 1, -1, -5), [[9.0, 9.0, 1.0, 2.0], np.zeros(4),
                                       [3.0, 4.0, 5.0, 9.0], np.ones(4)])
    assert band.offsets == (-1, 2)
    assert band.bandwidth == 2
    expected = np.zeros((4, 4))
    expected[[0, 1], [2, 3]] = [1.0, 2.0]
    expected[[1, 2, 3], [0, 1, 2]] = [3.0, 4.0, 5.0]
    assert np.array_equal(band.to_dense(), expected)
    assert all_finite(band)
    with pytest.raises(ValueError):
        BandMatrix((1, 1), np.ones((2, 4)))


def test_identity_store():
    eye = identity_matrix(5)
    assert is_identity(eye)
    assert np.allclose(eye.to_dense(), np.eye(5))
    assert not is_identity(TridiagonalMatrix.constant(5, 0.0, 2.0, 0.0))
    assert is_identity(DenseMatrix(np.eye(3)))
    assert not is_identity(BandMatrix((0, 1), [np.ones(3), [0.0, 0.0, 1e-300]]))


def test_is_symmetric_pairs_each_band_diagonal_with_its_partner(rng):
    sym = TridiagonalMatrix([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0], [1.0, 2.0, 3.0])
    one_ulp = TridiagonalMatrix([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0],
                                [1.0, np.nextafter(2.0, 3.0), 3.0])
    shifted = TridiagonalMatrix([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0], [2.0, 3.0, 1.0])
    unpaired = BandMatrix((0, 2), [np.ones(5), [0.0, 0.0, 1.0, 1.0, 1.0]])
    block = BlockTridiagonalMatrix(3, -1.0, TridiagonalMatrix.constant(3, -1.0, 4.0, -1.0),
                                   -1.0)
    a = rng.uniform(-1, 1, (6, 6))
    wide = BandMatrix((0, -3, 3), [[1.0] * 6, [2.0, 3.0, 4.0, 0.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, 2.0, 3.0, 4.0]])
    cases = [(sym, True), (one_ulp, False), (shifted, False), (unpaired, False),
             (block, True), (wide, True), (DenseMatrix(a + a.T), True),
             (DenseMatrix(a), False), (identity_matrix(4), True)]
    for store, symmetric in cases:
        dense = store.to_dense()
        assert np.array_equal(dense, dense.T) == symmetric
        assert is_symmetric(store) == symmetric
        assert is_symmetric(DenseMatrix(dense)) == symmetric


def test_prefix_sums_examples():
    ladder = BoundLadder((np.array([1.0, 2.0]), np.array([3.0, 4.0])), 2)
    s = prefix_sums(ladder)
    assert len(s) == 3
    assert np.array_equal(s[0], [0.0, 0.0])
    assert np.array_equal(s[1], [1.0, 2.0])
    assert np.array_equal(s[2], [4.0, 6.0])
    # m = 1: only the zero breakpoint
    empty = BoundLadder((), 4)
    s = prefix_sums(empty)
    assert len(s) == 1 and np.array_equal(s[0], np.zeros(4))
    # b = 0.1 e: the single interior breakpoint is b itself
    tenth = BoundLadder((np.full(3, 0.1),), 3)
    assert np.array_equal(prefix_sums(tenth)[0], np.zeros(3))
    assert np.array_equal(prefix_sums(tenth)[1], np.full(3, 0.1))


def test_prefix_sums_strictly_increase(rng):
    for _ in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        ladder = BoundLadder(tuple(rng.uniform(0.1, 2.0, n) for _ in range(m - 1)), n)
        s = prefix_sums(ladder)
        for i in range(1, len(s)):
            assert np.all(s[i] > s[i - 1])


def _well_formed(n=2):
    eye = identity_matrix(n)
    blocks = BlockMatrixSet(eye, (eye, eye))
    return EhlcpProblem(blocks, np.zeros(n), BoundLadder((np.ones(n),), n))


def test_validate_passes_well_formed():
    report = validate(_well_formed())
    assert report.ok and not report.issues


def test_validate_flags_nonpositive_ladder():
    n = 2
    eye = identity_matrix(n)
    blocks = BlockMatrixSet(eye, (eye, eye))
    p = EhlcpProblem(blocks, np.zeros(n), BoundLadder((np.array([1.0, 0.0]),), n))
    report = validate(p)
    assert not report.ok
    assert any("ladder not strictly positive" in msg for msg in report.issues)


def test_validate_flags_dimension_mismatch():
    n = 3
    eye = identity_matrix(n)
    blocks = BlockMatrixSet(eye, (eye,))
    p = EhlcpProblem(blocks, np.zeros(n - 1), BoundLadder((), n))
    report = validate(p)
    assert not report.ok
    assert any("dimension mismatch" in msg for msg in report.issues)
    # the ladder's n (a problem file's "n") must match the blocks' order too
    p = EhlcpProblem(blocks, np.zeros(n), BoundLadder((), n + 1))
    assert [msg for msg in validate(p).issues if "dimension mismatch" in msg]
    # m - 1 = 1 ladder step for (M, H1, H2), none given
    p = EhlcpProblem(BlockMatrixSet(eye, (eye, eye)), np.zeros(n), BoundLadder((), n))
    assert validate(p).issues == ["ladder length 0 does not match m - 1 = 1"]


def test_validate_flags_nonfinite():
    n = 2
    bad = DenseMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    blocks = BlockMatrixSet(bad, (identity_matrix(n),))
    p = EhlcpProblem(blocks, np.zeros(n), BoundLadder((), n))
    report = validate(p)
    assert not report.ok
    assert any("non-finite" in msg for msg in report.issues)
    p = _well_formed(n)
    p = EhlcpProblem(p.blocks, np.array([np.inf, 0.0]),
                     BoundLadder((np.array([1.0, np.nan]),), n))
    assert validate(p).issues == ["non-finite entries in q", "non-finite entries in d1"]


def test_json_roundtrip(rng):
    n = 9
    blk = BlockTridiagonalMatrix(3, -1.0,
                                 TridiagonalMatrix.constant(3, -1.0, 5.0, -1.0), -1.0)
    tri = TridiagonalMatrix.constant(n, 1.0, 4.0, -2.0)
    blocks = BlockMatrixSet(blk, (tri, identity_matrix(n)))
    problem = EhlcpProblem(blocks, rng.standard_normal(n),
                           BoundLadder((np.full(n, 0.1),), n))
    obj = problem_to_json(problem)
    # must survive a JSON text round trip, not just dict manipulation
    restored, prescribed = problem_from_json(json.loads(json.dumps(obj)))
    assert prescribed is None
    assert np.array_equal(restored.q, problem.q)
    assert np.allclose(restored.blocks.M.to_dense(), blk.to_dense())
    assert np.allclose(restored.blocks.H[0].to_dense(), tri.to_dense())
    assert np.array_equal(restored.ladder.d[0], problem.ladder.d[0])


T3 = TridiagonalMatrix.constant(3, -1.0, 4.0, -1.0)
EYE_JSON = {"dense": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("build, error, message", [
    (lambda: Ehlcp2Problem(T3, np.zeros((3, 1)), np.ones(3)), ValueError,
     r"q must be 1-D, got shape \(3, 1\)"),
    (lambda: Ehlcp2Problem(T3, np.zeros(2), np.ones(3)), ValueError,
     "q must have length 3, got 2"),
    (lambda: DenseMatrix(np.zeros((2, 3))), ValueError, "dense matrix must be square"),
    (lambda: BandMatrix((0, 1), np.zeros((3, 4))), ValueError,
     r"band data of shape \(3, 4\) for 2 offsets"),
    (lambda: BlockTridiagonalMatrix(0, -1.0, T3, -1.0), ValueError,
     "block order must be >= 1"),
    (lambda: BlockTridiagonalMatrix(2, -1.0, T3, -1.0), ValueError,
     "diagonal block order must match block order"),
    (lambda: BlockMatrixSet(identity_matrix(3), ()), ValueError,
     "need at least one trailing block"),
    (lambda: BlockMatrixSet(identity_matrix(3), (identity_matrix(2),)), ValueError,
     "block 1 has order 2, expected 3"),
    (lambda: Ehlcp2Problem(T3, np.zeros(3), np.array([1.0, 0.0, 1.0])), ValueError,
     "b must be strictly positive"),
    (lambda: matrix_to_json(BandMatrix((0, 2), np.ones((2, 4)))), TypeError,
     "no JSON spelling for the band layout"),
    (lambda: matrix_from_json({"sparse": []}), ValueError,
     r"unknown matrix layout keys: \['sparse'\]"),
    (lambda: problem_from_json({"n": 2, "m": 2, "M": EYE_JSON, "H": [EYE_JSON],
                                "q": [0.0, 0.0]}), ValueError,
     "H lists 1 blocks but m = 2"),
], ids=["vector-2d", "vector-length", "dense-not-square", "band-shape",
        "block-order-zero", "block-order-mismatch", "no-trailing-block",
        "block-order-differs", "b-not-positive", "band-json", "json-layout",
        "json-block-count"])
def test_malformed_stores_and_problems_raise_typed_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()
