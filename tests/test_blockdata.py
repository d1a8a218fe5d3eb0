import inspect
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehlcp import (BandMatrix, BlockMatrixSet, BlockTridiagonalMatrix,
                   BoundLadder, DenseMatrix, Ehlcp2Problem, EhlcpProblem, SingularM,
                   TridiagonalMatrix, gen_example52, gen_example55, identity_matrix,
                   prefix_sums, problem_from_json, problem_to_json, recover_solution,
                   validate)
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


def loop_products(store, x):
    """(matvec, rmatvec, abs_rowsums) of a band store by per-diagonal numpy loops.

    y starts at main * x, or at zeros without a main diagonal, and each
    off-diagonal then adds its products in the stored order: the arithmetic
    of the compiled loop, one numpy call at a time.
    """
    n, x = store.n, np.asarray(x, dtype=float)
    main = dict(store.diagonals()).get(0)
    off = [(row[max(0, o):min(n, n + o)], slice(max(0, -o), min(n, n - o)),
            slice(max(0, o), min(n, n + o))) for o, row in store.diagonals() if o]
    ax = np.zeros(n) if main is None else main * x
    atx = np.zeros(n) if main is None else main * x
    sums = np.zeros(n) if main is None else np.abs(main)
    for values, rows, cols in off:
        ax[rows] += values * x[cols]
        atx[cols] += values * x[rows]
        sums[rows] += np.abs(values)
    return ax, atx, sums


def nan_bits(v):
    """v's bits, with every NaN as np.nan's: which NaN an operation on two
    NaNs returns is left open by IEEE 754, and numpy's own add returns the
    first operand's on arrays of two or more and the second's on one entry."""
    return np.where(np.isnan(v), np.nan, v).view(np.uint64)


ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]),
                    st.floats(allow_nan=False))


@st.composite
def band_and_operand(draw):
    """(band store, x) with entries from ENTRIES and x an array, a strided view or a list.

    Offsets lie in -8..8, so some fall outside the matrix, and the main
    diagonal may be missing or all zero.
    """
    n = draw(st.integers(1, 7))
    offsets = draw(st.lists(st.integers(-8, 8), unique=True, max_size=5))
    data = draw(st.lists(ENTRIES, min_size=len(offsets) * n, max_size=len(offsets) * n))
    x = np.array(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    form = draw(st.sampled_from(["array", "strided", "list"]))
    if form == "strided":
        x2 = np.full(2 * n, 7.0)
        x2[::2] = x
        x = x2[::2]
    elif form == "list":
        x = x.tolist()
    return BandMatrix(offsets, np.reshape(data, (len(offsets), n))), x


TWO53 = 2.0 ** 53


@settings(max_examples=300, deadline=None)
@given(band_and_operand())
# a -0.0 main product with no off-diagonal term in its row: row 2 of A x and
# row 0 of A^T x, where 0 + (-0.0) would give +0.0
@example((BandMatrix((0, 1), [[-1.0, -1.0, -1.0], [0.0, 2.0, 3.0]]), [0.0, 0.0, 0.0]))
@example((BandMatrix((0,), [[-1.0]]), np.zeros(1)))
# row 1 of A^T x adds A[2, 1] (offset -1, stored first) before A[0, 1]:
# (1 + 2^53) - 2^53 = 0, where the other order gives 1
@example((BandMatrix((0, -1, 1), [[1.0, 1.0, 1.0], [0.0, TWO53, 0.0], [0.0, -TWO53, 0.0]]),
          np.ones(3)))
def test_band_products_have_the_bits_of_the_per_diagonal_loops(drawn):
    store, x = drawn
    for got, want in zip((store.matvec(x), store.rmatvec(x), store.abs_rowsums()),
                         loop_products(store, x)):
        assert got.shape == (store.n,)
        assert np.array_equal(nan_bits(got), nan_bits(want))


SHAPE_STORES = [TridiagonalMatrix.constant(6, -1.0, 4.0, -0.5),
                BlockTridiagonalMatrix(3, -1.0, TridiagonalMatrix.constant(3, -1.0, 4.0, -1.0),
                                       -0.5),
                BandMatrix((-1, 2), np.ones((2, 5))),
                DenseMatrix(np.arange(16.0).reshape(4, 4))]


@pytest.mark.parametrize("product", ["matvec", "rmatvec"])
@pytest.mark.parametrize("shape", [lambda n: (n - 1,), lambda n: (n + 1,), lambda n: (n, 1),
                                   lambda n: (1, n)], ids=["n-1", "n+1", "n,1", "1,n"])
@pytest.mark.parametrize("store", SHAPE_STORES,
                         ids=["tridiagonal", "block-tridiagonal", "band-without-main", "dense"])
def test_products_take_only_a_vector_of_shape_n(store, shape, product):
    with pytest.raises(ValueError, match="product operand must"):
        getattr(store, product)(np.ones(shape(store.n)))


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
    assert report.ok and not report.issues and report


def test_validate_flags_nonpositive_ladder():
    n = 2
    eye = identity_matrix(n)
    blocks = BlockMatrixSet(eye, (eye, eye))
    p = EhlcpProblem(blocks, np.zeros(n), BoundLadder((np.array([1.0, 0.0]),), n))
    report = validate(p)
    assert not report.ok and not report
    assert any("ladder not strictly positive" in msg for msg in report.issues)


def test_validate_flags_order_zero():
    empty = DenseMatrix(np.zeros((0, 0)))
    p = EhlcpProblem(BlockMatrixSet(empty, (empty,)), np.zeros(0), BoundLadder((), 0))
    assert validate(p).issues == ["order n must be >= 1"]


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


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_same_store(a, b):
    """Same class, order and offsets, and the same bits in every stored array."""
    assert type(a) is type(b) and a.n == b.n
    assert getattr(a, "offsets", None) == getattr(b, "offsets", None)
    assert np.array_equal(bits(a.data), bits(b.data))
    for name in ("sub", "diag", "sup"):
        if hasattr(a, name):
            assert np.array_equal(bits(getattr(a, name)), bits(getattr(b, name)))
    if hasattr(a, "diag_block"):
        assert_same_store(a.diag_block, b.diag_block)


def assert_same_problem(a, b):
    for x, y in zip(a.blocks.all(), b.blocks.all(), strict=True):
        assert_same_store(x, y)
    assert np.array_equal(bits(a.q), bits(b.q))
    for x, y in zip(a.ladder.d + a.ladder.prefix, b.ladder.d + b.ladder.prefix, strict=True):
        assert np.array_equal(bits(x), bits(y))


def through_text(obj):
    """problem_from_json of obj after a JSON text round trip."""
    return problem_from_json(json.loads(json.dumps(obj)))


LAYOUTS = {
    "dense": lambda rng: DenseMatrix(rng.uniform(-1, 1, (9, 9))),
    "tridiagonal": lambda rng: TridiagonalMatrix(rng.uniform(-1, 1, 8), np.full(9, 3.0),
                                                 np.full(8, -0.5)),
    "block-tridiagonal": lambda rng: BlockTridiagonalMatrix(
        3, -1.0, TridiagonalMatrix([0.5, -0.5], np.full(3, 4.0), [-1.0, -1.0]), 0.25),
    "identity": lambda rng: identity_matrix(9),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_json_roundtrip_keeps_every_layout_bitwise(rng, layout):
    store = LAYOUTS[layout](rng)
    ladder = BoundLadder((np.full(9, 0.1), rng.uniform(0.5, 1, 9)), 9)
    problem = EhlcpProblem(BlockMatrixSet(identity_matrix(9), (store, store, store)),
                           rng.standard_normal(9), ladder)
    obj = problem_to_json(problem)
    assert obj["M"] == {"tridiag": {"sub": 0.0, "diag": 1.0, "super": 0.0}}
    assert obj["d"][0] == 0.1 and len(obj["d"][1]) == 9
    restored, prescribed = through_text(obj)
    assert prescribed is None
    assert_same_problem(restored, problem)


def test_json_roundtrip_of_order_one_keeps_empty_bands_as_lists():
    problem = EhlcpProblem(BlockMatrixSet(identity_matrix(1),
                                          (TridiagonalMatrix([], [2.0], []),)),
                           np.array([-1.0]), BoundLadder((), 1))
    obj = problem_to_json(problem)
    assert obj["H"] == [{"tridiag": {"sub": [], "diag": 2.0, "super": []}}]
    assert_same_problem(through_text(obj)[0], problem)


def test_band_mixing_signed_zeros_stays_a_list():
    h = TridiagonalMatrix([0.0, -0.0], [1.0, 1.0, 1.0], [-0.0, -0.0])
    problem = EhlcpProblem(BlockMatrixSet(identity_matrix(3), (h, h)),
                           np.array([0.0, -0.0, 1.0]),
                           BoundLadder((np.array([-0.0, 0.0, -0.0]),), 3))
    obj = problem_to_json(problem)
    t = obj["H"][0]["tridiag"]
    assert bits(t["sub"]).tolist() == bits([0.0, -0.0]).tolist()
    assert bits(t["super"]) == bits(-0.0)
    assert isinstance(obj["d"][0], list)
    assert_same_problem(through_text(obj)[0], problem)


def old_spelling(problem, prescribed):
    """The all-list document that problem_to_json wrote before one-number bands."""
    def matrix(store):
        if store.layout == "tridiagonal":
            return {"tridiag": {"sub": store.sub.tolist(), "diag": store.diag.tolist(),
                                "super": store.sup.tolist()}}
        return {"blocktridiag": {"blockOrder": store.block_order, "sub": store.sub,
                                 "diagBlock": matrix(store.diag_block)["tridiag"],
                                 "super": store.sup}}
    return {"n": problem.n, "m": problem.m, "M": matrix(problem.blocks.M),
            "H": [matrix(h) for h in problem.blocks.H], "q": problem.q.tolist(),
            "d": [d.tolist() for d in problem.ladder.d],
            "prescribed": {"w": prescribed.solution.w.tolist(),
                           "x": [x.tolist() for x in prescribed.solution.x],
                           "y": prescribed.y_star.tolist()}}


@pytest.mark.parametrize("gen, h1", [
    (lambda: gen_example52(64), {"tridiag": {"sub": 1.0, "diag": 4.0, "super": -2.0}}),
    (lambda: gen_example55(8), {"blocktridiag": {
        "blockOrder": 8, "sub": -1.0, "diagBlock": {"sub": -1.0, "diag": 4.0, "super": -1.0},
        "super": -1.0}}),
], ids=["ex52-n64", "ex55-g8"])
def test_old_spelling_loads_to_the_bits_of_the_compact_one(gen, h1):
    generated = gen()
    general = generated.problem.as_general()
    compact = problem_to_json(general, generated.prescribed)
    assert compact["H"][0] == h1 and compact["d"] == [0.1]
    old = old_spelling(general, generated.prescribed)
    assert len(json.dumps(compact)) < len(json.dumps(old))
    (a, pa), (b, pb) = through_text(compact), through_text(old)
    assert_same_problem(a, general)
    assert_same_problem(b, general)
    assert np.array_equal(bits(pa["y"]), bits(pb["y"]))
    got, want = recover_solution(pb["y"], b.ladder), generated.prescribed.solution
    assert np.array_equal(bits(got.w), bits(want.w))
    for x, y in zip(got.x, want.x, strict=True):
        assert np.array_equal(bits(x), bits(y))


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
    (lambda: matrix_from_json({"sparse": []}, 2), ValueError,
     r"unknown matrix layout keys: \['sparse'\]"),
    (lambda: problem_from_json({"n": 2, "m": 2, "M": EYE_JSON, "H": [EYE_JSON],
                                "q": [0.0, 0.0]}), ValueError,
     "H lists 1 blocks but m = 2"),
    (lambda: problem_from_json({"n": 10 ** 12, "m": 1, "M": {"dense": [[1.0]]},
                                "H": [{"dense": [[1.0]]}], "q": [0.0]}), ValueError,
     "n = 1000000000000, but M has order 1"),
], ids=["vector-2d", "vector-length", "dense-not-square", "band-shape",
        "block-order-zero", "block-order-mismatch", "no-trailing-block",
        "block-order-differs", "b-not-positive", "band-json", "json-layout",
        "json-block-count", "json-n-not-m-order"])
def test_malformed_stores_and_problems_raise_typed_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()
