"""Problem data: matrix stores, block sets, bound ladders, validation, JSON I/O.

Matrices come in two stores. ``DenseMatrix`` stores a full array.
``BandMatrix`` stores the nonzero diagonals in scipy's DIA convention. The
two named band layouts are constructors over it: ``TridiagonalMatrix`` from
three diagonals, and ``BlockTridiagonalMatrix`` from the uniform block
pattern blktridiag(sub*I, B, super*I), where B is one tridiagonal block
repeated down the block diagonal and n = g^2 for block order g.

Both stores answer the same eight methods, and a new layout implements
these eight:

- products: ``matvec``, ``rmatvec``
- forms: ``to_dense``, ``diagonal``, ``diagonals``
- entrywise transforms: ``rebuilt(main, off)``, ``row_scaled``
- reduction: ``abs_rowsums``

Both stores also keep a column-aligned ``data`` array, zero outside the
matrix: the dense array, and the band diagonals with data[k, j] in column j.
The functions ``abs_colsums`` and ``all_finite`` read it directly.

``matvec`` and ``rmatvec`` take x of shape (n,) only and raise ValueError
for any other shape. A band store's products and row sums run on the
compiled loop behind ``scipy.sparse.dia_array @ x``,
``scipy.sparse._sparsetools.dia_matvec``, a name private to scipy. That loop
adds each diagonal's products into the y it is given, one diagonal at a
time, and checks no bounds, so the shape is checked before it runs.
``tests/test_blockdata.py`` compares its bits with numpy's per-diagonal
loops, so a scipy release that changes the loop fails the tests. A NaN
result is compared as NaN only: which of two NaNs an operation returns is
left open by IEEE 754, and the loop and numpy can pick different ones.

``rebuilt(main, off)`` returns a store of the same kind with ``main`` as its
diagonal and ``off`` applied to every other entry. ``off`` must return a new
array and map 0 to 0, since a band store applies it to its stored diagonals
only and a dense store to the whole array. The comparison matrix, the
split A = Lambda - C and the shifted and scaled forms the conditions need
are all one ``rebuilt`` call.

Instances are treated as immutable after construction; nothing in this
package writes into a stored array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse._sparsetools import dia_matvec


def _as_vector(a, n=None, name="vector"):
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {v.shape[0]}")
    return v


def _product_operand(x, n):
    """x as a float vector of shape (n,), the one shape both stores' products take."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        _as_vector(x, n, "product operand")  # raises the ValueError for this shape
    return x


@dataclass(frozen=True)
class DenseMatrix:
    """Row-major dense square matrix."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"dense matrix must be square, got shape {a.shape}")
        object.__setattr__(self, "data", a)

    @property
    def n(self):
        return self.data.shape[0]

    layout = "dense"

    def matvec(self, x):
        return self.data @ _product_operand(x, self.data.shape[0])

    def rmatvec(self, x):
        return self.data.T @ _product_operand(x, self.data.shape[0])

    def to_dense(self):
        return self.data.copy()

    def diagonal(self):
        return np.diag(self.data).copy()

    def rebuilt(self, main, off):
        """This store with main on the diagonal and off(entry) elsewhere."""
        out = off(self.data)
        np.fill_diagonal(out, main)
        return DenseMatrix(out)

    def row_scaled(self, s):
        return DenseMatrix(self.data * np.asarray(s)[:, None])

    def abs_rowsums(self):
        return np.abs(self.data).sum(axis=1)

    def diagonals(self):
        """(offset, values) of each nonzero diagonal, values[j] = A[j - offset, j]."""
        n, out = self.n, []
        for offset in range(1 - n, n):
            diag = self.data.diagonal(offset)
            if np.count_nonzero(diag):
                values = np.zeros(n)
                values[max(offset, 0):n + min(offset, 0)] = diag
                out.append((offset, values))
        return out


class BandMatrix:
    """Square band matrix in scipy's DIA convention: data[k, j] = A[j - offsets[k], j].

    The layout is column-aligned, so scaling columns scales data's columns.
    Only diagonals holding a nonzero are stored, the main diagonal first and
    then by rising |offset|, negative before positive; every product and row
    or column sum accumulates the diagonals in that order. Entries of data
    that fall outside the matrix are zero.

    The products and row sums run on scipy's ``dia_matvec`` loop (see the
    module docstring). It adds into a given y, so y starts as main * x and
    the loop adds the off-diagonal rows in the stored order: the products
    and sums of a per-diagonal numpy loop, bit for bit. ``dia_array @ x``
    would start y at zeros, and 0 + (-0.0) turns a -0.0 main product into
    +0.0.
    """

    layout = "band"

    def __init__(self, offsets, data):
        offsets = [int(o) for o in offsets]
        data = np.array(data, dtype=float, ndmin=2)
        if data.ndim != 2 or data.shape[0] != len(offsets):
            raise ValueError(f"band data of shape {data.shape} for {len(offsets)} offsets")
        n = data.shape[1]
        for o, row in zip(offsets, data):
            if o > 0:
                row[:o] = 0.0
            elif o < 0:
                row[max(0, n + o):] = 0.0
        nonzero = data.any(axis=1).tolist()
        keep = sorted((k for k in range(len(offsets)) if nonzero[k]),
                      key=lambda k: (abs(offsets[k]), offsets[k]))
        self.offsets = tuple(offsets[k] for k in keep)
        if len(set(self.offsets)) != len(keep):
            raise ValueError(f"repeated band offset in {offsets}")
        self.data = data[keep]
        self.n = n
        self.bandwidth = max((abs(o) for o in self.offsets), default=0)
        self._rows = dict(zip(self.offsets, self.data))
        self._main = self._rows.get(0)
        # The off-diagonals as the loop takes them: int32 offsets and a view of data.
        start = 0 if self._main is None else 1
        self._off = (np.array(self.offsets[start:], dtype=np.int32), self.data[start:])

    @cached_property
    def _transposed(self):
        """The transpose's off-diagonals in the stored order, built on the first rmatvec.

        A[j - o, j] = data[k, j] is A^T[j, j - o], on offset -o, in column
        c = j - o: its row is data's row read from column c + o. The stored
        order keeps the order in which each sum adds its terms.
        """
        offsets, rows = self._off
        return (-offsets, np.reshape([np.roll(row, -o) for o, row in
                                      zip(offsets.tolist(), rows)], (-1, self.n)))

    def _products(self, x, offsets, rows):
        """main * x plus the products of the diagonals (offsets, rows) with x."""
        x = _product_operand(x, self.n)
        y = np.zeros(self.n) if self._main is None else self._main * x
        dia_matvec(self.n, self.n, len(offsets), self.n, offsets, rows, x, y)
        return y

    def matvec(self, x):
        return self._products(x, *self._off)

    def rmatvec(self, x):
        return self._products(x, *self._transposed)

    def to_dense(self):
        n = self.n
        out = np.zeros((n, n))
        for o, row in self._rows.items():
            lo, hi = max(0, o), min(n, n + o)
            np.fill_diagonal(out[lo - o:hi - o, lo:hi], row[lo:hi])
        return out

    def diagonal(self):
        return np.zeros(self.n) if self._main is None else self._main.copy()

    def diagonals(self):
        """(offset, values) of each stored diagonal, values[j] = A[j - offset, j]."""
        return list(self._rows.items())

    def rebuilt(self, main, off):
        """This store with main on the diagonal and off(entry) elsewhere."""
        start = 0 if self._main is None else 1
        return BandMatrix((0,) + self.offsets[start:],
                          np.vstack([main, off(self.data[start:])]))

    def row_scaled(self, s):
        # A[j - o, j] takes s[j - o] = np.roll(s, o)[j]; wrapped entries meet zeros.
        return BandMatrix(self.offsets, self.data * np.reshape(
            [np.roll(s, o) for o in self.offsets], (-1, self.n)))

    def abs_rowsums(self):
        # matvec of |A| with ones, term for term: the same sums, bit for bit
        n, (offsets, rows) = self.n, self._off
        y = np.zeros(n) if self._main is None else np.abs(self._main)
        dia_matvec(n, n, len(offsets), n, offsets, np.abs(rows), np.ones(n), y)
        return y


class TridiagonalMatrix(BandMatrix):
    """Tridiagonal band store built from its (sub, diag, super) bands.

    sub[i] sits at (i+1, i), diag[i] at (i, i), sup[i] at (i, i+1).
    """

    layout = "tridiagonal"

    def __init__(self, sub, diag, sup):
        self.diag = _as_vector(diag, name="diag")
        n = self.diag.shape[0]
        self.sub = _as_vector(sub, max(n - 1, 0), "sub")
        self.sup = _as_vector(sup, max(n - 1, 0), "super")
        super().__init__((0, -1, 1), [self.diag, np.concatenate((self.sub, [0.0])),
                                      np.concatenate(([0.0], self.sup))])

    # Each named layout binds matvec in its own body, so bench/spans.py can
    # wrap (and count) it per layout.
    matvec = BandMatrix.matvec

    @classmethod
    def constant(cls, n, sub, diag, sup):
        """tridiag(sub, diag, sup) with constant bands."""
        return cls(np.full(max(n - 1, 0), float(sub)),
                   np.full(n, float(diag)),
                   np.full(max(n - 1, 0), float(sup)))


class BlockTridiagonalMatrix(BandMatrix):
    """blktridiag(sub*I, B, super*I) with g diagonal blocks B of order g, n = g^2.

    A band store on the offsets 0, -1, 1, -g, g: B's diagonals tiled g times,
    since each block starts a new column-aligned period.
    """

    layout = "block-tridiagonal"

    def __init__(self, block_order, sub, diag_block, sup):
        g = int(block_order)
        if g < 1:
            raise ValueError("block order must be >= 1")
        if diag_block.n != g:
            raise ValueError("diagonal block order must match block order")
        self.block_order, self.diag_block = g, diag_block
        self.sub, self.sup = float(sub), float(sup)
        diagonals = [(o, np.tile(row, g)) for o, row in diag_block.diagonals()]
        diagonals += [(-g, np.full(g * g, self.sub)), (g, np.full(g * g, self.sup))]
        super().__init__(*zip(*diagonals))

    matvec = BandMatrix.matvec


def identity_matrix(n):
    """Identity in tridiagonal storage (the cheapest band layout)."""
    return TridiagonalMatrix.constant(n, 0.0, 1.0, 0.0)


def abs_colsums(store):
    """Column sums of |A|: data is column-aligned and zero outside the matrix."""
    return np.abs(store.data).sum(axis=0)


def all_finite(store):
    return bool(np.isfinite(store.data).all())


def is_identity(store):
    """True when every entry matches the identity exactly."""
    return not store.rebuilt(store.diagonal() - 1.0, np.positive).abs_rowsums().any()


def is_symmetric(store):
    """True when the store equals its transpose entry by entry.

    A band store compares each stored diagonal at offset o with its partner
    at -o shifted by o: A[j - o, j] against A[j, j - o]. A diagonal without a
    stored partner breaks symmetry, since only diagonals holding a nonzero
    are stored.
    """
    if isinstance(store, DenseMatrix):
        return bool(np.array_equal(store.data, store.data.T))
    rows = dict(store.diagonals())
    return all(-o in rows and np.array_equal(values, np.roll(rows[-o], o))
               for o, values in rows.items() if o)


def entrywise(fn, stores):
    """One store holding fn(arrays) for the stores' entry arrays, aligned entry by entry.

    The arrays are the dense forms when any store is dense, else each band
    store's data on the union of the stores' offsets (zero rows where a store
    has no such diagonal); fn must map equal-shape arrays to one such array.
    """
    if any(isinstance(s, DenseMatrix) for s in stores):
        return DenseMatrix(fn([s.to_dense() for s in stores]))
    offsets = sorted(set().union(*(s.offsets for s in stores)))
    zero, rows = np.zeros(stores[0].n), [dict(s.diagonals()) for s in stores]
    return BandMatrix(offsets, fn([np.reshape([r.get(o, zero) for o in offsets], (-1, zero.size))
                                   for r in rows]))


#
# Block matrix set, bound ladder, problems.
#

@dataclass(frozen=True)
class BlockMatrixSet:
    """The ordered blocks (M, H_1, ..., H_m), all square of one order."""

    M: object
    H: tuple

    def __post_init__(self):
        object.__setattr__(self, "H", tuple(self.H))
        if len(self.H) < 1:
            raise ValueError("need at least one trailing block")
        n = self.M.n
        for k, h in enumerate(self.H, start=1):
            if h.n != n:
                raise ValueError(f"block {k} has order {h.n}, expected {n}")

    @property
    def n(self):
        return self.M.n

    @property
    def m(self):
        return len(self.H)

    def all(self):
        """Blocks in selection order: index 0 is M, index i is H_i."""
        return (self.M,) + self.H


@dataclass(frozen=True)
class BoundLadder:
    """Positive bound vectors d_1..d_{m-1} plus their prefix sums.

    prefix[i] = d_1 + ... + d_i with prefix[0] = 0 (the d_0 = 0 convention),
    summed in ladder order; these are the breakpoints of the variable
    transformation.
    """

    d: tuple
    n: int
    prefix: tuple = field(init=False)

    def __post_init__(self):
        ds = tuple(_as_vector(v, self.n, "ladder entry") for v in self.d)
        object.__setattr__(self, "d", ds)
        sums = [np.zeros(self.n)]
        for v in ds:
            sums.append(sums[-1] + v)
        object.__setattr__(self, "prefix", tuple(sums))

    @property
    def m(self):
        return len(self.d) + 1


def prefix_sums(ladder):
    """Breakpoint vectors s_0 = 0, s_i = s_{i-1} + d_i."""
    return ladder.prefix


@dataclass(frozen=True)
class EhlcpProblem:
    """Chained complementarity problem data (blocks, q, ladder)."""

    blocks: BlockMatrixSet
    q: np.ndarray
    ladder: BoundLadder

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vector(self.q, name="q"))

    @property
    def n(self):
        return self.blocks.n

    @property
    def m(self):
        return self.blocks.m


@dataclass(frozen=True)
class Ehlcp2Problem:
    """The m = 2, M = H_2 = I special form: w = q + H_1 x_1 + x_2, x_1 in [0, b]."""

    H1: object
    q: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vector(self.q, self.H1.n, "q"))
        object.__setattr__(self, "b", _as_vector(self.b, self.H1.n, "b"))
        if not np.all(self.b > 0):
            raise ValueError("b must be strictly positive")

    @property
    def n(self):
        return self.H1.n

    def as_general(self):
        """The same problem as a general block set (I, H1, I) with ladder (b,)."""
        eye = identity_matrix(self.n)
        blocks = BlockMatrixSet(eye, (self.H1, eye))
        return EhlcpProblem(blocks, self.q, BoundLadder((self.b,), self.n))


@dataclass(frozen=True)
class EhlcpSolution:
    """A candidate tuple (w, x_1, ..., x_m)."""

    w: np.ndarray
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w, name="w"))
        object.__setattr__(self, "x", tuple(_as_vector(v, self.w.shape[0], "x")
                                            for v in self.x))


@dataclass
class ValidationReport:
    ok: bool
    issues: list

    def __bool__(self):
        return self.ok


def validate(problem):
    """Report-style validation; collects every defect instead of raising."""
    issues = []
    blocks = problem.blocks
    n = blocks.M.n
    if n < 1:
        issues.append("order n must be >= 1")
    for label, store in [("M", blocks.M)] + [(f"H{k}", h) for k, h in
                                             enumerate(blocks.H, start=1)]:
        if not all_finite(store):
            issues.append(f"non-finite entries in {label}")
    if problem.ladder.n != n:
        issues.append(f"dimension mismatch: n = {problem.ladder.n}, but the blocks "
                      f"have order {n}")
    if problem.q.shape[0] != n:
        issues.append(f"dimension mismatch: q has length {problem.q.shape[0]}, expected {n}")
    if not np.isfinite(problem.q).all():
        issues.append("non-finite entries in q")
    ladder = problem.ladder
    if ladder.m != blocks.m:
        issues.append(f"ladder length {ladder.m - 1} does not match m - 1 = {blocks.m - 1}")
    for i, d in enumerate(ladder.d, start=1):
        if not np.isfinite(d).all():
            issues.append(f"non-finite entries in d{i}")
        elif not np.all(d > 0):
            issues.append(f"ladder not strictly positive in d{i}")
    return ValidationReport(not issues, issues)


#
# JSON problem files.
#

def _band_to_json(v):
    """One number for a non-empty band whose entries are bitwise equal, else the list."""
    bits = v.view(np.uint64)
    return float(v[0]) if bits.size and (bits == bits[0]).all() else v.tolist()


def _band_from_json(value, length):
    """A band spelled as a list, or as one number repeated length times.

    A JSON true or false is not a number here: it passes through and fails
    as a 0-d band.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return np.full(length, float(value))
    return value


def matrix_to_json(store):
    """The JSON spelling of a dense store or a named band layout."""
    if store.layout == "dense":
        return {"dense": store.data.tolist()}
    if store.layout == "tridiagonal":
        return {"tridiag": {"sub": _band_to_json(store.sub),
                            "diag": _band_to_json(store.diag),
                            "super": _band_to_json(store.sup)}}
    if store.layout == "block-tridiagonal":
        return {"blocktridiag": {"blockOrder": store.block_order,
                                 "sub": store.sub,
                                 "diagBlock": matrix_to_json(store.diag_block)["tridiag"],
                                 "super": store.sup}}
    raise TypeError(f"no JSON spelling for the {store.layout} layout")


def matrix_from_json(obj, n):
    """The store a JSON spelling names; a band given as one number takes its
    length from the order n, or from blockOrder inside a diagBlock."""
    if "dense" in obj:
        return DenseMatrix(np.asarray(obj["dense"], dtype=float))
    if "tridiag" in obj:
        t = obj["tridiag"]
        return TridiagonalMatrix(_band_from_json(t["sub"], max(n - 1, 0)),
                                 _band_from_json(t["diag"], n),
                                 _band_from_json(t["super"], max(n - 1, 0)))
    if "blocktridiag" in obj:
        t = obj["blocktridiag"]
        g = int(t["blockOrder"])
        block = matrix_from_json({"tridiag": t["diagBlock"]}, g)
        return BlockTridiagonalMatrix(g, float(t["sub"]), block, float(t["super"]))
    raise ValueError(f"unknown matrix layout keys: {sorted(obj)}")


def problem_to_json(problem, prescribed=None):
    obj = {
        "n": problem.n,
        "m": problem.m,
        "M": matrix_to_json(problem.blocks.M),
        "H": [matrix_to_json(h) for h in problem.blocks.H],
        "q": problem.q.tolist(),
        "d": [_band_to_json(d) for d in problem.ladder.d],
    }
    if prescribed is not None:
        obj["prescribed"] = {"y": prescribed.y_star.tolist()}
    return obj


def problem_from_json(obj):
    """Returns (problem, prescribed) where prescribed is None or {"y": y*}.

    An n other than M's order is refused before H or the ladder is sized by it.
    w* and x* are recover_solution(y*, ladder), so a file's "w" and "x" go unread.
    A non-finite y* is refused as a ValueError, as ``validate`` flags q and d.
    """
    n = int(obj["n"])
    m = int(obj["m"])
    M = matrix_from_json(obj["M"], n)
    if M.n != n:
        raise ValueError(f"n = {n}, but M has order {M.n}")
    H = tuple(matrix_from_json(h, n) for h in obj["H"])
    if len(H) != m:
        raise ValueError(f"H lists {len(H)} blocks but m = {m}")
    problem = EhlcpProblem(BlockMatrixSet(M, H), obj["q"],
                           BoundLadder(tuple(_band_from_json(d, n)
                                             for d in obj.get("d", [])), n))
    prescribed = obj.get("prescribed")
    if prescribed is not None:
        y_star = _as_vector(prescribed["y"], n, "prescribed y")
        if not np.isfinite(y_star).all():
            raise ValueError("non-finite entries in prescribed y")
        prescribed = {"y": y_star}
    return problem, prescribed
