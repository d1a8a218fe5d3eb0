"""Selection combinations: enumeration, stacking and the column W-property.

The property asks every column representative determinant to carry one strict
sign. Exhaustive verification covers (m+1)^n representatives and is offered at
desk scale behind a budget; beyond it, ``bounds.falsify_random`` probes
sampled selections, up to order 512, and can only falsify. Above TREE_VERTICES
vertices the check and the oracle's region solves eliminate over the tree of
column choices: representatives that share their last k columns share the
first k steps of one elimination with partial pivoting, so each step runs once
for all of them and a representative costs O(1) amortized work, not an O(n^3)
LU of its own. At or below it, where the tree's fixed cost per level loses,
they call LAPACK on ``vertex_chunks``. The scans that need the representatives
themselves (the 2-norm of ``underalpha_exact``, the vertices of
``overalpha_estimate`` and ``sample_rho_L``) walk them through
``vertex_chunks``, one stack of matrices at a time, and ``selection_chunks``
stacks any selections the same way. The sampled scans, ``overalpha_estimate``,
``falsify_random`` and ``sample_rho_L``, take both from one iterator,
``scan_chunks``: the vertices, then their samples. The module imports only
``blockdata`` and ``errors``; the estimators that consume the stacks live in
``convergence`` and ``bounds``.

Every vertex scan passes one gate, ``_vertex_blocks(blocks, budget)``: it
raises BudgetExceeded when (m+1)^n passes the budget, before anything dense
is built, and else returns the (m+1, n, n) dense blocks that the scan and
``vertex_chunks`` read. ``scan_chunks`` takes the vertices only when the gate
lets them; the other scans let the error through.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockdata import DenseMatrix, entrywise
from .errors import BudgetExceeded

DET_ZERO_COEFF = 1e-10
CHUNK_BYTES = 2 ** 20  # cap on the representatives of one chunk, in bytes
# Above this many vertices the check and the oracle eliminate over the tree of
# column choices. At or below it, the tree's fixed cost per level loses to
# batched LAPACK calls on vertex_chunks (timed on dense instances up to n = 8).
TREE_VERTICES = 256


def _on_tree(vertices):
    """Whether a scan of this many vertices eliminates over the tree of column
    choices, rather than calling LAPACK on ``vertex_chunks``."""
    return vertices > TREE_VERTICES


def _chunk_len(n):
    """Matrices of order n per chunk: as many as fit CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // max(8 * n * n, 1))


def _vertex_blocks(blocks, budget):
    """The (m+1, n, n) stack of the dense blocks, for a scan of all (m+1)^n
    vertices; BudgetExceeded when their count passes budget, before anything
    dense is built."""
    if (blocks.m + 1) ** blocks.n > budget:
        raise BudgetExceeded(f"(m+1)^n = {blocks.m + 1}^{blocks.n} vertices exceed "
                             f"budget {budget}")
    return np.stack([s.to_dense() for s in blocks.all()])


def vertex_chunks(dense):
    """(digits, stack) chunks of all (m+1)^n column representatives of dense blocks.

    digits is a (k, n) block of assignments in mixed-radix counter order,
    coordinate 0 fastest (``np.unravel_index``'s digits, reversed), and
    stack[i] the (n, n) representative of digits[i]: column j taken from block
    digits[i, j]. Columns are gathered as contiguous rows of the transposed
    blocks, so each stack[i] is a Fortran-ordered view: a sum along its axes
    may round differently from the same sum on a C-ordered copy.
    """
    base, n = dense.shape[:2]
    cols = np.ascontiguousarray(dense.transpose(0, 2, 1))  # cols[c, j]: column j of block c
    idx = np.arange(n)
    total = base ** n
    step = _chunk_len(n)
    for lo in range(0, total, step):
        counters = np.arange(lo, min(lo + step, total))
        digits = np.stack(np.unravel_index(counters, (base,) * n)[::-1], axis=1)
        yield digits, cols[digits, idx].transpose(0, 2, 1)


def selection_chunks(blocks, lams):
    """(lams, stack) chunks of the given (m+1, n) selections, in their order.

    lams is a (k, m+1, n) block of the selections and stack[i] the dense
    combination of lams[i], summed block by block like
    ``selection_combination``, so that it equals
    ``selection_combination(blocks, lams[i]).to_dense()`` bit for bit. A chunk
    holds at most CHUNK_BYTES of matrices (at least one), and no dense table
    of the blocks is kept between chunks.
    """
    selections = iter(lams)
    step = _chunk_len(blocks.n)
    while batch := list(itertools.islice(selections, step)):
        lams = np.stack(batch)
        yield lams, sum(s.to_dense() * lams[:, k, None, :]
                        for k, s in enumerate(blocks.all()))


def scan_chunks(blocks, lams, vertex_budget):
    """(keys, stack) chunks of a sampled scan: every vertex from
    ``vertex_chunks``, keyed by its digits, when ``_vertex_blocks`` admits
    vertex_budget, then ``selection_chunks(blocks, lams)``, keyed by the
    selections."""
    chunks = selection_chunks(blocks, lams)
    with contextlib.suppress(BudgetExceeded):  # the vertices, when they fit vertex_budget
        chunks = itertools.chain(vertex_chunks(_vertex_blocks(blocks, vertex_budget)), chunks)
    return chunks


def representative(blocks, assign):
    """Column representative: column j taken from block assign[j] (0 means M)."""
    dense = [s.to_dense() for s in blocks.all()]
    return DenseMatrix(np.column_stack([dense[c][:, j] for j, c in enumerate(assign)]))


@dataclass
class WPropertyReport:
    holds: bool
    determinant_sign_range: tuple  # (min sign, max sign) over checked assignments
    witness: Optional[tuple]  # assignment with zero or opposite-sign determinant
    representatives_checked: int


def _counter_order(a, base, depth):
    """a, indexed by states of depth choices whose index has the earliest choice as its
    least significant digit, in counter order: the earliest choice most significant."""
    return a.reshape((base,) * depth).T.ravel()


def _representative_signs(cols, col_norms):
    """Determinant signs of all column representatives, in counter order.

    cols[c, :, j] is column j of block c and col_norms[c, j] its 2-norm. One
    LU with partial pivoting runs over the tree of column choices, taking
    column n - 1 first. A state at depth d has fixed the columns from
    order = n - d to n - 1, one LU step each: w[c, j, :, s] is column j <
    order of block c after the steps of state s, on the order rows still to
    pivot, kept in their original order. sign[s] and logabs[s] are the sign
    and log|.| of the product of the pivots so far (sign 0 once a pivot was
    zero), and norm[s] the largest 2-norm of the fixed columns. The child of
    state s for block c is state c * base^depth + s, so the last axis stays
    long for numpy, and a state's index holds its earliest choice, a
    counter's most significant digit, as its least significant one. Yields
    int arrays of signs (0 where |det| < DET_ZERO_COEFF * norm^n) for
    consecutive runs of counters. When a level would pass CHUNK_BYTES, its
    states are finished a group at a time, lowest counters first; a group
    shares its earliest choices, which is a stride of the states. The levels
    run in a loop, not a recursion, so that a level's arrays are freed while
    the levels below it run.
    """
    base, n = col_norms.shape
    # The matrix factored is the representative with its columns reversed,
    # whose det has the sign (-1)^(n(n-1)/2) of the reversal.
    start = np.full(1, (-1.0) ** (n * (n - 1) // 2))
    todo = [(cols.transpose(0, 2, 1)[..., None], start, np.zeros(1), np.zeros(1), 0)]
    while todo:
        w, sign, logabs, norm, depth = todo.pop()
        order, states = w.shape[1], w.shape[3]
        group = max(1, CHUNK_BYTES // (8 * base * max(base * (order - 1) ** 2, 1)))
        if states > group:
            shared = depth
            while base ** (depth - shared + 1) <= group:
                shared -= 1
            step = base ** shared
            # pushed highest counters first, so that the lowest are popped first
            for t in _counter_order(np.arange(step), base, shared)[::-1].tolist():
                todo.append((w[..., t::step], sign[t::step], logabs[t::step],
                             norm[t::step], depth - shared))
            continue
        pivots = w[:, order - 1]  # [c, :, s]: the column that child (c, s) eliminates
        if order == 1:
            rows, p = 0, pivots[:, 0]
        else:
            # The pivot is the first largest |entry|, LAPACK's rule; moving
            # pivot row i out of the remaining rows costs the sign (-1)^i.
            rows = np.abs(pivots).argmax(axis=1)
            at_rows = w[:, :, rows, np.arange(states)]  # [c', j, c, s]: row rows[c, s] of s
            p = at_rows[:, order - 1].diagonal().T  # [c, s]: the pivot of child (c, s)
        sign = (sign * np.sign(p) * (-1) ** rows).ravel()
        logabs = (logabs + np.log(np.abs(p))).ravel()  # -inf below a zero pivot
        norm = np.maximum(norm, col_norms[:, order - 1, None]).ravel()
        if order == 1:
            zero_log = math.log(DET_ZERO_COEFF) + n * np.log(norm)
            yield _counter_order(np.where(logabs < zero_log, 0, sign).astype(int), base,
                                 depth + 1)
            continue
        # Child (c, s) keeps row r of its remaining rows from row r, or r + 1
        # past the pivot: w[c', j, r, c, s]. A zero pivot's column is zero, so
        # dividing it by 1 instead leaves the other columns as they are and no
        # NaN appears.
        before = np.arange(order - 1)[:, None, None] < rows
        w = np.where(before, w[:, :, :-1, None], w[:, :, 1:, None])
        mult = w[:, order - 1].diagonal(0, 0, 2).transpose(0, 2, 1) / np.where(p == 0, 1.0, p)
        w = w[:, :order - 1]
        w -= mult * at_rows[:, :order - 1, None]  # |mult| <= 1
        todo.append((w.reshape(base, order - 1, order - 1, -1), sign, logabs, norm,
                     depth + 1))


def _slogdet_signs(cols, col_norms):
    """The signs of ``_representative_signs`` from one batched ``slogdet`` per
    ``vertex_chunks`` chunk, with the same zero band."""
    n = col_norms.shape[1]
    for digits, stack in vertex_chunks(cols):
        sign, logabs = np.linalg.slogdet(stack)
        zero_log = math.log(DET_ZERO_COEFF) + n * np.log(
            col_norms[digits, np.arange(n)].max(axis=1))
        yield np.where(logabs < zero_log, 0, sign).astype(int)


def _region_solutions(cols, const, rhs, lower, upper):
    """(y, singular, lo, hi) of A_c y = rhs - sum_j const[c_j, j] for every
    column choice c, in counter order, A_c being the representative of c and
    lo[j], hi[j] = lower[c_j, j], upper[c_j, j] the bounds of c's region.

    cols[c, j] is column j of block c and const[c, j] the constant column that
    choice c adds at coordinate j. Gauss-Jordan elimination with partial
    pivoting runs over the tree of column choices, taking column n - 1 first,
    as in ``_representative_signs``. A state at depth d has chosen the columns
    from order = n - d to n - 1, one step each: w[s, c, j, 0] is column j <
    order of block c after the steps of state s, w[s, c, j, 1] its constant
    column, b[s] the right-hand side, placed[s, i] the column whose pivot row
    i is (-1 while it is none), pivot[s, i] its pivot (1 while none),
    singular[s] whether a pivot was exactly zero and bounds[s, :, j] the
    (lower, upper) pair that its choice at column j >= order took. Each step
    eliminates its column from every other row, the pivot rows included, so
    a leaf's pivot row i of column j reads pivot * y[j] = b[i]. The child of
    state s for block c is state s * base + c, so the leaves come out in
    counter order. States are finished a group at a time, lowest counters
    first, the group sized so that its largest array, the candidate columns
    of its last level, takes at most half of CHUNK_BYTES (its leaves' bounds
    take as much); the loop is not a recursion, and a group's arrays are
    freed before the next group starts. Yields (y, singular, lo, hi) for
    consecutive runs of counters; y is garbage where singular is True.
    """
    base, n = cols.shape[:2]
    limits = np.stack([lower, upper], axis=1)  # [c, :, j]: block c's bounds at column j
    todo = [(np.stack([cols, const], axis=2)[None], rhs[None], np.full((1, n), -1),
             np.ones((1, n)), np.zeros(1, dtype=bool), np.zeros((1, 2, n)))]
    while todo:
        w, b, placed, pivot, singular, bounds = state = todo.pop()
        states, order = w.shape[0], w.shape[2]
        group = max(1, CHUNK_BYTES // (32 * n * base ** order))
        if states > group:
            # pushed highest counters first, so that the lowest are popped first
            for k in reversed(range(0, states, group)):
                todo.append(tuple(a[k:k + group] for a in state))
            continue
        a = w[:, :, order - 1, 0]  # [s, c, :]: the column that child (s, c) eliminates
        b = b[:, None] - w[:, :, order - 1, 1]
        # The pivot is the first largest |entry| of the rows not yet pivot rows.
        r = np.where(placed[:, None] >= 0, -1.0, np.abs(a)).argmax(axis=2)[..., None]
        at = np.arange(n) == r  # [s, c, i]: whether row i is the pivot row of child (s, c)
        p = np.take_along_axis(a, r, 2)
        zero = p == 0
        # A zero pivot's subtree is singular; dividing by 1 instead keeps it finite.
        p = p + zero
        mult = np.where(at, 0.0, a) / p
        b -= mult * np.take_along_axis(b, r, 2)
        b = b.reshape(-1, n)
        placed = np.where(at, order - 1, placed[:, None]).reshape(-1, n)
        pivot = np.where(at, p, pivot[:, None]).reshape(-1, n)
        singular = (singular[:, None] | zero[..., 0]).ravel()
        bounds = np.where(np.arange(n) == order - 1, limits[:, :, order - 1, None],
                          bounds[:, None]).reshape(-1, 2, n)
        if order == 1:
            y = np.empty_like(b)
            np.put_along_axis(y, placed, b / pivot, 1)
            yield y, singular, bounds[:, 0], bounds[:, 1]
            continue
        # w_r[s, c, c', j, t]: pivot row r[s, c] of state s
        w_r = w[np.arange(states)[:, None], :, :order - 1, :, r[..., 0]]
        child = mult[:, :, None, None, None] * w_r[..., None]
        w = np.subtract(w[:, None, :, :order - 1], child, out=child)
        todo.append((w.reshape(states * base, base, order - 1, 2, n), b, placed, pivot,
                     singular, bounds))


def has_column_w_property(blocks, budget=2 ** 20):
    """Exhaustive determinant-sign check over all column representatives.

    |det| below DET_ZERO_COEFF * (largest column 2-norm)^n counts as zero: the
    property asks for a strict sign, so floating point needs the explicit
    band. The scan stops at the first zero or opposite sign in counter order
    (``vertex_chunks``' order, coordinate 0 fastest), which is the witness.
    Above the budget, ``bounds.falsify_random`` can still falsify, up to
    order 512.
    """
    n, m = blocks.n, blocks.m
    cols = _vertex_blocks(blocks, budget)  # cols[c, :, j]: column j of block c
    # Blocks whose largest |entry| is below 1 are scaled up, exactly, by the
    # power of two that brings it into [0.5, 1); in exact arithmetic that
    # moves no sign and no side of the band. On subnormal entries LAPACK's
    # elimination can drop its updates: every pivot of a rank-1 block of
    # 2^-1023 came out 2^-1023.
    top = np.abs(cols).max()
    if 0 < top < 1:
        cols = np.ldexp(cols, -np.frexp(top)[1])
    # [c, j]: 2-norm of column j of block c, by hypot so that it neither
    # underflows nor overflows where a sum of squares would: the test is then
    # the same for the blocks scaled by any power of two.
    col_norms = np.hypot.reduce(np.abs(cols), axis=1)
    sign_min, sign_max = 2, -2
    first_sign = None
    checked = 0
    signs_of = _representative_signs if _on_tree((m + 1) ** n) else _slogdet_signs
    # log(0) is -inf: below a zero pivot, and in the threshold of zero columns
    with np.errstate(divide="ignore"):
        for signs in signs_of(cols, col_norms):
            if first_sign is None:
                first_sign = signs[0]
            bad = (signs == 0) | (signs != first_sign)
            end = int(np.argmax(bad)) + 1 if bad.any() else len(signs)
            checked += end
            sign_min = min(sign_min, int(signs[:end].min()))
            sign_max = max(sign_max, int(signs[:end].max()))
            if bad.any():
                witness = tuple((checked - 1) // (m + 1) ** j % (m + 1) for j in range(n))
                return WPropertyReport(False, (sign_min, sign_max), witness, checked)
    return WPropertyReport(True, (sign_min, sign_max), None, checked)


def selection_combination(blocks, lambdas):
    """M*D_0 + sum_i H_i*D_i for diagonal weights lambdas (column scaling).

    Returns a DenseMatrix when any block is dense, else a BandMatrix. Both
    layouts are column-aligned, so D_i scales the columns of either array.
    """
    return entrywise(lambda arrays: sum(a * np.asarray(lam)[None, :]
                                        for a, lam in zip(arrays, lambdas)),
                     blocks.all())
