"""Selection combinations: enumeration, stacking and the column W-property.

The property asks every column representative determinant to carry one strict
sign. Exhaustive verification covers (m+1)^n representatives and is offered
at desk scale behind a budget; beyond it, ``bounds.falsify_random`` probes
sampled selections and can only falsify. The check eliminates over the tree
of column choices: representatives that share their last k columns share the
first k steps of one LU with partial pivoting, so each step runs once for all
of them and a representative costs O(1) amortized work, not an O(n^3) LU of
its own. The scans that need the representatives themselves (the 2-norm of
``underalpha_exact``, the vertices of ``overalpha_estimate`` and
``sample_rho_L``, and the oracle's region solves) walk them through
``vertex_chunks``, one stack of matrices at a time, and the sampled scans pass
their selections to ``selection_chunks`` the same way. The module imports only
``blockdata`` and ``errors``; the estimators that consume the stacks live in
``convergence`` and ``bounds``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockdata import DenseMatrix, all_finite, entrywise
from .errors import BudgetExceeded, InvalidParams

DET_ZERO_COEFF = 1e-10
CHUNK_BYTES = 2 ** 20  # cap on the representatives of one chunk, in bytes


def _chunk_len(n):
    """Matrices of order n per chunk: as many as fit CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // max(8 * n * n, 1))


def vertex_chunks(blocks):
    """(digits, stack) chunks of all (m+1)^n column representatives.

    digits is a (k, n) block of assignments in mixed-radix counter order
    (coordinate 0 fastest; counters are int64, so they stay below 2**63) and
    stack[i] the (n, n) representative of digits[i]: column j taken from block
    digits[i, j]. Columns are gathered as contiguous rows of the transposed
    blocks, so each stack[i] is a Fortran-ordered view: a sum along its axes
    may round differently from the same sum on a C-ordered copy.
    """
    n, base = blocks.n, blocks.m + 1
    cols = np.stack([s.to_dense().T for s in blocks.all()])  # cols[c, j]: column j of block c
    idx = np.arange(n)
    total = base ** n
    step = _chunk_len(n)
    for lo in range(0, total, step):
        val = np.arange(lo, min(lo + step, total), dtype=np.int64)
        digits = np.empty((val.size, n), dtype=np.intp)
        for j in range(n):
            val, digits[:, j] = np.divmod(val, base)
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


def _dense_blocks(blocks):
    """(m+1, n, n) stack of the dense blocks, after checking them.

    A NaN or infinite entry makes every determinant test false, which would
    read as a sign and certify nothing, so the exhaustive scans refuse it,
    and blocks of order 0, with InvalidParams before they enumerate. The
    entries are checked on each store's own data; the scans call this after
    their budget check, so a refused count never builds the dense blocks.
    """
    if blocks.n < 1:
        raise InvalidParams("blocks of order 0 have no representatives")
    for k, store in enumerate(blocks.all()):
        if not all_finite(store):
            raise InvalidParams(f"non-finite entries in {'M' if k == 0 else f'H{k}'}")
    return np.stack([s.to_dense() for s in blocks.all()])


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


def has_column_w_property(blocks, budget=2 ** 20):
    """Exhaustive determinant-sign check over all column representatives.

    |det| below DET_ZERO_COEFF * (largest column 2-norm)^n counts as zero: the
    property asks for a strict sign, so floating point needs the explicit
    band. The scan stops at the first zero or opposite sign in counter order
    (``vertex_chunks``' order, coordinate 0 fastest), which is the witness.
    Blocks of order 0 or with non-finite entries raise InvalidParams.
    """
    n, m = blocks.n, blocks.m
    total = (m + 1) ** n
    if total > budget:
        raise BudgetExceeded(
            f"(m+1)^n = {m + 1}^{n} representatives exceed budget {budget}; "
            "use falsify_random")
    cols = _dense_blocks(blocks)  # cols[c, :, j]: column j of block c
    # [c, j]: 2-norm of column j of block c, by hypot so that it neither
    # underflows nor overflows where a sum of squares would: the test is then
    # the same for the blocks scaled by any power of two.
    col_norms = np.hypot.reduce(np.abs(cols), axis=1)
    sign_min, sign_max = 2, -2
    first_sign = None
    checked = 0
    # log(0) is -inf: below a zero pivot, and in the threshold of zero columns
    with np.errstate(divide="ignore"):
        for signs in _representative_signs(cols, col_norms):
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
