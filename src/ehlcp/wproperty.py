"""Column representative enumeration and column W-property verification.

The property asks every column representative determinant to carry one strict
sign. Exhaustive verification costs (m+1)^n determinants and is offered at
desk scale behind a budget; beyond it, randomized selection probing can only
falsify (a singular nonnegative-diagonal combination is a witness against the
property; absence of a witness proves nothing). Every exhaustive scan in the
package walks the representatives through ``vertex_chunks``, one stack of
matrices at a time, and the sampled scans walk their seeded selections through
``selection_chunks`` the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockdata import DenseMatrix, entrywise
from .errors import BudgetExceeded, SingularM
from .transform import DiagonalSelection

DET_ZERO_COEFF = 1e-10
COND_WITNESS_LIMIT = 1e14
CHUNK_BYTES = 2 ** 20  # cap on the representatives of one chunk, in bytes


def _chunk_len(n):
    """Matrices of order n per chunk: as many as fit CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // max(8 * n * n, 1))


def _counter_chunks(n, m, start, stop):
    """(k, n) mixed-radix digit arrays of the counters [start, stop), in order.

    Coordinate 0 is the fastest digit. A chunk holds at most CHUNK_BYTES of
    n x n representatives (at least one). Counters are int64, so they stay
    below 2**63.
    """
    base = m + 1
    total = base ** n
    stop = total if stop is None else min(stop, total)
    step = _chunk_len(n)
    for lo in range(start, stop, step):
        val = np.arange(lo, min(lo + step, stop), dtype=np.int64)
        digits = np.empty((val.size, n), dtype=np.intp)
        for j in range(n):
            val, digits[:, j] = np.divmod(val, base)
        yield digits


def assignments(n, m, start=0, stop=None):
    """Column assignments in mixed-radix counter order (coordinate 0 fastest).

    Decoding by index keeps scans resumable and partitionable: worker ranges
    [start, stop) are disjoint and their union covers all (m+1)^n assignments.
    """
    for digits in _counter_chunks(n, m, start, stop):
        yield from map(tuple, digits.tolist())


def vertex_chunks(blocks, start=0, stop=None):
    """(digits, stack) chunks of the column representatives of [start, stop).

    digits is a (k, n) block of assignments in the order of ``assignments``
    and stack[i] the (n, n) representative of digits[i]: column j taken from
    block digits[i, j]. Columns are gathered as contiguous rows of the
    transposed blocks, so each stack[i] is a Fortran-ordered view: a sum
    along its axes may round differently from the same sum on a C-ordered
    copy.
    """
    cols = np.stack([s.to_dense().T for s in blocks.all()])  # cols[c, j]: column j of block c
    idx = np.arange(blocks.n)
    for digits in _counter_chunks(blocks.n, blocks.m, start, stop):
        yield digits, cols[digits, idx].transpose(0, 2, 1)


def selection_chunks(blocks, trials, seed):
    """(lams, stack) chunks of the seeded simplex selections, in draw order.

    lams is a (k, m+1, n) block of the draws of ``simplex_selections(m, n,
    trials, seed)`` and stack[i] the dense combination of lams[i], summed block
    by block like ``selection_combination``, so that it equals
    ``selection_combination(blocks, lams[i]).to_dense()`` bit for bit. A chunk
    holds at most CHUNK_BYTES of matrices (at least one), and no dense table
    of the blocks is kept between chunks.
    """
    # local import avoids a cycle
    from .convergence import simplex_selections

    draws = simplex_selections(blocks.m, blocks.n, trials, seed)
    step = _chunk_len(blocks.n)
    for _ in range(0, trials, step):
        lams = np.stack(list(itertools.islice(draws, step)))
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


def has_column_w_property(blocks, budget=2 ** 20):
    """Exhaustive determinant-sign check over all column representatives."""
    n, m = blocks.n, blocks.m
    total = (m + 1) ** n
    if total > budget:
        raise BudgetExceeded(
            f"{total} representatives exceed budget {budget}; use falsify_random")
    sign_min, sign_max = 2, -2
    first_sign = None
    checked = 0
    # [c, j]: 2-norm of column j of block c, summed down the rows as on a
    # C-ordered representative
    col_norms = np.linalg.norm(np.stack([s.to_dense() for s in blocks.all()]), axis=1)
    idx = np.arange(n)
    for digits, stack in vertex_chunks(blocks):
        # |det| below 1e-10 * (max column 2-norm)^n counts as zero; strict sign
        # is required by the property, so floating point needs the explicit band.
        sign, logabs = np.linalg.slogdet(stack)
        max_col = col_norms[digits, idx].max(axis=1)
        with np.errstate(divide="ignore"):
            zero_log = math.log(DET_ZERO_COEFF) + n * np.log(max_col)
        signs = np.where(logabs < zero_log, 0, sign).astype(int)
        if first_sign is None:
            first_sign = signs[0]
        bad = (signs == 0) | (signs != first_sign)
        end = int(np.argmax(bad)) + 1 if bad.any() else len(signs)
        checked += end
        sign_min = min(sign_min, int(signs[:end].min()))
        sign_max = max(sign_max, int(signs[:end].max()))
        if bad.any():
            witness = tuple(digits[end - 1].tolist())
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


def _midpoint_selections(m, n):
    """Even two-block splits; these catch exact cancellations like M = -H1."""
    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            lam = np.zeros((m + 1, n))
            lam[a, :] = 0.5
            lam[b, :] = 0.5
            yield lam


def falsify_random(blocks, trials=200, seed=0):
    """Search for a numerically singular selection combination.

    Deterministic midpoint probes run first, then seeded random simplex
    selections. A combination is a witness when it is singular or its
    inf-norm condition number exceeds COND_WITNESS_LIMIT. Returns the witness
    selection or None; None proves nothing.
    """
    # local import avoids a cycle
    from .convergence import induced_norm, inverse_norm, simplex_selections

    n, m = blocks.n, blocks.m
    probes = list(_midpoint_selections(m, n))

    def check(lam):
        combo = selection_combination(blocks, lam)
        try:
            cond = induced_norm(combo, "inf") * inverse_norm(combo, "inf")
        except SingularM:
            return True
        return cond > COND_WITNESS_LIMIT

    for lam in probes:
        if check(lam):
            return DiagonalSelection(lam)
    for lam in simplex_selections(m, n, trials, seed):
        if check(lam):
            return DiagonalSelection(lam)
    return None
