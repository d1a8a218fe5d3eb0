"""Selection combinations: enumeration, stacking and the column W-property.

The property asks every column representative determinant to carry one strict
sign. Exhaustive verification costs (m+1)^n determinants and is offered at
desk scale behind a budget; beyond it, ``bounds.falsify_random`` probes
sampled selections and can only falsify. Every exhaustive scan in the package
walks the representatives through ``vertex_chunks``, one stack of matrices at
a time, and the sampled scans pass their selections to ``selection_chunks``
the same way. The module imports only ``blockdata`` and ``errors``; the
estimators that consume the stacks live in ``convergence`` and ``bounds``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockdata import DenseMatrix, entrywise
from .errors import BudgetExceeded

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


def has_column_w_property(blocks, budget=2 ** 20):
    """Exhaustive determinant-sign check over all column representatives."""
    n, m = blocks.n, blocks.m
    total = (m + 1) ** n
    if total > budget:
        raise BudgetExceeded(
            f"(m+1)^n = {m + 1}^{n} representatives exceed budget {budget}; "
            "use falsify_random")
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
