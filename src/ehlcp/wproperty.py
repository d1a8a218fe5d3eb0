"""Column representative enumeration and column W-property verification.

The property asks every column representative determinant to carry one strict
sign. Exhaustive verification costs (m+1)^n determinants and is offered at
desk scale behind a budget; beyond it, randomized selection probing can only
falsify (a singular nonnegative-diagonal combination is a witness against the
property; absence of a witness proves nothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockdata import DenseMatrix, entrywise
from .errors import BudgetExceeded, SingularM
from .solvers import LinearOperatorFactor
from .transform import DiagonalSelection

DET_ZERO_COEFF = 1e-10
COND_WITNESS_LIMIT = 1e14


def assignments(n, m, start=0, stop=None):
    """Column assignments in mixed-radix counter order (coordinate 0 fastest).

    Decoding by index keeps scans resumable and partitionable: worker ranges
    [start, stop) are disjoint and their union covers all (m+1)^n assignments.
    """
    total = (m + 1) ** n
    if stop is None or stop > total:
        stop = total
    base = m + 1
    for k in range(start, stop):
        digits = []
        val = k
        for _ in range(n):
            val, r = divmod(val, base)
            digits.append(r)
        yield tuple(digits)


def vertex_selections(n, m):
    """Full-weight selections in the counter order of assignments.

    The selection of an assignment puts weight one on block assign[j] at
    coordinate j and zero on the others.
    """
    for assign in assignments(n, m):
        lam = np.zeros((m + 1, n))
        lam[list(assign), np.arange(n)] = 1.0
        yield lam


def representative(blocks, assign):
    """Column representative: column j taken from block assign[j] (0 means M)."""
    stores = blocks.all()
    n = blocks.n
    cols = np.empty((n, n))
    for j, c in enumerate(assign):
        cols[:, j] = stores[c].column(j)
    return DenseMatrix(cols)


def _det_sign(a):
    """Sign of det(a) with an explicit numerically-zero band.

    |det| below 1e-10 * (max column 2-norm)^n counts as zero; strict sign is
    required by the property, so floating point needs the explicit band.
    """
    n = a.shape[0]
    sign, logabs = np.linalg.slogdet(a)
    col_norms = np.linalg.norm(a, axis=0)
    max_col = float(np.max(col_norms))
    if max_col == 0.0 or sign == 0.0:
        return 0
    threshold_log = math.log(DET_ZERO_COEFF) + n * math.log(max_col)
    if logabs < threshold_log:
        return 0
    return int(sign)


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
    first_sign = 0
    witness = None
    checked = 0
    for assign in assignments(n, m):
        s = _det_sign(representative(blocks, assign).data)
        checked += 1
        sign_min = min(sign_min, s)
        sign_max = max(sign_max, s)
        if s == 0:
            witness = assign
            break
        if first_sign == 0:
            first_sign = s
        elif s != first_sign:
            witness = assign
            break
    holds = witness is None and first_sign != 0
    return WPropertyReport(holds, (sign_min, sign_max), witness, checked)


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


def _condition_estimate(combo, n, rng):
    """Crude cond_inf estimate: ||S||_inf times probed ||S^-1||_inf."""
    norm_s = float(np.max(combo.abs_rowsums()))
    factor = LinearOperatorFactor(combo)
    inv_est = 0.0
    for _ in range(4):
        r = rng.standard_normal(n)
        z = factor.solve(r)
        inv_est = max(inv_est, float(np.max(np.abs(z)) / max(np.max(np.abs(r)), 1e-300)))
    return norm_s * inv_est


def falsify_random(blocks, trials=200, seed=0):
    """Search for a numerically singular selection combination.

    Deterministic midpoint probes run first, then seeded random simplex
    selections. Returns the witness selection or None; None proves nothing.
    """
    from .convergence import simplex_selections  # local import avoids a cycle

    n, m = blocks.n, blocks.m
    rng = np.random.default_rng(seed)
    probes = list(_midpoint_selections(m, n))

    def check(lam):
        try:
            cond = _condition_estimate(selection_combination(blocks, lam), n, rng)
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
