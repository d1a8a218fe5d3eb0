"""Exhaustive region-enumeration reference solver for desk-scale instances.

Each coordinate of y lives in one of m + 1 intervals delimited by the
breakpoints {0 = s_0, s_1, ..., s_{m-1}}; on a fixed region assignment the
piecewise linear system turns affine with a column representative as its
matrix, so every region is one small linear solve plus a membership test.
This is correctness infrastructure, not a production solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import overalpha_estimate, underalpha_exact
from .convergence import _stacked_lu
from .errors import BudgetExceeded
from .transform import recover_solution
from .wproperty import _dense_blocks, vertex_chunks

REGION_TOL = 1e-9
DEDUP_TOL = 1e-8


@dataclass
class OracleResult:
    solutions: list  # (y, EhlcpSolution) pairs, deduplicated
    regions_checked: int
    singular_regions: int


def oracle_solve(problem, budget=2 ** 20):
    """All piecewise-linear-system solutions found by region enumeration.

    Region membership uses closed intervals with slack on both sides, so
    breakpoint solutions appear in several regions; duplicates are merged by
    y-proximity. Under the column W-property exactly one solution survives.
    Blocks of order 0 or with non-finite entries raise InvalidParams.
    """
    n, m = problem.n, problem.m
    total = (m + 1) ** n
    if total > budget:
        raise BudgetExceeded(f"(m+1)^n = {m + 1}^{n} regions exceed budget {budget}")
    # cols[c, j] is column j of block c. On region c at coordinate j the
    # system gains the constant column const[c, j] (zero for c = 0):
    # -s_{c-1}[j] * cols[c, j] + sum_{l < c} d_l[j] * cols[l, j].
    cols = _dense_blocks(problem.blocks).transpose(0, 2, 1)
    s_breaks = np.array(problem.ladder.prefix)
    d_cols = np.reshape(problem.ladder.d, (m - 1, n, 1)) * cols[1:m]
    below = np.cumsum(np.concatenate([np.zeros((1, n, n)), d_cols]), axis=0)
    const = np.concatenate([np.zeros((1, n, n)), below - s_breaks[:, :, None] * cols[1:]])
    # Region c admits y_j in [lower[c, j], upper[c, j]] (closed, with slack;
    # s_0 = 0, so region 0 is y_j <= REGION_TOL).
    lower = np.vstack([np.full(n, -np.inf), s_breaks - REGION_TOL])
    upper = np.vstack([s_breaks + REGION_TOL, np.full(n, np.inf)])
    ys = []
    singular = 0
    coords = np.arange(n)
    for digits, stack in vertex_chunks(problem.blocks):
        g = problem.q + const[digits, coords].sum(axis=1)
        y, regular = _stacked_lu(np.linalg.solve, stack, -g[..., None])
        y = y[..., 0]  # NaN on a singular region, which fails every test below
        singular += int(np.count_nonzero(~regular))
        inside = ((lower[digits, coords] <= y) & (y <= upper[digits, coords])).all(axis=1)
        for yk in y[inside]:
            if not any(np.max(np.abs(yk - prev)) <= DEDUP_TOL for prev in ys):
                ys.append(yk)
    solutions = [(y, recover_solution(y, problem.ladder)) for y in ys]
    return OracleResult(solutions, total, singular)


def oracle_alpha_constants(blocks, norm_tag="inf", budget=2 ** 20):
    """(max combination norm, max vertex inverse norm) by exact vertex enumeration."""
    if (blocks.m + 1) ** blocks.n > budget:
        raise BudgetExceeded(f"(m+1)^n = {blocks.m + 1}^{blocks.n} vertices exceed "
                             f"budget {budget}")
    under = underalpha_exact(blocks, norm_tag, budget=budget)
    over = overalpha_estimate(blocks, norm_tag, samples=0, vertex_budget=budget)
    return under.value, over.value
