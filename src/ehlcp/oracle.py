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
from .transform import recover_solution
from .wproperty import _on_tree, _region_solutions, _vertex_blocks, vertex_chunks

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
    Above ``wproperty.TREE_VERTICES`` regions they are solved on the tree of
    column choices, at or below it by batched LAPACK calls; a region is
    singular where that kernel's elimination meets an exact zero pivot. Both
    yield each y with its region's bounds, on which membership is tested.
    """
    n, m = problem.n, problem.m
    dense = _vertex_blocks(problem.blocks, budget)
    # cols[c, j] is column j of block c. On region c at coordinate j the
    # system gains the constant column const[c, j] (zero for c = 0):
    # -s_{c-1}[j] * cols[c, j] + sum_{l < c} d_l[j] * cols[l, j].
    cols = np.ascontiguousarray(dense.transpose(0, 2, 1))
    s_breaks = np.array(problem.ladder.prefix)
    d_cols = np.reshape(problem.ladder.d, (m - 1, n, 1)) * cols[1:m]
    below = np.cumsum(np.concatenate([np.zeros((1, n, n)), d_cols]), axis=0)
    const = np.concatenate([np.zeros((1, n, n)), below - s_breaks[:, :, None] * cols[1:]])
    # Region c admits y_j in [lower[c, j], upper[c, j]] (closed, with slack;
    # s_0 = 0, so region 0 is y_j <= REGION_TOL). The outer ends are the
    # largest floats, so that a y that overflowed fails too.
    big = np.finfo(float).max
    lower = np.vstack([np.full(n, -big), s_breaks - REGION_TOL])
    upper = np.vstack([s_breaks + REGION_TOL, np.full(n, big)])
    ys = []
    singular = 0
    if _on_tree((m + 1) ** n):
        chunks = _region_solutions(cols, const, -problem.q, lower, upper)
    else:
        chunks = _lapack_chunks(dense, const, problem.q, lower, upper)
    # Overflow, and inf - inf after it, comes only from a singular region or
    # one whose y is not finite, and neither is admitted.
    with np.errstate(over="ignore", invalid="ignore"):
        for y, bad, lo, hi in chunks:
            singular += int(np.count_nonzero(bad))
            inside = ~bad & ((lo <= y) & (y <= hi)).all(axis=1)
            for yk in y[inside]:
                if not any(np.max(np.abs(yk - prev)) <= DEDUP_TOL for prev in ys):
                    ys.append(yk)
    solutions = [(y, recover_solution(y, problem.ladder)) for y in ys]
    return OracleResult(solutions, (m + 1) ** n, singular)


def _lapack_chunks(dense, const, q, lower, upper):
    """(y, singular, lo, hi) per ``vertex_chunks`` chunk, as ``_region_solutions``
    yields them: one batched ``solve``, the bounds looked up by the digits."""
    coords = np.arange(dense.shape[1])
    for digits, stack in vertex_chunks(dense):
        g = q + const[digits, coords].sum(axis=1)
        y, regular = _stacked_lu(np.linalg.solve, stack, -g[..., None])
        yield y[..., 0], ~regular, lower[digits, coords], upper[digits, coords]


def oracle_alpha_constants(blocks, norm_tag="inf", budget=2 ** 20):
    """(max combination norm, max vertex inverse norm) by exact vertex enumeration."""
    under = underalpha_exact(blocks, norm_tag, budget=budget)
    over = overalpha_estimate(blocks, norm_tag, samples=0, vertex_budget=budget)
    return under.value, over.value
