"""Generators for the benchmark problem families and prescribed solutions.

Pattern vectors like (0.1, 0, 0.1, 0, ...) are period-2 alternations starting
with the stated first entry, truncated at odd n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockdata import (BlockMatrixSet, BlockTridiagonalMatrix, BoundLadder,
                        DenseMatrix, Ehlcp2Problem, EhlcpProblem,
                        EhlcpSolution, TridiagonalMatrix, identity_matrix)
from .errors import InvalidParams
from .transform import require_feasible


@dataclass(frozen=True)
class Prescribed:
    solution: EhlcpSolution
    y_star: np.ndarray


@dataclass(frozen=True)
class GeneratedProblem:
    problem: object  # EhlcpProblem or Ehlcp2Problem
    prescribed: Optional[Prescribed]


def alternating(n, first, second):
    v = np.empty(n)
    v[0::2] = first
    v[1::2] = second
    return v


def prescribe_q(blocks, ladder, solution):
    """q making the given tuple an exact solution: q = M w - sum_i H_i x_i."""
    require_feasible(solution, ladder)
    q = blocks.M.matvec(solution.w)
    for h, x in zip(blocks.H, solution.x):
        q = q - h.matvec(x)
    return q


def _laplacian_block(g, shift):
    """tridiag(-1, 4 + shift, -1) of order g."""
    return TridiagonalMatrix.constant(g, -1.0, 4.0 + shift, -1.0)


def gen_example51(grid_m, mu, nu):
    """Discretized coupled-field complementarity pair (m = 1), n = grid_m^2.

    M is the shifted five-point block pattern, H_1 the shifted in-row pattern;
    q is set so the alternating (w*, x1*) pair solves the problem exactly.
    """
    if grid_m < 2 or not np.isfinite([mu, nu]).all():
        raise InvalidParams("grid order must be >= 2 and the shifts finite")
    n = grid_m * grid_m
    m_mat = BlockTridiagonalMatrix(grid_m, -1.0, _laplacian_block(grid_m, mu), -1.0)
    h_mat = BlockTridiagonalMatrix(grid_m, 0.0, _laplacian_block(grid_m, nu), 0.0)
    blocks = BlockMatrixSet(m_mat, (h_mat,))
    ladder = BoundLadder((), n)
    w = alternating(n, 0.1, 0.0)
    x1 = alternating(n, 0.0, 0.1)
    sol = EhlcpSolution(w, (x1,))
    q = prescribe_q(blocks, ladder, sol)
    problem = EhlcpProblem(blocks, q, ladder)
    return GeneratedProblem(problem, Prescribed(sol, x1 - w))


def _box_family(h1):
    """m = 2 identity-block problem with b = 0.1e and q prescribed so that
    w = (0.2, 0, ...), x1 = x2 = (0, 0.1, ...) solves it."""
    n = h1.n
    b = np.full(n, 0.1)
    w = alternating(n, 0.2, 0.0)
    x1 = alternating(n, 0.0, 0.1)
    x2 = x1.copy()
    sol = EhlcpSolution(w, (x1, x2))
    eye = identity_matrix(n)
    blocks = BlockMatrixSet(eye, (h1, eye))
    q = prescribe_q(blocks, BoundLadder((b,), n), sol)
    return GeneratedProblem(Ehlcp2Problem(h1, q, b), Prescribed(sol, x1 + x2 - w))


def gen_example52(n):
    """Market-equilibrium test family: H1 = tridiag(1, 4, -2), b = 0.1e."""
    if n < 2:
        raise InvalidParams("n must be >= 2")
    return _box_family(TridiagonalMatrix.constant(n, 1.0, 4.0, -2.0))


def gen_example53(alpha):
    """Two-by-two lower-triangular pair where the upper error bound is tight.

    q = (1, 0). For alpha = 1 the prescribed solution is attached; the bound
    constant is 1 + alpha^2 in the inf-norm for any alpha.
    """
    if not alpha >= 1:
        raise InvalidParams("alpha must be >= 1")
    m_mat = DenseMatrix(np.array([[1.0, 0.0], [alpha, 1.0]]))
    h_mat = DenseMatrix(np.array([[1.0, 0.0], [alpha * alpha, 1.0]]))
    blocks = BlockMatrixSet(m_mat, (h_mat,))
    ladder = BoundLadder((), 2)
    problem = EhlcpProblem(blocks, np.array([1.0, 0.0]), ladder)
    prescribed = None
    if alpha == 1:
        sol = EhlcpSolution(np.array([1.0, 0.0]), (np.array([0.0, 1.0]),))
        prescribed = Prescribed(sol, np.array([-1.0, 1.0]))
    return GeneratedProblem(problem, prescribed)


def gen_example55(grid_m):
    """Bilateral-obstacle test family: H1 = blktridiag(-I, T, -I), b = 0.1e.

    q is adjusted so the solution coincides with the gen_example52 one at
    n = grid_m^2.
    """
    if grid_m < 2:
        raise InvalidParams("grid order must be >= 2")
    return _box_family(BlockTridiagonalMatrix(grid_m, -1.0,
                                              _laplacian_block(grid_m, 0.0), -1.0))
