"""Max-min variable transformation and the piecewise linear system residual.

A single vector y encodes a whole candidate tuple:

    w      = max{0, -y}
    x_i    = max{0, min{y - s_{i-1}, d_i}}   (i = 1..m-1)
    x_m    = max{0, y - s_{m-1}}

with breakpoints s_i from the ladder prefix sums. The map is onto the set of
feasible tuples, and on feasible tuples it inverts through y = sum_i x_i - w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockdata import EhlcpSolution
from .errors import InfeasibleTuple

FEASIBILITY_TOL = 1e-9
NORM_ORD = {"1": 1, "2": 2, "inf": np.inf}  # norm tag -> numpy ord


@dataclass(frozen=True)
class DiagonalSelection:
    """Nonnegative diagonal weights lambda_0..lambda_m summing to one per coordinate."""

    lambdas: np.ndarray  # shape (m + 1, n)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 2:
            raise ValueError("lambdas must be a (m+1, n) array")
        object.__setattr__(self, "lambdas", lam)


@dataclass
class ResidualReport:
    """Residual vector with feasibility violations and the standard norms."""

    r: np.ndarray
    feasibility_violations: dict
    norms: dict


def _x_pieces(y, ladder):
    """The pieces (x_1, ..., x_m) encoded by the float vector y."""
    s = ladder.prefix
    m = ladder.m
    xs = [np.maximum(0.0, np.minimum(y - s[i - 1], ladder.d[i - 1])) for i in range(1, m)]
    xs.append(np.maximum(0.0, y - s[m - 1]))
    return tuple(xs)


def recover_solution(y, ladder):
    """Tuple (w, x_1..x_m) encoded by y; total and exact for any finite y."""
    y = np.asarray(y, dtype=float)
    return EhlcpSolution(np.maximum(0.0, -y), _x_pieces(y, ladder))


def feasibility_violations(sol, ladder):
    """Componentwise worst-case violations of the box/complementarity conditions."""
    w, xs = sol.w, sol.x
    viol = {
        "w_nonneg": float(np.max(np.maximum(0.0, -w), initial=0.0)),
        "x_nonneg": float(max((np.max(np.maximum(0.0, -x), initial=0.0) for x in xs),
                              default=0.0)),
        "x_upper": 0.0,
        "w_x1_comp": float(np.max(np.abs(w * xs[0]), initial=0.0)),
        "chain_comp": 0.0,
    }
    for i, d in enumerate(ladder.d):
        viol["x_upper"] = max(viol["x_upper"],
                              float(np.max(np.maximum(0.0, xs[i] - d), initial=0.0)))
        viol["chain_comp"] = max(viol["chain_comp"],
                                 float(np.max(np.abs((d - xs[i]) * xs[i + 1]), initial=0.0)))
    return viol


def require_feasible(sol, ladder):
    """Raise InfeasibleTuple when a violation of sol exceeds FEASIBILITY_TOL."""
    viol = feasibility_violations(sol, ladder)
    bad = {k: v for k, v in viol.items() if v > FEASIBILITY_TOL}
    if bad:
        raise InfeasibleTuple(f"tuple violates feasibility beyond {FEASIBILITY_TOL}: {bad}")


def reconstruct_y(sol, ladder):
    """Invert the transformation on a feasible tuple via y = sum_i x_i - w."""
    require_feasible(sol, ladder)
    y = -sol.w.copy()
    for x in sol.x:
        y += x
    return y


def residual_of_tuple(blocks, q, sol):
    """r = q + sum_i H_i x_i - M w, accumulated in that order."""
    acc = np.array(q, dtype=float, copy=True)
    for h, x in zip(blocks.H, sol.x):
        acc += h.matvec(x)
    acc -= blocks.M.matvec(sol.w)
    return acc


def pls_residual(problem, y):
    """Residual of the piecewise linear system at y (zero exactly at solutions)."""
    sol = recover_solution(y, problem.ladder)
    r = residual_of_tuple(problem.blocks, problem.q, sol)
    return ResidualReport(
        r=r,
        feasibility_violations=feasibility_violations(sol, problem.ladder),
        norms={tag: float(np.linalg.norm(r, order)) for tag, order in NORM_ORD.items()},
    )


def sum_identity(y, ladder):
    """(sum_i x_i(y), y + w(y)); both sides also equal max{0, y}."""
    y = np.asarray(y, dtype=float)
    sol = recover_solution(y, ladder)
    lhs = np.zeros_like(y)
    for x in sol.x:
        lhs = lhs + x
    rhs = y + sol.w
    return lhs, rhs


def _piece_slope(y, yref, a):
    """Slope of t -> max{0, t - a} between yref and y, per coordinate.

    Where y == yref the difference quotient is 0/0; the subgradient convention
    picks 1 above the breakpoint, 0 below, 1/2 at it, keeping the map total.
    """
    diff = y - yref
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = 0.5 * ((np.abs(y - a) - np.abs(yref - a)) / diff + 1.0)
    tie = diff == 0.0
    if np.any(tie):
        nu = np.where(tie, np.where(y > a, 1.0, np.where(y < a, 0.0, 0.5)), nu)
    return np.clip(nu, 0.0, 1.0)


def selection_matrices(y, yref, ladder):
    """Diagonal selection linearizing the transformation pieces between y and yref.

    For any coefficients h_0..h_m applied coordinatewise,
    sum_i h_i (piece_i(y) - piece_i(yref)) = (sum_i h_i lambda_i) (y - yref),
    where piece_0 = -max{0, -y} and piece_i are the x_i formulas.
    """
    y = np.asarray(y, dtype=float)
    yref = np.asarray(yref, dtype=float)
    s = ladder.prefix
    m = ladder.m
    nus = [_piece_slope(y, yref, s[i - 1]) for i in range(1, m + 1)]
    lambdas = np.empty((m + 1, y.shape[0]))
    lambdas[0] = 1.0 - nus[0]
    for i in range(1, m):
        lambdas[i] = np.maximum(nus[i - 1] - nus[i], 0.0)
    lambdas[m] = nus[m - 1]
    return DiagonalSelection(lambdas)


def transformation_pieces(y, ladder):
    """The m + 1 scalar pieces (piece_0 = -w(y), piece_i = x_i(y)) as rows."""
    sol = recover_solution(y, ladder)
    return np.vstack([-sol.w] + list(sol.x))
