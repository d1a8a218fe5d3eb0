"""Iterative methods: the fixed-point scheme, its scaled m=2 variant, and a
projection baseline.

All methods leave the problem data untouched; the fixed-point methods factor
the leading block once and reuse the factorization every sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .blockdata import DenseMatrix, EhlcpSolution
from .errors import InvalidParams, SingularM
from .transform import NORM_ORD, recover_solution, residual_of_tuple

DIVERGENCE_LIMIT = 1e12


def _vec_norm(v, tag):
    return float(np.linalg.norm(v, NORM_ORD[tag]))


@dataclass(frozen=True)
class IterationConfig:
    tol: float = 1e-6
    max_iter: int = 10000
    norm_tag: str = "inf"
    record_history: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidParams("tol must be positive")
        if self.max_iter < 1:
            raise InvalidParams("max_iter must be >= 1")
        if self.norm_tag not in NORM_ORD:
            raise InvalidParams(f"unknown norm tag {self.norm_tag!r}")


@dataclass
class SolveReport:
    status: str  # Converged | MaxIterReached | Diverged
    iterations: int
    y_final: np.ndarray
    solution: object
    residual_norm: float
    step_norms: Optional[list] = None

    def to_json(self):
        return {
            "status": self.status,
            "iterations": self.iterations,
            "yFinal": self.y_final.tolist(),
            "solution": {"w": self.solution.w.tolist(),
                         "x": [x.tolist() for x in self.solution.x]},
            "residualNorm": self.residual_norm,
            "stepNorms": self.step_norms,
        }


class BandedFactor:
    """LAPACK banded LU (gbtrf/gbtrs) of a band store, on kl = ku = max(bandwidth, 1)."""

    def __init__(self, store):
        self.n = store.n
        self.kl = self.ku = kl = max(store.bandwidth, 1)
        # LAPACK's band is column-aligned like the store: A[i, j] sits in row
        # 2 kl + i - j, so each stored diagonal is one row of it.
        lab = np.zeros((3 * kl + 1, self.n))
        for offset, values in store.diagonals():
            lab[2 * kl - offset] = values
        lub, ipiv, info = dgbtrf(lab, kl, kl)
        if info > 0:
            raise SingularM(f"banded factorization hit a zero pivot at {info}")
        if info < 0:
            raise ValueError(f"illegal argument {-info} to gbtrf")
        self._lub, self._ipiv = lub, ipiv

    def solve(self, rhs, transposed=False):
        rhs = np.asarray(rhs, dtype=float)
        x, info = dgbtrs(self._lub, self.kl, self.ku, rhs, self._ipiv,
                         trans=1 if transposed else 0)
        if info != 0:
            raise SingularM(f"banded solve failed with info={info}")
        return x


class DenseFactor:
    """Partial-pivoted LU of a dense matrix."""

    def __init__(self, a):
        self.n = a.shape[0]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                lu, piv = lu_factor(a)
        except Exception as exc:  # LinAlgError on hard failure
            raise SingularM(f"dense factorization failed: {exc}") from exc
        if np.any(np.diag(lu) == 0.0):
            raise SingularM("matrix is singular (zero pivot)")
        self._lu = (lu, piv)

    def solve(self, rhs, transposed=False):
        return lu_solve(self._lu, np.asarray(rhs, dtype=float),
                        trans=1 if transposed else 0)


class LinearOperatorFactor:
    """One-time factorization of a matrix store supporting repeated solves.

    Band stores go through LAPACK's banded LU; dense uses partial-pivoted
    LU. The factorization is immutable and shareable.
    """

    def __init__(self, store):
        self.n = store.n
        if isinstance(store, DenseMatrix):
            self._impl = DenseFactor(store.data)
        else:
            self._impl = BandedFactor(store)

    def solve(self, rhs):
        return self._impl.solve(rhs)

    def solve_transposed(self, rhs):
        return self._impl.solve(rhs, transposed=True)


def _finish(problem_blocks, q, ladder_sol, y, status, iterations, steps, cfg):
    residual = residual_of_tuple(problem_blocks, q, ladder_sol)
    return SolveReport(
        status=status,
        iterations=iterations,
        y_final=y,
        solution=ladder_sol,
        residual_norm=_vec_norm(residual, cfg.norm_tag),
        step_norms=steps if cfg.record_history else None,
    )


def _iterate(update, y0, cfg):
    """Run y <- update(y) until the step norm falls below cfg.tol.

    A step that is not at most DIVERGENCE_LIMIT (this includes NaN and inf)
    stops the run as Diverged. The iteration count includes the update that
    first meets either test. Returns (y, status, iterations, step norms).
    """
    y = y0
    steps = []
    for k in range(1, cfg.max_iter + 1):
        y_new = update(y)
        step = _vec_norm(y_new - y, cfg.norm_tag)
        steps.append(step)
        y = y_new
        if step < cfg.tol:
            return y, "Converged", k, steps
        if not step <= DIVERGENCE_LIMIT:
            return y, "Diverged", k, steps
    return y, "MaxIterReached", cfg.max_iter, steps


def method31(problem, y0=None, cfg=None):
    """Fixed-point iteration M y+ = M max{0, y} - q - phi(y) for the general chain.

    phi collects the H_i pieces of the transformation; M is factored once.
    Iteration count includes the update that first meets the stopping test.
    """
    cfg = cfg or IterationConfig()
    n = problem.n
    factor = LinearOperatorFactor(problem.blocks.M)
    y0 = np.zeros(n) if y0 is None else np.asarray(y0, dtype=float).copy()

    def update(y):
        sol = recover_solution(y, problem.ladder)
        phi = np.zeros(n)
        for h, x in zip(problem.blocks.H, sol.x):
            phi += h.matvec(x)
        return np.maximum(0.0, y) - factor.solve(problem.q + phi)

    y, status, iterations, steps = _iterate(update, y0, cfg)
    final = recover_solution(y, problem.ladder)
    return _finish(problem.blocks, problem.q, final, y, status, iterations, steps, cfg)


def method32(problem, omega, y0=None, cfg=None):
    """Scaled fixed-point iteration for the m = 2, M = H_2 = I form.

    omega is a positive scalar or a positive diagonal (vector). Recovery is
    scaled: w = Omega max{0,-y}, x1 = clip(y, 0, b), x2 = Omega max{0, y - b}.
    """
    cfg = cfg or IterationConfig()
    omega = np.asarray(omega, dtype=float)
    if omega.ndim == 0:
        omega = np.full(problem.n, float(omega))
    if omega.shape != (problem.n,) or not np.all(omega > 0):
        raise InvalidParams("omega must be a positive scalar or positive vector")
    H1, q, b = problem.H1, problem.q, problem.b
    y0 = np.zeros(problem.n) if y0 is None else np.asarray(y0, dtype=float).copy()

    def update(y):
        z = np.clip(y, 0.0, b)
        return z - (H1.matvec(z) + q) / omega

    y, status, iterations, steps = _iterate(update, y0, cfg)
    w = omega * np.maximum(0.0, -y)
    x1 = np.clip(y, 0.0, b)
    x2 = omega * np.maximum(0.0, y - b)
    general = problem.as_general()
    sol = EhlcpSolution(w, (x1, x2))
    return _finish(general.blocks, q, sol, y, status, iterations, steps, cfg)


def implicit_sweep(H1, q, x, b, eta, omega_relax, e_diag, ktag):
    """One projection update with the implicit correction resolved by a sweep.

    K is the strictly lower (forward sweep) or strictly upper (backward sweep)
    triangular part of H1, so each coordinate only needs already-updated ones;
    the sweep is exact, no inner iteration. Each correction sums K's entries
    by rising column index, on plain floats.
    """
    n = H1.n
    lower = ktag == "lower"
    g = (H1.matvec(x) + q).tolist()
    # K[j, j + offset] = values[j + offset] for each strict-triangle diagonal.
    tri = sorted((offset, memoryview(values)) for offset, values in H1.diagonals()
                 if (offset < 0 if lower else offset > 0))
    xs, bs, es = (np.asarray(v, dtype=float).tolist() for v in (x, b, e_diag))
    x_new = [0.0] * n
    delta = [0.0] * n
    for j in (range(n) if lower else range(n - 1, -1, -1)):
        corr = 0.0
        for offset, values in tri:
            l = j + offset
            if 0 <= l < n:
                corr += values[l] * delta[l]
        z = xs[j] - omega_relax * es[j] * (g[j] + corr)
        x_new[j] = eta * min(max(z, 0.0), bs[j]) + (1.0 - eta) * xs[j]
        delta[j] = x_new[j] - xs[j]
    return np.array(x_new)


def method33(problem, eta, omega_relax, e_diag=None, ktag="lower", x10=None,
             cfg=None):
    """Projection baseline on x1 in [0, b] with relaxation eta and step omega.

    Returns x1 from the iteration; w and x2 are recovered afterwards from the
    m = 2 identity-block equation (active-set recovery, reporting plumbing
    only, not part of the iteration itself).
    """
    cfg = cfg or IterationConfig()
    if not (0.0 < eta <= 1.0):
        raise InvalidParams("eta must lie in (0, 1]")
    if omega_relax <= 0:
        raise InvalidParams("omega must be positive")
    if ktag not in ("lower", "upper"):
        raise InvalidParams(f"unknown ktag {ktag!r}")
    n = problem.n
    e_diag = np.ones(n) if e_diag is None else np.asarray(e_diag, dtype=float)
    if e_diag.shape != (n,) or not np.all(e_diag > 0):
        raise InvalidParams("E must be a positive diagonal (vector)")
    b, q, H1 = problem.b, problem.q, problem.H1
    x0 = np.zeros(n) if x10 is None else np.asarray(x10, dtype=float).copy()
    if np.any(x0 < 0) or np.any(x0 > b):
        raise InvalidParams("x10 must lie in [0, b]")
    x, status, iterations, steps = _iterate(
        lambda x: implicit_sweep(H1, q, x, b, eta, omega_relax, e_diag, ktag), x0, cfg)
    # Recovery of (w, x2) from w = q + H1 x1 + x2 with x2 supported on {x1 = b}.
    base = q + H1.matvec(x)
    active = x >= b - cfg.tol
    x2 = np.maximum(0.0, -base) * active
    w = np.maximum(0.0, base + x2)
    general = problem.as_general()
    sol = EhlcpSolution(w, (x, x2))
    y = x + x2 - w
    return _finish(general.blocks, q, sol, y, status, iterations, steps, cfg)
