"""Checkable sufficient conditions for convergence and step-size heuristics.

Every condition and bound in the package runs on three kernels over a matrix
store: ``induced_norm``, ``inverse_norm`` and ``spectral_radius_nonneg``.
Spectral radii of nonnegative matrices come from the dense eigenvalues at
order ``EIGVALS_FIRST_ORDER`` and below. Above it they are bracketed by
Collatz-Wielandt ratios on a diagonally shifted power iteration (the shift
keeps the iterate strictly positive, so the bracket is rigorous at every
step), with a dense eigenvalue fallback up to order 512 when the bracket
stalls. ``check_thm34`` and ``check_cor31`` report that spectral radius.
``bounds.bound42`` decides its own condition rho < 1 without this kernel
wherever it can: a Collatz-Wielandt test on the vector behind its constant
(a Neumann sum or a solve with I - X).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, onenormest

from .blockdata import DenseMatrix, abs_colsums, is_symmetric
from .errors import InvalidParams, NoRuleApplies, SingularM
from .solvers import LinearOperatorFactor
from .transform import NORM_ORD
from .wproperty import selection_chunks, vertex_chunks

DENSE_EIG_MAX_ORDER = 512
DENSE_LIMIT = 4096  # largest order of the checks and bounds that go dense
# At or below this order the dense eigenvalues come first: on one AMD EPYC
# core eigvals took about 4 ms at order 120 (11 ms at 160, 35 ms at 256),
# less than a power iteration of a few hundred steps, and power iteration
# stalls on 2-cyclic matrices (5,000 steps, 44-57 ms, on Ex 5.2 at 60-120).
EIGVALS_FIRST_ORDER = 128
POWER_MAX_ITER = 5000  # power steps before the bracket counts as stalled


@dataclass
class ConvergenceReport:
    condition_tag: str  # Eq35Sampled | Eq38Rho | Eq38NormSum | Eq313Rho | Eq314Norm
    value: float
    satisfied: bool
    samples_used: int = 0
    certifying: bool = True


def _report(tag, value, samples=0, certifying=True):
    value = float(value)
    return ConvergenceReport(tag, value, bool(value < 1.0), samples, certifying)


@dataclass
class SpectralRadiusEstimate:
    value: float
    lower: float
    upper: float
    iterations: int
    converged: bool
    method: str  # power | dense | zero


def spectral_radius_nonneg(store):
    """Spectral radius of a nonnegative matrix store.

    At order EIGVALS_FIRST_ORDER or below, takes the eigenvalues of
    ``store.to_dense()`` directly. Above it, runs shifted power iteration with
    Collatz-Wielandt brackets; if the bracket does not close within
    POWER_MAX_ITER steps and the order is at most 512, falls back to the dense
    eigenvalues.
    """
    n = store.n
    v = np.ones(n)
    u0 = store.matvec(v)
    if np.min(u0) < -1e-30:
        raise ValueError("operator is not entrywise nonnegative")
    scale = float(np.max(u0))
    if scale == 0.0:
        return SpectralRadiusEstimate(0.0, 0.0, 0.0, 1, True, "zero")
    if n <= EIGVALS_FIRST_ORDER:
        return _dense_radius(store, 0)
    shift = 0.01 * scale
    lo = up = np.nan
    for k in range(1, POWER_MAX_ITER + 1):
        u = store.matvec(v) + shift * v
        ratios = u / v
        lo = float(np.min(ratios))
        up = float(np.max(ratios))
        if up - lo <= 1e-10 * max(1.0, up):
            value = 0.5 * (lo + up) - shift
            return SpectralRadiusEstimate(value, max(lo - shift, 0.0), up - shift,
                                          k, True, "power")
        v = u / np.max(u)
    if n <= DENSE_EIG_MAX_ORDER:
        return _dense_radius(store, POWER_MAX_ITER)
    value = 0.5 * (lo + up) - shift
    return SpectralRadiusEstimate(value, max(lo - shift, 0.0), up - shift,
                                  POWER_MAX_ITER, False, "power")


def _dense_radius(store, iterations):
    value = float(np.max(np.abs(np.linalg.eigvals(store.to_dense()))))
    return SpectralRadiusEstimate(value, value, value, iterations, True, "dense")


def two_norm_estimate(matvec, rmatvec, n):
    """Largest singular value via power iteration on A^T A.

    Operator-based, so it also runs on a factorization's solves. Random seeded
    start avoids starts orthogonal to the dominant singular space.
    """
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_prev = None
    for _ in range(10000):
        u = rmatvec(matvec(v))
        lam = float(v @ u)
        norm_u = np.linalg.norm(u)
        if norm_u == 0.0:
            return 0.0
        v = u / norm_u
        if lam_prev is not None and abs(lam - lam_prev) <= 1e-12 * max(1.0, abs(lam)):
            return float(np.sqrt(max(lam, 0.0)))
        lam_prev = lam
    return float(np.sqrt(max(lam_prev, 0.0)))


def induced_norm(store, tag):
    """Induced matrix norm of a store; the 2-norm is exact for a dense store and
    up to order DENSE_EIG_MAX_ORDER, estimated (from below) above it."""
    if tag == "1":
        return float(np.max(abs_colsums(store)))
    if tag == "inf":
        return float(np.max(store.abs_rowsums()))
    if tag == "2":
        if isinstance(store, DenseMatrix) or store.n <= DENSE_EIG_MAX_ORDER:
            return float(np.linalg.norm(store.to_dense(), 2))
        return two_norm_estimate(store.matvec, store.rmatvec, store.n)
    raise ValueError(f"unknown norm tag {tag!r}")


def _stacked_lu(op, stack, *rhs):
    """(op(stack, *rhs), mask of the regular matrices) for a batched LU op
    such as ``np.linalg.inv`` or ``np.linalg.solve``.

    One LU per matrix: the whole stack goes through op at once, and only when
    a zero pivot makes that raise does ``slogdet`` pick out the singular
    matrices (sign 0, from the same LU). op then runs on the regular ones with
    their right-hand sides, and the results of the singular ones are NaN.
    """
    try:
        return op(stack, *rhs), np.ones(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(stack)[0] != 0
        part = op(stack[regular], *(b[regular] for b in rhs))
        out = np.full((len(stack),) + part.shape[1:], np.nan)
        out[regular] = part
        return out, regular


def _stack_inverses(stack):
    """(inverses, index of the first singular or overflowing matrix or None)."""
    inv, _ = _stacked_lu(np.linalg.inv, stack)
    bad = ~np.isfinite(inv).all(axis=(1, 2))
    return inv, (int(np.argmax(bad)) if bad.any() else None)


def inverse_norm(store, tag):
    """Induced norm of store^{-1}: exact for a dense store and up to order 512,
    estimated on the band factorization above it.

    The estimate is deterministic: Hager's method (``onenormest`` with t=1)
    for norms 1 and inf, a seeded power iteration for the 2-norm. Raises
    SingularM when the store cannot be inverted, ValueError on an unknown tag.
    """
    if tag not in NORM_ORD:
        raise ValueError(f"unknown norm tag {tag!r}")
    n = store.n
    if isinstance(store, DenseMatrix) or n <= DENSE_EIG_MAX_ORDER:
        inv, bad = _stack_inverses(store.to_dense()[None])
        if bad is not None:
            raise SingularM("singular matrix or overflowing inverse")
        return float(np.linalg.norm(inv[0], NORM_ORD[tag]))
    factor = LinearOperatorFactor(store)  # raises SingularM
    if tag == "2":
        return two_norm_estimate(factor.solve, factor.solve_transposed, n)
    # ||S^{-1}||_inf = ||(S^T)^{-1}||_1
    solve, rsolve = ((factor.solve, factor.solve_transposed) if tag == "1"
                     else (factor.solve_transposed, factor.solve))
    return float(onenormest(LinearOperator((n, n), matvec=solve, rmatvec=rsolve), t=1))


@dataclass
class Cor31Result:
    rho: ConvergenceReport
    norm_sum: ConvergenceReport
    satisfied: bool
    winner: Optional[str]


def check_cor31(blocks, norm_tag="inf"):
    """Both computable convergence conditions for the general fixed-point method.

    Checks the spectral radius of sum_i |I - M^{-1} H_i| and the norm sum
    sum_i ||I - M^{-1} H_i||; either below one suffices.
    """
    n = blocks.n
    if n > DENSE_LIMIT:
        raise InvalidParams(f"check requires dense work, n <= {DENSE_LIMIT}")
    factor = LinearOperatorFactor(blocks.M)  # raises SingularM
    eye = np.eye(n)
    abs_sum = np.zeros((n, n))
    norm_sum = 0.0
    for h in blocks.H:
        e = eye - factor.solve(h.to_dense())
        abs_sum += np.abs(e)
        norm_sum += induced_norm(DenseMatrix(e), norm_tag)
    est = spectral_radius_nonneg(DenseMatrix(abs_sum))
    rho_rep = _report("Eq38Rho", est.value)
    norm_rep = _report("Eq38NormSum", norm_sum)
    satisfied = rho_rep.satisfied or norm_rep.satisfied
    winner = ("Eq38Rho" if rho_rep.satisfied else
              "Eq38NormSum" if norm_rep.satisfied else None)
    return Cor31Result(rho_rep, norm_rep, satisfied, winner)


@dataclass
class Thm34Result:
    rho: ConvergenceReport
    norms: dict  # norm tag -> ConvergenceReport (2-norm None when unavailable)

    @property
    def satisfied(self):
        return self.rho.satisfied or any(r is not None and r.satisfied
                                         for r in self.norms.values())


def check_thm34(H1, omega):
    """Spectral-radius and norm conditions for the scaled m=2 iteration.

    Reports rho(|omega^{-1} H1 - I|) and ||omega^{-1} H1 - I|| for norms
    {1, 2, inf}; the two families do not contain each other. The 2-norm
    is exact, and None above order DENSE_EIG_MAX_ORDER.
    """
    if not 0.0 < omega < np.inf:
        raise InvalidParams("omega must be finite and positive")
    c = 1.0 / omega
    a = H1.rebuilt(c * H1.diagonal() - 1.0, lambda d: c * d)
    est = spectral_radius_nonneg(a.rebuilt(np.abs(a.diagonal()), np.abs))
    norms = {tag: _report("Eq314Norm", induced_norm(a, tag)) for tag in ("1", "inf")}
    norms["2"] = (_report("Eq314Norm", induced_norm(a, "2"))
                  if a.n <= DENSE_EIG_MAX_ORDER else None)
    return Thm34Result(_report("Eq313Rho", est.value), norms)


def simplex_selections(m, n, trials, seed):
    """Per-coordinate uniform draws from the (m+1)-simplex (normalized
    exponentials), drawn lazily. A negative count or seed raises
    InvalidParams here, at the call."""
    if trials < 0 or seed < 0:
        raise InvalidParams(f"selection count and seed must be >= 0, not {trials}, {seed}")
    rng = np.random.default_rng(seed)
    draws = (rng.exponential(size=(m + 1, n)) for _ in range(trials))
    return (e / e.sum(axis=0) for e in draws)


def sample_rho_L(blocks, trials=200, seed=0, vertex_budget=4096):
    """Heuristic scan of the iteration-matrix spectral radius over selections.

    The exact condition quantifies over the whole selection set, which has no
    general algorithm; this samples it (plus all vertices when cheap) and is
    explicitly non-certifying. Vertices and samples go through M's one
    factorization a chunk at a time.
    """
    n, m = blocks.n, blocks.m
    factor = LinearOperatorFactor(blocks.M)  # raises SingularM
    eye = np.eye(n)
    chunks = selection_chunks(blocks, simplex_selections(m, n, trials, seed))
    if (m + 1) ** n <= vertex_budget:
        chunks = itertools.chain(vertex_chunks(blocks), chunks)
    worst = 0.0
    count = 0
    for _, stack in chunks:
        # One multi-RHS solve M X = [S_1 ... S_k] for the whole chunk.
        k = len(stack)
        sol = factor.solve(stack.transpose(1, 0, 2).reshape(n, k * n))
        l_mats = eye - sol.reshape(n, k, n).transpose(1, 0, 2)
        worst = max(worst, float(np.abs(np.linalg.eigvals(l_mats)).max()))
        count += k
    return _report("Eq35Sampled", worst, samples=count, certifying=False)


def is_diagonal(store):
    return bool(np.array_equal(store.abs_rowsums(), np.abs(store.diagonal())))


@dataclass
class OmegaSuggestion:
    kind: str  # scalar | diagonal
    value: object  # float or vector
    rule: str


def suggest_omega(H1):
    """Step-size heuristic for the scaled m=2 iteration.

    Rule order: column-sdd with scalar diagonal tau -> tau; exactly diagonal
    positive matrix -> its diagonal; symmetric -> half its inf-norm (padded
    1 percent); positive diagonal -> the diagonal part. Raises NoRuleApplies
    otherwise.
    """
    diag = H1.diagonal()
    col_margins = 2.0 * np.abs(diag) - abs_colsums(H1)
    col_sdd = bool(np.all(col_margins > 0))
    scalar_diag = diag.size > 0 and float(np.ptp(diag)) == 0.0
    if col_sdd and scalar_diag and diag[0] > 0:
        return OmegaSuggestion("scalar", float(diag[0]), "column-sdd-scalar-diagonal")
    if is_diagonal(H1) and np.all(diag > 0):
        return OmegaSuggestion("diagonal", diag.copy(), "positive-diagonal")
    if is_symmetric(H1):
        value = 0.5 * float(np.max(H1.abs_rowsums())) * 1.01
        return OmegaSuggestion("scalar", value, "symmetric")
    if np.all(diag > 0):
        return OmegaSuggestion("diagonal", diag.copy(), "positive-diagonal")
    raise NoRuleApplies("H1 has a nonpositive diagonal entry and is neither "
                        "symmetric nor column-sdd with a scalar diagonal")
