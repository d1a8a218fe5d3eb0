"""Checkable sufficient conditions for convergence and step-size heuristics.

Every condition and bound in the package runs on four kernels over a matrix
store: ``induced_norm``, ``inverse_norm``, ``enclose_resolvent`` and
``spectral_radius_nonneg``.

Every decision rho(X) < 1 for a nonnegative X (Thm 3.4's
rho(|omega^{-1} H1 - I|) in ``check_thm34``, Cor 3.1's
rho(sum_i |I - M^{-1} H_i|) in ``check_cor31``, Thm 4.2's rho(X) in
``bounds.bound42``) is made by ``enclose_resolvent``: a positive v from a
Neumann sum or one solve with I - X, whose largest Collatz-Wielandt ratio
(X v)_i / v_i, rounded up by Higham's gamma terms, must be below one. The
condition holds exactly when that certifies.

rho is exact at order ``EIGVALS_FIRST_ORDER`` and below (for ``bound42`` only
for a dense X); above it the value is an upper end: theta_up when the
enclosure certifies, the row-sum end of ``spectral_radius_nonneg`` when it
does not, and never certifying unless closed.

The norm conditions of norms 1 and inf, and ``sdd_classify``'s dominance
flags, are decided on sums rounded outward the same way; the 2-norm
conditions are decided on the computed norm and are not rounding-safe.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, onenormest

from .blockdata import DenseMatrix, abs_colsums, all_finite, is_symmetric
from .errors import BudgetExceeded, InvalidParams, NoRuleApplies, SingularM
from .solvers import LinearOperatorFactor
from .transform import NORM_ORD
from .wproperty import _vertex_blocks, selection_chunks, vertex_chunks

DENSE_EIG_MAX_ORDER = 512
DENSE_LIMIT = 4096  # largest order of the checks and bounds that go dense
# rho is exact (dense eigenvalues) at or below this order and a row-sum upper
# end above it: on one AMD EPYC core eigvals took about 4 ms at order 120,
# 11 ms at 160 and 35 ms at 256, growing as n^3, where the row sums cost one
# product.
EIGVALS_FIRST_ORDER = 128


# The enclosure sums the Neumann series only when steps * p *
# NEUMANN_BREAK_EVEN < bandwidth^2. A step with a band X of p stored diagonals
# costs about n p, the banded factorization of I - X about n bandwidth^2, and
# per unit of these a step measured 6-9 times dearer on Ex 5.1 and Ex 5.5 at
# n = 400-10,000 (see CHANGES.md).
NEUMANN_BREAK_EVEN = 8
UNIT_ROUNDOFF = np.finfo(float).eps / 2  # u of round to nearest


def _up(a):
    """The float after a: an upper end for a once-rounded result a."""
    return math.nextafter(a, math.inf)


def _scaled_up(t, g):
    """An upper end for t (1 + g) with t, g >= 0 and floats t, g."""
    return _up(t + _up(t * g))


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), rounded up."""
    return _up(k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF))


def _sum_up(s, k):
    """An upper end of a sum of k nonnegative terms computed as s: s (1 +
    gamma_2k), rounded up (the computed sum is off by at most gamma_(k-1) of
    itself, Higham 2002, ch. 3)."""
    return _scaled_up(s, _gamma(2 * k))


def _widened(values, g):
    """(lower, upper) ends of exact values each computed within g of itself
    as one of values: min(values) (1 - g) rounded down, and at least 0, and
    max(values) (1 + g) rounded up."""
    lo, up = float(np.min(values)), float(np.max(values))
    return max(0.0, math.nextafter(lo - _up(lo * g), -math.inf)), _scaled_up(up, g)


def _neumann_steps(x, transposed):
    """Steps for the Neumann sum of X (X^T when transposed), or None where the
    solve is cheaper.

    The sum needs a band X with s = ||X|| below one (largest row sum, or
    column sum when transposed, rounded up by gamma_2p), which proves
    rho(X) <= s < 1. After ceil(log u / log s) steps its tail is below
    rounding.
    """
    if isinstance(x, DenseMatrix):
        return None
    p = len(x.offsets)
    sums = abs_colsums(x) if transposed else x.abs_rowsums()
    s = _sum_up(float(np.max(sums)), p)
    if not s < 1.0:
        return None
    steps = math.ceil(math.log(UNIT_ROUNDOFF) / math.log(max(s, UNIT_ROUNDOFF)))
    return steps if steps * p * NEUMANN_BREAK_EVEN < x.bandwidth ** 2 else None


def _neumann_sum(rhs, apply_x, steps):
    """v <- rhs + X v, steps times from v = rhs.

    rhs is added in place into the fresh product X v (IEEE + commutes bit for
    bit). An iterate that repeats maps to itself, so v has the bits of a sum
    that stops at the first repeat.
    """
    v = rhs
    for _ in range(steps):
        v = apply_x(v)
        v += rhs
    return v


def _enclose(x, v, rhs, apply_x):
    """Certify v against (I - X) z = rhs: (eps, (theta_lo, theta_up)) or None.

    X >= 0, and p = len(x.data) is the most terms in one entry of X v (the
    stored diagonals of a band X, n for a dense X), so w = fl(X v) has
    |w - X v| <= gamma_p X v (Higham 2002, ch. 3). With g = gamma_(2p+3) and
    v finite and positive:

    - (theta_lo, theta_up) = ``_widened`` ratios fl(w_i / v_i) bound every
      exact ratio (X v)_i / v_i, so theta_lo <= rho(X) <= theta_up
      (Collatz-Wielandt). v certifies only when theta_up < 1.
    - The exact residual r = rhs - v + X v obeys
      |r| <= |fl(r)| + g (rhs + v + w).
    - Since (I - X)^{-1} = sum_k X^k >= 0 and X v <= theta_up v,
      |z - v| = |(I - X)^{-1} r| <= delta (I - X)^{-1} v
      <= v delta / (1 - theta_up), with delta = max_i |r_i| / v_i. So
      z <= v (1 + eps), eps = delta / (1 - theta_up).

    The seven rounded operations from the residual to eps are covered by a
    last factor 1 + gamma_7, and every scalar result is rounded up one ulp.
    Underflow is not accounted for.
    """
    if not (np.isfinite(v).all() and (v > 0).all()):
        return None
    g = _gamma(2 * len(x.data) + 3)
    w = apply_x(v)
    theta_lo, theta_up = _widened(w / v, g)
    if not theta_up < 1.0:
        return None
    slack = np.abs(rhs - v + w) + g * (rhs + v + w)
    eps = float(np.max(slack / v)) / (1.0 - theta_up)
    return _scaled_up(eps, _gamma(7)), (theta_lo, theta_up)


def enclose_resolvent(x, rhs, transposed):
    """Certify rho(X) < 1 for a store X >= 0 and enclose z = (I - X)^{-1} rhs
    ((I - X^T)^{-1} rhs when transposed), rhs > 0.

    Returns (v, eps, (theta_lo, theta_up)) with z <= v (1 + eps) and
    theta_lo <= rho(X) <= theta_up < 1, or None where v does not certify
    (``_enclose``). v is a Neumann sum where ``_neumann_steps`` allows one
    and it certifies; otherwise one solve with I - X by
    ``LinearOperatorFactor``, and None when that factorization fails.
    """
    apply_x = x.rmatvec if transposed else x.matvec
    steps = _neumann_steps(x, transposed)
    if steps is not None:
        v = _neumann_sum(rhs, apply_x, steps)
        cert = _enclose(x, v, rhs, apply_x)
        if cert is not None:
            return (v,) + cert
    try:
        factor = LinearOperatorFactor(x.rebuilt(1.0 - x.diagonal(), np.negative))
    except SingularM:
        return None
    v = factor.solve_transposed(rhs) if transposed else factor.solve(rhs)
    cert = _enclose(x, v, rhs, apply_x)
    return None if cert is None else (v,) + cert


@dataclass
class ConvergenceReport:
    condition_tag: str  # Eq35Sampled | Eq38Rho | Eq38NormSum | Eq313Rho | Eq314Norm
    value: float
    satisfied: bool
    samples_used: int = 0
    certifying: bool = True


def _report(tag, value, upper):
    """The value, satisfied when upper, an upper end of it, is below one."""
    return ConvergenceReport(tag, float(value), bool(upper < 1.0))


def _rho_report(tag, x):
    """Decide rho(X) < 1 for a store X >= 0 on ``enclose_resolvent`` with
    right-hand side e: satisfied exactly when it certifies.

    The value is the certified theta_up above order EIGVALS_FIRST_ORDER and
    otherwise ``spectral_radius_nonneg``'s, certifying only when its bracket
    closed, as the ``eigvals`` radius at that order or below always is.
    """
    cert = enclose_resolvent(x, np.ones(x.n), False)
    if cert is not None and x.n > EIGVALS_FIRST_ORDER:
        value, certifying = cert[2][1], True
    else:
        est = spectral_radius_nonneg(x)
        value, certifying = est.value, est.converged
    return ConvergenceReport(tag, float(value), cert is not None, 0, certifying)


@dataclass
class SpectralRadiusEstimate:
    value: float
    lower: float
    upper: float
    iterations: int
    converged: bool
    method: str  # dense | rowsums | zero


@np.errstate(over="ignore")
def spectral_radius_nonneg(store):
    """Spectral radius of a store X >= 0; ValueError on a negative entry.

    Exact at order EIGVALS_FIRST_ORDER or below: the eigenvalues of
    ``store.to_dense()``. Above it, the Collatz-Wielandt bracket of e: the
    smallest and largest row sums, ``_widened`` for their rounding as
    ``_enclose`` widens its ratios, so lower <= rho(X) <= upper. The value is
    the upper end, and ``converged`` is True only when the bracket closes:
    every computed row sum is the same. A NaN or infinite row sum (from such an
    entry, or an overflow) gives the unclosed bracket (0, inf), value inf.
    """
    if np.any(store.data < 0):
        raise ValueError("operator is not entrywise nonnegative")
    sums = store.matvec(np.ones(store.n))
    if not np.isfinite(sums).all():
        return SpectralRadiusEstimate(np.inf, 0.0, np.inf, 1, False, "rowsums")
    if np.max(sums) == 0.0:
        return SpectralRadiusEstimate(0.0, 0.0, 0.0, 1, True, "zero")
    if store.n <= EIGVALS_FIRST_ORDER:
        value = float(np.max(np.abs(np.linalg.eigvals(store.to_dense()))))
        return SpectralRadiusEstimate(value, value, value, 0, True, "dense")
    lower, upper = _widened(sums, _gamma(2 * len(store.data) + 3))
    return SpectralRadiusEstimate(upper, lower, upper, 1, bool(np.ptp(sums) == 0.0),
                                  "rowsums")


def _norm_ends(store, tag):
    """(induced norm of store, an upper end of it): for norms 1 and inf the
    largest absolute column or row sum and its ``_sum_up``; the 2-norm's end
    is its computed value, which is not rounding-safe."""
    value = induced_norm(store, tag)
    return value, (value if tag == "2" else _sum_up(value, len(store.data)))


def _refuse_band_two_norm(store, tag):
    """InvalidParams for the 2-norm of a band store above order
    DENSE_EIG_MAX_ORDER: no kernel computes it exactly there."""
    if tag == "2" and not isinstance(store, DenseMatrix) and store.n > DENSE_EIG_MAX_ORDER:
        raise InvalidParams(f"no 2-norm of a band store above order {DENSE_EIG_MAX_ORDER}")


def induced_norm(store, tag):
    """Induced matrix norm of a store. The 2-norm is exact for a dense store
    and up to order DENSE_EIG_MAX_ORDER, and refused (InvalidParams) for a
    band store above it."""
    if tag == "1":
        return float(np.max(abs_colsums(store)))
    if tag == "inf":
        return float(np.max(store.abs_rowsums()))
    if tag == "2":
        _refuse_band_two_norm(store, tag)
        return float(np.linalg.norm(store.to_dense(), 2))
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
    for norms 1 and inf. The 2-norm of a band store above order 512 is
    refused with InvalidParams, as in ``induced_norm``. Raises SingularM when
    the store cannot be inverted, ValueError on an unknown tag.
    """
    if tag not in NORM_ORD:
        raise ValueError(f"unknown norm tag {tag!r}")
    _refuse_band_two_norm(store, tag)
    n = store.n
    if isinstance(store, DenseMatrix) or n <= DENSE_EIG_MAX_ORDER:
        inv, bad = _stack_inverses(store.to_dense()[None])
        if bad is not None:
            raise SingularM("singular matrix or overflowing inverse")
        return float(np.linalg.norm(inv[0], NORM_ORD[tag]))
    factor = LinearOperatorFactor(store)  # raises SingularM
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


@np.errstate(over="ignore")
def check_cor31(blocks, norm_tag="inf"):
    """Both computable convergence conditions for the general fixed-point method.

    Checks the spectral radius of sum_i |I - M^{-1} H_i| and the norm sum
    sum_i ||I - M^{-1} H_i||; either below one suffices. The radius
    condition is decided by ``enclose_resolvent`` (``_rho_report``), the
    norm sum for norms 1 and inf on the sum of ``_norm_ends`` upper ends,
    rounded up; the 2-norm sum is decided on its computed value.
    """
    n = blocks.n
    if n > DENSE_LIMIT:
        raise InvalidParams(f"check requires dense work, n <= {DENSE_LIMIT}")
    factor = LinearOperatorFactor(blocks.M)  # raises SingularM
    eye = np.eye(n)
    abs_sum = np.zeros((n, n))
    norm_sum = norm_up = 0.0
    for h in blocks.H:
        e = eye - factor.solve(h.to_dense())
        abs_sum += np.abs(e)
        value, upper = _norm_ends(DenseMatrix(e), norm_tag)
        norm_sum += value
        norm_up = _up(norm_up + upper)
    rho_rep = _rho_report("Eq38Rho", DenseMatrix(abs_sum))
    norm_rep = _report("Eq38NormSum", norm_sum, norm_sum if norm_tag == "2" else norm_up)
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


@np.errstate(over="ignore")
def check_thm34(H1, omega):
    """Spectral-radius and norm conditions for the scaled m=2 iteration.

    Reports rho(|omega^{-1} H1 - I|) and ||omega^{-1} H1 - I|| for norms
    {1, 2, inf}; the two families do not contain each other. The radius
    condition is decided by ``enclose_resolvent`` (``_rho_report``), the
    norms 1 and inf on their ``_norm_ends`` upper ends. The 2-norm is exact,
    and None above order DENSE_EIG_MAX_ORDER; its condition is decided on the
    computed norm and is not rounding-safe. An omega without a finite positive
    reciprocal, or a non-finite entry in H1 or omega^{-1} H1, raises InvalidParams.
    """
    if not 0.0 < omega < np.inf or math.isinf(1.0 / float(omega)):
        raise InvalidParams("omega must be finite and positive, with a finite reciprocal")
    if not all_finite(H1):
        raise InvalidParams("non-finite entries in H1")
    c = 1.0 / omega
    a = H1.rebuilt(c * H1.diagonal() - 1.0, lambda d: c * d)
    if not all_finite(a):
        raise InvalidParams("omega^{-1} H1 overflows")
    rho_rep = _rho_report("Eq313Rho", a.rebuilt(np.abs(a.diagonal()), np.abs))
    norms = {tag: _report("Eq314Norm", *_norm_ends(a, tag)) for tag in ("1", "inf")}
    norms["2"] = (_report("Eq314Norm", *_norm_ends(a, "2"))
                  if a.n <= DENSE_EIG_MAX_ORDER else None)
    return Thm34Result(rho_rep, norms)


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
    if n > DENSE_LIMIT:
        raise InvalidParams(f"check requires dense work, n <= {DENSE_LIMIT}")
    factor = LinearOperatorFactor(blocks.M)  # raises SingularM
    eye = np.eye(n)
    chunks = selection_chunks(blocks, simplex_selections(m, n, trials, seed))
    with contextlib.suppress(BudgetExceeded):  # the vertices, when they fit vertex_budget
        chunks = itertools.chain(vertex_chunks(_vertex_blocks(blocks, vertex_budget)), chunks)
    worst = 0.0
    count = 0
    for _, stack in chunks:
        # One multi-RHS solve M X = [S_1 ... S_k] for the whole chunk.
        k = len(stack)
        sol = factor.solve(stack.transpose(1, 0, 2).reshape(n, k * n))
        l_mats = eye - sol.reshape(n, k, n).transpose(1, 0, 2)
        worst = max(worst, float(np.abs(np.linalg.eigvals(l_mats)).max()))
        count += k
    return ConvergenceReport("Eq35Sampled", worst, worst < 1.0, count, False)


def is_diagonal(store):
    return bool(np.array_equal(store.abs_rowsums(), np.abs(store.diagonal())))


@dataclass
class SddReport:
    row_sdd: bool
    col_sdd: bool
    row_margins: np.ndarray  # (<A> e)_i
    col_margins: np.ndarray  # (<A^T> e)_i


def sdd_classify(store):
    """Strict diagonal dominance by rows and by columns, with the computed
    margins 2|a_jj| - (absolute row or column sum), each flag decided by
    ``_dominance``."""
    row_sdd, row_margins = _dominance(store, transposed=False)
    col_sdd, col_margins = _dominance(store, transposed=True)
    return SddReport(row_sdd, col_sdd, row_margins, col_margins)


def _dominance(store, transposed):
    """(flag, margins) of strict diagonal dominance by rows, or by columns
    when transposed; the margins are the computed 2|a_jj| - (absolute row or
    column sum).

    The flag is decided on a lower end of the exact margins. A sum of k =
    len(store.data) terms is off by at most gamma_(k-1) of itself (Higham
    2002, ch. 3), so a computed margin is off by at most gamma_(2k-1)
    (2|a_jj| + computed sum). The flag needs every computed margin above
    fl(gamma_(2k+3) fl(2|a_jj| + computed sum)), which its two roundings
    leave above that error, so every exact margin is positive.
    """
    two_diag = 2.0 * np.abs(store.diagonal())
    g = _gamma(2 * len(store.data) + 3)
    sums = abs_colsums(store) if transposed else store.abs_rowsums()
    margins = two_diag - sums
    return bool(np.all(margins > g * (two_diag + sums))), margins


@dataclass
class OmegaSuggestion:
    kind: str  # scalar | diagonal
    value: object  # float or vector
    rule: str


def suggest_omega(H1):
    """Step-size heuristic for the scaled m=2 iteration.

    Rule order: column-sdd (``sdd_classify``) with scalar diagonal tau -> tau;
    exactly diagonal positive matrix -> its diagonal; symmetric -> half its
    inf-norm (padded 1 percent); positive diagonal -> the diagonal part.
    Raises NoRuleApplies otherwise.
    """
    diag = H1.diagonal()
    scalar_diag = diag.size > 0 and float(np.ptp(diag)) == 0.0
    if sdd_classify(H1).col_sdd and scalar_diag and diag[0] > 0:
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
