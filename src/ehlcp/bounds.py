"""Global error bounds: the residual sandwich and its computable constants.

For any y, ||r(y)|| / alpha_low <= ||y - y*|| <= alpha_up ||r(y)||, where the
two alphas extremize the norm (resp. inverse norm) of diagonal selection
combinations of the blocks. alpha_low is exact at the vertices (the norm is
convex over the selection simplex): in closed form from the blocks for norms
1 and inf, by vertex enumeration for the 2-norm. alpha_up has no general
algorithm and is replaced by the computable diagonal-dominance constants plus
a non-certifying sampled lower estimate for tightness diagnostics. Where
alpha_up is infinite some selection combination is singular, which breaks the
column W-property; ``falsify_random`` searches sampled selections for one.
Both sampled tools invert every combination exactly, a stack at a time, or
refuse: above order DENSE_EIG_MAX_ORDER they raise InvalidParams.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockdata import BandMatrix, DenseMatrix
from .convergence import (DENSE_EIG_MAX_ORDER, DENSE_LIMIT, EIGVALS_FIRST_ORDER,
                          _dominance, _scaled_up, _stacked_lu, _up, enclose_resolvent,
                          simplex_selections, spectral_radius_nonneg)
from .errors import InvalidParams, NonpositiveDiagonal, NormMismatch, SingularSelection
from .transform import NORM_ORD, DiagonalSelection, pls_residual
from .wproperty import _vertex_blocks, scan_chunks, vertex_chunks

COND_WITNESS_LIMIT = 1e14


def comparison_matrix(store):
    """|diagonal| on the diagonal, -|off-diagonal| elsewhere, same layout."""
    return store.rebuilt(np.abs(store.diagonal()), lambda d: -np.abs(d))


@dataclass
class SplitParts:
    """Diagonal/off-diagonal splits A = Lambda - C with diag(C) = 0."""

    Lambda: list  # positive diagonal vectors
    C: list       # matrix stores, -offdiagonal of the source


def _positive_diagonals(blocks):
    """Each block's diagonal, all positive, else NonpositiveDiagonal."""
    lambdas = [store.diagonal() for store in blocks.all()]
    if not all(np.all(lam > 0) for lam in lambdas):
        raise NonpositiveDiagonal("every block needs a positive diagonal")
    return lambdas


def split_diagonal(blocks):
    return SplitParts(_positive_diagonals(blocks),
                      [store.rebuilt(np.zeros(store.n), np.negative) for store in blocks.all()])


def _x_and_d_max(blocks):
    """bound42's X = max_i Lambda_i^{-1}|C_i| and d_max = max_i Lambda_i^{-1},
    in one pass over the blocks.

    Each entry of X is |a (1/lambda)[row]| for an entry a off a block's
    diagonal, maxed over the blocks in block order, so it is rounded once as
    in ``split_diagonal``'s C_i scaled by rows: |(-a) s| = |a s| exactly. A
    band X holds the union of the blocks' stored off-diagonals and no main
    diagonal. A dense X (when any block is dense) takes 0 (1/lambda) on the
    diagonal from each dense block, NaN where 1/lambda overflows, and zeros
    off a band block's stored diagonals.
    """
    stores, n = blocks.all(), blocks.n
    scales = [1.0 / lam for lam in _positive_diagonals(blocks)]
    d_max = np.maximum.reduce(scales)

    def scaled_diagonals(store, s):
        """(offset, rows, columns, |a s[row]|) of each stored off-diagonal."""
        for o, values in store.diagonals():
            if o:
                rows, cols = slice(max(0, -o), n - max(0, o)), slice(max(0, o), n + min(0, o))
                part = values[cols] * s[rows]
                yield o, rows, cols, np.abs(part, out=part)

    if any(isinstance(store, DenseMatrix) for store in stores):
        x = np.zeros((n, n))
        for store, s in zip(stores, scales):
            if isinstance(store, DenseMatrix):
                part = store.data * s[:, None]
                np.fill_diagonal(part, 0.0 * s)
                np.maximum(x, np.abs(part, out=part), out=x)
            else:
                for _, rows, cols, part in scaled_diagonals(store, s):
                    np.fill_diagonal(x[rows, cols], np.maximum(np.diagonal(x[rows, cols]), part))
        return DenseMatrix(x), d_max
    offsets = sorted({o for store in stores for o, _ in store.diagonals() if o},
                     key=lambda o: (abs(o), o))
    data = np.zeros((len(offsets), n))
    row_of = dict(zip(offsets, data))
    for store, s in zip(stores, scales):
        for o, _, cols, part in scaled_diagonals(store, s):
            np.maximum(row_of[o][cols], part, out=row_of[o][cols])
    return BandMatrix(offsets, data), d_max


@dataclass
class BoundReport:
    kind: str  # Thm42Eta | Thm43Tau | Thm41Sandwich
    constant: float
    norm_tag: str
    condition_satisfied: bool
    condition_value: float
    condition_bracket: Optional[tuple] = None  # (lower, upper) bound on rho


@np.errstate(over="ignore", invalid="ignore")
def bound42(blocks, norm_tag="inf"):
    """Constant of the positive-diagonal bound, with its spectral condition.

    The entrywise max over blocks of Lambda_i^{-1}|C_i| is taken coordinate by
    coordinate; when rho of that matrix X is below one, the constant
    ||(I - X)^{-1} max_i Lambda_i^{-1}|| certifies the upper error bound
    (norms 1 and inf supported). X and d_max = max_i Lambda_i^{-1} are
    assembled in one pass over the blocks (``_x_and_d_max``), rounded as the
    split A = Lambda - C scaled by rows rounds them: the same bits.

    Both come from one vector v: for tag inf v approximates
    z = (I - X)^{-1} d_max, for tag 1 v approximates u = (I - X^T)^{-1} e.
    ``convergence.enclose_resolvent`` takes v from a Neumann sum or from the
    solve with I - X, and certifies it: the condition holds exactly when v is
    finite and positive and the rounded-up largest Collatz-Wielandt ratio
    theta_up is below one (min ratio <= rho(X) <= max ratio). v is then
    enclosed, z <= v (1 + eps), and since (I - X)^{-1} is nonnegative the
    constant is max v (1 + eps) for tag inf and max d_max v (1 + eps) for
    tag 1, rounded up: an upper end of the exact constant of the stored X
    and d_max, never below it.
    ``condition_bracket`` is the rigorous (lower, upper) ratio pair.
    ``condition_value`` is its upper end theta_up, an upper end of rho(X),
    except for a dense X at order ``EIGVALS_FIRST_ORDER`` or below, where it
    is the spectral radius from ``spectral_radius_nonneg``. On an uncertified
    instance both come from ``spectral_radius_nonneg``: its value and its
    (lower, upper) bracket; the constant is then inf, no bound, at every order.
    """
    if norm_tag not in ("1", "inf"):
        raise ValueError("bound supports norm tags '1' and 'inf'")
    n = blocks.n
    if n > DENSE_LIMIT and any(isinstance(s, DenseMatrix) for s in blocks.all()):
        raise InvalidParams(f"dense layout too large for this bound (n > {DENSE_LIMIT})")
    x, d_max = _x_and_d_max(blocks)
    rhs = d_max if norm_tag == "inf" else np.ones(n)
    cert = enclose_resolvent(x, rhs, norm_tag == "1")
    if cert is not None:
        v, eps, bracket = cert
        top = float(np.max(v)) if norm_tag == "inf" else _up(float(np.max(d_max * v)))
        value = (spectral_radius_nonneg(x).value
                 if isinstance(x, DenseMatrix) and n <= EIGVALS_FIRST_ORDER
                 else bracket[1])
        return BoundReport("Thm42Eta", _scaled_up(top, eps), norm_tag, True, value,
                           bracket)
    est = spectral_radius_nonneg(x)  # not certified: no bound
    return BoundReport("Thm42Eta", np.inf, norm_tag, False, est.value, (est.lower, est.upper))


def bound43(blocks):
    """Reciprocal minimal column-dominance margin (1-norm bound).

    Hypothesis: every block transposed is row sdd and the blocks' diagonals
    agree in sign coordinatewise. The constant is 1 / the smallest computed
    margin where the hypothesis is certified, and inf (no bound) where it is
    not; ``condition_value`` is that margin either way.

    The column dominance of each block is ``convergence._dominance`` by
    columns, the rule of ``sdd_classify``'s ``col_sdd``, decided on a lower
    end of each exact margin 2|a_jj| - sum_i |a_ij|; no row sum is computed.
    """
    columns = [_dominance(store, transposed=True) for store in blocks.all()]
    diags = [store.diagonal() for store in blocks.all()]
    signs = np.sign(diags[0])
    same_sign = bool(np.all(signs != 0)) and all(
        bool(np.all(np.sign(d) == signs)) for d in diags[1:])
    satisfied = all(flag for flag, _ in columns) and same_sign
    min_margin = float(min(np.min(margins) for _, margins in columns))
    # a certified hypothesis has every computed margin positive
    constant = 1.0 / min_margin if satisfied else float("inf")
    return BoundReport("Thm43Tau", constant, "1", satisfied, min_margin)


def _error_bound(constant, r_norm):
    """constant * ||r||, and inf for an infinite constant (no bound), even at r = 0."""
    return np.inf if np.isinf(constant) else constant * r_norm


def residual_error_interval(problem, y, alpha_upper, alpha_lower_den,
                            norm_tag="inf"):
    """Two-sided error interval (||r||/alpha_low, alpha_up * ||r||) at y.

    Only bounds make the interval: alpha_up is a BoundReport or a bare float,
    alpha_low an AlphaEstimate with ``exact`` True or a bare float. Anything
    else, such as ``overalpha_estimate``'s lower estimate of alpha_up, raises
    InvalidParams. A BoundReport or AlphaEstimate must carry the requested norm
    tag; bare floats are trusted as-is. An infinite alpha_up (no bound) gives
    inf, even at r = 0.
    """
    if not isinstance(alpha_upper, (BoundReport, numbers.Real)):
        raise InvalidParams("the upper constant must be a BoundReport or a float")
    if not (isinstance(alpha_lower_den, numbers.Real)
            or isinstance(alpha_lower_den, AlphaEstimate) and alpha_lower_den.exact):
        raise InvalidParams("the lower constant must be an exact AlphaEstimate or a float")
    up_tag = getattr(alpha_upper, "norm_tag", None)
    lo_tag = getattr(alpha_lower_den, "norm_tag", None)
    if up_tag is not None and up_tag != norm_tag:
        raise NormMismatch(f"upper constant is a {up_tag}-norm bound, wanted {norm_tag}")
    if lo_tag is not None and lo_tag != norm_tag:
        raise NormMismatch(f"lower constant is a {lo_tag}-norm bound, wanted {norm_tag}")
    up = getattr(alpha_upper, "constant", alpha_upper)
    lo = getattr(alpha_lower_den, "value", alpha_lower_den)
    r_norm = pls_residual(problem, y).norms[norm_tag]
    return (r_norm / float(lo), _error_bound(float(up), r_norm))


@dataclass
class AlphaEstimate:
    value: float
    norm_tag: str
    exact: bool  # underalpha_exact's vertex maximum vs overalpha_estimate's lower estimate
    count: int


def underalpha_exact(blocks, norm_tag="inf", budget=2 ** 20):
    """Max selection-combination norm over the selection set, exact or refused.

    The norm is convex in the selection weights over a product of simplices,
    so the max sits at a vertex, and vertex combinations are exactly the
    column representatives. Each column of a representative comes from its
    own block, so for norms 1 and inf the vertex maximum has a closed form:
    the largest column abs-sum of any block (1), and the largest row sum of
    the entrywise max over blocks of |A_k| (inf). Floating-point addition is
    monotone, so both equal the enumerated maximum bit for bit. The 2-norm
    enumerates every vertex. When the (m+1)^n vertices exceed the budget, the
    vertex gate ``wproperty._vertex_blocks`` raises BudgetExceeded, for every
    tag.
    """
    if norm_tag not in NORM_ORD:
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    n, m = blocks.n, blocks.m
    dense = _vertex_blocks(blocks, budget)
    if norm_tag == "2":
        worst = 0.0
        for _, stack in vertex_chunks(dense):
            worst = max(worst, float(np.linalg.norm(stack, 2, axis=(1, 2)).max()))
    else:
        mags = np.abs(dense)
        worst = float(mags.sum(axis=1).max() if norm_tag == "1"
                      else mags.max(axis=0).sum(axis=1).max())
    return AlphaEstimate(worst, norm_tag, True, (m + 1) ** n)


def _inverted_chunks(blocks, lams, vertex_budget):
    """(keys, stack, inverses) of each ``wproperty.scan_chunks`` chunk, the
    inverses from one batched LU (``convergence._stacked_lu``): NaN for a
    singular matrix, inf where one overflows. Above order DENSE_EIG_MAX_ORDER
    no exact inverse is taken: InvalidParams at the call, before any work."""
    if blocks.n > DENSE_EIG_MAX_ORDER:
        raise InvalidParams("selection combinations are inverted exactly, "
                            f"n <= {DENSE_EIG_MAX_ORDER}")
    return ((keys, stack, _stacked_lu(np.linalg.inv, stack)[0])
            for keys, stack in scan_chunks(blocks, lams, vertex_budget))


def overalpha_estimate(blocks, norm_tag="inf", samples=200, seed=0,
                       vertex_budget=4096):
    """Max inverse norm over sampled plus vertex selections, exact or refused.

    Always a lower estimate of the true supremum and never certifying; used
    for tightness diagnostics against the computable upper bounds. The
    vertices, when vertex_budget admits them, then the seeded samples come
    from ``wproperty.scan_chunks`` and are inverted exactly a chunk at a time
    (``_inverted_chunks``). A singular or overflowing inverse is raised as a
    witness against the column W-property: the first one in counter order
    among the vertices (its one-hot selection), then in draw order among the
    samples. Above order DENSE_EIG_MAX_ORDER no exact inverse is taken:
    InvalidParams, before any work, for every tag, layout and sample count.
    """
    if norm_tag not in NORM_ORD:
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    n, m = blocks.n, blocks.m
    worst = 0.0
    count = 0
    for keys, _, inv in _inverted_chunks(blocks, simplex_selections(m, n, samples, seed),
                                         vertex_budget):
        bad = ~np.isfinite(inv).all(axis=(1, 2))
        if bad.any():
            lam = keys[np.argmax(bad)]  # a vertex's digits, or a sampled selection
            raise SingularSelection(
                "singular selection combination (column W-property violated)",
                selection=DiagonalSelection(np.eye(m + 1)[lam].T if lam.ndim == 1 else lam))
        worst = max(worst, float(np.linalg.norm(inv, NORM_ORD[norm_tag], axis=(1, 2)).max()))
        count += len(inv)
    return AlphaEstimate(worst, norm_tag, False, count)


def _midpoint_selections(m, n):
    """Even two-block splits; these catch exact cancellations like M = -H1."""
    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            lam = np.zeros((m + 1, n))
            lam[a, :] = 0.5
            lam[b, :] = 0.5
            yield lam


@np.errstate(over="ignore", invalid="ignore")
def falsify_random(blocks, trials=200, seed=0):
    """Search for a numerically singular selection combination, exactly or refused.

    Deterministic midpoint probes run first, then seeded random simplex
    selections, inverted exactly a chunk at a time (``_inverted_chunks``, no
    vertices). The witness is the first combination S in that order whose
    inf-norm condition number ||S|| ||S^{-1}|| is not at most
    COND_WITNESS_LIMIT: a singular or overflowing inverse gives NaN or inf
    there, so it is a witness too. Returns the witness selection or None;
    None proves nothing. Above order DENSE_EIG_MAX_ORDER no exact inverse is
    taken: InvalidParams, before any work, for every layout and trial count.
    """
    n, m = blocks.n, blocks.m
    lams = itertools.chain(_midpoint_selections(m, n), simplex_selections(m, n, trials, seed))
    for keys, stack, inv in _inverted_chunks(blocks, lams, 0):
        s_norm = np.linalg.norm(stack, np.inf, axis=(1, 2))
        witness = ~(s_norm * np.linalg.norm(inv, np.inf, axis=(1, 2)) <= COND_WITNESS_LIMIT)
        if witness.any():
            return DiagonalSelection(keys[np.argmax(witness)])
    return None
