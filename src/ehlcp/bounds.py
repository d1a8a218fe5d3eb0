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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockdata import DenseMatrix, entrywise
from .convergence import (DENSE_EIG_MAX_ORDER, DENSE_LIMIT, EIGVALS_FIRST_ORDER,
                          _dominance, _scaled_up, _stack_inverses, _up,
                          enclose_resolvent, induced_norm, inverse_norm,
                          sdd_classify as _sdd_classify, simplex_selections,
                          spectral_radius_nonneg)
from .errors import (BudgetExceeded, InvalidParams, NonpositiveDiagonal,
                     NormMismatch, SingularM, SingularSelection)
from .transform import NORM_ORD, DiagonalSelection, pls_residual
from .wproperty import selection_chunks, selection_combination, vertex_chunks

COND_WITNESS_LIMIT = 1e14

# Still importable from this module, where bound43 used to call it.
sdd_classify = _sdd_classify


def comparison_matrix(store):
    """|diagonal| on the diagonal, -|off-diagonal| elsewhere, same layout."""
    return store.rebuilt(np.abs(store.diagonal()), lambda d: -np.abs(d))


@dataclass
class SplitParts:
    """Diagonal/off-diagonal splits A = Lambda - C with diag(C) = 0."""

    Lambda: list  # positive diagonal vectors
    C: list       # matrix stores, -offdiagonal of the source


def split_diagonal(blocks):
    lambdas, cs = [], []
    for store in blocks.all():
        lam = store.diagonal()
        if not np.all(lam > 0):
            raise NonpositiveDiagonal("every block needs a positive diagonal")
        lambdas.append(lam)
        cs.append(store.rebuilt(np.zeros(store.n), np.negative))
    return SplitParts(lambdas, cs)


@dataclass
class BoundReport:
    kind: str  # Thm42Eta | Thm43Tau | Thm41Sandwich
    constant: float
    norm_tag: str
    condition_satisfied: bool
    condition_value: float
    condition_bracket: Optional[tuple] = None  # (lower, upper) bound on rho


def bound42(blocks, norm_tag="inf"):
    """Constant of the positive-diagonal bound, with its spectral condition.

    The entrywise max over blocks of Lambda_i^{-1}|C_i| is taken coordinate by
    coordinate; when rho of that matrix X is below one, the constant
    ||(I - X)^{-1} max_i Lambda_i^{-1}|| certifies the upper error bound
    (norms 1 and inf supported).

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
    (lower, upper) bracket.
    """
    if norm_tag not in ("1", "inf"):
        raise ValueError("bound supports norm tags '1' and 'inf'")
    n = blocks.n
    if n > DENSE_LIMIT and any(isinstance(s, DenseMatrix) for s in blocks.all()):
        raise InvalidParams(f"dense layout too large for this bound (n > {DENSE_LIMIT})")
    split = split_diagonal(blocks)
    d_max = np.maximum.reduce([1.0 / lam for lam in split.Lambda])
    x = entrywise(lambda a: np.maximum.reduce(np.abs(a)),
                  [c.row_scaled(1.0 / lam) for lam, c in zip(split.Lambda, split.C)])
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
    # Condition violated: report the true norm when feasible (inf when I - X
    # is singular or its inverse overflows), flag it.
    est = spectral_radius_nonneg(x)
    if n <= DENSE_LIMIT:
        i_minus_x = x.rebuilt(1.0 - x.diagonal(), np.negative)
        inv, bad = _stack_inverses(i_minus_x.to_dense()[None])
        constant = (float("inf") if bad is not None else
                    float(np.linalg.norm(inv[0] * d_max[None, :], NORM_ORD[norm_tag])))
    else:
        constant = float("nan")
    return BoundReport("Thm42Eta", constant, norm_tag, False, est.value,
                       (est.lower, est.upper))


def bound43(blocks):
    """Reciprocal minimal column-dominance margin (1-norm bound).

    Hypothesis: every block transposed is row sdd and the blocks' diagonals
    agree in sign coordinatewise; only flagged, the constant is still
    reported whenever the margins are positive.

    The column dominance of each block is ``convergence._dominance`` by
    columns, the rule of ``sdd_classify``'s ``col_sdd``, decided on a lower
    end of each exact margin 2|a_jj| - sum_i |a_ij|; no row sum is computed.
    The constant and ``condition_value`` come from the computed margins.
    """
    columns = [_dominance(store, transposed=True) for store in blocks.all()]
    diags = [store.diagonal() for store in blocks.all()]
    signs = np.sign(diags[0])
    same_sign = bool(np.all(signs != 0)) and all(
        bool(np.all(np.sign(d) == signs)) for d in diags[1:])
    min_margin = float(min(np.min(margins) for _, margins in columns))
    constant = 1.0 / min_margin if min_margin > 0 else float("inf")
    return BoundReport("Thm43Tau", constant, "1",
                       all(flag for flag, _ in columns) and same_sign, min_margin)


def residual_error_interval(problem, y, alpha_upper, alpha_lower_den,
                            norm_tag="inf"):
    """Two-sided error interval (||r||/alpha_low, alpha_up * ||r||) at y.

    BoundReport / AlphaEstimate arguments must carry the requested norm tag;
    bare floats are trusted as-is.
    """
    up_tag = getattr(alpha_upper, "norm_tag", None)
    lo_tag = getattr(alpha_lower_den, "norm_tag", None)
    if up_tag is not None and up_tag != norm_tag:
        raise NormMismatch(f"upper constant is a {up_tag}-norm bound, wanted {norm_tag}")
    if lo_tag is not None and lo_tag != norm_tag:
        raise NormMismatch(f"lower constant is a {lo_tag}-norm bound, wanted {norm_tag}")
    up = getattr(alpha_upper, "constant", None)
    if up is None:
        up = getattr(alpha_upper, "value", alpha_upper)
    lo = getattr(alpha_lower_den, "value", alpha_lower_den)
    r_norm = pls_residual(problem, y).norms[norm_tag]
    return (r_norm / float(lo), float(up) * r_norm)


@dataclass
class AlphaEstimate:
    value: float
    norm_tag: str
    exact: bool  # vertex enumeration (exact) vs sampled estimate
    count: int


def underalpha_exact(blocks, norm_tag="inf", budget=2 ** 20, samples=0, seed=0):
    """Max selection-combination norm over the selection set.

    Exact when all (m+1)^n vertices fit the budget: the norm is convex in the
    selection weights over a product of simplices, so the max sits at a
    vertex, and vertex combinations are exactly the column representatives.
    Each column of a representative comes from its own block, so for norms 1
    and inf the vertex maximum has a closed form: the largest column abs-sum
    of any block (1), and the largest row sum of the entrywise max over blocks
    of |A_k| (inf). Floating-point addition is monotone, so both equal the
    enumerated maximum bit for bit. The 2-norm enumerates every vertex.
    Otherwise a sampled lower estimate (flagged) when samples > 0. Above order
    512 a band sample's 2-norm is ``two_norm_estimate``'s, which can be low;
    for a lower estimate that is the safe side.
    """
    if norm_tag not in NORM_ORD:
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    n, m = blocks.n, blocks.m
    total = (m + 1) ** n
    if total <= budget:
        if norm_tag == "2":
            worst = 0.0
            for _, stack in vertex_chunks(blocks):
                worst = max(worst, float(np.linalg.norm(stack, 2, axis=(1, 2)).max()))
        else:
            mags = np.abs(np.stack([s.to_dense() for s in blocks.all()]))
            worst = float(mags.sum(axis=1).max() if norm_tag == "1"
                          else mags.max(axis=0).sum(axis=1).max())
        return AlphaEstimate(worst, norm_tag, True, total)
    if samples > 0:
        worst = 0.0
        for lam in simplex_selections(m, n, samples, seed):
            worst = max(worst, induced_norm(selection_combination(blocks, lam),
                                            norm_tag))
        return AlphaEstimate(worst, norm_tag, False, samples)
    raise BudgetExceeded(f"(m+1)^n = {m + 1}^{n} vertices exceed budget {budget}; "
                         "pass samples > 0 for a sampled estimate")


def overalpha_estimate(blocks, norm_tag="inf", samples=200, seed=0,
                       vertex_budget=4096):
    """Max inverse norm over sampled plus vertex selections.

    Always a lower estimate of the true supremum and never certifying; used
    for tightness diagnostics against the computable upper bounds. A singular
    selection is raised as a witness against the column W-property: the first
    one in counter order among the vertices, then in draw order among the
    samples. Vertices, and samples at order DENSE_EIG_MAX_ORDER or below, are
    inverted a chunk at a time; above that order each sample takes
    ``inverse_norm``, whose 2-norm estimate can be low: for a lower estimate
    that is the safe side.
    """
    if norm_tag not in NORM_ORD:
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    n, m = blocks.n, blocks.m
    worst = 0.0
    count = 0

    def singular(lam):
        return SingularSelection(
            "singular selection combination (column W-property violated)",
            selection=DiagonalSelection(np.asarray(lam, dtype=float)))

    def one_hot(digits):
        lam = np.zeros((m + 1, n))
        lam[digits, np.arange(n)] = 1.0
        return lam

    scans = []  # (chunks, the selection of a chunk key)
    if (m + 1) ** n <= vertex_budget:
        scans.append((vertex_chunks(blocks), one_hot))
    if n <= DENSE_EIG_MAX_ORDER:
        scans.append((selection_chunks(blocks, simplex_selections(m, n, samples, seed)),
                      lambda lam: lam))
    for chunks, selection in scans:
        for keys, stack in chunks:
            inv, bad = _stack_inverses(stack)
            if bad is not None:
                raise singular(selection(keys[bad]))
            worst = max(worst, float(np.linalg.norm(inv, NORM_ORD[norm_tag],
                                                    axis=(1, 2)).max()))
            count += len(stack)
    if n > DENSE_EIG_MAX_ORDER:
        for lam in simplex_selections(m, n, samples, seed):
            try:
                worst = max(worst, inverse_norm(selection_combination(blocks, lam),
                                                norm_tag))
            except SingularM as exc:
                raise singular(lam) from exc
            count += 1
    return AlphaEstimate(worst, norm_tag, False, count)


def _midpoint_selections(m, n):
    """Even two-block splits; these catch exact cancellations like M = -H1."""
    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            lam = np.zeros((m + 1, n))
            lam[a, :] = 0.5
            lam[b, :] = 0.5
            yield lam


def falsify_random(blocks, trials=200, seed=0):
    """Search for a numerically singular selection combination.

    Deterministic midpoint probes run first, then seeded random simplex
    selections. A combination is a witness when it is singular or its
    inf-norm condition number exceeds COND_WITNESS_LIMIT. Returns the witness
    selection or None; None proves nothing.
    """
    n, m = blocks.n, blocks.m
    for lam in itertools.chain(_midpoint_selections(m, n),
                               simplex_selections(m, n, trials, seed)):
        combo = selection_combination(blocks, lam)
        try:
            cond = induced_norm(combo, "inf") * inverse_norm(combo, "inf")
        except SingularM:
            return DiagonalSelection(lam)
        if cond > COND_WITNESS_LIMIT:
            return DiagonalSelection(lam)
    return None
