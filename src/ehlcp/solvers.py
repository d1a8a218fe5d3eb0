"""Iterative methods: the fixed-point scheme, its scaled m=2 variant, and a
projection baseline.

All methods leave the problem data untouched; the fixed-point methods factor
the leading block once and reuse the factorization every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs, dpbtrf, dpbtrs

from .blockdata import DenseMatrix, EhlcpSolution, all_finite, is_symmetric
from .errors import InvalidParams, SingularM
from .transform import _x_pieces, recover_solution, residual_of_tuple

DIVERGENCE_LIMIT = 1e12


def _inf_norm(v):
    # np.linalg.norm(v, inf) bit for bit: ndarray.max's reduction, called directly
    return float(np.maximum.reduce(np.abs(v), initial=0.0))


@dataclass(frozen=True)
class IterationConfig:
    tol: float = 1e-6
    max_iter: int = 10000

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise InvalidParams("tol must be finite and positive")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise InvalidParams("max_iter must be an integer >= 1")


@dataclass
class SolveReport:
    status: str  # Converged | MaxIterReached | Diverged
    iterations: int
    y_final: np.ndarray
    solution: object
    residual_norm: float
    step_norms: list

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


def _check_info(info, routine):
    """Raise on a nonzero LAPACK info: SingularM for a zero pivot (info > 0,
    which only the factorizations return), ValueError for an illegal argument
    (info < 0, which the f2py wrappers' shape checks leave unreachable)."""
    if info > 0:
        raise SingularM(f"{routine} hit a zero pivot at {info}")
    if info < 0:
        raise ValueError(f"illegal argument {-info} to {routine}")


class BandedFactor:
    """LAPACK factorization of a band store.

    An exactly symmetric store (``is_symmetric``) goes through banded
    Cholesky (pbtrf/pbtrs) on its bandwidth + 1 upper diagonals. When that
    finds the store not positive definite, and for every other store, it is
    banded LU (gbtrf/gbtrs) on kl = ku = max(bandwidth, 1).
    """

    def __init__(self, store):
        self.n = store.n
        self._chol = None
        if is_symmetric(store):
            # The upper band is column-aligned like the store: A[i, j] sits in
            # row kd + i - j, so each diagonal at offset o >= 0 is one row.
            kd = store.bandwidth
            ab = np.zeros((kd + 1, self.n))
            for offset, values in store.diagonals():
                if offset >= 0:
                    ab[kd - offset] = values
            chol, info = dpbtrf(ab)
            if info == 0:
                self._chol = chol
                return
        self.kl = self.ku = kl = max(store.bandwidth, 1)
        # LAPACK's band is column-aligned like the store: A[i, j] sits in row
        # 2 kl + i - j, so each stored diagonal is one row of it.
        lab = np.zeros((3 * kl + 1, self.n))
        for offset, values in store.diagonals():
            lab[2 * kl - offset] = values
        lub, ipiv, info = dgbtrf(lab, kl, kl)
        _check_info(info, "banded factorization")
        self._lub, self._ipiv = lub, ipiv

    def solve(self, rhs, transposed=False):
        rhs = np.asarray(rhs, dtype=float)
        if self._chol is not None:  # A = A^T: the transposed solve is the same
            x, info = dpbtrs(self._chol, rhs)
        else:
            x, info = dgbtrs(self._lub, self.kl, self.ku, rhs, self._ipiv,
                             trans=1 if transposed else 0)
        _check_info(info, "banded solve")
        return x


class DenseFactor:
    """Partial-pivoted LU of a dense matrix by LAPACK's getrf/getrs."""

    def __init__(self, a):
        lu, piv, info = dgetrf(a)  # factors a copy: a is left as it is
        _check_info(info, "dense factorization")
        self._lu, self._piv = lu, piv

    def solve(self, rhs, transposed=False):
        x, info = dgetrs(self._lu, self._piv, np.asarray(rhs, dtype=float),
                         trans=1 if transposed else 0)
        _check_info(info, "dense solve")
        return x


class LinearOperatorFactor:
    """One-time factorization of a matrix store supporting repeated solves.

    Both layouts call LAPACK (BandedFactor, DenseFactor). A store of order
    below one raises InvalidParams before any LAPACK call. A zero pivot or a
    non-finite entry in the store raises SingularM; a non-finite right-hand
    side comes back as NaN. The factorization is immutable and shareable.
    """

    def __init__(self, store):
        self.n = store.n
        if self.n < 1:
            raise InvalidParams("cannot factor a matrix of order 0")
        if not all_finite(store):
            raise SingularM("matrix has a non-finite entry")
        if isinstance(store, DenseMatrix):
            self._impl = DenseFactor(store.data)
        else:
            self._impl = BandedFactor(store)

    def solve(self, rhs):
        return self._impl.solve(rhs)

    def solve_transposed(self, rhs):
        return self._impl.solve(rhs, transposed=True)


def _finish(problem_blocks, q, ladder_sol, y, status, iterations, steps):
    """The run's report; a run whose residual is not finite is Diverged."""
    with np.errstate(invalid="ignore", over="ignore"):  # reported as Diverged
        residual = _inf_norm(residual_of_tuple(problem_blocks, q, ladder_sol))
    return SolveReport(
        status=status if np.isfinite(residual) else "Diverged",
        iterations=iterations,
        y_final=y,
        solution=ladder_sol,
        residual_norm=residual,
        step_norms=steps,
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
        step = _inf_norm(y_new - y)
        steps.append(step)
        y = y_new
        if step < cfg.tol:
            return y, "Converged", k, steps
        if not step <= DIVERGENCE_LIMIT:
            return y, "Diverged", k, steps
    return y, "MaxIterReached", cfg.max_iter, steps


def _start(y0, n):
    """A float copy of the start y0, zeros when it is None; InvalidParams
    unless its shape is (n,)."""
    if y0 is None:
        return np.zeros(n)
    y0 = np.array(y0, dtype=float)
    if y0.shape != (n,):
        raise InvalidParams(f"the start must have shape ({n},), not {y0.shape}")
    return y0


def method31(problem, y0=None, cfg=None):
    """Fixed-point iteration M y+ = M max{0, y} - q - phi(y) for the general chain.

    phi collects the H_i pieces of the transformation; M is factored once.
    Iteration count includes the update that first meets the stopping test.
    """
    cfg = cfg or IterationConfig()
    n = problem.n
    factor = LinearOperatorFactor(problem.blocks.M)
    y0 = _start(y0, n)

    def update(y):
        phi = np.zeros(n)
        for h, x in zip(problem.blocks.H, _x_pieces(y, problem.ladder)):
            phi += h.matvec(x)
        return np.maximum(0.0, y) - factor.solve(problem.q + phi)

    y, status, iterations, steps = _iterate(update, y0, cfg)
    final = recover_solution(y, problem.ladder)
    return _finish(problem.blocks, problem.q, final, y, status, iterations, steps)


def method32(problem, omega, y0=None, cfg=None):
    """Scaled fixed-point iteration for the m = 2, M = H_2 = I form.

    omega is a finite positive scalar or diagonal (vector). Recovery is
    scaled: w = Omega max{0,-y}, x1 = clip(y, 0, b), x2 = Omega max{0, y - b}.
    """
    cfg = cfg or IterationConfig()
    omega = np.asarray(omega, dtype=float)
    if omega.ndim == 0:
        omega = np.full(problem.n, float(omega))
    if omega.shape != (problem.n,) or not np.all((omega > 0) & np.isfinite(omega)):
        raise InvalidParams("omega must be a finite positive scalar or vector")
    H1, q, b = problem.H1, problem.q, problem.b
    y0 = _start(y0, problem.n)

    def update(y):
        z = np.clip(y, 0.0, b)
        return z - (H1.matvec(z) + q) / omega

    y, status, iterations, steps = _iterate(update, y0, cfg)
    w = omega * np.maximum(0.0, -y)
    x1 = np.clip(y, 0.0, b)
    x2 = omega * np.maximum(0.0, y - b)
    general = problem.as_general()
    sol = EhlcpSolution(w, (x1, x2))
    return _finish(general.blocks, q, sol, y, status, iterations, steps)


class _SweepPlan:
    """How implicit_sweep runs for one (H1, b, eta, omega, E, direction).

    Built once per method33 solve from H1's strict-triangle diagonals (K) and
    reused by every sweep. An upper sweep is the lower sweep of the reversed
    coordinates: the plan reverses K's diagonals (offset o to -o, terms kept in
    rising original column order), b and omega E once, and a sweep reverses g,
    x and its result.

    On a band store a sweep first tries the bracket pass (``_bracket``), which
    decides coordinates with the loop's bits. Every rounded operation of the
    loop (+, *, -, min, max) is monotone, so each delta lies between its
    values at clamp 0 and clamp b, each correction between the loop's ordered
    sums of the per-term ends, and the loop's x_new between its values at the
    two correction ends. Where those two agree bit for bit, the coordinate is
    decided: they are the loop's value. If the first round leaves some
    coordinates undecided, a second runs on the tightened delta brackets (the
    decided coordinates' deltas exact). The scalar loop (``_loop``) then
    runs on the coordinates left undecided, in sweep order, reading the
    decided coordinates' deltas. A sweep the bracket does not fully decide is
    a miss; after two misses in a row the plan stops bracketing and every
    further sweep runs the whole loop.

    The bracket never runs on dense stores, with a non-finite b or omega E or
    a zero entry of omega E (0 times an overflowed end is NaN), on non-finite
    g or x, or on x with a sign bit set (the loop's max(z, 0.0) keeps a
    z = -0.0 that can lie between two ends giving +0.0). It decides nothing
    when a correction end is not finite.

    The loop visits only the terms of each row, the diagonals whose column
    j + offset is at least 0, in the order above (``loop_data``). Its clamp
    is min(max(z, 0.0), b) written as the comparisons those builtins make
    (max(z, 0.0) is 0.0 only where 0.0 > z, min(z, b) is b only where
    b < z), so no builtin is called per coordinate and a z = -0.0 or NaN
    passes as it does there.
    """

    def __init__(self, H1, b, eta, omega_relax, e_diag, ktag):
        if not (0.0 < eta <= 1.0):
            raise InvalidParams("eta must lie in (0, 1]")
        if not omega_relax > 0:
            raise InvalidParams("omega must be positive")
        if ktag not in ("lower", "upper"):
            raise InvalidParams(f"unknown ktag {ktag!r}")
        self.n = H1.n
        self.reversed = ktag == "upper"
        self.eta, self.rest = eta, 1.0 - eta
        self.b = np.asarray(b, dtype=float)
        self.w = omega_relax * np.asarray(e_diag, dtype=float)
        # K[j, j + offset] = values[j + offset] in the plan's coordinates,
        # terms by rising original column index.
        self.tri = sorted((offset, values) for offset, values in H1.diagonals()
                          if (offset > 0 if self.reversed else offset < 0))
        if self.reversed:
            self.tri = [(-offset, values[::-1]) for offset, values in self.tri]
            self.b, self.w = self.b[::-1], self.w[::-1]
        # Misses in a row the bracket may still take; none where it cannot
        # bracket.
        brackets = not isinstance(H1, DenseMatrix) and bool(
            np.isfinite(self.b).all() and np.isfinite(self.w).all()
            and np.all(self.w != 0.0))
        self.tries = 2 if brackets else 0

    @cached_property
    def loop_data(self):
        """b, omega E and the terms of K's rows, as plain floats for the scalar
        loop.

        A row j visits only its terms: the (offset, values) pairs of ``tri``
        with column j + offset >= 0, in ``tri``'s order, which is the rising
        original column order (descending offsets on an upper sweep). Only
        the first ``width`` rows, width the largest |offset| or n if less,
        lose a diagonal that way; they get a filtered list each, and every
        later row takes all of ``tri``. That is O(width x diagonals) more.
        """
        tri = [(offset, memoryview(values)) for offset, values in self.tri]
        width = min(self.n, max((-offset for offset, _ in tri), default=0))
        rows = [[(offset, values) for offset, values in tri if j + offset >= 0]
                for j in range(width)]
        return self.b.tolist(), self.w.tolist(), rows, tri

    def sweep(self, g, x):
        """x after one sweep, given g = H1 x + q."""
        if self.reversed:
            g, x = g[::-1], x[::-1]
        x_new, undecided = x, range(self.n)
        if (self.tries and not np.signbit(x).any()
                and np.isfinite(g).all() and np.isfinite(x).all()):
            with np.errstate(over="ignore", invalid="ignore"):  # such ends decide nothing
                x_new, undecided = self._bracket(g, x)
            self.tries = self.tries - 1 if undecided else 2
        if undecided:
            x_new = self._loop(g, x, x_new, undecided)
        return x_new[::-1].copy() if self.reversed else x_new

    def _bracket(self, g, x):
        """x_new and the rising indices of the coordinates that at most two
        bracket rounds leave undecided; x_new holds the loop's bits on every
        other coordinate. Row 0 of each pair holds one end, row 1 the other;
        a delta's two ends may come in either order."""
        n, eta, b, w = self.n, self.eta, self.b, self.w
        rest_x = self.rest * x
        # Round 1: x_new at clamp 0 and at clamp b.
        deltas = np.stack((rest_x, eta * b + rest_x)) - x
        x_new, undecided = x, range(n)
        for _ in range(2):
            ends = np.zeros((2, n))  # the correction ends, then x_new's
            for offset, values in self.tri:
                k = n + offset  # stored diagonals lie inside: k >= 1
                lo, hi = values[:k] * deltas[:, :k]
                lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
                ends[0, -offset:] += lo
                ends[1, -offset:] += hi
            # A non-finite end can hide a NaN of the loop's; so can an
            # overflowing sum of finite ends, which only costs the loop.
            if not np.isfinite(ends.sum()):
                break
            # The loop's formula in place, with its max(z, 0.0) and min(c, b)
            # on signed zeros: np.maximum(a, c) is a if a > c else c.
            ends += g
            ends *= w
            np.subtract(x, ends, out=ends)
            np.maximum(0.0, ends, out=ends)
            np.minimum(b, ends, out=ends)
            ends *= eta
            ends += rest_x
            same = ends[0].view(np.int64) == ends[1].view(np.int64)
            x_new, undecided = ends[0], np.flatnonzero(~same).tolist()
            if not undecided:
                break
            deltas = ends - x
        return x_new, undecided

    def _loop(self, g, x, x_new, todo):
        """x_new with the loop's statements run on the rising indices todo;
        every other coordinate's delta is x_new - x, rounded as the loop's."""
        eta, rest = self.eta, self.rest
        bs, ws, rows, tri = self.loop_data
        width = len(rows)
        g, xs = g.tolist(), x.tolist()
        if x_new is x:  # the whole loop writes each delta before reading it
            x_new, delta = xs[:], [0.0] * self.n
        else:
            delta, x_new = (x_new - x).tolist(), x_new.tolist()
        for j in todo:
            corr = 0.0
            for offset, values in (rows[j] if j < width else tri):
                l = j + offset
                corr += values[l] * delta[l]
            xj = xs[j]
            z = xj - ws[j] * (g[j] + corr)
            if z < 0.0:
                z = 0.0
            if bs[j] < z:
                z = bs[j]
            x_new[j] = v = eta * z + rest * xj
            delta[j] = v - xj
        return np.array(x_new)


def implicit_sweep(H1, q, x, b, eta, omega_relax, e_diag, ktag, *, plan=None):
    """One projection update with the implicit correction resolved by a sweep.

    K is the strictly lower (forward sweep) or strictly upper (backward sweep)
    triangular part of H1, so each coordinate only needs already-updated ones;
    the sweep is exact, no inner iteration. Each correction sums K's entries
    by rising column index. The backward sweep runs as the forward sweep of
    the reversed coordinates.

    ``plan`` is the sweep plan of these arguments, which checks eta, omega_relax
    and ktag; method33 builds it once per solve, a direct call builds one.

    The result is the scalar loop's bit for bit, signed zeros included: the
    bracket pass decides what coordinates it can and the loop runs on the
    rest (see ``_SweepPlan``).
    """
    if plan is None:
        plan = _SweepPlan(H1, b, eta, omega_relax, e_diag, ktag)
    return plan.sweep(H1.matvec(x) + q, np.asarray(x, dtype=float))


def method33(problem, eta, omega_relax, ktag="lower", x10=None, cfg=None):
    """Projection baseline on x1 in [0, b] with relaxation eta and step omega
    (E = I).

    Returns x1 from the iteration; w and x2 are recovered afterwards from the
    m = 2 identity-block equation (active-set recovery, reporting plumbing
    only, not part of the iteration itself).
    """
    cfg = cfg or IterationConfig()
    n = problem.n
    e = np.ones(n)
    b, q, H1 = problem.b, problem.q, problem.H1
    plan = _SweepPlan(H1, b, eta, omega_relax, e, ktag)  # checks eta, omega, ktag
    x0 = _start(x10, n)
    if np.any(x0 < 0) or np.any(x0 > b):
        raise InvalidParams("x10 must lie in [0, b]")
    x, status, iterations, steps = _iterate(
        lambda x: implicit_sweep(H1, q, x, b, eta, omega_relax, e, ktag, plan=plan),
        x0, cfg)
    # Recovery of (w, x2) from w = q + H1 x1 + x2 with x2 supported on {x1 = b}.
    base = q + H1.matvec(x)
    active = x >= b - cfg.tol
    x2 = np.maximum(0.0, -base) * active
    w = np.maximum(0.0, base + x2)
    general = problem.as_general()
    sol = EhlcpSolution(w, (x, x2))
    y = x + x2 - w
    return _finish(general.blocks, q, sol, y, status, iterations, steps)
