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
from .transform import recover_solution, residual_of_tuple

DIVERGENCE_LIMIT = 1e12


def _inf_norm(v):
    return float(np.abs(v).max(initial=0.0))  # np.linalg.norm(v, inf), bit for bit


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
    return _finish(general.blocks, q, sol, y, status, iterations, steps)


# The level kernel costs a fixed number of numpy calls per level, so it pays
# only on wide enough levels: below this mean width the scalar loop is faster
# (break-even measured near 13 coordinates per level, see CHANGES.md).
LEVEL_MIN_WIDTH = 16


class _SweepPlan:
    """How implicit_sweep runs for one (H1, b, eta, omega, E, direction).

    Built once per method33 solve from H1's strict-triangle diagonals (K) and
    reused by every sweep. An upper sweep is the lower sweep of the reversed
    coordinates: the plan reverses K's diagonals (offset o to -o, terms kept in
    rising original column order), b and omega E once, and a sweep reverses g,
    x and its result.

    On a band store a sweep first tries the bracket pass (``_bracket``), which
    gives the loop's bits whenever it decides. Every rounded operation of the
    loop (+, *, -, min, max) is monotone, so each delta lies between its
    values at clamp 0 and clamp b, each correction between the loop's ordered
    sums of the per-term ends, and the loop's x_new between its values at the
    two correction ends. Where those two agree bit for bit on every
    coordinate, they are the loop's result. Otherwise a second round runs on
    the tightened delta brackets (the decided coordinates' deltas exact), but
    only if the first decided some coordinate. After two consecutive
    undecided sweeps the plan stops bracketing.

    A sweep the bracket leaves undecided runs an exact kernel, planned on
    first use; ``kernel`` names it:

    - ``scan``: K is the one diagonal next to the main one and every slope
      |a_j| <= 1. The sweep is then the chain
      delta_j = clamp(a_j delta_{j-1} + c_j, l_j, h_j) of clamp-affine maps,
      composed by a doubling prefix scan;
    - ``levels``: any other band store whose levels, grouped by the nonzero
      entries of K, hold LEVEL_MIN_WIDTH coordinates on average; each level
      is one vector step;
    - ``loop``: dense stores and every other pattern, the scalar sweep.

    A sweep with non-finite g or x takes the loop whatever the kernel. The
    bracket never runs on dense stores, with a zero entry of omega E (0 times
    an overflowed end is NaN) or on x with a sign bit set (the loop's
    max(z, 0.0) keeps a z = -0.0 that can lie between two ends giving +0.0),
    and falls back when a correction end is not finite.
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
        # The vector paths need a band store with finite b and omega E.
        self.banded = not isinstance(H1, DenseMatrix) and bool(
            np.isfinite(self.b).all() and np.isfinite(self.w).all())
        # Undecided sweeps in a row the bracket may still try; none where it
        # cannot bracket.
        self.tries = 2 if self.banded and np.all(self.w != 0.0) else 0

    @cached_property
    def kernel(self):
        """The exact kernel of the sweeps the bracket leaves undecided."""
        if not self.banded:
            return "loop"
        if [offset for offset, _ in self.tri] == [-1]:
            return self._plan_scan()
        return self._plan_levels()

    @cached_property
    def loop_data(self):
        """b, omega E and K's diagonals as plain floats, for the scalar loop."""
        return (self.b.tolist(), self.w.tolist(),
                [(offset, memoryview(values)) for offset, values in self.tri])

    def _plan_scan(self):
        # Step j reads step j - 1 through kv[j - 1] = K[j, j - 1].
        self.kv = self.tri[0][1][:-1]
        self.eta_w = self.eta * self.w
        a = np.zeros(self.n)
        a[1:] = -self.eta_w[1:] * self.kv
        # With |a| <= 1 no composed slope overflows; past it one can, and
        # inf * 0 then gives NaN. NaN in a fails the test too.
        if not np.abs(a).max() <= 1.0:
            return "loop"
        self.a = a
        return "scan"

    def _plan_levels(self):
        n = self.n
        # Only nonzero entries are dependencies: the tiled block's stored
        # zeros at block edges would otherwise chain all n coordinates.
        nonzero = [(offset, (values != 0.0).tolist()) for offset, values in self.tri]
        level = [0] * n
        for j in range(n):
            lev = 0
            for offset, nz in nonzero:
                l = j + offset
                if 0 <= l < n and nz[l] and level[l] >= lev:
                    lev = level[l] + 1
            level[j] = lev
        count = np.bincount(level)
        if n < LEVEL_MIN_WIDTH * count.size:
            return "loop"
        perm = np.argsort(level, kind="stable")
        pos = np.empty(n + 1, dtype=np.intp)
        pos[perm], pos[n] = np.arange(n), n
        # Level order, one row per offset: each coordinate's entry and the
        # position of the delta it multiplies; a zero or outside entry points
        # at slot n, whose delta stays 0.
        cols = perm + np.array([offset for offset, _ in self.tri], dtype=np.intp)[:, None]
        cols[(cols < 0) | (cols >= n)] = n
        vals = np.reshape([np.append(values, 0.0) for _, values in self.tri], (-1, n + 1))
        vals = np.take_along_axis(vals, cols, axis=1)
        deps = pos[np.where(vals != 0.0, cols, n)]
        edges = np.concatenate(([0], np.cumsum(count))).tolist()
        self.perm, self.bp, self.wp = perm, self.b[perm], self.w[perm]
        self.levels = [(slice(lo, hi), deps[:, lo:hi].copy(), vals[:, lo:hi].copy())
                       for lo, hi in zip(edges[:-1], edges[1:])]
        return "levels"

    def sweep(self, g, x):
        """x after one sweep, given g = H1 x + q."""
        if self.reversed:
            g, x = g[::-1], x[::-1]
        x_new = None
        finite = self.banded and np.isfinite(g).all() and np.isfinite(x).all()
        if finite and self.tries and not np.signbit(x).any():
            with np.errstate(over="ignore", invalid="ignore"):  # such ends fall back
                x_new = self._bracket(g, x)
            self.tries = 2 if x_new is not None else self.tries - 1
        if x_new is None:
            if not finite or self.kernel == "loop":
                x_new = self._loop(g, x)
            elif self.kernel == "scan":
                x_new = self._scan(g, x)
            else:
                x_new = self._levels(g, x)
        return x_new[::-1].copy() if self.reversed else x_new

    def _bracket(self, g, x):
        """The loop's x_new if at most two bracket rounds decide every
        coordinate, else None. Row 0 of each pair holds one end, row 1 the
        other; a delta's two ends may come in either order."""
        n, eta, b, w = self.n, self.eta, self.b, self.w
        rest_x = self.rest * x
        # Round 1: x_new at clamp 0 and at clamp b.
        deltas = np.stack((rest_x, eta * b + rest_x)) - x
        second = False
        while True:
            ends = np.zeros((2, n))  # the correction ends, then x_new's
            for offset, values in self.tri:
                k = n + offset  # stored diagonals lie inside: k >= 1
                lo, hi = values[:k] * deltas[:, :k]
                lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
                ends[0, -offset:] += lo
                ends[1, -offset:] += hi
            # A non-finite end can hide a NaN of the loop's; so can an
            # overflowing sum of finite ends, which only costs a fallback.
            if not np.isfinite(ends.sum()):
                return None
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
            if same.all():
                return ends[0]
            if second or not same.any():
                return None
            second, deltas = True, ends - x

    def _loop(self, g, x):
        n, eta, rest = self.n, self.eta, self.rest
        bs, ws, tri = self.loop_data
        g, xs = g.tolist(), x.tolist()
        x_new = [0.0] * n
        delta = [0.0] * n
        for j in range(n):
            corr = 0.0
            for offset, values in tri:
                l = j + offset
                if 0 <= l < n:
                    corr += values[l] * delta[l]
            z = xs[j] - ws[j] * (g[j] + corr)
            x_new[j] = eta * min(max(z, 0.0), bs[j]) + rest * xs[j]
            delta[j] = x_new[j] - xs[j]
        return np.array(x_new)

    def _scan(self, g, x):
        eta, b = self.eta, self.b
        # Step i's map is t -> clamp(A t + C, L, H); after the pass of span s
        # it is steps i - 2s + 1 .. i composed. Once every slope is 0, every
        # map is constant and further passes change no value.
        A, C = self.a.copy(), -self.eta_w * g
        L, H = -eta * x, eta * (b - x)
        s = 1
        while s < self.n and A.any():
            a2, c2, l2, h2 = A[s:], C[s:], L[s:], H[s:]
            # t -> a2 t + c2 is monotone: it maps [L, H] onto the interval
            # between the two end images, whatever the sign of a2.
            u, v = a2 * L[:-s] + c2, a2 * H[:-s] + c2
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            L[s:], H[s:] = (np.minimum(np.maximum(lo, l2), h2),
                            np.minimum(np.maximum(hi, l2), h2))
            C[s:] = a2 * C[:-s] + c2
            A[s:] = a2 * A[:-s]
            s *= 2
        # Each coordinate by the loop's formula from its predecessor's delta.
        delta = np.minimum(np.maximum(C, L), H)
        corr = np.zeros(self.n)
        corr[1:] = self.kv * delta[:-1]
        z = x - self.w * (g + corr)
        # The loop's max(z, 0.0) and min(., b), signed zeros included.
        return eta * np.minimum(b, np.maximum(0.0, z)) + self.rest * x

    def _levels(self, g, x):
        perm, eta, bp, wp = self.perm, self.eta, self.bp, self.wp
        gp, xp = g[perm], x[perm]
        rest = self.rest * xp
        xn = np.empty(self.n)
        delta = np.zeros(self.n + 1)
        for sl, deps, vals in self.levels:
            # The loop's sum: 0.0, then each entry by rising column index, one
            # row at a time (np.add.reduce may sum a one-column level pairwise).
            corr = sum(vals * delta[deps], 0.0)
            z = xp[sl] - wp[sl] * (gp[sl] + corr)
            out = xn[sl]
            np.maximum(0.0, z, out=out)  # max(z, 0.0) and min(., b) of the loop,
            np.minimum(bp[sl], out, out=out)  # signed zeros included
            np.multiply(out, eta, out=out)
            np.add(out, rest[sl], out=out)
            np.subtract(out, xp[sl], out=delta[sl])
        x_new = np.empty(self.n)
        x_new[perm] = xn
        return x_new


def implicit_sweep(H1, q, x, b, eta, omega_relax, e_diag, ktag, *, plan=None):
    """One projection update with the implicit correction resolved by a sweep.

    K is the strictly lower (forward sweep) or strictly upper (backward sweep)
    triangular part of H1, so each coordinate only needs already-updated ones;
    the sweep is exact, no inner iteration. Each correction sums K's entries
    by rising column index. The backward sweep runs as the forward sweep of
    the reversed coordinates.

    ``plan`` is the sweep plan of these arguments, which checks eta, omega_relax
    and ktag; method33 builds it once per solve, a direct call builds one.

    On a band store with finite data the sweep first runs the bracket pass.
    Every rounded operation of the loop (+, *, -, min, max) is monotone, so
    each delta lies between its values at clamp 0 and clamp b, each
    correction between the loop's own ordered sums (0.0, then rising column
    index) of the per-term ends min/max(v delta_lo, v delta_hi), and each
    x_new between its values at the two correction ends. Where those agree
    bit for bit on every coordinate, the vector is the loop's result, so the
    bracket gives the loop's bits. Otherwise a second round runs on the
    tightened delta brackets, but only if the first decided some coordinate;
    a plan stops bracketing after two consecutive undecided sweeps, so a
    solve whose coordinates stay inside the box pays about four vector
    rounds.

    An undecided sweep runs one of three exact kernels: a doubling prefix
    scan of clamp-affine maps when K is the single diagonal next to the main
    one (tridiagonal H1 with every |a_j| <= 1), vector steps over levels of
    independent coordinates on other band stores with wide enough levels
    (block tridiagonal H1: the anti-diagonals of the grid), and the scalar
    loop otherwise (dense H1, narrow levels, non-finite data). Dense stores
    skip the bracket. The scan is the fallback of tridiagonal solves whose
    solution lies inside the box, where the bracket decides no sweep. The
    level kernel gives the loop's result bit for bit. The scan evaluates
    each coordinate with the loop's formula, signed zeros included, from
    its own predecessor, which can differ from the loop's in the last bits:
    the loop's rounding adds up along an unclamped chain with |a_j| near 1,
    the scan's does not.
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
    x0 = np.zeros(n) if x10 is None else np.asarray(x10, dtype=float).copy()
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
