"""Shared builders for randomized test instances and exact references."""

import itertools
import os
from fractions import Fraction

# One BLAS thread, as bench/run.py sets, before numpy loads: under OpenBLAS's
# own threads the banded LU of Ex 5.1 (n = 10,000) can take seconds instead of
# milliseconds on a loaded machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from ehlcp import (BlockMatrixSet, BoundLadder, DenseMatrix, Ehlcp2Problem,
                   EhlcpProblem, identity_matrix)


def dominant_block(rng, n, base, diag_jitter=0.01, off_scale=0.03):
    """Dense block with diagonal near ``base`` and tiny off-diagonal mass.

    Off-diagonal row and column sums stay below off_scale * min(base) and the
    diagonals of all blocks built from one ``base`` agree within 2 percent,
    which keeps both the diagonal-dominance condition of the bound machinery
    and the norm-sum convergence condition satisfied with margin (the latter
    needs sum_i ||I - M^{-1} H_i|| < 1, so the slack must cover m <= 3 blocks).
    """
    diag = base * rng.uniform(1.0 - diag_jitter, 1.0 + diag_jitter, size=n)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    sums = max(np.abs(a).sum(axis=0).max(), np.abs(a).sum(axis=1).max(), 1e-9)
    a *= off_scale * base.min() / sums
    np.fill_diagonal(a, diag)
    return DenseMatrix(a)


def random_dominant_problem(seed):
    """Seeded random instance satisfying the diagonal-dominance condition.

    Returns (problem, ehlcp2 or None): every other instance takes the
    m = 2 identity-block shape so the scaled solver is exercised too.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    as_m2 = bool(seed % 2)
    if as_m2:
        # blocks are (I, H1, I): H1 must sit near the identity for the
        # fixed-point iteration matrix I - H1 D1 to stay contractive
        base = rng.uniform(0.8, 1.2, size=n)
        h1 = dominant_block(rng, n, base)
        b = rng.uniform(0.5, 1.5, size=n)
        q = rng.uniform(-1.0, 1.0, size=n)
        e2 = Ehlcp2Problem(h1, q, b)
        return e2.as_general(), e2
    base = rng.uniform(1.0, 2.0, size=n)
    m = int(rng.integers(1, 4))
    blocks = BlockMatrixSet(dominant_block(rng, n, base),
                            tuple(dominant_block(rng, n, base) for _ in range(m)))
    d = tuple(rng.uniform(0.5, 1.5, size=n) for _ in range(m - 1))
    q = rng.uniform(-1.0, 1.0, size=n)
    return EhlcpProblem(blocks, q, BoundLadder(d, n)), None


def example52_bound42_constant(n):
    """Exact Thm 4.2 inf-norm constant of Example 5.2 at size n, as a Fraction.

    Computed without calling ehlcp. The blocks are (I, H1, I) with
    H1 = tridiag(1, 4, -2); scaled by their diagonals, the entrywise max of the
    off-diagonal parts is X = tridiag(1/4, 0, 1/2) and the scaled diagonal is
    D = I. (I - X)^{-1} is entrywise nonnegative, so the constant
    ||(I - X)^{-1} D||_inf is max z with (I - X) z = e, solved here by a Thomas
    sweep in rational arithmetic. It tends to 1/(1 - 3/4) = 4 from below as n
    grows and is strictly below 4 at every finite n.
    """
    sub, sup = -Fraction(1, 4), -Fraction(2, 4)
    c, d = [sup], [Fraction(1)]
    for _ in range(1, n):
        denom = 1 - sub * c[-1]
        c.append(sup / denom)
        d.append((1 - sub * d[-1]) / denom)
    z = [d[-1]]
    for ci, di in zip(reversed(c[:-1]), reversed(d[:-1])):
        z.append(di - ci * z[-1])
    return max(z)


def counter_order(n, m):
    """The (m+1)^n column assignments in counter order (coordinate 0 fastest)."""
    return [t[::-1] for t in itertools.product(range(m + 1), repeat=n)]


def random_ladder(rng, n, max_m=4):
    m = int(rng.integers(1, max_m + 1))
    return BoundLadder(tuple(rng.uniform(0.2, 2.0, size=n) for _ in range(m - 1)), n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
