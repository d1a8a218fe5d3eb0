"""The ehlcp layers the traced run measures, and computed kernel figures.

Each spec names a public function or method of one ``ehlcp`` module and the
layer its span belongs to. Kernel figures (flops, bytes) are computed from
the operand layout and size, not measured: bytes are the compulsory traffic
of reading every stored operand once and writing the result once, with no
cache effects.
"""

import numpy as np

WORD = 8  # bytes per float64


def matvec_figures(store):
    """(flops, bytes) of one y = A x for a store of each layout."""
    n = store.n
    if store.layout == "dense":
        nnz, stored = n * n, n * n
    elif store.layout == "tridiagonal":
        nnz = stored = 3 * n - 2 if n > 1 else n
    else:  # block-tridiagonal: one g x g tridiagonal block and two scalars
        g = store.block_order
        nnz = n + 4 * (n - g)
        stored = 3 * g - 2 + 2
    return 2 * nnz - n, WORD * (stored + 2 * n)


def strict_triangle_nnz(store, ktag):
    """Structural entries of the strictly lower (or upper) part of a store."""
    n = store.n
    if store.layout == "dense":
        part = np.tril(store.data, -1) if ktag == "lower" else np.triu(store.data, 1)
        return int(np.count_nonzero(part))
    if store.layout == "tridiagonal":
        return n - 1
    return 2 * (n - store.block_order)


def sweep_coordinate_figures(store, ktag):
    """(flops, bytes) per coordinate of one projection sweep, averaged over j.

    Per coordinate: two flops per strict-triangle entry for the correction,
    eleven for the step, clip, relaxation and delta; it reads x, E, g, b and
    each entry's value and delta, and writes the new x and delta.
    """
    k = strict_triangle_nnz(store, ktag) / store.n
    return 2 * k + 11, WORD * (4 + 2 * k + 2)


def representative_bytes(n):
    """n column copies of length n gathered into one n x n dense matrix."""
    return WORD * 2 * n * n


def _matvec_hook(layout):
    def hook(tracer, args, result):
        flops, nbytes = matvec_figures(args[0])
        tracer.add(f"blockdata.matvec.{layout}.flops", flops)
        tracer.add(f"blockdata.matvec.{layout}.bytes", nbytes)
    return hook


def _sweep_hook(tracer, args, result):
    h1, ktag = args[0], args[7] if len(args) > 7 else "lower"
    flops, nbytes = sweep_coordinate_figures(h1, ktag)
    tracer.add("solvers.sweep.coords", h1.n)
    tracer.add("solvers.sweep.flops", flops * h1.n)
    tracer.add("solvers.sweep.bytes", nbytes * h1.n)


def _spectral_hook(tracer, args, result):
    tracer.add("convergence.spectral_radius.iterations", result.iterations)
    tracer.add("convergence.spectral_radius.closed",
               int(result.converged and result.method in ("power", "zero")))


def _representative_hook(tracer, args, result):
    tracer.add("wproperty.representative.bytes", representative_bytes(result.n))


# (layer, defining module, qualified name, hook)
SPECS = [
    ("blockdata.from_json", "ehlcp.blockdata", "problem_from_json", None),
    ("blockdata.validate", "ehlcp.blockdata", "validate", None),
    ("blockdata.matvec.dense", "ehlcp.blockdata", "DenseMatrix.matvec",
     _matvec_hook("dense")),
    ("blockdata.matvec.tridiag", "ehlcp.blockdata", "TridiagonalMatrix.matvec",
     _matvec_hook("tridiag")),
    ("blockdata.matvec.blocktridiag", "ehlcp.blockdata",
     "BlockTridiagonalMatrix.matvec", _matvec_hook("blocktridiag")),
    ("solvers.factor", "ehlcp.solvers", "LinearOperatorFactor.__init__", None),
    ("solvers.factor", "ehlcp.solvers", "BandedFactor.__init__", None),
    ("solvers.factor", "ehlcp.solvers", "DenseFactor.__init__", None),
    ("solvers.factor_solve", "ehlcp.solvers", "BandedFactor.solve", None),
    ("solvers.factor_solve", "ehlcp.solvers", "DenseFactor.solve", None),
    ("solvers.sweep", "ehlcp.solvers", "implicit_sweep", _sweep_hook),
    ("transform.recover", "ehlcp.transform", "recover_solution", None),
    ("transform.residual", "ehlcp.transform", "pls_residual", None),
    ("transform.residual", "ehlcp.transform", "residual_of_tuple", None),
    ("convergence.spectral_radius", "ehlcp.convergence", "spectral_radius_nonneg",
     _spectral_hook),
    ("wproperty.representative", "ehlcp.wproperty", "representative",
     _representative_hook),
    ("problems.gen.example51", "ehlcp.problems", "gen_example51", None),
    ("problems.gen.example52", "ehlcp.problems", "gen_example52", None),
    ("problems.gen.example55", "ehlcp.problems", "gen_example55", None),
]

# Span name of each top-level operation the workloads time.
OP_LAYER = {
    "load": "blockdata.load",
    "fp31": "solvers.method31",
    "omega32": "solvers.method32",
    "proj33": "solvers.method33",
    "residual": "transform.residual",
    "bound42": "bounds.bound42",
    "bound43": "bounds.bound43",
    "underalpha": "bounds.underalpha",
    "overalpha": "bounds.overalpha",
    "checkw": "wproperty.checkw",
    "oracle": "oracle",
    "sample_rho_L": "convergence.sample_rho_L",
}

# Layers whose self time is reported as a share of the traced pass.
SHARE_LAYERS = [
    "blockdata.from_json", "blockdata.validate", "blockdata.matvec.tridiag",
    "blockdata.matvec.blocktridiag", "blockdata.matvec.dense", "solvers.factor",
    "solvers.factor_solve", "solvers.sweep", "transform.recover",
    "transform.residual", "convergence.spectral_radius", "bounds.bound42",
    "bounds.underalpha", "bounds.overalpha", "wproperty.representative", "oracle",
]
GEN_LAYERS = ["problems.gen.example51", "problems.gen.example52",
              "problems.gen.example55"]
# Traced figures that must repeat exactly from pass to pass. Factor and solve
# calls are not among them: scipy's onenormest, under overalpha_estimate,
# draws random vectors and so varies its number of solves.
EXACT_CALLS = ["solvers.sweep", "convergence.spectral_radius", "wproperty.representative"]
EXACT_COUNTS = ["solvers.sweep.coords", "convergence.spectral_radius.iterations"]
