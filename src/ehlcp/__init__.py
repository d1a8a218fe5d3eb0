"""Solvers, convergence checks, and global error bounds for extended
horizontal linear complementarity problems."""

from .blockdata import (BandMatrix, BlockMatrixSet, BlockTridiagonalMatrix,
                        BoundLadder, DenseMatrix, Ehlcp2Problem, EhlcpProblem,
                        EhlcpSolution, TridiagonalMatrix, ValidationReport,
                        identity_matrix, prefix_sums, problem_from_json,
                        problem_to_json, validate)
from .bounds import (AlphaEstimate, BoundReport, SplitParts, bound42, bound43,
                     comparison_matrix, falsify_random, overalpha_estimate,
                     residual_error_interval, split_diagonal, underalpha_exact)
from .convergence import (ConvergenceReport, Cor31Result, OmegaSuggestion,
                          SddReport, Thm34Result, check_cor31, check_thm34,
                          sample_rho_L, sdd_classify, suggest_omega)
from .errors import (BudgetExceeded, EhlcpError, InfeasibleTuple,
                     InvalidParams, NonpositiveDiagonal, NoRuleApplies,
                     NormMismatch, SingularM, SingularSelection)
from .oracle import OracleResult, oracle_alpha_constants, oracle_solve
from .problems import (GeneratedProblem, Prescribed, alternating,
                       gen_example51, gen_example52, gen_example53,
                       gen_example55, prescribe_q)
from .solvers import (IterationConfig, LinearOperatorFactor, SolveReport,
                      implicit_sweep, method31, method32, method33)
from .transform import (DiagonalSelection, ResidualReport,
                        feasibility_violations, pls_residual, recover_solution,
                        reconstruct_y, selection_matrices, sum_identity)
from .wproperty import WPropertyReport, has_column_w_property, representative

__version__ = "0.1.0"
