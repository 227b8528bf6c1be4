"""Sparse optimization with dynamic gap-safe screening and variance-reduced
stochastic solvers, runnable sequentially, over threads, or over a
server/worker message protocol."""

from .data import (BlockPartition, ParseError, SparseDataset, SupportMap,
                   build_support_map, column_dual_norms, parse_libsvm,
                   smoothness_constant)
from .model import (GroupL2Norm, L1Norm, LogisticLoss, ModelSpec, SquaredLoss,
                    duality_gap, lambda_max, primal_objective)
from .screening import (ActiveSet, ScreeningReport, ScreeningSafetyError,
                        equicorrelation_set, screen_pass)
from .sequential import (DivergenceError, OracleError, SolveResult,
                         SolverConfig, oracle_solve, solve_sequential)
from .shared_mem import SharedIterate, solve_shared
from .distributed import Message, Tag, dist_solve
from .trace import (RunSummary, TraceRecord, read_trace, traces_equal,
                    validate_trace, write_trace)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet", "BlockPartition", "DivergenceError", "GroupL2Norm",
    "L1Norm", "LogisticLoss", "Message", "ModelSpec", "OracleError",
    "ParseError", "RunSummary", "ScreeningReport", "ScreeningSafetyError",
    "SharedIterate", "SolveResult", "SolverConfig", "SparseDataset",
    "SquaredLoss", "SupportMap", "Tag", "TraceRecord", "build_support_map",
    "column_dual_norms", "dist_solve", "duality_gap", "equicorrelation_set",
    "lambda_max", "oracle_solve", "parse_libsvm", "primal_objective",
    "read_trace", "screen_pass", "smoothness_constant", "solve_sequential",
    "solve_shared", "traces_equal", "validate_trace", "write_trace",
]
