"""Exact independent feedback vertex set solving.

The public surface is the pipeline entry point plus the building blocks it
is made of: the disjoint branching engine, the reduction fixpoint, the
matroid parity base case, and the brute force oracles the tests measure
everything against.
"""
from .basecase import (
    ParityInstance,
    ParityPair,
    ParityResult,
    build_parity,
    matroid_parity_max,
    reference_parity_max,
    solve_base,
)
from .branching import BranchNode, DisjointResult, DisjointStats, solve_disjoint
from .instance import (
    DisInstance,
    InstanceError,
    InternalSolverError,
    check_solution,
    measure,
    validate_instance,
)
from .multigraph import MultiGraph
from .oracle import brute_min_fvs, oracle_disjoint, oracle_ifvs, oracle_min_ifvs
from .pipeline import (
    BOUND_BASE,
    GOLDEN_RATIO,
    SolveResult,
    leaf_bound,
    solve_ifvs,
    subdivide_once,
)
from .reductions import reduce_to_fixpoint
from .fvs import min_fvs

__version__ = "0.1.0"

__all__ = [
    "BOUND_BASE",
    "BranchNode",
    "DisInstance",
    "DisjointResult",
    "DisjointStats",
    "GOLDEN_RATIO",
    "InstanceError",
    "InternalSolverError",
    "MultiGraph",
    "ParityInstance",
    "ParityPair",
    "ParityResult",
    "SolveResult",
    "brute_min_fvs",
    "build_parity",
    "check_solution",
    "leaf_bound",
    "matroid_parity_max",
    "measure",
    "min_fvs",
    "oracle_disjoint",
    "oracle_ifvs",
    "oracle_min_ifvs",
    "reduce_to_fixpoint",
    "reference_parity_max",
    "solve_base",
    "solve_disjoint",
    "solve_ifvs",
    "subdivide_once",
    "validate_instance",
]
