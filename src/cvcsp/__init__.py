"""Conservative valued constraint languages: classify, solve, reduce."""

from .model import (
    INF,
    Cost,
    CostFunction,
    InputError,
    BudgetExceeded,
    Language,
    VcspInstance,
    evaluate,
)
from .express import BinaryView, Pool, PoolBudget, enumerate_binary_pool
from .pairgraph import PairGraph, build_graph, find_soft_self_loop, to_dot
from .dichotomy import (
    Classification,
    OperationPair,
    classify,
    search_stp,
    verify_multimorphism,
)
from .hardness import (
    Decoder,
    HardnessWitness,
    SourceGraph,
    normalize_witness,
    reduce_maxcut,
    reduce_mis,
    verify_reduction,
)
from .solver import SolveResult, brute_force, eliminate, solve, solve_mincut

__all__ = [
    "INF",
    "Cost",
    "CostFunction",
    "InputError",
    "BudgetExceeded",
    "Language",
    "VcspInstance",
    "evaluate",
    "BinaryView",
    "Pool",
    "PoolBudget",
    "enumerate_binary_pool",
    "PairGraph",
    "build_graph",
    "find_soft_self_loop",
    "to_dot",
    "Classification",
    "OperationPair",
    "classify",
    "search_stp",
    "verify_multimorphism",
    "Decoder",
    "HardnessWitness",
    "SourceGraph",
    "normalize_witness",
    "reduce_maxcut",
    "reduce_mis",
    "verify_reduction",
    "SolveResult",
    "brute_force",
    "eliminate",
    "solve",
    "solve_mincut",
]

__version__ = "0.1.0"
