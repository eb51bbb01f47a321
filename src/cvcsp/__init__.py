"""Conservative valued constraint languages: classify, solve, reduce."""

import importlib.util
import sys

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


def _registered(name: str):
    """The package's module `name`, registered in sys.modules but run (and
    compiled) only at the first use of one of its attributes, so `classify`
    and `graph` never pay for solver or hardness.  A registered module is
    reused: running this file again makes no second copy."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


hardness = _registered("hardness")
solver = _registered("solver")
_LAZY = dict.fromkeys(
    ("Decoder", "HardnessWitness", "SourceGraph", "normalize_witness", "reduce_maxcut",
     "reduce_mis", "verify_reduction"),
    hardness,
) | dict.fromkeys(("SolveResult", "brute_force", "eliminate", "solve", "solve_mincut"), solver)


def __getattr__(name: str):
    # PEP 562: the public names of the registered modules, served on first use
    if name in _LAZY:
        return getattr(_LAZY[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
