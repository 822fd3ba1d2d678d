"""Exact optimal multicast solvers for small instances (Ch. 4).

Every optimisation problem here is NP-complete for meshes and
hypercubes (Theorems 4.1-4.8), so these solvers are exponential and
exist to measure the optimality gaps of the Chapter 5/6 heuristics.

The registered solvers run on integer-bitmask DP kernels over each
topology's memoized distance rows; the original
implementations are preserved verbatim in :mod:`repro.exact.reference`
as the parity/benchmark baseline.
"""

from __future__ import annotations

import importlib

#: each public name and the submodule that defines it; the package
#: resolves them on first use (PEP 562), so importing one submodule,
#: such as ``repro.exact.errors``, loads no solver
_EXPORTS = {
    "RequestTables": "bitmask",
    "InfeasibleRoute": "errors",
    "SearchBudgetExceeded": "errors",
    "held_karp_closed_walk_cost": "omp",
    "held_karp_walk_cost": "omp",
    "optimal_multicast_cycle": "omp",
    "optimal_multicast_path": "omp",
    "solve_path_mask": "omp",
    "optimal_multicast_star_cost": "oms",
    "star_lower_bound": "oms",
    "optimal_multicast_tree_cost": "omt",
    "shortest_path_dag": "omt",
    "minimal_steiner_tree_cost": "steiner",
}

__all__ = sorted([*_EXPORTS, "reference"])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name == "reference":
        value = importlib.import_module(".reference", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
