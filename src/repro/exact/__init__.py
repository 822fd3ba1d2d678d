"""Exact optimal multicast solvers for small instances (Ch. 4).

Every optimisation problem here is NP-complete for meshes and
hypercubes (Theorems 4.1-4.8), so these solvers are exponential and
exist to measure the optimality gaps of the Chapter 5/6 heuristics.

The registered solvers run on integer-bitmask DP kernels over each
topology's memoized distance rows; the original
implementations are preserved verbatim in :mod:`repro.exact.reference`
as the parity/benchmark baseline.
"""

from . import reference
from .bitmask import RequestTables
from .errors import InfeasibleRoute, SearchBudgetExceeded
from .omp import (
    held_karp_closed_walk_cost,
    held_karp_walk_cost,
    optimal_multicast_cycle,
    optimal_multicast_path,
    solve_path_mask,
)
from .oms import optimal_multicast_star_cost, star_lower_bound
from .omt import optimal_multicast_tree_cost, shortest_path_dag
from .steiner import minimal_steiner_tree_cost

__all__ = [
    "InfeasibleRoute",
    "RequestTables",
    "SearchBudgetExceeded",
    "held_karp_closed_walk_cost",
    "held_karp_walk_cost",
    "minimal_steiner_tree_cost",
    "optimal_multicast_cycle",
    "optimal_multicast_path",
    "optimal_multicast_star_cost",
    "optimal_multicast_tree_cost",
    "reference",
    "shortest_path_dag",
    "solve_path_mask",
    "star_lower_bound",
]
