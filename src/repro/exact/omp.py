"""Exact optimal multicast path / cycle solvers (Defs. 3.1-3.2, Ch. 4).

Both problems are NP-complete (Theorems 4.1/4.2/4.5/4.6), so these
solvers are exponential branch-and-bound searches intended for the
small instances used to measure heuristic optimality gaps.  A
polynomial Held-Karp relaxation over multicast *walks* (node repeats
allowed) provides a certified lower bound.

The search runs entirely on the int-indexed tables of
:class:`~repro.exact.bitmask.RequestTables`: destinations are bits of
an int mask, the visited set is a bytearray, and the pruning bound is
the exact Held-Karp walk cost of the remaining subset (read from a
flat ``O(2^k k)`` table built once per request).  That bound dominates
the max-distance bound of :mod:`repro.exact.reference`, which is what
buys the order-of-magnitude speedups recorded in ``BENCH_exact.json``.
"""

from __future__ import annotations

from ..models.request import MulticastRequest
from ..models.results import MulticastCycle, MulticastPath
from ..registry import register
from ..topology.base import Node, Topology
from .bitmask import INF, RequestTables, iter_bits
from .errors import InfeasibleRoute, SearchBudgetExceeded

__all__ = [
    "InfeasibleRoute",
    "SearchBudgetExceeded",
    "held_karp_closed_walk_cost",
    "held_karp_walk_cost",
    "optimal_multicast_cycle",
    "optimal_multicast_path",
    "solve_path_mask",
]

DEFAULT_BUDGET = 2_000_000


def held_karp_walk_cost(topology: Topology, source: Node, dests) -> int:
    """Length of the shortest multicast *walk* from ``source`` visiting
    all ``dests`` (Held-Karp DP over visit orders using shortest-path
    segment distances).

    Every multicast path is a walk of the same length, so this is a
    lower bound on the OMP cost; it is exact whenever the optimal visit
    order admits node-disjoint shortest segments.
    """
    tables = RequestTables(topology, source, dests)
    return tables.walk_lower_bound(tables.src, tables.full_mask, closed=False)


def held_karp_closed_walk_cost(topology: Topology, source: Node, dests) -> int:
    """Shortest closed multicast walk (returning to the source): the
    Held-Karp lower bound for the OMC problem."""
    tables = RequestTables(topology, source, dests)
    return tables.walk_lower_bound(tables.src, tables.full_mask, closed=True)


@register(
    "omp",
    kind="exact",
    result_model="path",
    aliases=("optimal-multicast-path",),
    tunables=("budget",),
    fallback="sorted-mp",  # the Ch. 5 heuristic for the same problem
    reference="Ch. 4 (Theorem 4.2; branch & bound over simple paths)",
)
def optimal_multicast_path(
    request: MulticastRequest, budget: int = DEFAULT_BUDGET
) -> MulticastPath:
    """Exact OMP by depth-first branch and bound over simple paths.

    Prunes a partial path when its length plus the exact Held-Karp walk
    bound of the remaining destinations cannot beat the incumbent.
    Raises :class:`SearchBudgetExceeded` beyond ``budget`` expansions —
    the practical face of Theorem 4.2.
    """
    topo = request.topology
    tables = RequestTables(topo, request.source, request.destinations)
    nodes, _cost = solve_path_mask(
        tables, tables.full_mask, budget, require_return=False
    )
    return MulticastPath(topo, tuple(nodes))


@register(
    "omc",
    kind="exact",
    result_model="cycle",
    aliases=("optimal-multicast-cycle",),
    tunables=("budget",),
    fallback="sorted-mc",  # the Ch. 5 heuristic for the same problem
    reference="Ch. 4 (Theorem 4.6; branch & bound over simple cycles)",
)
def optimal_multicast_cycle(
    request: MulticastRequest, budget: int = DEFAULT_BUDGET
) -> MulticastCycle:
    """Exact OMC by branch and bound over simple cycles through the
    source (Def. 3.2), pruned by the closed-walk Held-Karp bound."""
    topo = request.topology
    tables = RequestTables(topo, request.source, request.destinations)
    nodes, _cost = solve_path_mask(
        tables, tables.full_mask, budget, require_return=True
    )
    return MulticastCycle(topo, tuple(nodes))


def solve_path_mask(
    tables: RequestTables,
    mask: int,
    budget: int,
    require_return: bool,
) -> tuple[list[Node], int]:
    """Iterative-deepening branch and bound for OMP/OMC restricted to
    the destination subset ``mask`` of ``tables``.

    Searches with the completion cost capped at the Held-Karp walk
    lower bound of the whole request, raising the cap by one until a
    route fits — so the first route found is optimal, and pruning stays
    maximally tight on every iteration (the cap never exceeds the
    optimum, unlike an incumbent found late).  A cap beyond ``n`` edges
    proves infeasibility (simple routes cannot be longer).

    Returns ``(node_addresses, cost)`` of an optimal simple path (or
    cycle when ``require_return``) from the source covering every
    destination whose bit is set in ``mask``.  Exposed so the OMS
    partition DP can solve all ``2^k - 1`` subsets against one set of
    tables.  Raises :class:`SearchBudgetExceeded` past ``budget``
    cumulative node expansions and :class:`InfeasibleRoute` when no
    simple route exists.
    """
    adjacency = tables.adjacency
    bit_at = tables.bit_at
    src = tables.src
    src_row = tables.src_row
    is_src_neighbor = tables.is_src_neighbor
    k = tables.k
    rows = tables.rows
    if require_return:
        table = tables.walk_return_table()
    else:
        table = tables.walk_table()

    def bound(v: int, remaining: int) -> int:
        if not remaining:
            return src_row[v] if require_return else 0
        base = remaining * k
        best = INF
        for j in iter_bits(remaining):
            c = rows[j][v] + table[base + j]
            if c < best:
                best = c
        return best

    expansions = 0
    path = [src]
    on_path = bytearray(tables.n)
    on_path[src] = 1

    def dfs(cur: int, remaining: int, limit: int) -> bool:
        nonlocal expansions
        expansions += 1
        if expansions > budget:
            raise SearchBudgetExceeded(f"exceeded {budget} expansions")
        cost_so_far = len(path) - 1
        if not remaining:
            if not require_return:
                return True
            if is_src_neighbor[cur]:
                # closable; closing now is optimal among extensions
                return cost_so_far + 1 <= limit
            # destinations covered but cycle not closable yet: extend
        # order children by their admissible completion bound, pruning
        # any that cannot finish within the current cost cap
        children = []
        for nb in adjacency[cur]:
            if on_path[nb]:
                continue
            rem = remaining & ~bit_at[nb]
            b = bound(nb, rem)
            if cost_so_far + 1 + b <= limit:
                children.append((b, nb, rem))
        children.sort()
        for _b, nb, rem in children:
            path.append(nb)
            on_path[nb] = 1
            if dfs(nb, rem, limit):
                return True
            on_path[nb] = 0
            path.pop()
        return False

    # A simple path has at most n-1 edges; a simple cycle at most n.
    max_cost = tables.n if require_return else tables.n - 1
    for limit in range(bound(src, mask), max_cost + 1):
        if dfs(src, mask, limit):
            node_list = tables.topology.node_list()
            nodes = [node_list[i] for i in path]
            cost = len(path) - 1 + (1 if require_return else 0)
            return nodes, cost
    raise InfeasibleRoute(
        "no simple multicast path/cycle covers the destinations"
    )
