"""Reference implementations of the Chapter 4 exact solvers.

These are the pre-optimization solvers, kept verbatim (minus registry
registration) as the parity baseline for the bitmask kernels that
replaced them: dict/frozenset-free but node-tuple-keyed DP tables,
pairwise distances re-derived through ``topology.distance`` per call,
and the weak max-distance admissible bound in the branch and bound.
``tests/test_exact_parity.py`` proves the fast solvers return equal
costs (and valid routes) on randomized instances, and
``benchmarks/bench_exact_throughput.py`` measures the speedup —
every measured pairing would be meaningless if this module drifted,
so never "optimize" it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from ..models.request import MulticastRequest
from ..models.results import MulticastCycle, MulticastPath
from ..topology.base import Node, Topology
from .errors import InfeasibleRoute, SearchBudgetExceeded

__all__ = [
    "held_karp_closed_walk_cost",
    "held_karp_walk_cost",
    "minimal_steiner_tree_cost",
    "optimal_multicast_cycle",
    "optimal_multicast_path",
    "optimal_multicast_star_cost",
    "optimal_multicast_tree_cost",
    "shortest_path_dag",
]


def held_karp_walk_cost(topology: Topology, source: Node, dests) -> int:
    """Length of the shortest multicast *walk* from ``source`` visiting
    all ``dests`` (Held-Karp DP over visit orders using shortest-path
    segment distances)."""
    dests = list(dests)
    k = len(dests)
    if k == 0:
        return 0
    dist_sd = [topology.distance(source, d) for d in dests]
    dist = [[topology.distance(a, b) for b in dests] for a in dests]
    size = 1 << k
    INF = float("inf")
    dp = [[INF] * k for _ in range(size)]
    for j in range(k):
        dp[1 << j][j] = dist_sd[j]
    for S in range(size):
        for j in range(k):
            cur = dp[S][j]
            if cur == INF or not (S >> j) & 1:
                continue
            for nxt in range(k):
                if (S >> nxt) & 1:
                    continue
                S2 = S | (1 << nxt)
                cand = cur + dist[j][nxt]
                if cand < dp[S2][nxt]:
                    dp[S2][nxt] = cand
    return int(min(dp[size - 1]))


def held_karp_closed_walk_cost(topology: Topology, source: Node, dests) -> int:
    """Shortest closed multicast walk (returning to the source)."""
    dests = list(dests)
    k = len(dests)
    if k == 0:
        return 0
    dist_sd = [topology.distance(source, d) for d in dests]
    dist = [[topology.distance(a, b) for b in dests] for a in dests]
    size = 1 << k
    INF = float("inf")
    dp = [[INF] * k for _ in range(size)]
    for j in range(k):
        dp[1 << j][j] = dist_sd[j]
    for S in range(size):
        for j in range(k):
            cur = dp[S][j]
            if cur == INF or not (S >> j) & 1:
                continue
            for nxt in range(k):
                if (S >> nxt) & 1:
                    continue
                S2 = S | (1 << nxt)
                cand = cur + dist[j][nxt]
                if cand < dp[S2][nxt]:
                    dp[S2][nxt] = cand
    return int(min(dp[size - 1][j] + dist_sd[j] for j in range(k)))


def optimal_multicast_path(
    request: MulticastRequest, budget: int = 2_000_000
) -> MulticastPath:
    """Exact OMP by depth-first branch and bound over simple paths
    (max-distance admissible bound only)."""
    topo = request.topology
    dest_set = frozenset(request.destinations)
    best_nodes, _best_cost = _bnb_path(
        topo, request.source, dest_set, budget, require_return=False
    )
    path = MulticastPath(topo, tuple(best_nodes))
    path.validate(request)
    return path


def optimal_multicast_cycle(
    request: MulticastRequest, budget: int = 2_000_000
) -> MulticastCycle:
    """Exact OMC by branch and bound over simple cycles through the
    source (Def. 3.2)."""
    topo = request.topology
    dest_set = frozenset(request.destinations)
    best_nodes, _best_cost = _bnb_path(
        topo, request.source, dest_set, budget, require_return=True
    )
    cycle = MulticastCycle(topo, tuple(best_nodes))
    cycle.validate(request)
    return cycle


def _bnb_path(topo, source, dest_set, budget, require_return):
    expansions = 0
    best_cost = float("inf")
    best_nodes: list | None = None
    path = [source]
    on_path = {source}

    def bound(cur, remaining) -> int:
        if not remaining:
            return topo.distance(cur, source) if require_return else 0
        far = max(topo.distance(cur, d) for d in remaining)
        if require_return:
            far = max(
                far,
                max(topo.distance(cur, d) + topo.distance(d, source) for d in remaining),
            )
        return far

    def dfs(cur, remaining):
        nonlocal expansions, best_cost, best_nodes
        expansions += 1
        if expansions > budget:
            raise SearchBudgetExceeded(f"exceeded {budget} expansions")
        if not remaining:
            total = len(path) - 1
            if not require_return:
                if total < best_cost:
                    best_cost = total
                    best_nodes = list(path)
                return
            if topo.are_adjacent(cur, source):
                if total + 1 < best_cost:
                    best_cost = total + 1
                    best_nodes = list(path)
                return  # any extension before closing is strictly longer
            # destinations covered but cycle not closable yet: extend
        cost_so_far = len(path) - 1
        if cost_so_far + bound(cur, remaining) >= best_cost:
            return
        # order neighbors by distance to the nearest remaining target
        targets = remaining if remaining else {source}
        nbrs = sorted(
            (n for n in topo.neighbors(cur) if n not in on_path),
            key=lambda n: min(topo.distance(n, d) for d in targets),
        )
        for n in nbrs:
            path.append(n)
            on_path.add(n)
            dfs(n, remaining - {n} if n in remaining else remaining)
            on_path.remove(n)
            path.pop()

    dfs(source, set(dest_set))
    if best_nodes is None:
        raise InfeasibleRoute(
            "no simple multicast path/cycle covers the destinations"
        )
    return best_nodes, best_cost


def optimal_multicast_star_cost(
    request: MulticastRequest, budget_per_group: int = 500_000
) -> int:
    """Minimal total length over all multicast stars: partition DP over
    per-group exact OMP branch-and-bound costs."""
    topo = request.topology
    dests = list(request.destinations)
    k = len(dests)
    size = 1 << k

    def group(S: int) -> tuple:
        return tuple(dests[j] for j in range(k) if (S >> j) & 1)

    INF_COST = float("inf")
    path_cost: list = [0] * size
    for S in range(1, size):
        sub_request = MulticastRequest(topo, request.source, group(S))
        try:
            path_cost[S] = optimal_multicast_path(
                sub_request, budget=budget_per_group
            ).traffic
        except InfeasibleRoute:
            path_cost[S] = INF_COST

    INF = float("inf")
    dp = [INF] * size
    dp[0] = 0
    for S in range(1, size):
        low = S & (-S)
        sub = S
        while sub:
            if sub & low:
                c = path_cost[sub] + dp[S ^ sub]
                if c < dp[S]:
                    dp[S] = c
            sub = (sub - 1) & S
    return int(dp[size - 1])


def shortest_path_dag(topology: Topology, source: Node) -> dict:
    """Arcs of the shortest-path DAG from ``source``, computed by n·deg
    ``distance()`` calls (the original construction)."""
    dag: dict = {}
    for u in topology.nodes():
        du = topology.distance(source, u)
        dag[u] = [v for v in topology.neighbors(u) if topology.distance(source, v) == du + 1]
    return dag


def optimal_multicast_tree_cost(request: MulticastRequest) -> int:
    """Exact OMT: directed-Steiner subset DP on the shortest-path DAG,
    node-sequential with per-subset Python inner loops."""
    topo = request.topology
    source = request.source
    terminals = list(request.destinations)
    k = len(terminals)
    term_bit = {t: 1 << j for j, t in enumerate(terminals)}
    size = 1 << k
    INF = float("inf")

    dag = shortest_path_dag(topo, source)
    order = sorted(topo.nodes(), key=lambda v: -topo.distance(source, v))
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)

    dp = [[INF] * size for _ in range(n)]
    for i, v in enumerate(order):
        dp[i][0] = 0
        if v in term_bit:
            dp[i][term_bit[v]] = 0

    for S in range(1, size):
        for i, v in enumerate(order):
            best = dp[i][S]
            if v in term_bit and S & term_bit[v]:
                c = dp[i][S & ~term_bit[v]]
                if c < best:
                    best = c
            sub = (S - 1) & S
            while sub:
                c = dp[i][sub] + dp[i][S ^ sub]
                if c < best:
                    best = c
                sub = (sub - 1) & S
            for w in dag[v]:
                c = 1 + dp[idx[w]][S]
                if c < best:
                    best = c
            dp[i][S] = best

    result = dp[idx[source]][size - 1]
    if result == INF:
        raise RuntimeError("OMT infeasible (should not happen on connected hosts)")
    return int(result)


def minimal_steiner_tree_cost(request: MulticastRequest) -> int:
    """Exact Steiner tree: Dreyfus-Wagner with per-subset heap Dijkstra
    relaxation over unit-weight links."""
    topo = request.topology
    terminals = list(request.destinations)
    root = request.source
    k = len(terminals)
    if k == 0:
        return 0
    n = topo.num_nodes
    INF = float("inf")
    size = 1 << k

    dp = [[INF] * n for _ in range(size)]
    for j, t in enumerate(terminals):
        row = dp[1 << j]
        ti = topo.index(t)
        for v in range(n):
            row[v] = topo.distance(t, topo.node_at(v))
        row[ti] = 0

    for S in range(1, size):
        row = dp[S]
        sub = (S - 1) & S
        while sub:
            comp = S ^ sub
            if sub < comp:  # each unordered pair once
                a, b = dp[sub], dp[comp]
                for v in range(n):
                    c = a[v] + b[v]
                    if c < row[v]:
                        row[v] = c
            sub = (sub - 1) & S
        heap = [(c, v) for v, c in enumerate(row) if c < INF]
        heapify(heap)
        while heap:
            c, v = heappop(heap)
            if c > row[v]:
                continue
            for w in topo.neighbors(topo.node_at(v)):
                wi = topo.index(w)
                if c + 1 < row[wi]:
                    row[wi] = c + 1
                    heappush(heap, (c + 1, wi))

    return int(dp[size - 1][topo.index(root)])
