"""Exact optimal multicast tree (Def. 3.4): the fewest-edge tree
delivering every destination over a shortest path.

A minimal OMT lives inside the shortest-path DAG rooted at the source
(every tree path of length d_G(u0, ui) must increase the BFS distance
at each step), so the problem is a minimum directed Steiner
arborescence on that DAG.  NP-complete for hypercubes
[Choi & Esfahanian 1990]; open for 2D meshes (§4.3) — either way this
exact solver is exponential in k.

The subset DP is vectorised: because every DAG path from ``v`` to a
reachable ``u`` has length ``d(s,u) - d(s,v)`` (unit links, levels
increase by one per arc), the whole arc-extension propagation for a
subset collapses into one min-plus product with a precomputed
*reach-cost matrix* ``R[v][u] = d(s,u) - d(s,v)`` (INF when ``u`` is
not DAG-reachable from ``v``) — one ``O(n²)`` numpy reduction per
subset instead of a per-node Python propagation loop.  NumPy is
imported by the solver, not the module, so registering it costs a
process nothing until its first solve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..models.request import MulticastRequest
from ..registry import register
from ..topology.base import Node, Topology
from .bitmask import INF, iter_bits

if TYPE_CHECKING:
    import numpy as np


def shortest_path_dag(topology: Topology, source: Node) -> dict:
    """Arcs of the shortest-path DAG from ``source``:
    ``u -> v`` iff u, v adjacent and d(source, v) = d(source, u) + 1."""
    lvl = topology.distance_row(topology.index(source))
    node_list = topology.node_list()
    adjacency = topology.neighbor_indices()
    dag: dict = {}
    for i, u in enumerate(node_list):
        du1 = lvl[i] + 1
        dag[u] = [node_list[j] for j in adjacency[i] if lvl[j] == du1]
    return dag


def _reach_cost_matrix(topology: Topology, source: Node) -> np.ndarray:
    """``R[v][u]`` = DAG distance from ``v`` to ``u`` on the
    shortest-path DAG rooted at ``source`` — ``d(s,u) - d(s,v)`` when
    ``u`` is reachable from ``v``, INF otherwise."""
    import numpy as np

    n = topology.num_nodes
    lvl = topology.distance_row(topology.index(source))
    adjacency = topology.neighbor_indices()
    children = [
        [j for j in adjacency[i] if lvl[j] == lvl[i] + 1] for i in range(n)
    ]
    reach = np.zeros((n, n), dtype=bool)
    # deepest first so every child's reach row is final when or-ed in
    for i in sorted(range(n), key=lambda v: -lvl[v]):
        row = reach[i]
        row[i] = True
        for c in children[i]:
            row |= reach[c]
    lvl_arr = np.asarray(lvl, dtype=np.int64)
    return np.where(reach, lvl_arr[None, :] - lvl_arr[:, None], INF)


@register(
    "omt",
    kind="exact",
    result_model="cost",
    aliases=("optimal-multicast-tree",),
    reference="Ch. 4 (Theorem 4.8; shortest-path DAG subset DP)",
)
def optimal_multicast_tree_cost(request: MulticastRequest) -> int:
    """Number of edges of an optimal multicast tree for the request."""
    import numpy as np

    topo = request.topology
    src = topo.index(request.source)
    term_idx = [topo.index(d) for d in request.destinations]
    k = len(term_idx)
    size = 1 << k
    R = _reach_cost_matrix(topo, request.source)
    n = topo.num_nodes

    # dp[S][v]: minimal arcs of a DAG-subtree rooted at v spanning the
    # terminals of S.  Strict subsets are fully closed (extension
    # included) before S is processed, so closing S needs exactly one
    # min-plus with R after merging/absorbing.
    dp = np.full((size, n), INF, dtype=np.int64)
    dp[0] = 0
    for j, t in enumerate(term_idx):
        dp[1 << j] = R[:, t]
    for S in range(1, size):
        low = S & (-S)
        if S == low:  # singleton: closed by construction
            continue
        subs = []
        sub = (S - 1) & S
        while sub:
            if sub & low:  # each unordered split once
                subs.append(sub)
            sub = (sub - 1) & S
        subs_arr = np.asarray(subs)
        cand = (dp[subs_arr] + dp[S ^ subs_arr]).min(axis=0)
        for j in iter_bits(S):  # absorb terminal j at its own node
            t = term_idx[j]
            c = dp[S ^ (1 << j)][t]
            if c < cand[t]:
                cand[t] = c
        dp[S] = (R + cand[None, :]).min(axis=1)

    result = int(dp[size - 1][src])
    if result >= INF:
        raise RuntimeError("OMT infeasible (should not happen on connected hosts)")
    return result
