"""Exact minimal Steiner tree via the Dreyfus-Wagner dynamic program
(Def. 3.3; NP-complete by Theorems 4.4/4.8).

``dp[S][v]`` is the minimal length of a tree spanning terminal subset
``S`` plus node ``v``; subsets are combined by merging at ``v`` and
then closed over the graph metric.  Exponential in the number of
terminals, polynomial in the network size — fine for optimality-gap
measurements on small multicast sets.

With unit-weight links the per-subset Dijkstra relaxation of the
classic formulation is exactly one min-plus product with the all-pairs
distance matrix (``row'[u] = min_v row[v] + d(v, u)``), so each subset
closes in a single ``O(n²)`` numpy reduction against the topology's
cached distance matrix instead of a Python heap loop.  NumPy is
imported by the solver, not the module, so registering it costs a
process nothing until its first solve.
"""

from __future__ import annotations

from ..models.request import MulticastRequest
from ..registry import register


@register(
    "steiner",
    kind="exact",
    result_model="cost",
    aliases=("minimal-steiner-tree",),
    reference="Ch. 4 (Dreyfus-Wagner exact Steiner tree)",
)
def minimal_steiner_tree_cost(request: MulticastRequest) -> int:
    """Length of a minimal Steiner tree for the multicast set K."""
    import numpy as np

    topo = request.topology
    term_idx = [topo.index(d) for d in request.destinations]
    root = topo.index(request.source)
    k = len(term_idx)
    if k == 0:
        return 0
    size = 1 << k
    D = np.asarray(topo.distance_matrix(), dtype=np.int64)
    n = topo.num_nodes

    # dp[S][v]: minimal tree spanning the terminals of S plus v.
    # Singletons are metric-closed by construction; larger subsets merge
    # complementary splits at every node, then close with one min-plus.
    dp = np.empty((size, n), dtype=np.int64)
    for j, t in enumerate(term_idx):
        dp[1 << j] = D[t]
    for S in range(1, size):
        low = S & (-S)
        if S == low:
            continue
        subs = []
        sub = (S - 1) & S
        while sub:
            if sub & low:  # each unordered split once
                subs.append(sub)
            sub = (sub - 1) & S
        subs_arr = np.asarray(subs)
        cand = (dp[subs_arr] + dp[S ^ subs_arr]).min(axis=0)
        dp[S] = (cand[:, None] + D).min(axis=0)

    return int(dp[size - 1][root])
