"""Shared int-indexed tables for the bitmask exact solvers (Ch. 4).

Every Chapter 4 solver needs the same per-request geometry: dense node
indices, the destination set as bit positions, per-destination BFS
distance rows, the metric closure over the destinations, and — for the
branch-and-bound solvers — Held-Karp walk tables indexed by destination
subset.  :class:`RequestTables` builds all of it once per request from
the topology's memoized :meth:`~repro.topology.Topology.distance_row`
(so repeated requests on one topology never re-run a BFS), and the
subset tables are plain flat ``list[int]`` indexed ``S * k + j`` —
no frozensets, no dict hashing in the hot loops.

The Held-Karp tables double as *admissible lower bounds* for the
OMP/OMC branch and bound: ``walk_lower_bound(v, S)`` is the exact cost
of the cheapest multicast *walk* from node ``v`` covering destination
subset ``S`` (plus the return leg to the source for the cycle variant).
Every simple multicast path is such a walk, so pruning a partial path
whose length plus this bound cannot beat the incumbent never discards
an optimal solution — and because the bound is exact on walks it is
dramatically tighter than the max-distance bound the reference solvers
prune with.
"""

from __future__ import annotations

from ..topology.base import Node, Topology

__all__ = ["INF", "RequestTables", "iter_bits"]

#: integer infinity sentinel: larger than any route cost (a simple
#: route uses each directed channel at most once) yet safe to add.
INF = 1 << 40


def iter_bits(mask: int):
    """Yield the bit positions set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RequestTables:
    """Int-indexed per-request tables over a topology's distance rows."""

    def __init__(self, topology: Topology, source: Node, destinations) -> None:
        self.topology = topology
        self.n = topology.num_nodes
        self.adjacency = topology.neighbor_indices()
        self.src = topology.index(source)
        self.dest_idx = [topology.index(d) for d in destinations]
        self.k = len(self.dest_idx)
        self.full_mask = (1 << self.k) - 1
        #: rows[j][v] = d(destination j, node v)
        self.rows = [topology.distance_row(i) for i in self.dest_idx]
        self.src_row = topology.distance_row(self.src)
        #: closure[a][b] = d(destination a, destination b)
        self.closure = [
            [row[i] for i in self.dest_idx] for row in self.rows
        ]
        self.src_dist = [self.src_row[i] for i in self.dest_idx]
        #: bit_at[v] = the destination bit of node index v (0 if none)
        self.bit_at = [0] * self.n
        for j, i in enumerate(self.dest_idx):
            self.bit_at[i] = 1 << j
        self.is_src_neighbor = bytearray(self.n)
        for i in self.adjacency[self.src]:
            self.is_src_neighbor[i] = 1
        self._walk: list[int] | None = None
        self._walk_return: list[int] | None = None

    # ------------------------------------------------------------------
    # Held-Karp subset tables (flat, indexed S * k + j).
    # ------------------------------------------------------------------

    def walk_table(self) -> list[int]:
        """``W[S * k + j]`` = cost of the cheapest walk that *starts at
        destination j* and visits every destination of ``S`` (j ∈ S).
        Built once per request in O(2^k k²)."""
        if self._walk is None:
            self._walk = self._build(self.src_dist, closed=False)
        return self._walk

    def walk_return_table(self) -> list[int]:
        """Like :meth:`walk_table` but with the final leg back to the
        source added: the cycle-variant (OMC) bound table."""
        if self._walk_return is None:
            self._walk_return = self._build(self.src_dist, closed=True)
        return self._walk_return

    def _build(self, src_dist: list[int], closed: bool) -> list[int]:
        k = self.k
        size = 1 << k
        closure = self.closure
        table = [INF] * (size * k)
        for j in range(k):
            table[(1 << j) * k + j] = src_dist[j] if closed else 0
        for S in range(1, size):
            base = S * k
            for j in iter_bits(S):
                rest = S ^ (1 << j)
                if not rest:
                    continue
                row = closure[j]
                rest_base = rest * k
                best = INF
                for i in iter_bits(rest):
                    c = row[i] + table[rest_base + i]
                    if c < best:
                        best = c
                table[base + j] = best
        return table

    # ------------------------------------------------------------------
    # Admissible bounds for the branch and bound.
    # ------------------------------------------------------------------

    def walk_lower_bound(self, v: int, remaining: int, closed: bool) -> int:
        """Exact cost of the cheapest multicast walk from node index
        ``v`` covering destination subset ``remaining`` (ending back at
        the source when ``closed``) — a tight admissible lower bound on
        any simple path/cycle completion."""
        if not remaining:
            return self.src_row[v] if closed else 0
        table = self.walk_return_table() if closed else self.walk_table()
        k = self.k
        rows = self.rows
        base = remaining * k
        best = INF
        for j in iter_bits(remaining):
            c = rows[j][v] + table[base + j]
            if c < best:
                best = c
        return best
