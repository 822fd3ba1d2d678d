"""Hypercube (n-cube) topology (§2.1.1, Def. 4.2).

An n-cube has ``2**n`` nodes with n-bit binary addresses; two nodes are
linked iff their addresses differ in exactly one bit.  The shortest
distance is the Hamming distance ``||b(u) XOR b(v)||``.
"""

from __future__ import annotations

from collections.abc import Iterator

from .base import Node, Topology


def popcount(x: int) -> int:
    """Number of 1 bits (``||b(x)||`` in the dissertation's notation)."""
    return int(x).bit_count()


class Hypercube(Topology):
    """An n-dimensional hypercube; node addresses are ints in ``[0, 2**n)``."""

    family = "hypercube"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("hypercube dimension must be >= 1")
        self.n = int(n)
        self._size = 1 << self.n

    def __repr__(self) -> str:
        return f"Hypercube(n={self.n})"

    @property
    def num_nodes(self) -> int:
        return self._size

    def nodes(self) -> Iterator[Node]:
        return iter(range(self._size))

    def is_node(self, v: Node) -> bool:
        return isinstance(v, int) and 0 <= v < self._size

    def neighbors(self, v: Node) -> tuple[Node, ...]:
        return tuple(v ^ (1 << i) for i in range(self.n))

    def distance(self, u: Node, v: Node) -> int:
        return popcount(u ^ v)

    def index(self, v: Node) -> int:
        return v

    def node_at(self, i: int) -> Node:
        return i

    def _compute_distance_matrix(self):
        """Vectorised Hamming distances: popcount of the XOR table."""
        import numpy as np

        ids = np.arange(self._size, dtype=np.uint64)
        xor = ids[:, None] ^ ids[None, :]
        out = np.zeros_like(xor)
        while xor.any():
            out += xor & 1
            xor >>= 1
        return out.astype(np.int64)

    def next_hop(self, u: Node, v: Node) -> Node:
        """E-cube routing: correct the lowest differing bit.

        This is the deterministic deadlock-free unicast routing used by
        first/second generation hypercube multicomputers (§2.3.2).
        """
        diff = u ^ v
        return u ^ (diff & -diff)

    def bits(self, v: Node) -> str:
        """The n-bit binary address string of ``v`` (MSB first)."""
        return format(v, f"0{self.n}b")

    def from_bits(self, s: str) -> Node:
        """Parse an n-bit binary address string (MSB first)."""
        if len(s) != self.n or set(s) - {"0", "1"}:
            raise ValueError(f"{s!r} is not an {self.n}-bit address")
        return int(s, 2)

    def subcube_projection(self, target: Node, a: Node, b: Node) -> Node:
        """Nearest node to ``target`` on any shortest path between a and b.

        Shortest paths between a and b stay inside the subcube where the
        bits on which a and b agree are fixed; the nearest node to
        ``target`` fixes the agreeing bits and copies target's bits
        elsewhere (§5.2, greedy ST algorithm step 4a).
        """
        agree_mask = ~(a ^ b)
        return (a & agree_mask) | (target & (a ^ b))
