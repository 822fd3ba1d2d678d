"""k-ary n-cube topology (§2.1.3).

The general family: n dimensions, k nodes per dimension connected as a
ring (wraparound).  Hypercubes are 2-ary n-cubes and (wraparound) meshes
are k-ary 2-cubes; the dissertation's two main topologies are special
cases of this family.
"""

from __future__ import annotations

from itertools import product
from collections.abc import Iterator

from .base import Node, Topology


class KAryNCube(Topology):
    """A k-ary n-cube (torus); node addresses are n-tuples of ints mod k."""

    family = "torus"

    def __init__(self, k: int, n: int):
        if k < 2:
            raise ValueError("radix k must be >= 2")
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        self.k = int(k)
        self.n = int(n)

    def __repr__(self) -> str:
        return f"KAryNCube(k={self.k}, n={self.n})"

    @property
    def num_nodes(self) -> int:
        return self.k**self.n

    def nodes(self) -> Iterator[Node]:
        # Last coordinate varies fastest, matching index().
        yield from product(range(self.k), repeat=self.n)

    def is_node(self, v: Node) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == self.n
            and all(isinstance(c, int) and 0 <= c < self.k for c in v)
        )

    def neighbors(self, v: Node) -> tuple[Node, ...]:
        out = []
        for axis in range(self.n):
            for step in (1, -1):
                w = list(v)
                w[axis] = (w[axis] + step) % self.k
                nxt = tuple(w)
                if nxt != v and nxt not in out:
                    out.append(nxt)
        return tuple(out)

    def _ring_distance(self, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, self.k - d)

    def distance(self, u: Node, v: Node) -> int:
        return sum(self._ring_distance(a, b) for a, b in zip(u, v))

    def index(self, v: Node) -> int:
        i = 0
        for c in v:
            i = i * self.k + c
        return i

    def node_at(self, i: int) -> Node:
        digits = []
        for _ in range(self.n):
            digits.append(i % self.k)
            i //= self.k
        return tuple(reversed(digits))

    def _compute_distance_matrix(self):
        """Vectorised ring distances summed over dimensions."""
        import numpy as np

        # digits[:, a] is coordinate a of every node, most significant
        # dimension first (matching index()).
        ids = np.arange(self.num_nodes)
        digits = np.empty((self.num_nodes, self.n), dtype=np.int64)
        for axis in range(self.n - 1, -1, -1):
            digits[:, axis] = ids % self.k
            ids = ids // self.k
        diff = np.abs(digits[:, None, :] - digits[None, :, :])
        return np.minimum(diff, self.k - diff).sum(axis=2)

    def next_hop(self, u: Node, v: Node) -> Node:
        """Dimension-ordered routing along the shorter ring arc of the
        first differing dimension; on an even ring a tie goes forward."""
        k = self.k
        for axis, (a, b) in enumerate(zip(u, v)):
            if a != b:
                fwd = (b - a) % k
                c = (a + 1) % k if fwd <= k - fwd else (a - 1) % k
                return u[:axis] + (c,) + u[axis + 1 :]
        raise ValueError("next_hop needs two distinct nodes")
