"""Multicast communication requests (§3: the multicast set K)."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from ..topology.base import Node, Topology


@dataclass(frozen=True)
class MulticastRequest:
    """A one-to-many communication: deliver one message from ``source``
    to every node in ``destinations``.

    The *multicast set* is ``K = {u_0, u_1, ..., u_k}`` (§3); note K
    includes the source, while ``destinations`` does not.
    """

    topology: Topology
    source: Node
    destinations: tuple[Node, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "destinations", tuple(self.destinations))
        self.topology.validate_multicast_set(self.source, self.destinations)
        if not self.destinations:
            raise ValueError("a multicast needs at least one destination")

    @classmethod
    def trusted(cls, topology: Topology, source: Node, destinations: Iterable) -> "MulticastRequest":
        """Construct without re-validating the multicast set.

        For trusted generators (the dynamic-study workload draws
        destination indices straight from the node set, distinct and
        excluding the source by construction), skipping the per-message
        ``validate_multicast_set`` pass removes an O(k) check from the
        simulator's inner loop.  Behaviour is otherwise identical to the
        normal constructor.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "destinations", tuple(destinations))
        return self

    @property
    def k(self) -> int:
        """Number of destinations."""
        return len(self.destinations)

    @property
    def multicast_set(self) -> frozenset:
        """The multicast set K (source plus destinations)."""
        return frozenset((self.source, *self.destinations))


def random_multicast(
    topology: Topology, k: int, rng, source: Node | None = None
) -> MulticastRequest:
    """A multicast with ``k`` distinct uniformly random destinations.

    Reproduces the workload generator of §7.1: destination addresses are
    drawn uniformly from the node set, excluding the source and
    duplicates.  ``rng`` is a ``numpy.random.Generator`` or
    ``random.Random``-like object exposing ``choice``/``randrange``.
    """
    n = topology.num_nodes
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    pick = _index_picker(rng, n)
    if source is None:
        source = topology.node_at(pick())
    chosen: set[int] = set()
    src_idx = topology.index(source)
    while len(chosen) < k:
        i = pick()
        if i != src_idx:
            chosen.add(i)
    dests = tuple(topology.node_at(i) for i in sorted(chosen))
    return MulticastRequest(topology, source, dests)


def _index_picker(rng, n: int):
    if hasattr(rng, "integers"):  # numpy Generator
        return lambda: int(rng.integers(0, n))
    return lambda: rng.randrange(n)
