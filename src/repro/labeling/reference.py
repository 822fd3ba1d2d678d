"""Uncached reference implementations of the routing function R.

:mod:`repro.labeling.base` memoizes the label table, neighbor
orderings, ``route_step`` and ``route_path`` — safe because labelings
and topologies are immutable, but worth *proving* equivalent.  This
module keeps the original per-call computation (re-sorting neighbors
from ``topology.neighbors`` and ``labeling.label`` on every query,
exactly as the pre-optimization code did):

* the property-based parity suite checks the cached accessors against
  these on every topology family;
* the kernel throughput benchmark uses :class:`ReferenceRouting` (plus
  :class:`~repro.sim.kernel.LegacyEnvironment`) to reconstruct the
  pre-optimization code path as its baseline.

These functions are intentionally *not* fast.
"""

from __future__ import annotations

from .base import Labeling
from ..topology.base import Node

__all__ = [
    "reference_route_candidates",
    "reference_monotone_candidates",
    "reference_route_step",
    "reference_route_path",
    "reference_high_neighbors",
    "reference_low_neighbors",
    "ReferenceRouting",
]


def reference_high_neighbors(labeling: Labeling, u: Node) -> list[Node]:
    """Per-call ``high_neighbors``: sort the topology's neighbor list."""
    label = labeling.label
    return sorted(
        (p for p in labeling.topology.neighbors(u) if label(p) > label(u)),
        key=label,
    )


def reference_low_neighbors(labeling: Labeling, u: Node) -> list[Node]:
    """Per-call ``low_neighbors``."""
    label = labeling.label
    return sorted(
        (p for p in labeling.topology.neighbors(u) if label(p) < label(u)),
        key=label,
        reverse=True,
    )


def reference_route_candidates(labeling: Labeling, u: Node, v: Node) -> list[Node]:
    """Per-call ``route_candidates``: the R rule computed from scratch."""
    if u == v:
        raise ValueError("routing is undefined for u == v")
    label = labeling.label
    topology = labeling.topology
    lu, lv = label(u), label(v)
    d_uv = topology.distance(u, v)
    if lu < lv:
        profitable = sorted(
            (
                p
                for p in topology.neighbors(u)
                if lu < label(p) <= lv and topology.distance(p, v) < d_uv
            ),
            key=label,
            reverse=True,
        )
        if profitable:
            return profitable
        return [max((p for p in topology.neighbors(u) if label(p) <= lv), key=label)]
    profitable = sorted(
        (
            p
            for p in topology.neighbors(u)
            if lv <= label(p) < lu and topology.distance(p, v) < d_uv
        ),
        key=label,
    )
    if profitable:
        return profitable
    return [min((p for p in topology.neighbors(u) if label(p) >= lv), key=label)]


def reference_monotone_candidates(labeling: Labeling, u: Node, v: Node) -> list[Node]:
    """Per-call ``monotone_candidates``."""
    if u == v:
        raise ValueError("routing is undefined for u == v")
    label = labeling.label
    lu, lv = label(u), label(v)
    if lu < lv:
        return sorted(
            (p for p in labeling.topology.neighbors(u) if lu < label(p) <= lv),
            key=label,
            reverse=True,
        )
    return sorted(
        (p for p in labeling.topology.neighbors(u) if lv <= label(p) < lu),
        key=label,
    )


def reference_route_step(labeling: Labeling, u: Node, v: Node) -> Node:
    """Per-call ``R(u, v)`` without memoization."""
    return reference_route_candidates(labeling, u, v)[0]


def reference_route_path(labeling: Labeling, u: Node, v: Node) -> list[Node]:
    """Per-call R walk without memoization."""
    path = [u]
    cur = u
    limit = labeling.topology.num_nodes
    while cur != v:
        cur = reference_route_step(labeling, cur, v)
        path.append(cur)
        if len(path) > limit:
            raise RuntimeError(
                "routing function R failed to converge; labeling is "
                "probably not Hamiltonian"
            )
    return path


class ReferenceRouting:
    """A labeling proxy that answers every routing query with the
    uncached reference computation.

    Wrap a labeling and hand it wherever a :class:`Labeling` is
    expected (e.g. ``Router(topology, scheme, labeling=...)``) to run a
    simulation on the pre-optimization routing path; everything outside
    the overridden methods is forwarded to the wrapped labeling.
    """

    def __init__(self, labeling: Labeling):
        self._labeling = labeling
        self.topology = labeling.topology

    def __getattr__(self, name):
        return getattr(self._labeling, name)

    def high_neighbors(self, u):
        return reference_high_neighbors(self._labeling, u)

    def low_neighbors(self, u):
        return reference_low_neighbors(self._labeling, u)

    def route_candidates(self, u, v):
        return reference_route_candidates(self._labeling, u, v)

    def monotone_candidates(self, u, v):
        return reference_monotone_candidates(self._labeling, u, v)

    def route_step(self, u, v):
        return reference_route_step(self._labeling, u, v)

    def route_path(self, u, v):
        return reference_route_path(self._labeling, u, v)

    def route_path_tuple(self, u, v):
        return tuple(reference_route_path(self._labeling, u, v))
