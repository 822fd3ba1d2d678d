"""Multicomputer network topologies (Ch. 2) and grid graphs (Ch. 4)."""

from .base import Channel, Node, Topology
from .grid import GridGraph, Point, rectangular_grid
from .hypercube import Hypercube, popcount
from .karyncube import KAryNCube
from .mesh import Mesh2D, Mesh3D

__all__ = [
    "Channel",
    "GridGraph",
    "Hypercube",
    "KAryNCube",
    "Mesh2D",
    "Mesh3D",
    "Node",
    "Point",
    "Topology",
    "parse_topology",
    "popcount",
    "rectangular_grid",
]


def parse_topology(spec: str) -> Topology:
    """Parse ``mesh:WxH``, ``mesh3d:WxHxD``, ``cube:N`` or ``torus:KxN``:
    the spec grammar the CLI, the route service and the certificate
    artifacts share.  A bad spec raises :class:`ValueError`."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "mesh":
            w, h = (int(p) for p in rest.split("x"))
            return Mesh2D(w, h)
        if kind == "mesh3d":
            w, h, d = (int(p) for p in rest.split("x"))
            return Mesh3D(w, h, d)
        if kind == "cube":
            return Hypercube(int(rest))
        if kind == "torus":
            k, n = (int(p) for p in rest.split("x"))
            return KAryNCube(k, n)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad topology spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown topology kind {kind!r} (mesh/mesh3d/cube/torus)")
