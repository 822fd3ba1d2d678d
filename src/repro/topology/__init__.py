"""Multicomputer network topologies (Ch. 2) and grid graphs (Ch. 4)."""

from .base import Channel, Node, Topology, canonical_topology
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
    "canonical_topology",
    "popcount",
    "rectangular_grid",
]
