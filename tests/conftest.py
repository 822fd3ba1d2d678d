"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.topology import Hypercube, Mesh2D


def bfs_distance(topology, u, v) -> int:
    """Reference BFS distance, for validating O(1) distance formulas."""
    if u == v:
        return 0
    seen = {u: 0}
    frontier = deque([u])
    while frontier:
        a = frontier.popleft()
        for b in topology.neighbors(a):
            if b not in seen:
                seen[b] = seen[a] + 1
                if b == v:
                    return seen[b]
                frontier.append(b)
    raise AssertionError("topology is disconnected")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(params=["mesh4x4", "mesh5x4", "cube3", "cube4"])
def small_topology(request):
    return {
        "mesh4x4": Mesh2D(4, 4),
        "mesh5x4": Mesh2D(5, 4),
        "cube3": Hypercube(3),
        "cube4": Hypercube(4),
    }[request.param]


@pytest.fixture(params=["mesh6x6", "cube4"])
def routing_topology(request):
    return {"mesh6x6": Mesh2D(6, 6), "cube4": Hypercube(4)}[request.param]
