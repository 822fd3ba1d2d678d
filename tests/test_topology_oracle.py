"""The topology's distance oracle: its memoized BFS distance rows.

``Topology.distance_row`` is the shared distance layer under the exact
solvers and KMB, so its memo must be correct (rows equal the scalar
distances), observable (``cache_stats`` counts hits and builds), and
worker-friendly (dropped on pickling).
"""

from __future__ import annotations

import pickle

import pytest

from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D

TOPOLOGIES = [Mesh2D(5, 4), Mesh3D(3, 3, 2), Hypercube(4), KAryNCube(4, 2)]


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
def test_distance_rows_match_scalar_distance(topology):
    for i in range(topology.num_nodes):
        row = topology.distance_row(i)
        u = topology.node_at(i)
        assert row == [topology.distance(u, v) for v in topology.nodes()]


def test_cache_stats_count_row_reuse():
    cube = Hypercube(4)
    cube.distance_row(0)
    cube.distance_row(0)
    cube.distance_row(3)
    stats = cube.cache_stats()
    assert stats["rows_built"] == 2
    assert stats["row_hits"] == 1


def test_cache_stats_keys_read_by_the_e2e_harness():
    """``benchmarks/e2e`` sums exactly these four counters; nothing
    caches paths, so the path counters read 0."""
    mesh = Mesh2D(6, 6)
    mesh.dimension_ordered_path((0, 0), (3, 2))
    mesh.distance_row(0)
    assert mesh.cache_stats() == {
        "path_hits": 0,
        "path_misses": 0,
        "row_hits": 0,
        "rows_built": 1,
    }


def test_pickling_drops_the_oracle():
    mesh = Mesh2D(5, 5)
    row = mesh.distance_row(7)
    clone = pickle.loads(pickle.dumps(mesh))
    assert clone.cache_stats()["rows_built"] == 0
    # the clone rebuilds its rows lazily
    assert clone.distance_row(7) == row
    assert clone.cache_stats()["rows_built"] == 1
