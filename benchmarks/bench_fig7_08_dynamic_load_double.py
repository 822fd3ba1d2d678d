"""Fig. 7.8 — average network latency vs load on a double-channel
8x8 mesh: tree-like (double-channel X-first) vs dual-path vs
multi-path.  10 destinations, 128-byte messages, 20 MB/s channels.

Paper shape: all three perform well at low load; as load increases the
tree algorithm is hurt first (one blocked branch stalls the whole
tree); multi-path outperforms dual-path.  The figure is defined by
:func:`repro.experiments.fig_7_8`.
"""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_8_dynamic_load_double(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.8",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_08_dynamic_load_double", result.description,
         [result.parameter, *result.columns], result.rows)
    tree, dual, multi = (result.series(c) for c in ("tree-xfirst", "dual-path", "multi-path"))
    # the sweep runs from low load (first point) to high load (last)
    low = (tree[0], dual[0], multi[0])
    # at low load, all three within a small factor of each other
    assert max(low) < 2 * min(low)
    # at high load the tree algorithm saturates first
    assert tree[-1] > dual[-1] and tree[-1] > multi[-1]
    # multi-path outperforms dual-path under load
    assert multi[-1] < dual[-1]
