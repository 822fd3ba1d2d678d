"""Fig. 7.9 — average network latency vs number of destinations on a
double-channel 8x8 mesh, 300 us mean inter-arrival per node.

Paper shape: with larger destination sets the dependencies among tree
branches become critical and tree latency increases rapidly; the path
algorithms stay flat; dual-path overtakes multi-path for the largest
destination sets.  The figure is defined by
:func:`repro.experiments.fig_7_9`.
"""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_9_dynamic_dests_double(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.9",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_09_dynamic_dests_double", result.description,
         [result.parameter, *result.columns], result.rows)
    tree, dual, multi = (result.series(c) for c in ("tree-xfirst", "dual-path", "multi-path"))
    # tree delay "increases rapidly" with destination count
    assert tree[-1] > 5 * tree[0]
    # paths stay comparatively flat
    assert dual[-1] < 3 * dual[0]
    # tree is clearly worst at the largest destination sets
    assert tree[-1] > 3 * max(dual[-1], multi[-1])
