"""Fig. 7.10 — average network latency vs load on a single-channel
8x8 mesh: dual-path vs multi-path, 10 destinations.

Paper shape: both display good performance at low load; as the load
increases multi-path offers a slight improvement over dual-path
(it introduces less traffic).  The figure is defined by
:func:`repro.experiments.fig_7_10`.
"""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_10_dynamic_load_single(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.10",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_10_dynamic_load_single", result.description,
         [result.parameter, *result.columns], result.rows)
    dual, multi = result.series("dual-path"), result.series("multi-path")
    # low load: both near the contention-free floor and close together
    assert abs(dual[0] - multi[0]) < 0.3 * dual[0]
    # moderate-to-high load: multi-path at or below dual-path (at the
    # very deepest load point the Fig. 7.11 hot-spot effect can already
    # flip the ordering, so assert on the 500/300/200us points)
    for d, m in zip(dual[2:5], multi[2:5]):
        assert m <= d * 1.05
    # latency grows with load for both
    assert dual[-1] > dual[0]
