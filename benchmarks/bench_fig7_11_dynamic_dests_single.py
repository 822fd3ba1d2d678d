"""Fig. 7.11 — average network latency vs number of destinations on a
single-channel 8x8 mesh under substantial load (400 us mean
inter-arrival): dual-path vs multi-path vs fixed-path.

Paper shape (the chapter's subtlest result): with both load and
destination count high, multi-path's source node becomes a *hot spot*
(it transmits on all four outgoing channels at once) and dual-path
performs much better; for small destination sets fixed-path wastes
channels and loses, but for large sets fixed-path and dual-path become
effectively identical.  The figure is defined by
:func:`repro.experiments.fig_7_11`.
"""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_11_dynamic_dests_single(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.11",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_11_dynamic_dests_single", result.description,
         [result.parameter, *result.columns], result.rows)
    dual, multi, fixed = (result.series(c) for c in ("dual-path", "multi-path", "fixed-path"))
    # small destination sets (first point): multi-path best, fixed-path worst
    assert multi[0] <= dual[0]
    assert fixed[0] >= dual[0]
    # large destination sets (last point): the multi-path hot spot dominates
    assert dual[-1] < multi[-1]
    # fixed-path and dual-path effectively identical for large sets
    assert abs(fixed[-1] - dual[-1]) < 0.5 * dual[-1]
