"""Fig. 7.3 — additional traffic of the greedy ST algorithm on a
32x32 mesh vs multiple one-to-one and broadcast.

Paper shape: greedy ST is far below both baselines over the whole
sweep (it approaches the k lower bound, i.e. near-zero additional
traffic, for dense destination sets).  The figure is defined by
:func:`repro.experiments.fig_7_3`."""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_3_greedy_st_mesh(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.3",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_03_greedy_st_mesh", result.description,
         [result.parameter, *result.columns], result.rows)
    st, uni, bc = (result.series(c) for c in ("greedy-ST", "multi-unicast", "broadcast"))
    for s, u, b in zip(st, uni, bc):
        assert s < u
        assert s < b
