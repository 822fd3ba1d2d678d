"""Fig. 7.4 — additional traffic of the greedy ST algorithm on a
10-cube vs the LEN heuristic [Lan/Esfahanian/Ni 1990].

Paper shape: "the results of our routing algorithm show a significant
improvement over the LEN algorithm in terms of the amount of traffic".
The figure is defined by :func:`repro.experiments.fig_7_4`.
"""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_4_greedy_st_cube(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.4",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_04_greedy_st_cube", result.description,
         [result.parameter, *result.columns], result.rows)
    st, len_t, uni = (result.series(c) for c in ("greedy-ST", "LEN", "multi-unicast"))
    for s, l_, u in zip(st, len_t, uni):
        assert s <= l_  # the headline improvement
        assert l_ < u
