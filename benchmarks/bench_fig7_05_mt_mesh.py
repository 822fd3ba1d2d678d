"""Fig. 7.5 — additional traffic of the X-first and divided greedy
multicast tree algorithms on a 16x16 mesh.

Paper shape: X-first is always far below multiple one-to-one and
broadcast; divided greedy is always below X-first.  The figure is
defined by :func:`repro.experiments.fig_7_5`.
"""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_5_mt_mesh(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.5",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_05_mt_mesh", result.description,
         [result.parameter, *result.columns], result.rows)
    dg, xf, uni = (result.series(c) for c in ("divided-greedy", "X-first", "multi-unicast"))
    for d, x, u in zip(dg, xf, uni):
        assert d <= x  # divided greedy always below X-first
        assert x < u
