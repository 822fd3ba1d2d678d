"""Fig. 7.2 — additional traffic of the sorted MP algorithm on a
10-cube vs multiple one-to-one and broadcast (N-1 = 1023).  The figure
is defined by :func:`repro.experiments.fig_7_2`."""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_2_sorted_mp_cube(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.2",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_02_sorted_mp_cube", result.description,
         [result.parameter, *result.columns], result.rows)
    mp, uni, bc = (result.series(c) for c in ("sorted-MP", "multi-unicast", "broadcast"))
    for k, m, u, b in zip(result.series("k"), mp, uni, bc):
        # at very small k the Hamilton-order walk statistically ties
        # separate unicasts on a hypercube; the win is clear for k >= 50
        if k >= 50:
            assert m < u
        else:
            assert m <= u * 1.15
        assert abs(b - (1023 - k)) < 1e-9
