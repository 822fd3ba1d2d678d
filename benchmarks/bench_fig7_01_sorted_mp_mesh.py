"""Fig. 7.1 — additional traffic of the sorted MP algorithm on a
32x32 mesh vs multiple one-to-one and broadcast.

Paper shape: the sorted MP algorithm always creates less traffic than
multiple one-to-one; broadcast's additional traffic (N-1-k, with
N-1 = 1023) only drops below it as k approaches N.  The figure is
defined by :func:`repro.experiments.fig_7_1`.
"""

from __future__ import annotations

from conftest import SCALE

from repro.experiments import reproduce


def test_fig7_1_sorted_mp_mesh(benchmark, emit):
    result = benchmark.pedantic(
        reproduce, args=("fig7.1",), kwargs={"scale": SCALE}, rounds=1, iterations=1
    )
    emit("fig7_01_sorted_mp_mesh", result.description,
         [result.parameter, *result.columns], result.rows)
    mp, uni, bc = (result.series(c) for c in ("sorted-MP", "multi-unicast", "broadcast"))
    for k, m, u, b in zip(result.series("k"), mp, uni, bc):
        assert m < u  # always beats multiple one-to-one
        assert abs(b - (1023 - k)) < 1e-9  # broadcast additional = N-1-k
    # sorted MP beats broadcast until k gets close to N
    assert mp[0] < bc[0]
