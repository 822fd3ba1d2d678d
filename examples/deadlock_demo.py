#!/usr/bin/env python
"""Reproduce the two deadlock demonstrations of §6.1.

1. Fig. 6.1/6.2 — two simultaneous e-cube broadcast trees on a 3-cube
   (nodes 000 and 001) block each other forever.
2. Fig. 6.4 — two X-first multicasts on a 3x4 mesh deadlock on the
   channels [(1,1),(0,1)] and [(2,1),(3,1)].

Each scenario is shown twice: analytically (a cycle in the extended
channel dependency graph) and operationally (the wormhole simulator
wedges with blocked worms).  The repaired algorithms — double-channel
X-first trees and dual-path routing — complete on the very same
communication patterns.

Run:  python examples/deadlock_demo.py
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


def show(name: str, result) -> None:
    verdict = "completed" if result.completed else "DEADLOCKED"
    print(
        f"  {name:<38} {verdict:<12} "
        f"(delivered {result.deliveries}, blocked worms {result.blocked_worms})"
    )


def main() -> None:
    print("=== Fig. 6.1: two broadcasts on a 3-cube ===")
    cycle = find_cycle(fig_6_1_broadcast_deadlock_cdg())
    print(f"  CDG cycle: {cycle}")
    reqs = fig_6_1_requests()
    cube = reqs[0].topology
    show("e-cube tree (single channels)", run_static_scenario(cube, "ecube-tree", reqs))
    show("dual-path (same pattern)", run_static_scenario(cube, "dual-path", reqs))
    show("multi-path (same pattern)", run_static_scenario(cube, "multi-path", reqs))

    print("\n=== Fig. 6.4: two X-first multicasts on a 3x4 mesh ===")
    cycle = find_cycle(fig_6_4_xfirst_deadlock_cdg())
    print(f"  CDG cycle: {cycle}")
    reqs = fig_6_4_requests()
    mesh = reqs[0].topology
    show("X-first tree (single channels)", run_static_scenario(mesh, "xfirst-tree", reqs))
    show(
        "double-channel X-first (four subnets)",
        run_static_scenario(mesh, "tree-xfirst", reqs, SimConfig(channels_per_link=2)),
    )
    show("dual-path (single channels)", run_static_scenario(mesh, "dual-path", reqs))
    show("fixed-path (single channels)", run_static_scenario(mesh, "fixed-path", reqs))


if __name__ == "__main__":
    main()
