#!/usr/bin/env python
"""Barrier synchronisation via multicast on a hypercube — the numerical
workload of §1.1 / [17].

Iterative solvers (e.g. power-flow steady-state, §1.1) synchronise all
workers between iterations.  A software barrier built from unicasts
costs one gather plus N-1 separate release sends; with multicast, the
release is one message.  This example measures the release phase on an
n-cube under wormhole switching, comparing

* N-1 separate one-to-one messages (the §1.1 program sketch),
* the e-cube broadcast tree (nCUBE-2 style, lockstep branches), and
* dual-path / multi-path deadlock-free multicast.

It also shows the failure mode the dissertation warns about: when two
sub-barriers release *simultaneously* with tree multicast on single
channels (the Fig. 6.1 pattern), the network can deadlock, while the
path schemes always complete.

Run:  python examples/barrier_synchronization.py
"""

from __future__ import annotations

from repro.models import MulticastRequest
from repro.sim import Environment, SimConfig, WormholeNetwork, inject_specs, run_static_scenario
from repro.sim.traffic import PathSpec, Router
from repro.topology import Hypercube
from repro.wormhole import fig_6_1_requests


def release_latency(cube: Hypercube, scheme: str, master: int) -> float:
    """Time until the *last* worker observes the barrier release."""
    cfg = SimConfig()
    env = Environment()
    net = WormholeNetwork(env, cfg)
    workers = tuple(v for v in cube.nodes() if v != master)
    request = MulticastRequest(cube, master, workers)
    specs = (
        [
            PathSpec(tuple(cube.dimension_ordered_path(master, w)), frozenset({w}))
            for w in workers
        ]
        if scheme == "multiple-unicast"
        else Router(cube, scheme)(request)
    )
    inject_specs(net, 1, specs, cfg.channels_per_link)
    if not net.run_to_completion():
        return float("nan")
    assert len(net.deliveries) == len(workers)
    return max(d.delivered_at for d in net.deliveries)


def simultaneous_subbarriers(scheme: str) -> bool:
    """Two worker groups release at once from masters 000 and 001 of a
    3-cube, each to every other node (the Fig. 6.1 pattern); True if
    all messages complete (no deadlock)."""
    requests = fig_6_1_requests()
    return run_static_scenario(requests[0].topology, scheme, requests).completed


def main() -> None:
    cube = Hypercube(6)
    print(f"Barrier release on {cube} ({cube.num_nodes} nodes), master = node 0\n")
    print(f"{'release mechanism':<24}{'last-worker latency':>22}")
    for scheme in ("multiple-unicast", "ecube-tree", "dual-path", "multi-path"):
        t = release_latency(cube, scheme, master=0)
        print(f"{scheme:<24}{t * 1e6:>19.2f} us")

    print("\nTwo sub-barriers releasing simultaneously (3-cube):")
    for scheme in ("ecube-tree", "dual-path", "multi-path"):
        ok = simultaneous_subbarriers(scheme)
        verdict = "completed" if ok else "DEADLOCKED"
        print(f"  {scheme:<12} -> {verdict}")


if __name__ == "__main__":
    main()
