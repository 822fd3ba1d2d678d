#!/usr/bin/env python
"""Switching technologies side by side (§2.2) — formula and simulation.

First prints the contention-free latency formulas of Fig. 2.3, then
runs the *same* multicast workload through the four simulated
switching substrates (:func:`repro.sim.run_switching`) — wormhole
worms, virtual cut-through messages, circuit-switched messages and
store-and-forward packets — showing the behaviour the dissertation
describes: wormhole wins while channels are free but chains blocked
channels under load, VCT degrades gracefully by buffering, circuit
switching pays a path setup per message, and store-and-forward pays
full packet latency per hop no matter what.
Also reproduces the Fig. 2.4 buffer deadlock and its structured-pool
fix.

Run:  python examples/switching_technologies.py
"""

from __future__ import annotations

from repro.metrics import LATENCY_MODELS, SwitchingParams
from repro.sim import Environment, SAFNetwork, SimConfig, run_switching
from repro.topology import Mesh2D


def formulas() -> None:
    p = SwitchingParams()
    print("Contention-free latency (us), L=128B, B=20MB/s (Fig. 2.3):")
    print(f"{'D':>4}" + "".join(f"{name:>22}" for name in LATENCY_MODELS))
    for d in (1, 4, 16):
        row = f"{d:>4}"
        for model in LATENCY_MODELS.values():
            row += f"{model(d, p) * 1e6:>22.2f}"
        print(row)


def loaded_comparison(interarrival_us: float) -> None:
    cfg = SimConfig(
        num_messages=400, num_destinations=8,
        mean_interarrival=interarrival_us * 1e-6, seed=3,
    )
    latency = run_switching(Mesh2D(8, 8), "dual-path", cfg)
    print(f"\nSimulated mean multicast latency at {interarrival_us:.0f} us inter-arrival"
          " (after warm-up):")
    for tech, summary in latency.items():
        print(f"  {tech:<22} {summary.mean * 1e6:8.2f} us")


def buffer_deadlock_demo() -> None:
    ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
    print("\nFig. 2.4 buffer deadlock (four 3-hop packets around a cycle):")
    for structured in (False, True):
        env = Environment()
        net = SAFNetwork(env, SimConfig(), buffers_per_node=1, structured=structured)
        for i in range(4):
            route = [ring[(i + j) % 4] for j in range(4)]
            net.inject(i + 1, route)
        ok = net.run_to_completion()
        kind = "structured buffer pool" if structured else "unrestricted buffers"
        print(f"  {kind:<24} -> {'completed' if ok else 'DEADLOCKED'}")


def main() -> None:
    formulas()
    for ia in (1000, 200):
        loaded_comparison(ia)
    buffer_deadlock_demo()


if __name__ == "__main__":
    main()
