"""Circuit switching (§2.2.3).

A short probe (``L_c`` bytes) travels from source to destination,
reserving each channel it crosses; when the full circuit is
established, the message streams over it with no further routing cost
and the circuit is torn down behind the tail.  If the probe meets a
busy channel it *holds* the partial circuit and waits (the simplest of
the §2.2.3 reestablishment protocols) — which makes circuit switching
share wormhole routing's chained-blocking behaviour under load, with
the difference that the reservation unit is the whole path rather than
a sliding worm of F channels.

Deadlock characteristics therefore mirror wormhole routing's (§2.3.4:
"in circuit switching and wormhole routing, channels are the critical
resources"), and the same Hamiltonian-labeling path routing keeps the
probe's channel dependencies acyclic.
"""

from __future__ import annotations

from collections.abc import Sequence

from .reference import WormholeNetwork


class CircuitMessage:
    """One circuit-switched message: probe, transfer, teardown."""

    __slots__ = (
        "net", "env", "message_id", "nodes", "channels", "dests",
        "injected_at", "idx", "probe_hop_time",
    )

    def __init__(self, net: WormholeNetwork, message_id: int, nodes, channels, dests):
        self.net = net
        self.env = net.env
        self.message_id = message_id
        self.nodes = nodes
        self.channels = channels
        self.dests = dests
        self.injected_at = net.env.now
        self.idx = 0
        cfg = net.config
        # probe time per hop: L_c / B, with L_c one flit by default
        self.probe_hop_time = cfg.flit_time

    def start(self) -> None:
        if not self.channels:
            self.net.finish(self)
            return
        self._try_reserve()

    def _try_reserve(self) -> None:
        ch = self.channels[self.idx]
        if not ch.free:
            ch.waiters.append(self._try_reserve)
            return
        ch.acquire()
        self.idx += 1
        if self.idx == len(self.channels):
            # circuit established once the probe reaches the destination
            self.env.schedule(self.probe_hop_time, self._transfer)
        else:
            self.env.schedule(self.probe_hop_time, self._try_reserve)

    def _transfer(self) -> None:
        # the whole message streams over the reserved circuit: the tail
        # leaves the source after L/B and reaches any point of the
        # circuit a propagation (flit) time later; we release channels
        # and deliver as the tail passes.
        transfer = self.net.config.message_time
        tf = self.net.config.flit_time
        for i in range(len(self.channels)):
            self.env.schedule(transfer + (i + 1) * tf, self._release, i)
        self.env.schedule(transfer + len(self.channels) * tf, self._finished)

    def _release(self, i: int) -> None:
        self.net.release(self.channels[i])
        head = self.nodes[i + 1]
        if head in self.dests:
            self.net.deliver(self.message_id, head, self.injected_at)

    def _finished(self) -> None:
        self.net.finish(self)


def inject_circuit_path(
    net: WormholeNetwork,
    message_id: int,
    nodes: Sequence,
    destinations: set,
) -> CircuitMessage:
    """Inject a circuit-switched message along ``nodes``, on the
    network's ``(u, v)`` channels."""
    chans = [net.channel((u, v)) for u, v in zip(nodes, nodes[1:])]
    return net.launch(CircuitMessage(net, message_id, list(nodes), chans, destinations))
