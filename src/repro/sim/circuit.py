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

from .reference import Worm, WormholeNetwork


class CircuitMessage(Worm):
    """One circuit-switched message: probe, transfer, teardown."""

    __slots__ = ("idx",)

    def __init__(self, net: WormholeNetwork, message_id: int, nodes, channels, dests):
        super().__init__(net, message_id, nodes, channels, dests)
        self.idx = 0

    def _try_advance(self) -> None:
        if self.idx == len(self.channels):
            # circuit established once the probe reaches the destination
            self._transfer()
            return
        # the probe reserves the next channel; its hop time is L_c / B,
        # with L_c one flit
        ch = self.channels[self.idx]
        if not ch.free:
            self.net.wait(ch, self._advance)
            return
        ch.acquire()
        self.idx += 1
        self.env.schedule(self.tf, self._advance)

    def _transfer(self) -> None:
        # the whole message streams over the reserved circuit: the tail
        # leaves the source after L/B and reaches any point of the
        # circuit a propagation (flit) time later; we release channels
        # and deliver as the tail passes.
        transfer = self.net.config.message_time
        tf = self.tf
        for i in range(len(self.channels)):
            self.env.schedule(transfer + (i + 1) * tf, self._release, i)
        self.env.schedule(transfer + len(self.channels) * tf, self._finished)


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
