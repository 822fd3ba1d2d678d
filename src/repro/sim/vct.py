"""Virtual cut-through switching (§2.2.2).

Like wormhole routing, the header cuts through idle routers without
buffering; *unlike* wormhole routing, a blocked message is absorbed
into the blocking node's buffer — "virtual cut-through buffers blocked
messages and thus removes them from the network" (§2.2.4) — so blocked
traffic does not hold channels.  Under light load VCT and wormhole
behave identically; under heavy load VCT degenerates toward
store-and-forward (every hop buffers) but never exhibits wormhole's
chained channel blocking.

The model assumes ample node buffers (as the original Kermani &
Kleinrock analysis does), so VCT is deadlock-free whenever the
underlying route set is.
"""

from __future__ import annotations

from collections.abc import Sequence

from .reference import Worm, WormholeNetwork


class VCTWorm(Worm):
    """A virtual cut-through message: streams like a worm while
    channels are free; drains into the local buffer when blocked,
    releasing everything behind it."""

    __slots__ = ("idx", "seg_first_held", "on_finished")

    def __init__(self, net: WormholeNetwork, message_id: int, nodes, channels, dests):
        super().__init__(net, message_id, nodes, channels, dests)
        self.on_finished = None
        self.idx = 0  # next channel index to acquire
        self.seg_first_held = 0  # oldest channel index still held

    def _try_advance(self) -> None:
        if self.idx == len(self.channels):
            # the channels before seg_first_held are released already,
            # or by a pending buffer drain
            self._drain(self.seg_first_held)
            return
        ch = self.channels[self.idx]
        if not ch.free:
            if self.seg_first_held < self.idx:
                # absorb into the local buffer: the message needs L/B to
                # drain off the channels it holds, then releases them all.
                # A retry finds nothing left to absorb and waits again.
                drain = self.flits * self.tf
                first, last = self.seg_first_held, self.idx
                self.env.schedule(drain, self._drain_segment, first, last)
                self.seg_first_held = self.idx
            self.net.wait(ch, self._advance)
            return
        ch.acquire()
        i = self.idx
        self.idx += 1
        # release with the worm-span rule while streaming freely
        if i - self.flits >= self.seg_first_held:
            self._release(i - self.flits)
            self.seg_first_held = i - self.flits + 1
        self.env.schedule(self.tf, self._advance)

    def _drain_segment(self, first: int, last: int) -> None:
        for i in range(first, last):
            self._release(i)

    def _finished(self) -> None:
        self.net.finish(self)
        if self.on_finished is not None:
            self.on_finished()


def inject_vct_path(
    net: WormholeNetwork,
    message_id: int,
    nodes: Sequence,
    destinations: set,
) -> VCTWorm:
    """Inject a virtual cut-through message along ``nodes``, on the
    network's ``(u, v)`` channels."""
    chans = [net.channel((u, v)) for u, v in zip(nodes, nodes[1:])]
    return net.launch(VCTWorm(net, message_id, list(nodes), chans, destinations))
