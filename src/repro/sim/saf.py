"""Store-and-forward switching with structured buffer pools
(§2.2.1, §2.3.4).

First-generation multicomputers buffered each packet completely at
every intermediate node.  With finite buffers this invites *buffer
deadlock*: Fig. 2.4 shows four messages in a cycle, each holding the
buffer the next one needs.  The classical fix (§2.3.4, second version)
is the *structured buffer pool*: buffers are divided into classes
1..C (C = longest route), a packet with ``i`` hops remaining may only
occupy a class-``i`` buffer, and hop counts only decrease — the classes
form a partial order, so no cyclic buffer dependency can arise.

:class:`SAFNetwork` models both regimes: an unrestricted shared pool
per node (deadlock-prone) and the structured pool (deadlock-free).
Packet forwarding takes ``L/B`` per hop (the store-and-forward latency
of Fig. 2.3) plus one-at-a-time channel occupancy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Sequence

from .config import SimConfig
from .kernel import Environment
from .reference import Delivery, WormholeNetwork


@dataclass
class _NodeBuffers:
    """Buffer state at one node: either one shared pool or per-class
    counts (class i holds packets with i hops remaining)."""

    structured: bool
    capacity: int  # per class when structured, total otherwise
    in_use: dict  # class -> count (class 0 used for the shared pool)

    def free_for(self, hops_remaining: int) -> bool:
        key = hops_remaining if self.structured else 0
        return self.in_use.get(key, 0) < self.capacity

    def take(self, hops_remaining: int) -> None:
        key = hops_remaining if self.structured else 0
        self.in_use[key] = self.in_use.get(key, 0) + 1

    def give(self, hops_remaining: int) -> None:
        key = hops_remaining if self.structured else 0
        self.in_use[key] -= 1


class SAFNetwork:
    """A store-and-forward packet network.

    Packets carry fixed routes (node sequences).  A packet at node
    ``n_j`` with ``r`` hops remaining forwards to ``n_{j+1}`` once (a)
    the directed channel is idle and (b) a buffer admitting ``r-1``
    hops-remaining is free at ``n_{j+1}``; the hop then takes ``L/B``.
    Destination nodes consume instantly (freeing no buffer — the packet
    leaves the network).

    With ``structured=False`` and small shared pools, cyclic routes
    reproduce the Fig. 2.4 deadlock; with ``structured=True`` the same
    workload completes.
    """

    def __init__(
        self,
        env: Environment,
        config: SimConfig,
        buffers_per_node: int = 1,
        structured: bool = False,
    ):
        self.env = env
        self.config = config
        self.buffers_per_node = buffers_per_node
        self.structured = structured
        self.hop_time = config.message_time  # L/B
        self._buffers: dict = {}
        self._channel_busy: dict = {}
        self._waiters: dict = {}  # resource key -> deque of callbacks
        self.active_packets = 0
        self.deliveries: list[Delivery] = []

    # the engine surface repro.sim.runner._drive reads, as the wormhole
    # network defines it: arrival delays snap to the flit-time grid
    # under config.quantize_arrivals, and the in-flight count
    _delay = WormholeNetwork._delay
    schedule = WormholeNetwork.schedule

    @property
    def active_worms(self) -> int:
        return self.active_packets

    # -- resources ------------------------------------------------------

    def _node(self, v) -> _NodeBuffers:
        nb = self._buffers.get(v)
        if nb is None:
            nb = _NodeBuffers(self.structured, self.buffers_per_node, {})
            self._buffers[v] = nb
        return nb

    def _wait(self, key, callback) -> None:
        self._waiters.setdefault(key, deque()).append(callback)

    def _wake(self, key) -> None:
        queue = self._waiters.get(key)
        if queue:
            waiters = list(queue)
            queue.clear()
            for cb in waiters:
                self.env.schedule(0.0, cb)

    # -- packets --------------------------------------------------------

    def inject(self, message_id: int, route: Sequence, destinations=None) -> None:
        """Inject one packet following ``route``.  By default it is
        delivered at the route's last node; for a multicast path pass
        ``destinations`` and every listed node latches a copy when the
        packet is buffered there (the MP model under store-and-forward,
        §3.1).  The source holds the packet in memory, not in a network
        buffer."""
        if len(route) < 2:
            raise ValueError("route needs at least one hop")
        if destinations is None:
            destinations = {route[-1]}
        self.active_packets += 1
        packet = _Packet(self, message_id, list(route), self.env.now, set(destinations))
        packet.try_forward()

    def run_to_completion(self, until: float | None = None) -> bool:
        self.env.run(until)
        return self.active_packets == 0


class _Packet:
    __slots__ = (
        "net", "message_id", "route", "injected_at", "pos", "holds_buffer", "dests",
    )

    def __init__(self, net: SAFNetwork, message_id: int, route, injected_at: float, dests):
        self.net = net
        self.message_id = message_id
        self.route = route
        self.injected_at = injected_at
        self.pos = 0  # index into route of the node currently holding us
        self.holds_buffer = False
        self.dests = dests

    @property
    def _hops_remaining(self) -> int:
        return len(self.route) - 1 - self.pos

    def try_forward(self) -> None:
        net = self.net
        cur = self.route[self.pos]
        nxt = self.route[self.pos + 1]
        remaining_after = self._hops_remaining - 1
        chan = (cur, nxt)
        if net._channel_busy.get(chan):
            net._wait(("chan", chan), self.try_forward)
            return
        final = remaining_after == 0
        if not final and not net._node(nxt).free_for(remaining_after):
            net._wait(("buf", nxt, remaining_after if net.structured else 0), self.try_forward)
            return
        # commit: occupy channel for L/B, reserve the downstream buffer
        net._channel_busy[chan] = True
        if not final:
            net._node(nxt).take(remaining_after)
        net.env.schedule(net.hop_time, self._arrived)

    def _arrived(self) -> None:
        net = self.net
        cur = self.route[self.pos]
        nxt = self.route[self.pos + 1]
        chan = (cur, nxt)
        net._channel_busy[chan] = False
        net._wake(("chan", chan))
        if self.holds_buffer:
            hops_here = self._hops_remaining
            net._node(cur).give(hops_here)
            net._wake(("buf", cur, hops_here if net.structured else 0))
        self.pos += 1
        self.holds_buffer = self._hops_remaining > 0
        here = self.route[self.pos]
        if here in self.dests:
            net.deliveries.append(
                Delivery(self.message_id, here, self.injected_at, net.env.now)
            )
        if self._hops_remaining == 0:
            net.active_packets -= 1
            return
        self.try_forward()
