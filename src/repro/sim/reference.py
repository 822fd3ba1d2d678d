"""Reference flit-level wormhole network model (§2.2.4, §7.2).

This is the authoritative coroutine/callback model: one worm object per
message stepping through the event kernel.  It is the parity baseline
for the vectorized structure-of-arrays engine in
:mod:`repro.sim.dense`, exactly as :mod:`repro.exact.reference` and
:mod:`repro.labeling.reference` anchor their optimised counterparts.

Messages are *worms*: the header acquires one channel per flit time and
the body follows in a pipeline; a blocked worm stays in the network,
holding every channel it has acquired (no intermediate buffering).
Channels are released as the tail passes — with F flits, the channel
entered i-th is released once the header (or, after arrival, the
destination's consumption) has advanced F more steps.  A destination
latches its copy as the tail enters it, so a lone worm delivers
(D + F − 1)·t_f after injection over D hops.

That release rule is :class:`Worm`'s: the injection stamp, ``start``,
the release that latches a destination, the F-flit tail drain and the
finish.  The worm shapes add only how the header gets its channels, in
one callback (``_try_advance``) that is both the hop timer, one flit
time after each acquisition, and the channel-waiter retry:

* :class:`PathWorm` — the multicast path/star model: one header, a
  linear channel sequence, intermediate destinations latch a copy as
  the worm passes (delivery is recorded when the tail passes them).
* :class:`AdaptivePathWorm` — a path whose next channel is chosen per
  hop among the §8.2 label-monotone candidates.
* :class:`TreeWorm` — the lockstep multicast tree of §6.1: the frontier
  of branch headers advances only when *every* channel of the next
  depth level is free (the nCUBE-2 rule: all required channels before
  transmission on any); blockage of any branch stalls the whole tree.
  Two such trees can deadlock (Fig. 6.1/6.4) — the simulator detects
  this as blocked worms with an empty event calendar.

The virtual cut-through (:mod:`repro.sim.vct`) and circuit-switched
(:mod:`repro.sim.circuit`) messages and the fault-aware worms
(:mod:`repro.sim.faults`) build on the same base.

Channel identity is an arbitrary hashable key, so callers can model
double channels either as one pooled channel of capacity 2 (path
routing on a double-channel network) or as per-subnetwork copies: a
tree worm's channel is its arc tuple itself (``(u, v, quadrant)`` for
the double-channel X-first tree), and a virtual-channel path worm maps
each hop to ``(u, v, plane)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Hashable, Sequence

from .config import SimConfig
from .kernel import Environment


class Channel:
    """A physical (or virtual) channel with a FIFO waiter queue."""

    __slots__ = ("key", "capacity", "in_use", "waiters")

    def __init__(self, key: Hashable, capacity: int = 1):
        self.key = key
        self.capacity = capacity
        self.in_use = 0
        self.waiters: deque = deque()

    @property
    def free(self) -> bool:
        return self.in_use < self.capacity

    def acquire(self) -> None:
        assert self.in_use < self.capacity
        self.in_use += 1


@dataclass(slots=True)
class Delivery:
    """One destination's receipt of one multicast message."""

    message_id: int
    destination: Hashable
    injected_at: float
    delivered_at: float

    @property
    def latency(self) -> float:
        return self.delivered_at - self.injected_at


class WormholeNetwork:
    """The shared channel state plus bookkeeping for worms in flight.

    The worm classes are class attributes (bound after their
    definitions below) so a subclass can substitute fault-aware worms
    without re-implementing the injection methods —
    :class:`repro.sim.faults.FaultyWormholeNetwork` does exactly that.
    """

    __slots__ = ("env", "config", "channels", "active_worms", "total_worms", "deliveries")

    #: worm classes used by the inject_* methods (overridable).
    path_worm_cls: type
    adaptive_worm_cls: type
    tree_worm_cls: type

    def __init__(self, env: Environment, config: SimConfig):
        self.env = env
        self.config = config
        self.channels: dict = {}
        self.active_worms = 0
        self.total_worms = 0
        self.deliveries: list[Delivery] = []
        # every hop timer is one flit time long: the calendar keeps
        # them in its flit lane
        env.set_lane_delay(config.flit_time)

    def channel(self, key: Hashable, capacity: int | None = None) -> Channel:
        ch = self.channels.get(key)
        if ch is None:
            ch = self._open(key, capacity or self.config.channels_per_link)
        return ch

    def _open(self, key: Hashable, capacity: int) -> Channel:
        """Create and register the channel ``key``, on its first use:
        the one place a channel is made."""
        ch = self.channels[key] = Channel(key, capacity)
        return ch

    def release(self, ch: Channel) -> None:
        """Release one unit of the channel and wake every waiter (in
        FIFO order).  Waiters re-attempt acquisition; a waiter that
        still cannot proceed re-queues itself, so a freed slot is never
        stranded behind a blocked multi-channel (tree) waiter."""
        ch.in_use -= 1
        if ch.waiters:
            self.env.wake_all(ch.waiters)
            ch.waiters.clear()

    def deliver(self, message_id: int, dest, injected_at: float) -> None:
        self.deliveries.append(
            Delivery(message_id, dest, injected_at, self.env.now)
        )

    # ------------------------------------------------------------------

    def inject_path(
        self,
        message_id: int,
        nodes: Sequence,
        destinations: set,
        channel_key=None,
        capacity: int | None = None,
        flits: int | None = None,
    ) -> "PathWorm":
        """Inject a path worm following ``nodes``; members of
        ``destinations`` latch a copy as the tail passes them.
        ``channel_key`` maps a hop to its channel identity (default:
        the ``(u, v)`` pair itself); ``flits`` overrides the message
        length (header modelling)."""
        channels = self.channels
        cap = capacity or self.config.channels_per_link
        chans = []
        for u, v in zip(nodes, nodes[1:]):
            key = (u, v) if channel_key is None else channel_key(u, v)
            ch = channels.get(key)
            if ch is None:
                ch = self._open(key, cap)
            chans.append(ch)
        worm = self.path_worm_cls(self, message_id, list(nodes), chans, destinations)
        if flits is not None:
            worm.flits = flits
        return self.launch(worm)

    def inject_adaptive_path(
        self,
        message_id: int,
        source,
        destinations: Sequence,
        labeling,
        capacity: int | None = None,
    ) -> "AdaptivePathWorm":
        """Inject a path worm that chooses its next channel *at each
        hop*: any label-monotone profitable neighbor with a free channel
        is acceptable, preferring the deterministic R choice (the §8.2
        minimal-adaptive extension).  ``destinations`` must be
        label-sorted in travel order (as produced by
        ``split_high_low``)."""
        return self.launch(self.adaptive_worm_cls(
            self, message_id, source, list(destinations), labeling, capacity
        ))

    def inject_tree(
        self,
        message_id: int,
        levels: Sequence[Sequence],
        dest_levels: Sequence,
        capacity: int | None = None,
        flits: int | None = None,
    ) -> "TreeWorm":
        """Inject a lockstep tree worm.  ``levels[r]`` holds the arcs at
        depth r+1 as ``(u, v, *tags)`` tuples, each arc its own channel
        key; ``dest_levels[r]`` holds the destinations that latch a
        copy as the tail leaves level r."""
        chan_levels = [
            [self.channel(arc, capacity) for arc in level] for level in levels
        ]
        worm = self.tree_worm_cls(self, message_id, chan_levels, dest_levels)
        if flits is not None:
            worm.flits = flits
        return self.launch(worm)

    def launch(self, worm):
        """Count ``worm`` as injected and in flight, then start it: the
        last step of every injector, here and in the VCT and circuit
        switching models."""
        self.active_worms += 1
        self.total_worms += 1
        worm.start()
        return worm

    def finish(self, worm) -> None:
        self.active_worms -= 1

    # ------------------------------------------------------------------
    # Engine surface shared with repro.sim.dense.DenseEngine:
    # repro.sim.runner.run_dynamic uses either engine through these.
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.env.now

    def _delay(self, delay: float) -> float:
        return self.config.quantize(delay) if self.config.quantize_arrivals else delay

    def schedule(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now (snapped to the
        flit-time grid under ``config.quantize_arrivals``)."""
        self.env.schedule(self._delay(delay), fn, *args)

    def delivery_latencies(self) -> list[tuple[int, float]]:
        """``(message_id, latency)`` per delivery, in delivery order."""
        # Delivery.latency's subtraction, without a property call each
        return [(d.message_id, d.delivered_at - d.injected_at) for d in self.deliveries]

    def run_to_completion(self, until: float | None = None) -> bool:
        """Run the calendar dry.  Returns True if every worm finished;
        False indicates deadlock (blocked worms, no pending events)."""
        self.env.run(until)
        return self.active_worms == 0


class Worm:
    """The release rule every worm shape shares (§2.2.4).

    ``channels[i]`` is the i-th unit the header acquires: one channel
    of a path, or every channel of one depth level of a tree.  Unit
    ``i`` is released as the tail passes it, and the destination it
    leads into latches its copy then (:meth:`_release`): ``flits``
    acquisitions later while the header advances, or in the F-flit
    drain after the header's last hop (:meth:`_drain`).  A subclass
    supplies only its acquisition rule, ``_try_advance``: it takes the
    next unit and sets the hop timer, queues as a channel waiter, or,
    once the header holds its last unit, starts the drain.  The hop
    timer and the waiter retry are both ``_advance``, that method
    prebound.  Every destination's delivery passes through
    ``_release``.
    """

    __slots__ = (
        "net", "env", "message_id", "nodes", "channels", "dests",
        "injected_at", "flits", "tf", "_rel", "_advance",
    )

    def __init__(self, net: WormholeNetwork, message_id: int, nodes, channels, dests):
        self.net = net
        self.env = net.env
        self.message_id = message_id
        self.nodes = nodes
        self.channels = channels
        self.dests = dests
        self.injected_at = net.env.now
        self.flits = net.config.flits_per_message
        self.tf = net.config.flit_time
        # prebound callbacks: the drain schedules _rel once per
        # released unit, and every hop and waiter retry is _advance
        self._rel = self._release
        self._advance = self._try_advance

    def start(self) -> None:
        if not self.channels:  # degenerate: source-only route
            self.net.finish(self)
            return
        self._try_advance()

    def _try_advance(self) -> None:
        """Acquire the header's next unit and set the hop timer, wait on
        a busy channel, or drain once the last unit is held."""
        raise NotImplementedError

    def _release(self, i: int) -> None:
        self.net.release(self.channels[i])
        head = self.nodes[i + 1]
        if head in self.dests:
            self.net.deliver(self.message_id, head, self.injected_at)

    def _drain(self, first: int = 0) -> None:
        """The header has been consumed at its last node: the flits
        behind it drain at one per flit time, releasing the units still
        held (the last F, none before ``first``) oldest-first, and the
        worm finishes with the last flit."""
        D = len(self.channels)
        F = self.flits
        sched = self.env.schedule
        tf = self.tf
        rel = self._rel
        for i in range(max(first, D - F), D):
            sched((i + F - D) * tf, rel, i)
        sched((F - 1) * tf, self._finished)

    def _finished(self) -> None:
        self.net.finish(self)


class PathWorm(Worm):
    """A single-path worm (see module docstring for the timing rules)."""

    __slots__ = ("num_channels", "idx", "_sched")

    def __init__(self, net: WormholeNetwork, message_id: int, nodes, channels, dests):
        super().__init__(net, message_id, nodes, channels, dests)
        self.num_channels = len(channels)
        self.idx = 0  # next channel index to acquire
        self._sched = net.env.schedule

    def _try_advance(self) -> None:
        i = self.idx
        if i == self.num_channels:
            self._drain()
            return
        ch = self.channels[i]
        if ch.in_use >= ch.capacity:
            self._wait(ch)
            return
        ch.in_use += 1
        self.idx = i + 1
        j = i - self.flits
        if j >= 0:
            self._release(j)
        self._sched(self.tf, self._advance)

    def _wait(self, ch: Channel) -> None:
        """The header's next channel ``ch`` is busy: queue as its
        waiter, to retry when a unit of it is released."""
        ch.waiters.append(self._advance)


class AdaptivePathWorm(Worm):
    """A path worm with per-hop adaptive channel selection (§8.2).

    At each node the admissible next hops are :meth:`_candidates`: the
    label-monotone candidates toward the next destination
    (:meth:`repro.labeling.base.Labeling.route_candidates`); the worm
    takes the most-preferred candidate whose channel is free, and only
    blocks — on the most-preferred one, the deterministic R choice —
    when all are busy.  Monotonicity keeps every dependency inside the
    acyclic high/low subnetwork, so adaptivity does not compromise
    deadlock freedom.  ``nodes`` and ``channels`` grow hop by hop.
    """

    __slots__ = ("labeling", "capacity", "queue")

    def __init__(self, net, message_id, source, dest_queue, labeling, capacity):
        super().__init__(net, message_id, [source], [], set(dest_queue))
        self.labeling = labeling
        self.capacity = capacity
        self.queue = list(dest_queue)

    def start(self) -> None:
        self._pop_reached()
        if not self.queue:
            # degenerate: the source is the only stop
            self.net.finish(self)
            return
        self._try_advance()

    def _pop_reached(self) -> None:
        """Strike the stops the header's node completes off the
        itinerary: once at the start and once per hop."""
        queue = self.queue
        head = self.nodes[-1]
        while queue and queue[0] == head:
            queue.pop(0)

    def _candidates(self, cur, target) -> list:
        """The admissible next hops from ``cur`` toward ``target``,
        most preferred first."""
        return self.labeling.route_candidates(cur, target)

    def _try_advance(self) -> None:
        if not self.queue:
            self._drain()
            return
        cur = self.nodes[-1]
        candidates = self._candidates(cur, self.queue[0])
        if not candidates:  # none usable: the fault-aware rule dropped the worm
            return
        chosen = None
        for p in candidates:
            ch = self.net.channel((cur, p), self.capacity)
            if ch.free:
                chosen = (p, ch)
                break
        if chosen is None:
            # block on the most-preferred candidate
            ch = self.net.channel((cur, candidates[0]), self.capacity)
            ch.waiters.append(self._advance)
            return
        nxt, ch = chosen
        ch.acquire()
        self.channels.append(ch)
        self.nodes.append(nxt)
        i = len(self.channels) - 1
        if i - self.flits >= 0:
            self._release(i - self.flits)
        self._pop_reached()
        self.env.schedule(self.tf, self._advance)


class TreeWorm(Worm):
    """A lockstep tree worm: all channels of the next depth level must
    be free before the frontier advances (§6.1).

    ``channels[r]`` holds the channels at depth r+1 and ``dests[r]``
    the destinations that latch a copy as the tail leaves level r, so
    the release is per level (``nodes`` is unused).
    """

    __slots__ = ("k",)

    def __init__(self, net: WormholeNetwork, message_id: int, chan_levels, dest_levels):
        super().__init__(net, message_id, None, chan_levels, dest_levels)
        self.k = 0  # next level to acquire

    def _try_advance(self) -> None:
        k = self.k
        if k == len(self.channels):
            self._drain()
            return
        level = self.channels[k]
        for ch in level:
            if ch.in_use >= ch.capacity:
                ch.waiters.append(self._advance)
                return
        for ch in level:
            ch.in_use += 1
        self.k = k + 1
        if k - self.flits >= 0:
            self._release(k - self.flits)
        self.env.schedule(self.tf, self._advance)

    def _release(self, idx: int) -> None:
        for ch in self.channels[idx]:
            self.net.release(ch)
        for dest in self.dests[idx]:
            self.net.deliver(self.message_id, dest, self.injected_at)


WormholeNetwork.path_worm_cls = PathWorm
WormholeNetwork.adaptive_worm_cls = AdaptivePathWorm
WormholeNetwork.tree_worm_cls = TreeWorm
