"""Reference flit-level wormhole network model (§2.2.4, §7.2).

This is the simulator's one wormhole model: one worm object per
message stepping through the event kernel.  Uncontended plain path
worms fly in free-flight windows (:class:`FreeFlight`), many hops per
kernel dispatch, with exactly the outcome of stepping them hop by hop.

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
finish.  A drain is one calendar entry, a cursor (:class:`_Drain`) that
releases one unit per dispatch, each at the key it would have had as
an entry of its own.  The worm shapes add only how the header gets its
channels, in one callback (``_try_advance``) that is both the hop
timer, one flit time after each acquisition, and the channel-waiter
retry:

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

Free-flight windows
-------------------

At light load most of a run is a few long path worms crossing an idle
network, one kernel dispatch per hop.  When the flit lane holds
nothing but such worms' hops, :class:`FreeFlight` finds the longest
interval in which they and the drains due in it cannot affect one
another — every acquisition finds its channel free whatever the
interleaving, no release wakes a waiter, nothing else is due — and
runs it worm by worm in slices instead of event by event, the drains
the flyers start included.  The calendar, the channels, the delivery
stream and the clock then stand exactly as hop-by-hop dispatch would
leave them (PERFORMANCE.md §5 states the rules).
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from collections.abc import Callable, Hashable, Sequence
from heapq import heappop, heappush
from itertools import accumulate, chain, compress, repeat, zip_longest

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

    A finished run holds no reference cycle, so reference counting
    frees the network, its worms and its deliveries as soon as the
    caller lets go: a worm drops its prebound hop callback when it
    finishes (:meth:`finish`), a drain cursor its own once its last
    unit is out (:class:`_Drain`), and the window holds the network
    only weakly.
    """

    __slots__ = (
        "env", "config", "channels", "active_worms", "total_worms", "deliveries",
        "waiting", "drain_steps", "flight", "__weakref__",
    )

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
        #: callbacks queued on this network's channel waiter lists
        self.waiting = 0
        #: units released by the worms' drain cursors (:class:`_Drain`)
        #: themselves, not by a free-flight window, added as each cursor
        #: finishes or a window takes it
        self.drain_steps = 0
        # every hop timer is one flit time long: the calendar keeps
        # them in its flit lane
        env.set_lane_delay(config.flit_time)
        #: the free-flight windows of this network's plain path worms;
        #: None on subclasses, whose delivery, release or worm rules may
        #: differ from the ones a window reproduces
        self.flight: FreeFlight | None = None
        if type(self) is WormholeNetwork:
            self.flight = FreeFlight(self)
            env.set_window(self.flight)

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

    def wait(self, ch: Channel, callback) -> None:
        """Queue ``callback`` on the busy channel ``ch``, to run when a
        unit of it is released: the one way a worm waits."""
        ch.waiters.append(callback)
        self.waiting += 1

    def release(self, ch: Channel) -> None:
        """Release one unit of the channel and wake every waiter (in
        FIFO order).  Waiters re-attempt acquisition; a waiter that
        still cannot proceed re-queues itself, so a freed slot is never
        stranded behind a blocked multi-channel (tree) waiter."""
        ch.in_use -= 1
        if ch.waiters:
            self.waiting -= len(ch.waiters)
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
        hops = zip(nodes, nodes[1:])
        keys = list(hops) if channel_key is None else [channel_key(u, v) for u, v in hops]
        # a route's channels mostly exist already: look them all up in
        # one pass, then open the missing ones in route order
        chans = list(map(channels.get, keys))
        if not all(chans):
            for i, key in enumerate(keys):
                if chans[i] is None:
                    chans[i] = channels.get(key) or self._open(key, cap)
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
        """Count ``worm`` out: every finish meets here (the last drain
        unit, a source-only route, a kill, a window's commit).  The worm
        drops its prebound ``_advance``, the one reference back to
        itself; a hop timer or waiter retry still pending holds that
        method and so the worm until it runs."""
        self.active_worms -= 1
        worm._advance = None

    # ------------------------------------------------------------------
    # The surface repro.sim.runner's drivers run a network through.
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
    drain after the header's last hop (:meth:`_drain`, one calendar
    entry for the whole drain).  A subclass supplies only its
    acquisition rule, ``_try_advance``: it takes the next unit and sets
    the hop timer, queues as a channel waiter, or, once the header
    holds its last unit, starts the drain.  The hop timer and the
    waiter retry are both ``_advance``, that method prebound until the
    worm finishes (:meth:`WormholeNetwork.finish`).  Every
    destination's delivery passes through ``_release``, except the
    ones a free-flight window finds from a path worm's destination
    positions (:meth:`FreeFlight._commit`).
    """

    __slots__ = (
        "net", "env", "message_id", "nodes", "channels", "dests",
        "injected_at", "flits", "tf", "_advance",
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
        # prebound: every hop and waiter retry is _advance
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
        worm finishes with the last flit.

        Over D units, unit ``i`` is released ``(i + F − D)`` flit times
        from now and the finish falls with the last release, ``F − 1``
        flit times out.  The drain takes one block of sequence numbers
        (:meth:`Environment.reserve`) for its D′ releases and the finish
        and puts one :class:`_Drain` cursor on the calendar, at each
        release's own ``(time, seq)`` key in turn, so the calendar runs
        exactly what D′ + 1 separate entries would have run."""
        D = len(self.channels)
        F = self.flits
        lo = max(first, D - F)
        if lo == D:  # nothing left to release: the finish alone
            self.env.schedule((F - 1) * self.tf, self._finished)
            return
        _Drain(self, self.env.now, lo, self.env.reserve(D - lo + 1)).push()

    def _finished(self) -> None:
        self.net.finish(self)


def _first_at(t0: float, tf: float, lo: int, hi: int, horizon: float) -> int:
    """The first ``k`` in ``lo .. hi - 1`` whose time ``t0 + k * tf``
    is at or after ``horizon``, else ``hi``: a quotient's estimate,
    corrected against the products themselves."""
    if horizon > t0 + (hi - 1) * tf:
        return hi
    k = min(hi, max(lo, math.ceil((horizon - t0) / tf)))
    while k > lo and t0 + (k - 1) * tf >= horizon:
        k -= 1
    while k < hi and t0 + k * tf < horizon:
        k += 1
    return k


class _Drain:
    """A worm's tail drain as one calendar entry: a cursor on the next
    unit to release.

    Unit ``j`` (``lo <= j < end``, ``end`` the worm's D units) has the
    key ``(t0 + (j + F − D)·tf, base + j)``: the time ``now + delay``
    gave its own entry when the drain scheduled one per unit, and the
    sequence number of the drain's reserved block.  The heap holds the
    cursor at its next unit's key; each dispatch (:meth:`step`)
    releases that unit through the worm's ``_release`` and re-pushes
    the next key.  The finish's entry would have had the last
    release's time and the next sequence number, so nothing could run
    between the two: the last unit's dispatch also finishes the worm.
    A free-flight window may release a run of units itself and advance
    ``j`` (:meth:`FreeFlight._commit`).  The units the cursor released
    itself since ``mark`` are added to the network's ``drain_steps``
    when it finishes or a window takes it, not one by one.

    ``again``, the prebound ``step`` every push hands the heap, is a
    reference back to the cursor: it is bound when the cursor is
    pushed and dropped with the last unit, so a finished cursor, or
    one a declined window built and never pushed, is no cycle."""

    __slots__ = (
        "worm", "net", "queue", "release", "again", "j", "mark", "end", "t0", "shift", "tf",
        "base",
    )

    def __init__(self, worm: Worm, t0: float, lo: int, seq: int):
        """The drain that starts at ``t0`` with unit ``lo``, whose
        sequence block starts at ``seq``; :meth:`push` puts it on the
        calendar."""
        self.worm = worm
        self.net = worm.net
        self.queue = worm.env._queue
        # prebound: every dispatch releases through the worm's own
        # _release and re-pushes this cursor's step, bound by push
        self.release = worm._release
        self.again: Callable[[], None] | None = None
        self.j = self.mark = lo
        self.end = D = len(worm.channels)
        self.t0 = t0
        self.shift = worm.flits - D
        self.tf = worm.tf
        self.base = seq - lo

    def push(self) -> None:
        """Put the cursor on the heap at its next unit's key."""
        j = self.j
        self.again = again = self.again or self.step
        heappush(self.queue, (self.t0 + (j + self.shift) * self.tf, self.base + j, again, ()))

    def time(self, j: int) -> float:
        """When unit ``j`` is released."""
        return self.t0 + (j + self.shift) * self.tf

    def step(self) -> None:
        """Release the next unit; then re-push at the unit after it, or
        count the units stepped and finish the worm after the last."""
        j = self.j
        self.release(j)
        j += 1
        if j < self.end:
            self.j = j
            heappush(self.queue, (self.t0 + (j + self.shift) * self.tf, self.base + j, self.again, ()))
            return
        self.again = None
        self.net.drain_steps += j - self.mark
        self.worm._finished()

    def stop_before(self, horizon: float) -> int:
        """The first unit from ``j`` on released at or after
        ``horizon`` (``end`` when every one falls before it)."""
        shift = self.shift
        return _first_at(self.t0, self.tf, self.j + shift, self.end + shift, horizon) - shift

    def waiter_at(self, horizon: float) -> float:
        """The time of the first unit before ``horizon`` whose channel
        has a waiter, else ``horizon``."""
        chans = self.worm.channels
        for u in range(self.j, self.stop_before(horizon)):
            if chans[u].waiters:
                return self.time(u)
        return horizon


class PathWorm(Worm):
    """A single-path worm (see module docstring for the timing rules)."""

    __slots__ = ("num_channels", "idx", "_sched", "_dpos")

    def __init__(self, net: WormholeNetwork, message_id: int, nodes, channels, dests):
        super().__init__(net, message_id, nodes, channels, dests)
        self.num_channels = len(channels)
        self.idx = 0  # next channel index to acquire
        self._sched = net.env.schedule
        # the destinations' positions on the route, found on the
        # worm's first free flight
        self._dpos: list[int] | None = None

    def destination_positions(self) -> list[int]:
        """The positions ``p`` on the route whose node latches a copy,
        ascending: releasing unit ``p - 1`` delivers ``nodes[p]``."""
        if self._dpos is None:
            nodes = self.nodes
            self._dpos = list(compress(range(len(nodes)), map(self.dests.__contains__, nodes)))
        return self._dpos

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
        self.net.wait(ch, self._advance)


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
            self.net.wait(ch, self._advance)
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
                self.net.wait(ch, self._advance)
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


# ----------------------------------------------------------------------
# Free-flight windows
# ----------------------------------------------------------------------

#: the lane callback a window flies: a plain path worm's hop
_HOP = PathWorm._try_advance


class _Flyer:
    """One worm's part in a window: its hop entry in the flit lane
    (``rank`` places it there), the times of its hops from that entry
    on and ``n``, how many of them the window runs.

    Hop ``k < r`` acquires unit ``idx + k`` and hop ``r`` starts the
    drain, at ``time(k)``: ``x0 + k * tf`` on the flit grid, where that
    sum is exact, and otherwise ``xs[k]``, the repeated addition of
    ``tf`` that ``now + delay`` performs hop by hop."""

    __slots__ = ("rank", "entry", "worm", "x0", "tf", "xs", "r", "n", "cursor")

    def __init__(self, rank: int, entry: tuple, worm: PathWorm, tf: float, on_grid: bool):
        self.rank = rank
        self.entry = entry
        self.worm = worm
        self.x0 = x0 = entry[0]
        self.tf = tf
        self.r = r = worm.num_channels - worm.idx
        self.xs = None if on_grid else list(accumulate(repeat(tf, r), initial=x0))
        self.n = 0
        self.cursor: _Drain | None = None

    def time(self, k: int) -> float:
        return self.x0 + k * self.tf if self.xs is None else self.xs[k]

    def hops_before(self, horizon: float) -> int:
        """How many of the hops ``0 .. r`` fall before ``horizon``."""
        if self.xs is not None:
            return bisect_left(self.xs, horizon)
        return _first_at(self.x0, self.tf, 0, self.r + 1, horizon)

    def drain(self) -> _Drain:
        """The drain hop ``r`` starts: a cursor on its first unit, off
        the calendar until the window takes its sequence block."""
        if self.cursor is None:
            worm = self.worm
            lo = max(0, worm.num_channels - worm.flits)
            self.cursor = _Drain(worm, self.time(self.r), lo, 0)
        return self.cursor


class FreeFlight:
    """Free-flight windows for one :class:`WormholeNetwork`.

    The kernel offers this object the flit-lane head whenever that head
    is next to dispatch and nothing is immediate (see
    :mod:`repro.sim.kernel`).  A window opens when every lane entry is a
    plain :class:`PathWorm`'s hop.  It runs every event before a horizon
    ``T``, the largest that keeps the worms apart:

    * every heap entry before ``T`` is a plain path worm's drain cursor
      (:class:`_Drain`): the window absorbs its units before ``T``;
    * every channel the window acquires has ``in_use`` at the start
      plus the window's acquisitions of it within its capacity, so each
      acquisition succeeds whatever the interleaving;
    * no channel acquired or released before ``T`` has a waiter (the
      network's ``waiting`` count spares the look when it is 0).

    A flyer whose header reaches its last node before ``T`` starts its
    drain inside the window, which releases the drain's units before
    ``T`` too.  Each worm moves in slices: ``in_use`` takes only its
    net change, and the deliveries come from the worm's destination
    positions.  Every event keeps the ``(time, seq)`` key it would have
    had, real for hops already on the calendar and for the units of
    drains already on it (their reserved blocks), and virtual, after
    every real one, for the entries the window creates, ordered by the
    dispatch that created them, so deliveries merge in dispatch order.
    The lane is left as hop-by-hop dispatch leaves it, and the heap
    holds every unfinished drain at its next unit's key: each worm's
    next hop takes a fresh sequence number, and each drain the window
    started its block, in the order hop-by-hop dispatch created them.
    The clock stands at the last event run.

    A window that would fly fewer than :attr:`MIN_HOPS` hops is
    declined, and each decline in a row doubles the flit times the
    kernel lets pass before the next offer, up to
    ``2**MAX_BACKOFF_SHIFT``: a contended network, where windows are
    short, pays almost nothing for them.

    The network holds the window (``flight``) and its calendar holds it
    too, so the window reaches them through a weak reference to the
    network and keeps neither alive; its counters stay readable on
    ``net.flight`` after the run.
    """

    #: fewest hops a window must fly to pay for its set-up
    MIN_HOPS = 32
    #: cap on the backoff, as a power of two of flit times
    MAX_BACKOFF_SHIFT = 12

    __slots__ = (
        "_net", "tf", "grid", "_fails",
        "windows", "hops_flown", "drains_absorbed", "attempts", "backoffs",
    )

    def __init__(self, net: WormholeNetwork):
        self._net = weakref.ref(net)
        self.tf = net.config.flit_time
        # on a power-of-two flit time, a time on the flit grid plus k
        # flit times is exact: the repeated addition gives the same
        self.grid = math.frexp(self.tf)[0] == 0.5
        self._fails = 0
        #: windows run, hops they flew, drain units they released
        self.windows = self.hops_flown = self.drains_absorbed = 0
        #: offers taken (``attempts = windows + backoffs``)
        self.attempts = self.backoffs = 0

    @property
    def net(self) -> WormholeNetwork:
        """The network, while it lives."""
        net = self._net()
        assert net is not None, "the window outlived its network"
        return net

    def counters(self) -> dict[str, int]:
        """The window counters, by name: ``drains_absorbed`` drain units
        the windows released and ``drain_steps`` the ones the network's
        drain cursors released between windows."""
        return {
            "windows": self.windows,
            "hops_flown": self.hops_flown,
            "drains_absorbed": self.drains_absorbed,
            "drain_steps": self.net.drain_steps,
            "attempts": self.attempts,
            "backoffs": self.backoffs,
        }

    def __call__(self, head: tuple) -> float:
        """The kernel's offer of the lane head ``head``: -1 after a
        window, else the time before which no lane head is offered."""
        self.attempts += 1
        if self._fly(head):
            self.windows += 1
            self._fails = 0
            return -1.0
        self.backoffs += 1
        self._fails = fails = min(self._fails + 1, self.MAX_BACKOFF_SHIFT)
        return head[0] + ((1 << fails) - 1) * self.tf

    @staticmethod
    def _cursor(entry: tuple, net: WormholeNetwork) -> _Drain | None:
        """The drain cursor of a plain path worm of ``net`` behind the
        heap entry ``entry``, else None."""
        drain = getattr(entry[2], "__self__", None)
        if type(drain) is _Drain and type(drain.worm) is PathWorm and drain.net is net:
            return drain
        return None

    def _fly(self, head: tuple) -> bool:
        net = self.net
        queue = net.env._queue
        tf = self.tf
        # the lane: hops of plain path worms only
        hops: list = []
        for rank, entry in enumerate(net.env._lane):
            fn = entry[2]
            worm = getattr(fn, "__self__", None)
            if type(worm) is not PathWorm or worm.net is not net or fn.__func__ is not _HOP:
                return False
            hops.append((rank, entry, worm))
        # a heap head that is no drain cursor bounds the window: decline
        # at once when even that bound, estimated by products, leaves
        # too few hops, since a flyer runs at most its r + 1 hops and at
        # most one more than whole flit times fit before the bound
        bound = math.inf
        if queue and self._cursor(queue[0], net) is None:
            bound = queue[0][0]
        room = sum(
            min((worm.num_channels - worm.idx) * tf, bound - entry[0])
            for _, entry, worm in hops if entry[0] < bound
        )
        if room < (self.MIN_HOPS - len(hops)) * tf:
            return False
        on_grid = self.grid and not any(entry[0] % tf for _, entry, _ in hops)
        flyers = [_Flyer(rank, entry, worm, tf, on_grid) for rank, entry, worm in hops]
        # the drains due before the horizon are absorbed, up to a unit
        # whose release would wake a waiter; anything else due there
        # ends the window
        horizon = bound
        waiting = net.waiting
        drains: list = []
        while queue:
            entry = queue[0]
            if entry[0] >= horizon:
                break
            drain = self._cursor(entry, net)
            if drain is None:
                horizon = entry[0]
                break
            if waiting:
                horizon = drain.waiter_at(horizon)
                if horizon == entry[0]:
                    break
            drains.append(heappop(queue))
        # no flyer meets another, or a waiter, before the horizon
        if self._hops(flyers, horizon) >= self.MIN_HOPS:
            conflict = self._conflict(flyers, waiting, horizon)
            if conflict is not None:
                horizon = conflict
            if self._hops(flyers, horizon) >= self.MIN_HOPS:
                # a cursor taken off before the horizon fell to its key,
                # here or at a later entry of the same tick, goes back
                while drains and drains[-1][0] >= horizon:
                    heappush(queue, drains.pop())
                self._commit(flyers, drains, horizon)
                return True
        for entry in drains:
            heappush(queue, entry)
        return False

    @staticmethod
    def _hops(flyers: list, horizon: float) -> int:
        """Set every flyer's ``n`` to its hops before ``horizon``, and
        return their sum."""
        total = 0
        for f in flyers:
            f.n = f.hops_before(horizon)
            total += f.n
        return total

    def _conflict(self, flyers: list, waiting: int, horizon: float) -> float | None:
        """The time of the first event, in dispatch order, within the
        flyers' ``n`` hops and the drains they start that could
        interact: an acquisition past its channel's capacity, counted
        from ``in_use`` at the start plus every claim of the window
        before it (so it holds whatever the interleaving), or an
        acquisition or release of a channel with a waiter.  None when
        there is none before ``horizon``.

        The flit lane is a FIFO, so hop-by-hop dispatch runs the
        flyers' hops round by round in lane order, a flyer dropping out
        after its drain starts; the scan walks them in that order."""
        live = [f for f in flyers if f.n]
        acquired = [f.worm.channels[f.worm.idx : f.worm.idx + min(f.n, f.r)] for f in live]
        order = list(filter(None, chain.from_iterable(zip_longest(*acquired))))
        claims: dict = {}
        get = claims.get
        p = 0
        for ch in order:
            c = get(ch, 0) + 1
            if ch.in_use + c > ch.capacity:
                break
            claims[ch] = c
            p += 1
        first = math.inf
        if p < len(order):
            first = self._hop_time(live, acquired, p)
        if waiting:
            for f, a in zip(live, acquired):
                worm = f.worm
                i = worm.idx
                for k, ch in enumerate(a):
                    if ch.waiters:
                        first = min(first, f.time(k))
                        break
                lo = max(0, i - worm.flits)
                released = worm.channels[lo : max(lo, i + len(a) - worm.flits)]
                for j, ch in enumerate(released):
                    if ch.waiters:
                        # hop k releases unit i + k - flits
                        first = min(first, f.time(lo + j + worm.flits - i))
                        break
                if f.n > f.r:
                    first = min(first, f.drain().waiter_at(horizon))
        return None if first >= horizon else first

    @staticmethod
    def _hop_time(live: list, acquired: list, p: int) -> float:
        """The time of the ``p``-th acquisition of :meth:`_conflict`'s
        order: round ``k`` holds the flyers with more than ``k``."""
        k = 0
        for length in sorted(set(map(len, acquired))):
            width = sum(1 for a in acquired if len(a) > k)
            span = (length - k) * width
            if p < span:
                k += p // width
                row = [f for f, a in zip(live, acquired) if len(a) > k]
                return row[p % width].time(k)
            p -= span
            k = length
        raise AssertionError("acquisition out of range")

    def _commit(self, flyers: list, drains: list, horizon: float) -> None:
        """Run the window: every flyer's ``n`` hops, then the units
        before ``horizon`` of the drains whose heap entries ``drains``
        holds and of the drains the flyers start, and leave the
        calendar, the deliveries and the clock as hop-by-hop dispatch
        would."""
        net = self.net
        env = net.env
        lane = env._lane
        width = len(lane)
        # (time, created?, order, delivery): an entry the window creates
        # is ordered after every real one, by the dispatch that created
        # it (a flyer's hop k by its hop k - 1, a drain's block by the
        # hop that started it) and then by its place in that block
        found = []
        created = []
        # every drain the window runs: None for one already on the heap,
        # else the creation order of the drain a flyer starts
        ran = [(entry[2].__self__, None) for entry in drains]
        last = -math.inf
        hops = 0
        for f in flyers:
            n = f.n
            if not n:
                continue
            worm = f.worm
            i = worm.idx
            flits = worm.flits
            chans = worm.channels
            a = min(n, f.r)
            hops += a
            end = i + a
            # net in_use of the hops: units acquired and still held,
            # units held before the window and released in it
            for ch in chans[max(i, end - flits) : end]:
                ch.in_use += 1
            lo = max(0, i - flits)
            hi = end - flits
            for ch in chans[lo : max(lo, min(i, hi))]:
                ch.in_use -= 1
            if hi > lo:
                dpos = worm.destination_positions()
                b = bisect_left(dpos, lo + 1)
                e = bisect_left(dpos, hi + 1)
                if b < e:
                    mid = worm.message_id
                    nodes = worm.nodes
                    injected = worm.injected_at
                    seq = f.entry[1]
                    rank = f.rank
                    for p in dpos[b:e]:
                        k = p - 1 + flits - i  # the hop releasing unit p - 1
                        x = f.time(k)
                        order = (k * width + rank, 0) if k else seq
                        found.append((x, k > 0, order, Delivery(mid, nodes[p], injected, x)))
            worm.idx = end
            x = f.time(n - 1)
            if x > last:
                last = x
            if n > f.r:  # hop r started the drain
                ran.append((f.drain(), (f.r + 1) * width + f.rank))
            else:
                created.append((n * width + f.rank, f.time(n), worm._advance))
        units = 0
        for drain, made in ran:
            worm = drain.worm
            j = drain.j
            net.drain_steps += j - drain.mark  # units it stepped since it was last taken
            stop = drain.stop_before(horizon)
            if stop == j:  # a drain started too late for any unit
                assert made is not None, "a heap cursor due at or after the horizon"
                created.append((made, None, drain))
                continue
            units += stop - j
            for ch in worm.channels[j:stop]:
                ch.in_use -= 1
            # releasing unit p - 1 delivers the node at position p
            dpos = worm.destination_positions()
            b = bisect_left(dpos, j + 1)
            e = bisect_left(dpos, stop + 1)
            if b < e:
                mid = worm.message_id
                nodes = worm.nodes
                injected = worm.injected_at
                base = drain.base
                for p in dpos[b:e]:
                    x = drain.time(p - 1)
                    order = base + p - 1 if made is None else (made, p)
                    found.append((x, made is not None, order, Delivery(mid, nodes[p], injected, x)))
            x = drain.time(stop - 1)
            if x > last:
                last = x
            if stop == drain.end:
                drain.again = None
                net.finish(worm)
                continue
            drain.j = drain.mark = stop
            if made is None:
                drain.push()
            else:
                created.append((made, None, drain))
        if found:
            found.sort()
            net.deliveries.extend(d for _, _, _, d in found)
        while lane and lane[0][0] < horizon:
            lane.popleft()
        # the next hops and the blocks of the unfinished drains the
        # window started take sequence numbers in the order hop-by-hop
        # dispatch created them
        created.sort()
        for _, x, item in created:
            if x is None:
                lo = max(0, -item.shift)
                item.base = env.reserve(item.end - lo + 1) - lo
                item.push()
            else:
                lane.append((x, env._seq(), item, ()))
        env.now = last
        self.hops_flown += hops
        self.drains_absorbed += units
