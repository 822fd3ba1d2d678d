"""Dynamic fault injection for the wormhole simulator (§2.1
robustness; §8.2 "it can also support the fault tolerant routing").

The dissertation's dynamic study assumes a perfect network; this module
lets links and nodes fail *while worms are in flight*, which is the
evaluation axis the NoC successors of this work study (delivery ratio
and latency vs. fault rate).

Three pieces:

* :class:`FaultPlan` — a seeded, immutable schedule of
  :class:`FaultEvent` link/node failures (and, for transient faults,
  repairs) sampled from MTBF/MTTR-style parameters.  Sampling uses its
  own RNG, so a plan never perturbs the traffic RNG: with
  ``link_fault_rate=0`` a fault-aware run is event-for-event identical
  to a fault-free one.
* :class:`FaultState` — the live up/down sets the simulator consults.
  Installing a state schedules its plan's events on the kernel
  calendar; each event toggles the sets, and each failure kills the
  worms holding channels on the failed element.
* :class:`FaultyWormholeNetwork` + the fault-aware worm subclasses —
  a channel on a down link or node has capacity 0, so it refuses flit
  acquisition, and a worm whose header reaches it is dropped and
  counted; adaptive worms detour around faulted candidate channels at
  simulation time, and in-flight worms on a failing link are killed,
  releasing every channel they hold (so a fault never wedges the rest
  of the network).  Each fault-aware worm is its reference worm plus
  the :class:`FaultAwareWorm` mixin, which holds what the three share;
  the path worm's drop is its busy-channel hook (``_wait``), the
  adaptive worm's detour its candidate rule (``_candidates``).  A fault
  check costs nothing on a hop that finds its channel free.

Dropped worms report to the network's ``drop_handler``; the resilient
driver (:func:`repro.sim.runner.run_resilient`) uses that to implement
source-level retransmission with bounded retries and exponential
backoff on kernel :class:`~repro.sim.kernel.Timeout` events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Hashable

from ..retry import derive_seed
from .config import SimConfig
from .kernel import Environment, Timeout
from .reference import AdaptivePathWorm, Channel, PathWorm, TreeWorm, Worm, WormholeNetwork
from .stats import SimStats

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultState",
    "FaultyWormholeNetwork",
    "derive_fault_seed",
]


def derive_fault_seed(seed: int) -> int:
    """A fault-schedule seed decorrelated from the traffic seed:
    :func:`repro.retry.derive_seed`'s splitmix64 mix at index
    ``0xFA16``."""
    return derive_seed(seed, 0xFA16)


@dataclass(frozen=True)
class FaultEvent:
    """One state transition of one network element."""

    time: float
    kind: str  # "link" (directed channel (u, v)) or "node"
    target: Hashable
    down: bool  # True = failure, False = repair


def _tupled(value):
    """JSON arrays back to the tuple-shaped node/link keys the
    simulator uses (nodes are ints or int tuples; link targets are
    node pairs)."""
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted schedule of fault events."""

    events: tuple = ()
    horizon: float = 0.0

    @classmethod
    def sample(
        cls,
        topology,
        *,
        link_rate: float = 0.0,
        node_rate: float = 0.0,
        horizon: float,
        seed: int = 0,
        mtbf: float = 0.0,
        mttr: float = 0.0,
    ) -> "FaultPlan":
        """Sample a fault schedule for ``topology``.

        ``link_rate`` / ``node_rate`` select the faulty fraction of
        directed channels / nodes.  Each faulty element first fails at
        ``expovariate(1/mtbf)`` (or uniformly over ``[0, horizon)``
        when ``mtbf == 0``); with ``mttr > 0`` it repairs after
        ``expovariate(1/mttr)`` and — when ``mtbf > 0`` — keeps
        cycling until the horizon (the MTBF/MTTR renewal process).
        Deterministic in ``seed``.
        """
        rng = random.Random(seed)
        events: list[FaultEvent] = []

        def schedule_element(kind: str, target) -> None:
            t = rng.expovariate(1.0 / mtbf) if mtbf > 0 else rng.uniform(0.0, horizon)
            while t < horizon:
                events.append(FaultEvent(t, kind, target, True))
                if mttr <= 0:
                    break  # permanent fault
                t += rng.expovariate(1.0 / mttr)
                events.append(FaultEvent(t, kind, target, False))
                if mtbf <= 0:
                    break  # single transient fault
                t += rng.expovariate(1.0 / mtbf)

        channels = sorted(topology.channels())
        for link in rng.sample(channels, round(len(channels) * link_rate)):
            schedule_element("link", link)
        nodes = list(topology.nodes())
        for node in rng.sample(nodes, round(len(nodes) * node_rate)):
            schedule_element("node", node)
        events.sort(key=lambda ev: ev.time)
        return cls(events=tuple(events), horizon=horizon)

    def to_json(self) -> dict:
        """The plan as a JSON-serializable dict (inverse of
        :meth:`from_json`).

        Fault scenarios become shareable artifacts: a chaos/fault
        schedule dumped from one service run or bug report replays
        bit-identically after a restart, on another machine, or inside
        a regression test — reproducibility no longer depends on
        re-deriving the plan from the same seed and library version.
        """
        return {
            "horizon": self.horizon,
            "events": [
                {
                    "time": ev.time,
                    "kind": ev.kind,
                    "target": ev.target,
                    "down": ev.down,
                }
                for ev in self.events
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output.  Node and link
        targets serialized as JSON arrays are restored to the tuples
        the simulator keys on; the round trip is exact (
        ``FaultPlan.from_json(p.to_json()) == p``)."""
        return cls(
            events=tuple(
                FaultEvent(
                    time=float(ev["time"]),
                    kind=str(ev["kind"]),
                    target=_tupled(ev["target"]),
                    down=bool(ev["down"]),
                )
                for ev in data["events"]
            ),
            horizon=float(data["horizon"]),
        )

    @classmethod
    def from_config(cls, topology, config: SimConfig) -> "FaultPlan":
        """The plan :attr:`SimConfig` fault parameters describe (empty
        when no fault rate is configured)."""
        if not config.faulty:
            return cls()
        horizon = config.fault_window
        if horizon is None:
            # expected injection span: every node generates at rate
            # 1/interarrival until num_messages have been injected
            horizon = (
                config.num_messages
                * config.mean_interarrival
                / max(1, topology.num_nodes)
            )
        seed = (
            config.fault_seed
            if config.fault_seed is not None
            else derive_fault_seed(config.seed)
        )
        return cls.sample(
            topology,
            link_rate=config.link_fault_rate,
            node_rate=config.node_fault_rate,
            horizon=horizon,
            seed=seed,
            mtbf=config.fault_mtbf,
            mttr=config.fault_mttr,
        )


class FaultState:
    """The live fault sets the simulator consults.

    ``down_links`` holds directed channels ``(u, v)``; ``down_nodes``
    holds nodes.  A channel key of any arity is checked by its first
    two elements (worm channel keys are ``(u, v)``, ``(u, v, plane)``
    or ``(u, v, tag)`` tuples, all link-prefixed).  ``version`` counts
    the fault events applied, so two queries under one version see the
    same sets.
    """

    __slots__ = ("plan", "down_links", "down_nodes", "version", "_blocked_cache")

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self.down_links: set = set()
        self.down_nodes: set = set()
        self.version = 0
        self._blocked_cache: tuple | None = None  # (version, frozenset)

    def install(self, net) -> None:
        """Schedule every plan event, in plan order, on the calendar
        of ``net`` (a :class:`FaultyWormholeNetwork`: fault injection
        runs on the reference engine only).  Under
        ``quantize_arrivals`` each event time snaps to the flit grid
        like every other delay."""
        for ev in self.plan.events:
            net.schedule(ev.time, self._apply, net, ev)

    def _apply(self, net, ev: FaultEvent) -> None:
        self.version += 1
        self._blocked_cache = None
        group = self.down_links if ev.kind == "link" else self.down_nodes
        if ev.down:
            group.add(ev.target)
            if ev.kind == "link":
                net.stats.link_fault_events += 1
            else:
                net.stats.node_fault_events += 1
        else:
            group.discard(ev.target)
            net.stats.repair_events += 1
        net.on_fault_event(ev)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    @property
    def any_down(self) -> bool:
        return bool(self.down_links or self.down_nodes)

    def channel_down(self, key) -> bool:
        """Whether the channel identified by ``key`` sits on a down
        link or touches a down node."""
        if not (self.down_links or self.down_nodes):
            return False
        u, v = key[0], key[1]
        return (
            (u, v) in self.down_links
            or u in self.down_nodes
            or v in self.down_nodes
        )

    def link_down(self, u, v) -> bool:
        if not (self.down_links or self.down_nodes):
            return False
        return (
            (u, v) in self.down_links or u in self.down_nodes or v in self.down_nodes
        )

    def node_down(self, v) -> bool:
        return v in self.down_nodes

    def blocked_links(self, topology) -> frozenset:
        """Every directed channel currently unusable: down links plus
        all channels incident to down nodes (cached per state
        version; the fault routers consume this)."""
        if not (self.down_links or self.down_nodes):
            return frozenset()
        cached = self._blocked_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        bad = set(self.down_links)
        for v in self.down_nodes:
            for u in topology.neighbors(v):
                bad.add((u, v))
                bad.add((v, u))
        blocked = frozenset(bad)
        self._blocked_cache = (self.version, blocked)
        return blocked


class FaultyWormholeNetwork(WormholeNetwork):
    """A :class:`WormholeNetwork` whose worms consult a
    :class:`FaultState` and report drops.

    A channel on a down link, or with a down node at an end, has
    capacity 0 from the failure to the repair, also when it is first
    used during the fault: it refuses acquisition, so a worm meets the
    fault only where its header finds a channel busy.  With an empty
    fault plan the event sequence is identical to the base network's
    (the fault checks never schedule anything), so a ``fault_rate=0``
    resilient run reproduces the plain dynamic run bit for bit.
    """

    __slots__ = (
        "fault_state", "stats", "live", "delivered_by_message",
        "drop_handler", "origin_time", "_up_capacity", "_link_channels",
    )

    def __init__(
        self,
        env: Environment,
        config: SimConfig,
        fault_state: FaultState | None = None,
        stats: SimStats | None = None,
    ):
        super().__init__(env, config)
        self.fault_state = fault_state or FaultState()
        self.stats = stats or SimStats()
        #: worms in flight (registered by the faulty worm constructors).
        #: A dict-as-ordered-set: iteration (and hence the kill order
        #: when one fault hits several worms) follows injection order,
        #: which is reproducible across processes and engines — a plain
        #: set would iterate in id() order, which is allocator-dependent
        self.live: dict = {}
        #: per-message set of destinations reached so far
        self.delivered_by_message: dict = {}
        #: ``fn(message_id)`` invoked when a worm is dropped; the
        #: resilient driver hooks retries here
        self.drop_handler = None
        #: when set, newly injected worms are stamped with this
        #: injection time instead of ``env.now`` — retransmissions keep
        #: the original message's injection time so delivery latency
        #: spans the whole retry history
        self.origin_time: float | None = None
        #: key -> capacity of every channel a fault holds at capacity 0
        self._up_capacity: dict = {}
        #: link ``(u, v)`` -> its channels, of every plane and tag
        self._link_channels: dict = {}

    def _open(self, key, capacity: int) -> Channel:
        ch = super()._open(key, capacity)
        self._link_channels.setdefault(key[:2], []).append(ch)
        if self.fault_state.channel_down(key):
            self._take_down([ch])
        return ch

    def _take_down(self, channels) -> None:
        up = self._up_capacity
        for ch in channels:
            if ch.key not in up:
                up[ch.key] = ch.capacity
                ch.capacity = 0

    def schedule_deferred(self, delay: float, fn, *args) -> None:
        """Like :meth:`schedule`, but wait on a kernel ``Timeout``: the
        call runs from the immediate lane, after the entries already
        queued at that time (the retry-timeout semantics)."""
        Timeout(self.env, self._delay(delay)).wait(lambda _ev: fn(*args))

    def deliver(self, message_id: int, dest, injected_at: float) -> None:
        # deduplicate: a retransmission can race a still-alive sibling
        # worm of the same message (dual-path injects two), so only the
        # first receipt of a (message, destination) pair counts
        got = self.delivered_by_message.setdefault(message_id, set())
        if dest in got:
            return
        got.add(dest)
        self.stats.delivered += 1
        super().deliver(message_id, dest, injected_at)

    def finish(self, worm) -> None:
        super().finish(worm)
        self.live.pop(worm, None)

    def on_fault_event(self, ev: FaultEvent) -> None:
        """Bring the capacities of the channels on ``ev``'s element in
        line with the fault state it left.  A failure sets them to 0 and
        kills every in-flight worm holding a channel on the element
        (§'in-flight worms on a failing link are killed').  A repair
        gives back its own capacity to every channel no longer on a down
        link or node, and wakes no waiter: no worm waits on a down
        channel, so the next release of the one it waits on finds the
        capacity back."""
        if not ev.down:
            state = self.fault_state
            up = self._up_capacity
            for key in [key for key in up if not state.channel_down(key)]:
                self.channels[key].capacity = up.pop(key)
            return
        if ev.kind == "link":
            self._take_down(self._link_channels.get(ev.target, ()))
        else:
            node = ev.target
            for link, channels in self._link_channels.items():
                if node in link:
                    self._take_down(channels)
        for worm in tuple(self.live):
            if not worm.dead and not worm.arrived and worm.hit_by(ev):
                self.kill_worm(worm)

    def kill_worm(self, worm) -> None:
        """Drop ``worm``: release everything it holds (waking waiters),
        park its cursor at the end of its route, so that a pending hop
        timer or waiter retry reaches the drain, which ignores a dead
        worm; count the kill, and notify the drop handler."""
        if worm.dead:
            return
        worm.dead = True
        self.stats.killed_worms += 1
        for ch in worm.held_channels():
            self.release(ch)
        worm.park()
        self.finish(worm)
        if self.drop_handler is not None:
            self.drop_handler(worm.message_id)


# ----------------------------------------------------------------------
# Fault-aware worms.  Each adds to its base worm the drop on a down
# channel, the parking of its cursor after a kill, and the held
# channels the kill path releases.
# ----------------------------------------------------------------------


class FaultAwareWorm(Worm):
    """The part of a fault-aware worm that does not depend on its
    shape.  Listed before the base worm, it registers the worm in the
    network's ``live`` set, stamps a retransmission with its message's
    original injection time, and sets the ``dead`` and ``arrived``
    flags :meth:`FaultyWormholeNetwork.on_fault_event` reads; its
    :meth:`hit_by` decides which failures kill the worm.  A worm is
    ``arrived`` from its drain on, so no failure kills it after that,
    and a release always finds it alive.  A killed worm's cursor is
    parked at the end of its route (:meth:`park`), so its pending hop
    timer or waiter retry runs into :meth:`_drain`, the one place that
    tests ``dead``.

    It declares no ``__slots__``, so the flags live in the instance
    dict: a second base adding slots to :class:`Worm` would conflict
    with the base worm's own.
    """

    def __init__(self, net, *args):
        super().__init__(net, *args)
        self.dead = False
        self.arrived = False
        if net.origin_time is not None:
            self.injected_at = net.origin_time
        net.live[self] = None

    def _drain(self, first: int = 0) -> None:
        if self.dead:
            return
        self.arrived = True
        super()._drain(first)

    def held_channels(self) -> list:
        """The channels the worm holds now: what a kill releases."""
        raise NotImplementedError

    def park(self) -> None:
        """Move the cursor past the last unit (after a kill), so the
        next acquisition attempt drains."""
        raise NotImplementedError

    def header(self):
        """The node the header waits at, or None when only the held
        channels expose the worm."""
        raise NotImplementedError

    def hit_by(self, ev: FaultEvent) -> bool:
        """Whether ``ev``'s failure kills the worm: a failed link under
        a held channel, or a failed node at an end of one or at the
        header."""
        held = self.held_channels()
        if ev.kind == "link":
            u, v = ev.target
            return any(ch.key[0] == u and ch.key[1] == v for ch in held)
        node = ev.target
        return self.header() == node or any(
            ch.key[0] == node or ch.key[1] == node for ch in held
        )


class FaultyPathWorm(FaultAwareWorm, PathWorm):
    """A :class:`PathWorm` that dies on faulted channels: a down
    channel (capacity 0) is never free, so the header meets it in the
    busy branch."""

    def _wait(self, ch) -> None:
        if ch.capacity:
            self.net.wait(ch, self._advance)
        else:
            self.net.kill_worm(self)

    def held_channels(self):
        return self.channels[max(0, self.idx - self.flits) : self.idx]

    def park(self) -> None:
        self.idx = self.num_channels

    def header(self):
        return self.nodes[self.idx]


class FaultyAdaptivePathWorm(FaultAwareWorm, AdaptivePathWorm):
    """An :class:`AdaptivePathWorm` that detours around faulted
    candidate channels at simulation time and dies only when every
    admissible candidate is faulted."""

    def _candidates(self, cur, target) -> list:
        """The R candidates on live links; when none is left, the full
        monotone pool on live links, as the static fault-tolerant router
        widens (still deadlock-free); when that is empty too, none, and
        the worm is killed.  The worm blocks on the first survivor, and
        the check reruns on wake-up in case the fault set changed."""
        candidates = self.labeling.route_candidates(cur, target)
        state = self.net.fault_state
        if not state.any_down:
            return candidates
        alive = [p for p in candidates if not state.link_down(cur, p)]
        if len(alive) == len(candidates):
            return alive
        if not alive:
            alive = [
                p
                for p in self.labeling.monotone_candidates(cur, target)
                if not state.link_down(cur, p)
            ]
            if not alive:
                self.net.kill_worm(self)
                return alive
        # a detour counts when the worm takes it: now, if one of the
        # surviving channels is free
        net = self.net
        if any(net.channel((cur, p), self.capacity).free for p in alive):
            net.stats.detoured += 1
        return alive

    def held_channels(self):
        return self.channels[max(0, len(self.channels) - self.flits) :]

    def header(self):
        return self.nodes[-1]

    def park(self) -> None:
        self.queue.clear()


class FaultyTreeWorm(FaultAwareWorm, TreeWorm):
    """A lockstep :class:`TreeWorm` under faults: the nCUBE-2 rule
    needs *every* channel of the next level, so a faulted channel at
    any level kills the whole tree, before any busy channel of the
    level makes it wait."""

    def _try_advance(self) -> None:
        if self.net.fault_state.any_down and self.k < len(self.channels):
            for ch in self.channels[self.k]:
                if not ch.capacity:
                    self.net.kill_worm(self)
                    return
        TreeWorm._try_advance(self)

    def held_channels(self):
        out = []
        for level in self.channels[max(0, self.k - self.flits) : self.k]:
            out.extend(level)
        return out

    def header(self):
        # a tree's frontier ends its held channels; a tree still at its
        # source holds none and dies at its next acquisition instead
        return None

    def park(self) -> None:
        self.k = len(self.channels)


FaultyWormholeNetwork.path_worm_cls = FaultyPathWorm
FaultyWormholeNetwork.adaptive_worm_cls = FaultyAdaptivePathWorm
FaultyWormholeNetwork.tree_worm_cls = FaultyTreeWorm
