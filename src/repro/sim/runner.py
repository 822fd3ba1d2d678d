"""Dynamic simulation drivers (§7.2).

:func:`run_dynamic` reproduces the dissertation's experiment loop: a
multicast generator at every node draws exponential inter-arrival times
and uniform destination sets, messages are routed by the scheme under
test and injected as worms, and average per-destination network latency
is summarised by batch means.  :func:`run_resilient` runs that traffic
under fault injection, :func:`run_mixed` mixes unicasts into it and
:func:`run_switching` runs it on each §2.2 switching technology; the
four share one arrival process (:func:`_drive`) and one destination
draw (:func:`_destination_sampler`).

:func:`run_static_scenario` injects a fixed set of multicasts at time
zero and reports whether they complete — the §6.1 deadlock
demonstrations run through it.

:func:`run_dynamic` and the other drivers run the reference model
(:mod:`repro.sim.reference`), one worm object per message stepping
through the kernel, whose free-flight windows fly uncontended plain
path worms many hops per dispatch with exactly the hop-by-hop outcome;
:func:`run_dynamic` reports their counters in
``result.engine_stats["windows"]``.  Its ``engine`` argument keeps the
two names of that one engine: ``"auto"`` (the default, which also
records :func:`choose_engine`'s decision) and ``"reference"``; any
other name, and a config with fault rates, is refused
(:func:`check_dynamic_run`).  :func:`run_resilient` runs on the
fault-aware subclass (:class:`~repro.sim.faults.FaultyWormholeNetwork`)
and :func:`run_switching` also on the store-and-forward network
(:class:`~repro.sim.saf.SAFNetwork`); the fault-aware worms and those
of the other switching models never fly.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from ..labeling import canonical_labeling
from ..models.request import MulticastRequest
from ..retry import backoff_delay
from ..topology.base import Topology
from ..wormhole.fault_tolerance import Unroutable
from .circuit import inject_circuit_path
from .config import InvalidConfigError, SimConfig
from .faults import FaultPlan, FaultState, FaultyWormholeNetwork
from .kernel import Environment
from .reference import WormholeNetwork
from .saf import SAFNetwork
from .stats import SimStats, Summary, batch_means
from .traffic import AdaptiveSpec, PathSpec, Router, TreeSpec, VCTTreeSpec
from .vct import inject_vct_path

#: the names ``run_dynamic(engine=...)`` accepts, both for the
#: reference model
ENGINES = ("reference", "auto")

#: worm styles with no fault-aware worm: a fault would pass them by
#: unnoticed, so :func:`check_resilient_run` refuses them under faults
FAULT_BLIND_WORM_STYLES = ("vct-tree",)


class DeadlockDetected(RuntimeError):
    """The simulation stalled with unfinished worms and no events."""


#: worm styles whose worms are plain path worms, the only ones that fly
FLYING_WORM_STYLES = ("star", "vc-star")


def choose_engine(topology, router, config) -> tuple[str, dict]:
    """The ``engine="auto"`` decision for one run, with the features
    behind it.

    One engine remains: the reference model, whose free-flight windows
    engage at run time on what the run itself shows (PERFORMANCE.md
    §5), never on a workload's identity.  So the decision is always
    ``"reference"``; the record names the worm style, which decides
    whether any worm can fly (plain path worms of the ``star`` and
    ``vc-star`` styles only).  Drivers surface it as
    ``result.engine_stats["auto"]``.
    """
    style = router.spec.worm_style
    return "reference", {
        "worm_style": style,
        "decision": "reference",
        "reason": "free-flight" if style in FLYING_WORM_STYLES else "worm-style",
    }


@dataclass(frozen=True)
class DynamicResult:
    """Outcome of one dynamic run."""

    latency: Summary
    injected_messages: int
    deliveries: int
    sim_time: float
    worms: int = 0
    #: simulation engine that produced this result (checkpoints from
    #: before the dense engine's removal may name ``"dense"``)
    engine: str = "reference"
    #: the free-flight window counters under ``"windows"`` and the
    #: ``engine="auto"`` decision record under ``"auto"``
    engine_stats: dict | None = None

    @property
    def mean_latency(self) -> float:
        return self.latency.mean


def inject_specs(net, message_id: int, specs, capacity: int, router: "Router | None" = None) -> None:
    for spec in specs:
        if isinstance(spec, PathSpec):
            flits = (
                net.config.flits_with_header(len(spec.destinations))
                if net.config.model_header_overhead
                else None
            )
            if spec.plane is None:
                net.inject_path(
                    message_id, spec.nodes, spec.destinations,
                    capacity=capacity, flits=flits,
                )
            else:
                plane = spec.plane
                net.inject_path(
                    message_id,
                    spec.nodes,
                    spec.destinations,
                    channel_key=lambda u, v, p=plane: (u, v, p),
                    capacity=1,
                    flits=flits,
                )
        elif isinstance(spec, AdaptiveSpec):
            net.inject_adaptive_path(
                message_id,
                spec.source,
                spec.destinations,
                router.labeling,
                capacity=capacity,
            )
        elif isinstance(spec, VCTTreeSpec):
            from .vct_tree import inject_vct_tree

            inject_vct_tree(
                net, message_id, spec.arcs, spec.source, spec.destinations
            )
        elif isinstance(spec, TreeSpec):
            n_dests = sum(len(level) for level in spec.dest_levels)
            flits = (
                net.config.flits_with_header(n_dests)
                if net.config.model_header_overhead
                else None
            )
            net.inject_tree(
                message_id, spec.levels, spec.dest_levels, capacity=1, flits=flits
            )
        else:
            raise TypeError(f"unknown worm spec {spec!r}")


def _route_key(router: Router, request: MulticastRequest) -> tuple:
    """What a message's route depends on besides its source: the
    destinations it serves and, when ``router`` routes around faults,
    the fault state's version.  Routers draw no random numbers, so an
    equal key gives an equal route."""
    version = router.fault_state.version if router.routes_around_faults else None
    return request.destinations, version


def _make_router(topology, scheme, config, fault_state=None) -> Router:
    return Router(
        topology,
        scheme,
        channels_per_link=config.channels_per_link,
        fault_state=fault_state,
    )


def check_dynamic_run(spec, config: SimConfig, engine: str = "auto") -> None:
    """Raise unless :func:`run_dynamic` can run ``spec``'s scheme under
    ``config`` on ``engine``: :class:`InvalidConfigError` for fault
    rates (only :func:`run_resilient` injects faults) or for the
    removed ``"dense"`` engine, and ``ValueError`` for any other
    unknown engine."""
    if engine == "dense":
        raise InvalidConfigError(
            "engine 'dense' was removed: the reference engine's free-flight "
            "windows run its regime with identical results; use 'auto' or "
            "'reference'"
        )
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if config.faulty:
        raise InvalidConfigError(
            "run_dynamic simulates a fault-free network; a config with "
            "fault rates needs run_resilient"
        )


def check_resilient_run(spec, config: SimConfig, plan: FaultPlan | None = None) -> None:
    """Raise :class:`InvalidConfigError` unless :func:`run_resilient`
    can fault ``spec``'s worms: fault rates in ``config`` (or events in
    ``plan``) on a worm style in :data:`FAULT_BLIND_WORM_STYLES` would
    be reported as a fault-free run."""
    faulted = config.faulty or (plan is not None and bool(plan.events))
    if faulted and spec.worm_style in FAULT_BLIND_WORM_STYLES:
        raise InvalidConfigError(
            f"{spec.name} has no fault-aware worm ({spec.worm_style} "
            f"style), so faults would pass it by; run it without fault rates"
        )


def check_destination_count(topology, k: int) -> None:
    """Raise :class:`InvalidConfigError` if ``topology`` has fewer
    than ``k`` nodes besides a source: the §7.2 destination draw could
    never finish."""
    others = topology.num_nodes - 1
    if k > others:
        raise InvalidConfigError(
            f"{k} destinations per message, but {topology} has only "
            f"{others} nodes besides the source"
        )


def _run_to_completion(net) -> None:
    if not net.run_to_completion():
        raise DeadlockDetected(
            f"{net.active_worms} worms blocked with an empty event calendar"
        )


def _destination_sampler(topology, rng: random.Random, k: int):
    """The §7.2 destination draw: ``k`` distinct nodes other than the
    source, uniform, returned in index order.

    Each candidate index is ``rng.randrange(n)`` drawn the way the
    library draws it: ``getrandbits(n.bit_length())``, rejected while
    it is ``>= n``.  Calling ``getrandbits`` here consumes the same bits
    in the same order, so the draw is bit-identical, one Python frame
    per candidate lighter."""
    check_destination_count(topology, k)
    nodes = list(topology.nodes())
    n = len(nodes)
    bits = n.bit_length()
    index_map = topology.index_map()
    getrandbits = rng.getrandbits

    def draw(source):
        chosen: set = set()
        src_i = index_map[source]
        while len(chosen) < k:
            i = getrandbits(bits)
            if i < n and i != src_i:
                chosen.add(i)
        return tuple(nodes[i] for i in sorted(chosen))

    return draw


def _drive(net, topology, rng: random.Random, config: SimConfig, send) -> int:
    """Run the §7.2 arrival process on ``net`` until its calendar is
    dry: every node sends at exponential inter-arrival times (mean
    ``config.mean_interarrival``, drawn from ``rng``), calling
    ``send(node, message_id)`` with ids 1, 2, ... until
    ``config.num_messages`` are sent.  Returns the number sent."""
    expovariate = rng.expovariate
    rate = 1.0 / config.mean_interarrival
    limit = config.num_messages
    schedule = net.schedule
    sent = 0

    def arm(node):
        schedule(expovariate(rate), arrive, node)

    def arrive(node):
        nonlocal sent
        if sent < limit:
            sent += 1
            send(node, sent)
            arm(node)

    for node in topology.nodes():
        arm(node)
    try:
        _run_to_completion(net)
    finally:
        # arm and arrive call each other: unbind them, so reference
        # counting frees the run they reach (ARCHITECTURE.md)
        del arm, arrive
    return sent


#: latency summary of a run that delivered nothing after warmup
_NO_LATENCY = Summary(float("nan"), float("inf"), 0, 0)


def run_dynamic(
    topology: Topology,
    scheme: str,
    config: SimConfig,
    router: Router | None = None,
    engine: str = "auto",
) -> DynamicResult:
    """Simulate Poisson multicast traffic under one routing scheme on
    the reference model; ``engine="auto"`` also records
    :func:`choose_engine`'s decision.

    Raises :class:`DeadlockDetected` if the network wedges (only
    possible for the deliberately deadlock-prone tree schemes on single
    channels), and :class:`InvalidConfigError` for a run
    :func:`check_dynamic_run` rejects.
    """
    router = router or _make_router(topology, scheme, config)
    check_dynamic_run(router.spec, config, engine)
    rng = random.Random(config.seed)
    draw_destinations = _destination_sampler(topology, rng, config.num_destinations)
    engine_stats: dict = {}
    if engine == "auto":
        engine, engine_stats["auto"] = choose_engine(topology, router, config)
    net = WormholeNetwork(Environment(), config)
    # capacity for path worms: pooled double channels when the network
    # is double-channel; tree worms always use their own tagged copies.
    path_capacity = config.channels_per_link

    def send(node, mid):
        # destinations are drawn from the node set, distinct and never
        # the source — the trusted constructor skips re-checking that.
        request = MulticastRequest.trusted(topology, node, draw_destinations(node))
        inject_specs(net, mid, router(request), path_capacity, router)

    injected = _drive(net, topology, rng, config, send)
    cutoff = config.num_messages * config.warmup_fraction
    delivered = net.delivery_latencies()
    if net.flight is not None:  # a subclass of the network flies none
        engine_stats["windows"] = net.flight.counters()
    return DynamicResult(
        latency=batch_means([lat for mid, lat in delivered if mid > cutoff]),
        injected_messages=injected,
        deliveries=len(delivered),
        sim_time=net.now,
        worms=net.total_worms,
        engine=engine,
        engine_stats=engine_stats,
    )


@dataclass(frozen=True)
class FaultResult:
    """Outcome of one fault-injected (resilient) dynamic run.

    ``latency`` summarises only the post-warmup *delivered*
    destinations; ``stats`` carries the delivery/fault counters and
    ``expected_deliveries`` the total requested (message, destination)
    pairs, so ``delivery_ratio`` is the headline degradation metric.
    """

    latency: Summary
    injected_messages: int
    deliveries: int
    sim_time: float
    worms: int
    stats: SimStats
    expected_deliveries: int
    engine: str = "reference"
    engine_stats: dict | None = None

    @property
    def mean_latency(self) -> float:
        return self.latency.mean

    @property
    def delivery_ratio(self) -> float:
        return self.stats.delivery_ratio


def run_resilient(
    topology: Topology,
    scheme: str,
    config: SimConfig,
    plan: FaultPlan | None = None,
) -> FaultResult:
    """:func:`run_dynamic` under fault injection with resilient
    delivery.

    Link/node faults from ``plan`` (default: sampled from the config's
    fault parameters) fire on the calendar while traffic runs.  Worms
    hitting a fault are killed; each killed or unroutable multicast is
    retransmitted from its source after an exponential-backoff timeout
    (``config.retry_timeout`` x ``retry_backoff``^attempt, at most
    ``max_retries`` times), re-addressed to the destinations still
    missing.  Fault-tolerant schemes additionally detour around the
    currently-down channels, both at the source (static reroute) and —
    for the adaptive scheme — per hop at simulation time.

    A retransmission routes its message again only when the route can
    have changed (:func:`_route_key`); otherwise it re-sends the specs
    of the message's last attempt.

    Traffic comes from :func:`run_dynamic`'s arrival process and
    destination draw, and the fault schedule uses an independent RNG,
    so with zero fault rates the result matches :func:`run_dynamic`
    event for event (the parity suite asserts this).  The run executes
    on the fault-aware reference network, so the result reports
    ``engine="reference"`` and no ``engine_stats``.  Faults on a scheme
    without a fault-aware worm raise :class:`InvalidConfigError`
    (:func:`check_resilient_run`).
    """
    if plan is None:
        plan = FaultPlan.from_config(topology, config)
    fault_state = FaultState(plan)
    router = _make_router(topology, scheme, config, fault_state)
    check_resilient_run(router.spec, config, plan)
    stats = SimStats()
    net = FaultyWormholeNetwork(Environment(), config, fault_state, stats)
    # the fault schedule lands on the calendar before any injection, so
    # same-time fault events dispatch first
    fault_state.install(net)
    rng = random.Random(config.seed)
    path_capacity = config.channels_per_link
    draw_destinations = _destination_sampler(topology, rng, config.num_destinations)
    index_map = topology.index_map()

    # per-message delivery obligations and retry bookkeeping
    expected: dict[int, frozenset] = {}
    sources: dict = {}
    origins: dict = {}
    attempts: dict = {}
    pending_retry: set = set()
    #: message id -> (route key, specs) of its last routed attempt
    routes: dict[int, tuple] = {}

    def route(message_id, request):
        key = _route_key(router, request)
        last = routes.get(message_id)
        if last is not None and last[0] == key:
            return last[1]
        specs = router(request)
        routes[message_id] = (key, specs)
        return specs

    def handle_drop(message_id):
        # coalesce: dual-path injects two worms per message, and both
        # may die — one pending retransmission per message at a time
        if message_id in pending_retry:
            return
        used = attempts.get(message_id, 0)
        if used >= config.max_retries:
            return
        attempts[message_id] = used + 1
        pending_retry.add(message_id)
        delay = backoff_delay(
            used, base=config.retry_timeout, factor=config.retry_backoff
        )
        net.schedule_deferred(delay, retry, message_id)

    def retry(message_id):
        pending_retry.discard(message_id)
        remaining = expected[message_id] - net.delivered_by_message.get(
            message_id, set()
        )
        if not remaining:
            return
        source = sources[message_id]
        if fault_state.node_down(source):
            # the source itself is down; burn the attempt and re-arm
            handle_drop(message_id)
            return
        stats.retries += 1
        request = MulticastRequest.trusted(
            topology,
            source,
            tuple(sorted(remaining, key=index_map.__getitem__)),
        )
        # the retransmission keeps the message's original injection
        # time, so its latency spans the whole retry history
        net.origin_time = origins[message_id]
        try:
            inject_specs(net, message_id, route(message_id, request), path_capacity, router)
        except Unroutable:
            stats.injection_failures += 1
            handle_drop(message_id)
        finally:
            net.origin_time = None

    net.drop_handler = handle_drop

    def send(node, mid):
        request = MulticastRequest.trusted(topology, node, draw_destinations(node))
        expected[mid] = frozenset(request.destinations)
        sources[mid] = node
        origins[mid] = net.now
        if fault_state.node_down(node):
            stats.injection_failures += 1
            handle_drop(mid)
            return
        try:
            inject_specs(net, mid, route(mid, request), path_capacity, router)
        except Unroutable:
            stats.injection_failures += 1
            handle_drop(mid)

    try:
        injected = _drive(net, topology, rng, config, send)
    finally:
        # handle_drop and retry call each other, and the network holds
        # handle_drop: unbind them, as _drive does its own
        net.drop_handler = None
        del handle_drop, retry
    cutoff = config.num_messages * config.warmup_fraction
    delivered = net.delivery_latencies()
    latencies = [lat for mid, lat in delivered if mid > cutoff]
    total_expected = sum(len(dests) for dests in expected.values())
    # delivered was counted per unique (message, destination) pair;
    # whatever the retry budget never reached is dropped.
    stats.dropped = total_expected - stats.delivered
    return FaultResult(
        latency=batch_means(latencies) if latencies else _NO_LATENCY,
        injected_messages=injected,
        deliveries=len(delivered),
        sim_time=net.now,
        worms=net.total_worms,
        stats=stats,
        expected_deliveries=total_expected,
    )


def run_until_confident(
    topology: Topology,
    scheme: str,
    config: SimConfig,
    target_relative_ci: float = 0.05,
    max_doublings: int = 4,
) -> DynamicResult:
    """Repeat :func:`run_dynamic` with a doubling message budget until
    the 95% CI half-width falls below ``target_relative_ci`` of the
    mean — the dissertation's stopping rule (§7.2: "all simulations
    were executed until the confidence interval was smaller than 5
    percent of the mean").

    Returns the first run meeting the target, or the largest run tried.
    """
    result = run_dynamic(topology, scheme, config)
    for _ in range(max_doublings):
        if result.latency.relative_ci <= target_relative_ci:
            break
        config = config.replace(num_messages=config.num_messages * 2)
        result = run_dynamic(topology, scheme, config)
    return result


@dataclass(frozen=True)
class MixedResult:
    """Outcome of a mixed unicast/multicast run (§8.2's proposed
    interaction study)."""

    unicast_latency: Summary
    multicast_latency: Summary
    injected_messages: int
    sim_time: float


def run_mixed(
    topology: Topology,
    scheme: str,
    config: SimConfig,
    unicast_fraction: float = 0.5,
) -> MixedResult:
    """Simulate a mix of unicast and multicast traffic (§8.2: "study
    the interaction between unicast and multicast traffic and how
    different multicast algorithms affect the performance of unicast
    wormhole routing").

    Unicasts are routed with the routing function R inside the high/low
    subnetworks (so the combined traffic remains deadlock-free);
    multicasts use ``scheme``.  Returns separate latency summaries.
    """
    if not 0.0 <= unicast_fraction <= 1.0:
        raise ValueError("unicast_fraction must be in [0, 1]")
    router = _make_router(topology, scheme, config)
    labeling = router.labeling or canonical_labeling(topology)
    net = WormholeNetwork(Environment(), config)
    rng = random.Random(config.seed)
    draw_unicast = _destination_sampler(topology, rng, 1)
    draw_multicast = _destination_sampler(topology, rng, config.num_destinations)
    capacity = config.channels_per_link
    unicasts: set[int] = set()

    def send(node, mid):
        if rng.random() < unicast_fraction:
            unicasts.add(mid)
            (dest,) = draw_unicast(node)
            net.inject_path(mid, labeling.route_path(node, dest), {dest}, capacity=capacity)
        else:
            request = MulticastRequest.trusted(topology, node, draw_multicast(node))
            inject_specs(net, mid, router(request), capacity, router)

    injected = _drive(net, topology, rng, config, send)
    cutoff = config.num_messages * config.warmup_fraction
    uni: list[float] = []
    multi: list[float] = []
    for mid, lat in net.delivery_latencies():
        if mid > cutoff:
            (uni if mid in unicasts else multi).append(lat)
    return MixedResult(
        unicast_latency=batch_means(uni) if uni else _NO_LATENCY,
        multicast_latency=batch_means(multi) if multi else _NO_LATENCY,
        injected_messages=injected,
        sim_time=net.now,
    )


#: the §2.2 switching technologies :func:`run_switching` compares, each
#: as its injector of one routed path
SWITCHING: dict[str, Callable[..., object]] = {
    "wormhole": WormholeNetwork.inject_path,
    "vct": inject_vct_path,
    "circuit": inject_circuit_path,
    "saf": SAFNetwork.inject,
}


def _switched_latency(topology, router, config: SimConfig, technology: str) -> Summary:
    """One :func:`run_switching` run on one technology."""
    env = Environment()
    net: SAFNetwork | WormholeNetwork = (
        SAFNetwork(env, config, buffers_per_node=4, structured=True)
        if technology == "saf"
        else WormholeNetwork(env, config)
    )
    inject = SWITCHING[technology]
    rng = random.Random(config.seed)
    draw_destinations = _destination_sampler(topology, rng, config.num_destinations)

    def send(node, mid):
        request = MulticastRequest.trusted(topology, node, draw_destinations(node))
        for spec in router(request):
            inject(net, mid, spec.nodes, spec.destinations)

    _drive(net, topology, rng, config, send)
    cutoff = config.num_messages * config.warmup_fraction
    return batch_means([d.latency for d in net.deliveries if d.message_id > cutoff])


def run_switching(topology: Topology, scheme: str, config: SimConfig) -> dict[str, Summary]:
    """The §2.2 switching comparison under load: :func:`run_dynamic`'s
    arrivals and destination sets, routed by the path scheme
    ``scheme``, on each of the :data:`SWITCHING` technologies —
    wormhole, virtual cut-through, circuit and store-and-forward
    switching.  Store-and-forward packets take structured pools of 4
    buffers per node, which cannot buffer-deadlock (§2.3.4).

    Returns each technology's post-warm-up latency :class:`Summary`.
    Raises :class:`InvalidConfigError` for fault rates or a scheme that
    sends no plain path worms, and :class:`DeadlockDetected` if a
    network wedges.
    """
    router = _make_router(topology, scheme, config)
    check_dynamic_run(router.spec, config)
    if router.spec.worm_style != "star":
        raise InvalidConfigError(
            f"run_switching switches path worms; {scheme} sends "
            f"{router.spec.worm_style} worms"
        )
    return {tech: _switched_latency(topology, router, config, tech) for tech in SWITCHING}


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of a fixed multicast scenario."""

    completed: bool
    blocked_worms: int
    deliveries: int
    sim_time: float


def run_static_scenario(
    topology: Topology,
    scheme: str,
    requests,
    config: SimConfig | None = None,
) -> ScenarioResult:
    """Inject the given multicasts simultaneously at time zero and run
    the network dry.  ``completed=False`` demonstrates deadlock (e.g.
    Fig. 6.1's two broadcasts under ``scheme='ecube-tree'``)."""
    config = config or SimConfig()
    router = _make_router(topology, scheme, config)
    net = WormholeNetwork(Environment(), config)
    for mid, request in enumerate(requests, start=1):
        inject_specs(net, mid, router(request), config.channels_per_link, router)
    completed = net.run_to_completion()
    return ScenarioResult(
        completed=completed,
        blocked_worms=net.active_worms,
        deliveries=len(net.delivery_latencies()),
        sim_time=net.now,
    )
