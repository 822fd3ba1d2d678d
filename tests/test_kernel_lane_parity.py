"""Parity of the simulator's exact shortcuts with what they replaced.

Three cuts make a simulated message cheaper without changing a bit of
the output, and each is checked here against the straightforward
computation:

* the kernel's flit lane: :class:`repro.sim.kernel.Environment` keeps
  entries scheduled exactly one lane delay ahead in a FIFO deque beside
  its heap and its immediate lane.  Random schedules, with blocks of
  sequence numbers taken ahead (:meth:`Environment.reserve`) and pushed
  on the heap out of order among them, must dispatch in the order, and
  at the clock values, of the heap-only
  :class:`~repro.sim.kernel.LegacyEnvironment`;
* the destination draw: ``_destination_sampler`` calls
  ``getrandbits`` where the original loop (kept verbatim below) called
  ``randrange``.  Both must return the same sets and leave the RNG in
  the same state;
* the batch mean: :func:`repro.sim.stats.exact_mean` must equal
  ``statistics.mean``, and :func:`~repro.sim.stats.batch_means` the
  original ``statistics``-based estimator (kept verbatim below).
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
from math import sqrt

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, LegacyEnvironment, SimConfig, WormholeNetwork
from repro.sim.runner import _destination_sampler
from repro.sim.stats import Summary, batch_means, exact_mean, t975
from repro.topology import Mesh2D

# ----------------------------------------------------------------------
# The flit lane against the heap-only kernel.
# ----------------------------------------------------------------------

#: lane delays: the paper's 0.1 us flit (not dyadic, so ``now + tick``
#: rounds), a power-of-two flit and a coarse one
TICKS = (1e-7, 2.0**-21, 0.3)

KINDS = ("call", "timeout", "event", "process", "hops", "reserve")


@st.composite
def delays(draw, tick):
    """Zero, one tick, a few ticks, or any float up to ten ticks."""
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return 0.0
    if choice == 1:
        return tick
    if choice == 2:
        return draw(st.integers(2, 5)) * tick
    return draw(st.floats(0.0, 10 * tick, allow_nan=False))


@st.composite
def schedules(draw):
    """A lane delay, a script of actions and ascending run horizons."""
    tick = draw(st.sampled_from(TICKS))
    script = draw(st.lists(
        st.tuples(st.sampled_from(KINDS), delays(tick), st.integers(1, 3)),
        min_size=1, max_size=60,
    ))
    horizons = sorted(draw(st.lists(st.floats(0.0, 40 * tick), max_size=4)))
    return tick, script, horizons


def replay(env_cls, tick, script, horizons):
    """Run ``script`` on a fresh ``env_cls`` calendar and return every
    callback's ``(label, now)`` in dispatch order.

    Each dispatched callback takes the next action off the script, so
    the script unfolds along the dispatch order: two kernels that
    dispatch differently read different actions at the same point and
    their logs diverge."""
    env = env_cls()
    env.set_lane_delay(tick)
    log = []
    actions = iter(script)

    def fire(label):
        log.append((label, env.now))
        spawn(label)

    def proc(delay, steps, label):
        for step in range(steps):
            yield env.timeout(delay if step == 0 else tick)
            log.append((f"{label}/step{step}", env.now))
        return label

    def spawn(parent):
        action = next(actions, None)
        if action is None:
            return
        kind, delay, n = action
        label = f"{parent}>{kind}{len(log)}"
        if kind == "call":
            env.schedule(delay, fire, label)
        elif kind == "timeout":
            env.timeout(delay, label).wait(lambda ev: fire(ev.value))
        elif kind == "event":
            ev = env.event()
            for w in range(n):
                ev.wait(lambda _ev, w=w: fire(f"{label}/w{w}"))
            env.schedule(delay, ev.succeed)
        elif kind == "process":
            env.process(proc(delay, n, label)).wait(lambda ev: fire(ev.value))
        elif kind == "reserve":
            # a drain-like block: n entries one tick apart, stamped
            # from one reserved block and pushed last first
            first = env.reserve(n)
            for i in reversed(range(n)):
                entry = (env.now + (delay + i * tick), first + i, fire, (f"{label}/r{i}",))
                heapq.heappush(env._queue, entry)
        else:  # a worm-like chain: n hops, one tick apart
            def hop(remaining):
                log.append((f"{label}/hop{remaining}", env.now))
                if remaining:
                    env.schedule(tick, hop, remaining - 1)
                else:
                    spawn(label)

            env.schedule(delay, hop, n)

    for root in range(3):
        spawn(f"root{root}")
    for until in horizons:
        if until >= env.now:
            env.run(until=until)
            log.append(("horizon", env.now))
    env.run()
    return log, env.now


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_lane_dispatch_order_matches_heap_kernel(schedule):
    tick, script, horizons = schedule
    assert replay(Environment, tick, script, horizons) == replay(
        LegacyEnvironment, tick, script, horizons
    )


@pytest.mark.parametrize("env_cls", [Environment, LegacyEnvironment])
@pytest.mark.parametrize("n", [0, 1, 65])
def test_schedule_after_reserve_takes_first_plus_n(env_cls, n):
    env = env_cls()
    env.set_lane_delay(0.5)
    env.schedule(1.0, lambda: None)
    first = env.reserve(n)
    assert first == 2
    for delay in (0.0, 0.5, 2.0):  # one entry per lane
        env.schedule(delay, lambda: None)
    seqs = sorted(entry[1] for lane in (env._queue, env._lane, env._immediate) for entry in lane)
    assert seqs == [1, first + n, first + n + 1, first + n + 2]


def test_hop_timers_take_the_lane():
    """Entries one lane delay ahead skip the heap; others do not."""
    env = Environment()
    env.set_lane_delay(0.5)
    env.schedule(0.5, lambda: None)
    env.schedule(0.5, lambda: None)
    env.schedule(0.25, lambda: None)
    env.schedule(0.0, lambda: None)
    assert (len(env._lane), len(env._queue), len(env._immediate)) == (2, 1, 1)
    assert env.pending_events == 4
    env.run()
    assert env.pending_events == 0 and env.now == 0.5


def test_a_network_gives_the_lane_to_its_hop_timers():
    env = Environment()
    cfg = SimConfig()
    net = WormholeNetwork(env, cfg)
    net.inject_path(1, [(0, 0), (1, 0), (2, 0)], {(2, 0)})
    # the first hop timer is pending, one flit time out, in the lane
    assert (len(env._lane), len(env._queue)) == (1, 0)
    assert env._lane[0][0] == cfg.flit_time
    assert net.run_to_completion()


def test_changing_the_lane_delay_moves_its_entries_to_the_heap():
    env = Environment()
    seen = []
    env.set_lane_delay(1.0)
    env.schedule(1.0, seen.append, "a")
    env.set_lane_delay(0.25)
    env.schedule(0.25, seen.append, "b")
    env.schedule(1.0, seen.append, "c")
    assert len(env._lane) == 1
    env.run()
    assert seen == ["b", "a", "c"]


@pytest.mark.parametrize("delay", [0.0, -1.0, float("nan")])
def test_lane_delay_must_be_positive(delay):
    with pytest.raises(ValueError):
        Environment().set_lane_delay(delay)


# ----------------------------------------------------------------------
# The destination draw against the original randrange loop.
# ----------------------------------------------------------------------


def randrange_sampler(topology, rng: random.Random, k: int):
    """The §7.2 draw as it was written before the getrandbits loop."""
    nodes = list(topology.nodes())
    n = len(nodes)
    index_map = topology.index_map()
    randrange = rng.randrange

    def draw(source):
        chosen: set = set()
        src_i = index_map[source]
        while len(chosen) < k:
            i = randrange(n)
            if i != src_i:
                chosen.add(i)
        return tuple(nodes[i] for i in sorted(chosen))

    return draw


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 1100),
    k_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    sources=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
)
def test_destination_draw_matches_randrange_loop(n, k_share, seed, sources):
    topology = Mesh2D(n, 1)
    k = max(1, round(k_share * (n - 1)))
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    fast = _destination_sampler(topology, fast_rng, k)
    ref = randrange_sampler(topology, ref_rng, k)
    for s in sources:
        source = topology.node_at(s % n)
        assert fast(source) == ref(source)
    # the same bits were consumed: the streams stay in step
    assert fast_rng.getstate() == ref_rng.getstate()


def test_destination_draw_takes_every_other_node():
    topology = Mesh2D(5, 1)
    draw = _destination_sampler(topology, random.Random(3), 4)
    assert draw((2, 0)) == ((0, 0), (1, 0), (3, 0), (4, 0))


# ----------------------------------------------------------------------
# The batch mean against statistics.mean.
# ----------------------------------------------------------------------


def statistics_batch_means(values, num_batches: int = 10) -> Summary:
    """batch_means as it was written on statistics.mean."""
    n = len(values)
    if n < 2 * num_batches:
        num_batches = max(2, n // 2) if n >= 4 else 1
    if num_batches < 2:
        return Summary(statistics.mean(values), float("inf"), n, 1)
    size = n // num_batches
    batches = [
        statistics.mean(values[i * size : (i + 1) * size])
        for i in range(num_batches)
    ]
    m = statistics.mean(batches)
    s = statistics.stdev(batches)
    half = t975(num_batches - 1) * s / sqrt(num_batches)
    return Summary(m, half, n, num_batches)


#: subnormals, both signs and magnitudes up to the largest finite float
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(ANY_FINITE, SUBNORMAL), min_size=1, max_size=50))
def test_exact_mean_is_statistics_mean(values):
    got, want = exact_mean(values), statistics.mean(values)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("values", [
    [1, 2, 3, 4],  # ints: statistics keeps an int mean
    [1, 2.5],
    [0.1, float("inf")],
    [float("-inf"), float("inf")],
    [-0.0, -0.0],
    [5e-324, -5e-324, 5e-324],
    [1.7976931348623157e308, 1.7976931348623157e308],
])
def test_exact_mean_edge_cases(values):
    got, want = exact_mean(values), statistics.mean(values)
    assert type(got) is type(want)
    assert got == want or (math.isnan(got) and math.isnan(want))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(st.floats(-1e6, 1e6), SUBNORMAL, st.floats(1e-7, 1e-3)),
    min_size=1, max_size=120,
))
def test_batch_means_matches_statistics_estimator(values):
    assert batch_means(values) == statistics_batch_means(values)
