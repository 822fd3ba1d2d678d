"""Property tests: free-flight windows against hop-by-hop dispatch on
randomized convoys.

The file kept its name from the NumPy dense engine's frontier windows,
which it checked until that engine was removed.  Each example builds
one randomized convoy — path worms sharing ring segments, so duplicate
same-tick channel touches, full channels and FIFO waiter queues all
arise — and runs it on a :class:`WormholeNetwork` over the windowed
:class:`Environment` and over the heap-only
:class:`LegacyEnvironment`, which never opens a window.  The delivery
streams must be identical event for event, as must the final clock,
the worm count left in flight and the deadlock verdict.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimConfig
from repro.sim.kernel import Environment, LegacyEnvironment
from repro.sim.reference import WormholeNetwork

DYADIC = dict(bandwidth=2**21, flit_bytes=2, quantize_arrivals=True)


def _config(flits: int) -> SimConfig:
    return SimConfig(message_bytes=2 * flits, num_messages=1, **DYADIC)


# one worm: (start node, hops, injection tick, destination picker)
worms_st = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.integers(1, 11),
        st.integers(0, 3),
        st.integers(1, 7),
    ),
    min_size=1,
    max_size=14,
)


def _build(net, ring: int, worms, cap: int) -> None:
    """Inject every worm as a segment of a shared ring of channels;
    overlapping segments contend, identical segments duplicate-touch."""
    tf = net.config.flit_time
    inject = partial(net.inject_path, capacity=cap)
    for mid, (start, hops, when, dpick) in enumerate(worms, start=1):
        hops = min(hops, ring - 1)  # simple path: no self-deadlock
        nodes = tuple((start + i) % ring for i in range(hops + 1))
        # final node always delivers; dpick marks one interior node too
        dests = {nodes[-1], nodes[1 + (dpick % hops)]}
        if when:
            net.schedule(when * tf, inject, mid, nodes, dests)
        else:
            inject(mid, nodes, dests)


def _outcome(net) -> tuple:
    completed = net.run_to_completion()
    return (completed, net.delivery_latencies(), net.now, net.active_worms)


def _run(ring, worms, cap, flits, *, windowed: bool):
    config = _config(flits)
    net = WormholeNetwork((Environment if windowed else LegacyEnvironment)(), config)
    _build(net, ring, worms, cap)
    return _outcome(net)


@settings(max_examples=80, deadline=None)
@given(
    ring=st.integers(4, 12),
    worms=worms_st,
    cap=st.integers(1, 2),
    flits=st.integers(1, 5),
)
def test_windows_match_reference_model(ring, worms, cap, flits):
    windowed = _run(ring, worms, cap, flits, windowed=True)
    ref = _run(ring, worms, cap, flits, windowed=False)
    assert windowed == ref


@settings(max_examples=30, deadline=None)
@given(
    worms=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3)),
        min_size=2,
        max_size=10,
    ),
    flits=st.integers(1, 4),
)
def test_single_channel_fifo_queue(worms, flits):
    """Every worm crosses the same capacity-1 channel: the waiter queue
    must drain in exact FIFO order on both calendars."""
    ring = 8
    convoy = [(0, 4, when, d or 1) for when, d in worms]
    windowed = _run(ring, convoy, 1, flits, windowed=True)
    ref = _run(ring, convoy, 1, flits, windowed=False)
    assert windowed == ref


def test_wide_convoy_commits_windows():
    """A 140-worm convoy flies free-flight windows and still matches."""
    # 140 lightly-overlapping segments (stride 6 < length) on a large
    # ring: most rows advance together, the overlaps still convoy
    worms = [((i * 6) % 1024, 8 + (i % 5), i % 3, 1 + (i % 6)) for i in range(140)]
    ring = 1024

    net = WormholeNetwork(Environment(), _config(3))
    _build(net, ring, worms, 2)
    windowed = _outcome(net)
    assert net.flight.windows > 0  # a window actually flew
    assert net.flight.hops_flown > 0

    ref = WormholeNetwork(LegacyEnvironment(), _config(3))
    _build(ref, ring, worms, 2)
    assert windowed == _outcome(ref)
