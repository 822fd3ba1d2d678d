"""Property tests: frontier windows plus classic dispatch vs the scalar
reference kernels.

Each example builds one randomized convoy — path worms sharing ring
segments, so duplicate same-tick channel touches, full channels and
FIFO waiter queues all arise — and runs it twice through a raw
:class:`DenseEngine`: once with the frontier-window gate on
(``BATCH_MIN`` dropped to 1 so even narrow chunks take the vectorized
path), where every tick no window can commit runs through the classic
dispatcher, and once with vectorization off (pure scalar kernels, the
reference dispatch order).  The delivery streams must be identical
event for event, as must the final clock and the deadlock verdict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimConfig
from repro.sim.dense import DenseEngine

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


def _build(eng: DenseEngine, ring: int, worms, cap: int) -> None:
    """Inject every worm as a segment of a shared ring of channels;
    overlapping segments contend, identical segments duplicate-touch."""
    for mid, (start, hops, when, dpick) in enumerate(worms, start=1):
        hops = min(hops, ring - 1)  # simple path: no self-deadlock
        nodes = tuple((start + i) % ring for i in range(hops + 1))
        # final node always delivers; dpick marks one interior node too
        dests = {nodes[-1], nodes[1 + (dpick % hops)]}
        if when:
            eng.schedule(when * eng.tf, eng.inject_path, mid, nodes, dests, None, cap)
        else:
            eng.inject_path(mid, nodes, dests, capacity=cap)


def _outcome(eng: DenseEngine) -> tuple:
    completed = eng.run_to_completion()
    return (
        completed,
        list(eng.d_mid),
        list(eng.d_tick),
        list(eng.d_inj),
        eng.tick,
        eng.active_worms,
    )


def _run(ring, worms, cap, flits, *, windowed: bool):
    eng = DenseEngine(_config(flits), vectorize=windowed)
    if windowed:
        eng.windowed = True
        eng.BATCH_MIN = 1  # force the vectorized path for narrow chunks
    _build(eng, ring, worms, cap)
    return _outcome(eng)


@settings(max_examples=80, deadline=None)
@given(
    ring=st.integers(4, 12),
    worms=worms_st,
    cap=st.integers(1, 2),
    flits=st.integers(1, 5),
)
def test_windows_match_scalar_kernels(ring, worms, cap, flits):
    vec = _run(ring, worms, cap, flits, windowed=True)
    ref = _run(ring, worms, cap, flits, windowed=False)
    assert vec == ref


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
    must drain in exact FIFO order under both dispatchers."""
    ring = 8
    convoy = [(0, 4, when, d or 1) for when, d in worms]
    vec = _run(ring, convoy, 1, flits, windowed=True)
    ref = _run(ring, convoy, 1, flits, windowed=False)
    assert vec == ref


def test_wide_convoy_commits_windows():
    """A convoy wider than the production BATCH_MIN commits frontier
    windows without any threshold override and still matches."""
    # 140 lightly-overlapping segments (stride 6 < length) on a large
    # ring: most rows advance together, the overlaps still convoy
    worms = [((i * 6) % 1024, 8 + (i % 5), i % 3, 1 + (i % 6)) for i in range(140)]
    ring = 1024

    eng = DenseEngine(_config(3))
    eng.windowed = True
    _build(eng, ring, worms, 2)
    vec = _outcome(eng)
    assert eng.counters.windows > 0  # a window actually committed
    assert eng.counters.batched_events > 0

    ref_eng = DenseEngine(_config(3), vectorize=False)
    _build(ref_eng, ring, worms, 2)
    assert vec == _outcome(ref_eng)
