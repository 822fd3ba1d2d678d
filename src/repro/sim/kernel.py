"""A process-oriented discrete-event simulation kernel.

The dissertation's dynamic study (§7.2) was built on CSIM, a C package
in which "multiple pseudo-processes execute in a quasi-parallel
fashion".  CSIM is proprietary and this environment has no network
access, so the kernel is reimplemented here: an event calendar
(heapq), callback scheduling, and generator-based pseudo-processes that
yield :class:`Timeout` or :class:`Event` objects, in the style CSIM and
simpy share.

The wormhole network model (:mod:`repro.sim.reference`) uses the
callback interface for speed; the traffic generators and examples use
processes.

Three lanes
-----------

Every entry carries a global ``(time, sequence)`` stamp, and
:meth:`Environment.run` always dispatches the smallest stamp.  A
single binary heap would do, but two delays dominate a wormhole run,
and for each of them a plain FIFO deque is already sorted, so
:class:`Environment` keeps one beside the heap:

* the *immediate* lane holds ``schedule(0.0, ...)`` entries: channel
  waiter retries, :meth:`Event.succeed` wake-ups and :class:`Process`
  steps.  Each is stamped with the current clock;
* the *flit lane* holds entries scheduled exactly one lane delay ahead:
  a worm's hop timer.  The delay is the flit time of the
  :class:`~repro.sim.reference.WormholeNetwork` built on the calendar
  (:meth:`Environment.set_lane_delay`);
* the heap holds every other delay, and every entry stamped with a
  sequence number taken ahead by :meth:`Environment.reserve`: a worm's
  tail drain is one such entry, a cursor that re-pushes itself at the
  stamp each released unit would have had as an entry of its own.

Why a lane needs no sorting: sequence numbers only grow, and the clock
never runs backwards (:meth:`Environment.run` refuses a horizon before
it, :meth:`Environment.schedule` a negative delay).  Immediate entries
are therefore appended in stamp order.  Every flit-lane entry has the
same delay, and floating-point addition of a fixed delay is monotone,
so ``now + delay`` never decreases either.  Dispatch compares the three
heads, so the execution order, and with it every simulation result, is
bit-identical to a single-heap calendar, while the dominant entries
cost an O(1) append and pop instead of two O(log n) sifts.

Free-flight windows
-------------------

A network may install one *window* on the calendar
(:meth:`Environment.set_window`): a callable the unbounded
:meth:`Environment.run` offers the flit-lane head whenever that head
is next to dispatch and the immediate lane is empty.  The window either
declines, or runs every entry before some horizon itself and leaves
the calendar, the clock and its own state exactly as dispatching them
one by one would have (:class:`~repro.sim.reference.FreeFlight` runs
uncontended path worms so).  A decline names the simulated time
before which the kernel dispatches lane heads without offering them.
Bounded runs (``run(until=...)``) never offer it.

:class:`LegacyEnvironment` retains the original heap-only calendar,
with no lanes and no window.  It exists for benchmarking
(``benchmarks/bench_kernel_throughput.py`` measures the lanes' and the
windows' speedup against it) and as the parity oracle; it is not used
by the simulators.  The benchmark and the parity tests swap it in for
a whole run by replacing the ``Environment`` attribute of
:mod:`repro.sim.runner`, whose run functions build every calendar
through it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from collections.abc import Callable, Generator, Iterable
from functools import partial


class Event:
    """A one-shot event that processes can wait on."""

    __slots__ = ("env", "callbacks", "triggered", "value")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable] = []
        self.triggered = False
        self.value = None

    def succeed(self, value=None) -> "Event":
        """Trigger the event, resuming all waiters at the current time.

        Waiters are batch-appended to the kernel's immediate lane in
        registration order, so wake-up remains FIFO (the same order the
        per-waiter ``schedule(0.0, ...)`` calls produced) without one
        calendar insertion per waiter.
        """
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        if self.callbacks:
            self.env.wake_all(self.callbacks, (self,))
            self.callbacks.clear()
        return self

    def wait(self, cb: Callable) -> None:
        if self.triggered:
            self.env.schedule(0.0, cb, self)
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value=None):
        super().__init__(env)
        env.schedule(delay, self._fire, value)

    def _fire(self, value):
        self.succeed(value)


class Process(Event):
    """Drives a generator that yields events; itself an event that
    triggers with the generator's return value."""

    __slots__ = ("_gen",)

    def __init__(self, env: "Environment", gen: Generator):
        super().__init__(env)
        self._gen = gen
        env.schedule(0.0, self._step, None)

    def _step(self, event) -> None:
        value = event.value if isinstance(event, Event) else None
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise TypeError(f"process yielded {target!r}, expected an Event")
        target.wait(self._step)


def _no_window(head: tuple) -> float:
    """The window of a calendar no network installed one on: it
    declines the first offer for good."""
    return math.inf


def _negative_delay(delay) -> ValueError:
    return ValueError(f"delay must be >= 0, got {delay!r}")


class Environment:
    """The event calendar: simulated clock plus a priority queue of
    timed callbacks, a FIFO lane of immediate (zero-delay) ones and a
    FIFO lane of ones scheduled exactly the lane delay ahead.

    Every entry carries a global sequence number; dispatch always runs
    the entry with the smallest ``(time, sequence)``, regardless of
    lane, which preserves the seed kernel's strict scheduling order.
    """

    __slots__ = ("now", "_queue", "_immediate", "_lane", "_lane_delay", "_seq", "_window")

    def __init__(self):
        self.now = 0.0
        self._queue: list = []
        self._immediate: deque = deque()
        self._lane: deque = deque()
        # NaN equals no delay: until a network claims the lane, every
        # timed entry goes to the heap
        self._lane_delay = float("nan")
        self._seq = itertools.count(1).__next__
        self._window: Callable | None = None

    def set_lane_delay(self, delay: float) -> None:
        """Send entries scheduled exactly ``delay`` ahead through the
        flit lane (a :class:`~repro.sim.reference.WormholeNetwork`
        passes its flit time).  Entries the lane holds under another
        delay move to the heap, so the lane keeps one delay and stays
        sorted."""
        if not delay > 0.0:
            raise ValueError(f"lane delay must be > 0, got {delay!r}")
        if delay != self._lane_delay:
            for entry in self._lane:
                heapq.heappush(self._queue, entry)
            self._lane.clear()
            self._lane_delay = delay

    def set_window(self, window: Callable) -> None:
        """Offer the flit-lane head to ``window`` (see the module
        docstring) during unbounded runs.  ``window(head)`` returns a
        negative number when it ran the entries up to its horizon
        itself, else the time before which no lane head is offered.
        The first window installed keeps the calendar."""
        if self._window is None:
            self._window = window

    def schedule(self, delay: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` after ``delay`` (>= 0) simulated time units."""
        # most frequent first: hop timers, then other timed entries
        # (channel waiters and events wake through wake_all)
        if delay == self._lane_delay:
            self._lane.append((self.now + delay, self._seq(), fn, args))
        elif delay > 0.0:
            heapq.heappush(self._queue, (self.now + delay, self._seq(), fn, args))
        elif delay == 0.0:
            self._immediate.append((self.now, self._seq(), fn, args))
        else:
            raise _negative_delay(delay)

    def reserve(self, n: int) -> int:
        """Take the next ``n`` sequence numbers as one block and return
        the first; the next :meth:`schedule` gets ``first + n``.  The
        caller pushes entries stamped with them on the heap itself
        (``heapq.heappush(env._queue, (time, seq, fn, args))``), when
        it likes and in any order: the heap sorts them among the rest
        (see the module docstring)."""
        first = self._seq()
        self._seq = itertools.count(first + n).__next__
        return first

    def wake_all(self, callbacks: Iterable[Callable], args: tuple = ()) -> None:
        """Append ``cb(*args)`` for each callback to the immediate lane
        (FIFO, equivalent to per-callback ``schedule(0.0, cb, *args)``)."""
        now = self.now
        seq = self._seq
        append = self._immediate.append
        for cb in callbacks:
            append((now, seq(), cb, args))

    def timeout(self, delay: float, value=None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator) -> Process:
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event triggering once every input event has triggered."""
        events = list(events)
        done = self.event()
        remaining = len(events)
        if remaining == 0:
            done.succeed([])
            return done
        values = [None] * remaining

        def make_cb(i):
            def cb(ev):
                nonlocal remaining
                values[i] = ev.value
                remaining -= 1
                if remaining == 0:
                    done.succeed(values)

            return cb

        for i, ev in enumerate(events):
            ev.wait(make_cb(i))
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event triggering as soon as any input event triggers,
        with that event's value."""
        events = list(events)
        done = self.event()

        def cb(ev):
            if not done.triggered:
                done.succeed(ev.value)

        for ev in events:
            ev.wait(cb)
        return done

    def _check_horizon(self, until: float | None) -> None:
        if until is not None and until < self.now:
            raise ValueError(
                f"run(until={until!r}) is before the clock ({self.now!r}); "
                "the clock never runs backwards"
            )

    def run(self, until: float | None = None) -> None:
        """Process events until the calendar empties or ``until`` (which
        may not precede the clock).

        The hot loop dispatches the smallest ``(time, sequence)`` head
        of the three lanes.  Immediate entries were stamped with the
        clock value at scheduling time, which can never exceed the
        current clock, so an immediate entry is overdue the moment it
        is observed; the only question is whether an *earlier-stamped*
        heap or flit-lane entry at the same timestamp must run first.
        A flit-lane head due next with the immediate lane empty is
        first offered to the window, if one is installed.
        """
        self._check_horizon(until)
        queue = self._queue
        immediate = self._immediate
        lane = self._lane
        heappop = heapq.heappop
        popleft = immediate.popleft
        lane_pop = lane.popleft
        if until is None:
            window = self._window or _no_window
            # lane heads before this time are not offered to the window
            resume = -1.0
            while True:
                if immediate:
                    # an entry that beats the immediate head is stamped
                    # with the clock too, so `now` needs no update
                    entry = immediate[0]
                    if queue and queue[0] < entry:
                        entry = queue[0]
                        if lane and lane[0] < entry:
                            entry = lane_pop()
                        else:
                            heappop(queue)
                    elif lane and lane[0] < entry:
                        entry = lane_pop()
                    else:
                        popleft()
                elif lane:
                    entry = lane[0]
                    if queue and queue[0] < entry:
                        entry = heappop(queue)
                    elif entry[0] < resume:
                        lane_pop()
                    else:
                        resume = window(entry)
                        if resume < 0.0:
                            continue
                        lane_pop()
                    self.now = entry[0]
                elif queue:
                    entry = heappop(queue)
                    self.now = entry[0]
                else:
                    return
                entry[2](*entry[3])
        # bounded run: check the horizon before dispatching each entry
        queue_pop = partial(heappop, queue)
        while True:
            entry = None
            if immediate:
                entry, pop = immediate[0], popleft
            if lane and (entry is None or lane[0] < entry):
                entry, pop = lane[0], lane_pop
            if queue and (entry is None or queue[0] < entry):
                entry, pop = queue[0], queue_pop
            if entry is None or entry[0] > until:
                break
            pop()
            self.now = entry[0]
            entry[2](*entry[3])
        self.now = until

    @property
    def pending_events(self) -> int:
        return len(self._queue) + len(self._immediate) + len(self._lane)


class LegacyEnvironment(Environment):
    """The seed kernel: every callback — immediate or timed — goes
    through the binary heap.

    Scheduling order is identical to :class:`Environment` (both
    dispatch in strict ``(time, sequence)`` order), so a simulation run
    on either kernel produces bit-identical results; this class is the
    reference/baseline the throughput benchmark and parity tests
    compare against.  It accepts a lane delay and a window and ignores
    both.
    """

    __slots__ = ()

    def set_window(self, window: Callable) -> None:
        pass

    def schedule(self, delay: float, fn: Callable, *args) -> None:
        if not delay >= 0.0:
            raise _negative_delay(delay)
        heapq.heappush(self._queue, (self.now + delay, self._seq(), fn, args))

    def wake_all(self, callbacks: Iterable[Callable], args: tuple = ()) -> None:
        for cb in callbacks:
            self.schedule(0.0, cb, *args)

    def run(self, until: float | None = None) -> None:
        self._check_horizon(until)
        queue = self._queue
        while queue:
            t, _, fn, args = queue[0]
            if until is not None and t > until:
                break
            heapq.heappop(queue)
            self.now = t
            fn(*args)
        if until is not None:
            self.now = until
