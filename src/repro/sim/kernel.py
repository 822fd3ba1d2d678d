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

Fast path
---------

Most scheduled callbacks in a wormhole run are *immediate*: worm
advancement retries after a channel release, :meth:`Event.succeed`
waiter wake-ups, and :class:`Process` steps are all ``schedule(0.0,
...)``.  Pushing those through the binary heap costs two O(log n)
sift operations each.  :class:`Environment` therefore keeps a second
lane — a plain FIFO deque — for zero-delay entries and merges the two
lanes by their global ``(time, sequence)`` stamps at dispatch, so the
execution order (and hence every simulation result) is bit-identical
to a single-calendar kernel while the dominant events cost O(1).

:class:`LegacyEnvironment` retains the original heap-only calendar.
It exists for benchmarking (``benchmarks/bench_kernel_throughput.py``
measures the fast path's speedup against it) and for parity tests; it
is not used by the simulators.  The benchmark and the parity tests
swap it in for a whole run by replacing the ``Environment`` attribute
of :mod:`repro.sim.runner`, whose run functions build every
reference-engine calendar through it.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Generator, Iterable


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
            self.env.wake_all(self, self.callbacks)
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
        if delay < 0:
            raise ValueError("negative delay")
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


class Environment:
    """The event calendar: simulated clock plus a priority queue of
    timed callbacks and a FIFO lane of immediate (zero-delay) ones.

    Every entry carries a global sequence number; dispatch always runs
    the entry with the smallest ``(time, sequence)``, regardless of
    lane, which preserves the seed kernel's strict scheduling order.
    """

    __slots__ = ("now", "_queue", "_immediate", "_counter")

    def __init__(self):
        self.now = 0.0
        self._queue: list = []
        self._immediate: deque = deque()
        self._counter = 0

    def schedule(self, delay: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated time units."""
        self._counter = c = self._counter + 1
        if delay == 0.0:
            self._immediate.append((self.now, c, fn, args))
        else:
            heapq.heappush(self._queue, (self.now + delay, c, fn, args))

    def wake_all(self, event: Event, callbacks: Iterable[Callable]) -> None:
        """Append ``cb(event)`` for each callback to the immediate lane
        (FIFO, equivalent to per-callback ``schedule(0.0, cb, event)``)."""
        now = self.now
        c = self._counter
        append = self._immediate.append
        args = (event,)
        for cb in callbacks:
            c += 1
            append((now, c, cb, args))
        self._counter = c

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

    def run(self, until: float | None = None) -> None:
        """Process events until the calendar empties or ``until``.

        The hot loop merges the heap and the immediate deque by
        ``(time, sequence)``.  Immediate entries were stamped with the
        clock value at scheduling time, which can never exceed the
        current clock, so an immediate entry is overdue the moment it
        is observed; the only question is whether an *earlier-stamped*
        heap entry at the same timestamp must run first.
        """
        queue = self._queue
        immediate = self._immediate
        heappop = heapq.heappop
        popleft = immediate.popleft
        if until is None:
            while True:
                if immediate:
                    if queue and queue[0] < immediate[0]:
                        entry = heappop(queue)
                        self.now = entry[0]
                    else:
                        # an immediate entry's stamp always equals the
                        # clock at dispatch, so `now` needs no update
                        entry = popleft()
                elif queue:
                    entry = heappop(queue)
                    self.now = entry[0]
                else:
                    return
                entry[2](*entry[3])
        # bounded run: check the horizon before dispatching each entry
        while queue or immediate:
            if immediate and not (queue and queue[0] < immediate[0]):
                entry = immediate[0]
                if entry[0] > until:
                    break
                popleft()
            else:
                entry = queue[0]
                if entry[0] > until:
                    break
                heappop(queue)
                self.now = entry[0]
            entry[2](*entry[3])
        self.now = until

    @property
    def pending_events(self) -> int:
        return len(self._queue) + len(self._immediate)


class LegacyEnvironment(Environment):
    """The seed kernel: every callback — immediate or timed — goes
    through the binary heap.

    Scheduling order is identical to :class:`Environment` (both
    dispatch in strict ``(time, sequence)`` order), so a simulation run
    on either kernel produces bit-identical results; this class is the
    reference/baseline the throughput benchmark and parity tests
    compare against.
    """

    __slots__ = ()

    def schedule(self, delay: float, fn: Callable, *args) -> None:
        self._counter += 1
        heapq.heappush(self._queue, (self.now + delay, self._counter, fn, args))

    def wake_all(self, event: Event, callbacks: Iterable[Callable]) -> None:
        for cb in callbacks:
            self.schedule(0.0, cb, event)

    def run(self, until: float | None = None) -> None:
        queue = self._queue
        while queue:
            t, _, fn, args = queue[0]
            if until is not None and t > until:
                self.now = until
                return
            heapq.heappop(queue)
            self.now = t
            fn(*args)
        if until is not None:
            self.now = until
