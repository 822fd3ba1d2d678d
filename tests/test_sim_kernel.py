"""Tests for the discrete-event simulation kernel (CSIM substitute)."""

from __future__ import annotations

import pytest

from repro.sim import Environment, LegacyEnvironment


class TestScheduling:
    def test_clock_advances_in_order(self):
        env = Environment()
        seen = []
        env.schedule(2.0, seen.append, "b")
        env.schedule(1.0, seen.append, "a")
        env.schedule(3.0, seen.append, "c")
        env.run()
        assert seen == ["a", "b", "c"]
        assert env.now == 3.0

    def test_fifo_at_same_timestamp(self):
        env = Environment()
        seen = []
        for x in "abc":
            env.schedule(1.0, seen.append, x)
        env.run()
        assert seen == ["a", "b", "c"]

    def test_run_until(self):
        env = Environment()
        seen = []
        env.schedule(1.0, seen.append, "a")
        env.schedule(5.0, seen.append, "b")
        env.run(until=2.0)
        assert seen == ["a"]
        assert env.now == 2.0
        env.run()
        assert seen == ["a", "b"]

    def test_nested_scheduling(self):
        env = Environment()
        seen = []

        def fire():
            seen.append(env.now)
            if env.now < 3:
                env.schedule(1.0, fire)

        env.schedule(1.0, fire)
        env.run()
        assert seen == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("env_cls", [Environment, LegacyEnvironment])
class TestClockNeverRunsBackwards:
    """A horizon before the clock and a negative delay are refused: a
    later event must never run before an earlier one."""

    def test_earlier_horizon_raises(self, env_cls):
        env = env_cls()
        seen = []
        env.schedule(5.0, seen.append, 5.0)
        env.run(until=10.0)
        with pytest.raises(ValueError):
            env.run(until=3.0)
        assert env.now == 10.0
        env.schedule(1.0, seen.append, 11.0)
        env.run()
        assert seen == [5.0, 11.0]

    def test_same_horizon_is_allowed(self, env_cls):
        env = env_cls()
        env.run(until=2.0)
        env.run(until=2.0)
        assert env.now == 2.0

    @pytest.mark.parametrize("delay", [-1.0, -1e-300, float("nan")])
    def test_negative_delay_raises(self, env_cls, delay):
        env = env_cls()
        with pytest.raises(ValueError):
            env.schedule(delay, lambda: None)
        assert env.pending_events == 0


class TestEvents:
    def test_succeed_resumes_waiters(self):
        env = Environment()
        ev = env.event()
        got = []
        ev.wait(lambda e: got.append(e.value))
        env.schedule(1.0, ev.succeed, 42)
        env.run()
        assert got == [42]

    def test_wait_on_triggered_event_fires_immediately(self):
        env = Environment()
        ev = env.event()
        ev.succeed("x")
        got = []
        ev.wait(lambda e: got.append(e.value))
        env.run()
        assert got == ["x"]

    def test_double_succeed_raises(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_timeout_value(self):
        env = Environment()
        t = env.timeout(2.5, value="done")
        got = []
        t.wait(lambda e: got.append((env.now, e.value)))
        env.run()
        assert got == [(2.5, "done")]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)


class TestProcesses:
    def test_simple_process(self):
        env = Environment()
        trace = []

        def proc():
            trace.append(env.now)
            yield env.timeout(1.0)
            trace.append(env.now)
            yield env.timeout(2.0)
            trace.append(env.now)
            return "finished"

        p = env.process(proc())
        env.run()
        assert trace == [0.0, 1.0, 3.0]
        assert p.triggered and p.value == "finished"

    def test_process_receives_event_values(self):
        env = Environment()

        def proc():
            v = yield env.timeout(1.0, value=7)
            return v * 2

        p = env.process(proc())
        env.run()
        assert p.value == 14

    def test_process_waits_on_process(self):
        env = Environment()

        def child():
            yield env.timeout(5.0)
            return "child-done"

        def parent():
            v = yield env.process(child())
            return f"saw {v}"

        p = env.process(parent())
        env.run()
        assert p.value == "saw child-done"
        assert env.now == 5.0

    def test_yielding_non_event_raises(self):
        env = Environment()

        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(TypeError):
            env.run()

    def test_all_of(self):
        env = Environment()
        done = []

        def proc():
            values = yield env.all_of([env.timeout(1, "a"), env.timeout(3, "b")])
            done.append((env.now, values))

        env.process(proc())
        env.run()
        assert done == [(3.0, ["a", "b"])]

    def test_all_of_empty(self):
        env = Environment()
        ev = env.all_of([])
        assert ev.triggered

    def test_any_of_first_wins(self):
        env = Environment()
        got = []

        def proc():
            v = yield env.any_of([env.timeout(5, "slow"), env.timeout(1, "fast")])
            got.append((env.now, v))

        env.process(proc())
        env.run()
        assert got == [(1.0, "fast")]

    def test_any_of_ignores_later_triggers(self):
        env = Environment()
        ev = env.any_of([env.timeout(1, "a"), env.timeout(2, "b")])
        env.run()
        assert ev.triggered and ev.value == "a"
