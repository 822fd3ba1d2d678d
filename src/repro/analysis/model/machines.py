"""Formal models of the routing service's three core state machines.

Each factory returns a :class:`~repro.analysis.model.checker.Machine`
abstracting one protocol of :mod:`repro.service.supervisor`:

* :func:`request_lifecycle_machine` — one request's journey through
  admission, the bounded intake queue, cache replay, dispatch under
  chaos (kill/delay/drop/stall decided once, on attempt 0), breaker
  fallback degradation, the requeue-at-most-once retry rule, and
  deadline expiry.  Safety: exactly one terminal response, degraded
  plans never poison the cache, at most one requeue, the intake bound
  is never exceeded.  Liveness: every admitted request is eventually
  terminal (the deadline sweep is the universal rescue — it is enabled
  in every non-terminal phase, so no closed SCC avoids ``terminal``).
* :func:`circuit_breaker_machine` — the per-(scheme, topology)
  closed/open/half-open breaker with its consecutive-failure counter
  (saturating: the supervisor stops dispatching to an open breaker, so
  the counter physically cannot run past the trip point) and the
  single half-open probe granted after cooldown.
* :func:`worker_heartbeat_machine` — one worker's health loop:
  heartbeats, staleness, chaos stalls, crashes, and the supervisor's
  reclaim (kill + respawn + requeue).  The pipe is modelled explicitly
  so the checker proves a reply buffered by a dying worker can never be
  delivered to a later request (the supervisor closes the connection
  before respawning).

Every factory accepts a ``bug`` parameter that injects a *known*
defect (documented per machine).  The test suite uses these to pin the
checker's shortest-counterexample minimization against golden traces;
``bug=None`` is what `python -m repro modelcheck` verifies and what the
committed certificates describe.

Transitions carry the dotted path(s) of the supervisor code they
abstract; :mod:`repro.analysis.model.conformance` keeps those bindings
honest.
"""

from __future__ import annotations

from collections.abc import Callable

from .checker import Machine, SafetyProperty, Transition, View

__all__ = [
    "MACHINES",
    "UnknownMachineError",
    "build_machines",
    "circuit_breaker_machine",
    "request_lifecycle_machine",
    "worker_heartbeat_machine",
]


def _up(view: View, **updates: object) -> View:
    out = dict(view)
    out.update(updates)
    return out


# --- request lifecycle -----------------------------------------------

#: chaos outcomes under which the worker still produces a reply —
#: ``delay`` only slows the reply down, ``spent`` means the one-shot
#: chaos strike (attempt 0 only) is behind us, ``none`` was a clean run
_REPLY_OK = ("none", "delay", "spent")

#: actions :meth:`repro.service.chaos.ChaosPlan.action` may pick at
#: first dispatch, plus ``none`` for the unstruck majority
_CHAOS_CHOICES = ("none", "kill", "delay", "drop", "stall")


def request_lifecycle_machine(
    queue_bound: int = 2, retry_limit: int = 1, bug: str | None = None
) -> Machine:
    """The per-request protocol: submitted -> queued/shed -> dispatched
    (or cache-replayed) -> requeued-at-most-once -> terminal.

    Environment transitions (``env_*``) model the *other* requests the
    supervisor is juggling: intake backlog filling and draining, and a
    concurrent request warming the cache for our key.  ``terminals`` is
    a saturating count of terminal responses resolved for this request
    — the exactly-once property is ``terminals <= 1``.

    Injected defects:

    * ``bug="double-resolve"`` — deadline expiry no longer checks the
      ``resolved`` flag (models dropping the guard in
      :meth:`RouteService._resolve`), so an already-answered request
      can be answered again.
    * ``bug="cache-degraded"`` — a degraded fallback success is written
      to the cache, poisoning later replays.
    * ``bug="requeue-forever"`` — the retry budget is ignored, so a
      crash-looping worker requeues the same request past the limit.
    """
    occupied = lambda v: 1 if v["phase"] == "queued" else 0  # noqa: E731

    def terminalize(view: View, **extra: object) -> View:
        return _up(
            view,
            phase="terminal",
            terminals=min(int(view["terminals"]) + 1, 2),
            **extra,
        )

    def dispatch(view: View) -> View | list[View]:
        moved = _up(view, phase="dispatched")
        if view["chaos"] != "fresh":
            return moved
        # attempt 0: the chaos plan picks exactly one action (or none)
        return [_up(moved, chaos=choice) for choice in _CHAOS_CHOICES]

    def complete_ok(view: View) -> View:
        if bug == "cache-degraded":
            return terminalize(
                view, cached=True, poisoned=bool(view["poisoned"]) or bool(view["degraded"])
            )
        # degraded fallback results are served but never cached
        return terminalize(view, cached=bool(view["cached"]) or not view["degraded"])

    def requeue_or_fail(view: View) -> View:
        retries = int(view["retries"])
        if bug == "requeue-forever":
            return _up(
                view,
                phase="requeued",
                retries=min(retries + 1, retry_limit + 1),
                chaos="spent",
            )
        if retries < retry_limit:
            return _up(view, phase="requeued", retries=retries + 1, chaos="spent")
        return terminalize(view)

    deadline_phases = ("queued", "requeued", "dispatched")
    if bug == "double-resolve":
        deadline_phases += ("terminal",)

    transitions = (
        Transition(
            "admit",
            ("supervisor.RouteService.submit",),
            lambda v: v["phase"] == "submitted"
            and not v["cached"]
            and v["backlog"] < queue_bound,
            lambda v: _up(v, phase="queued"),
        ),
        Transition(
            "admit_cache_hit",
            ("supervisor.RouteService.submit", "cache.RoutePlanCache.get"),
            lambda v: v["phase"] == "submitted" and bool(v["cached"]),
            terminalize,
        ),
        Transition(
            "shed",
            ("supervisor.RouteService._admission_reject",),
            lambda v: v["phase"] == "submitted"
            and not v["cached"]
            and v["backlog"] >= queue_bound,
            terminalize,
        ),
        Transition(
            "env_enqueue",
            ("supervisor.RouteService.submit",),
            lambda v: int(v["backlog"]) + occupied(v) < queue_bound,
            lambda v: _up(v, backlog=int(v["backlog"]) + 1),
        ),
        Transition(
            "env_dequeue",
            ("supervisor.RouteService._dispatch_ticks",),
            lambda v: int(v["backlog"]) > 0,
            lambda v: _up(v, backlog=int(v["backlog"]) - 1),
        ),
        Transition(
            "env_cache_fill",
            ("cache.RoutePlanCache.put",),
            lambda v: not v["cached"],
            lambda v: _up(v, cached=True),
        ),
        Transition(
            "dispatch",
            ("supervisor.RouteService._send_job", "chaos.ChaosPlan.action"),
            lambda v: v["phase"] in ("queued", "requeued") and not v["cached"],
            dispatch,
        ),
        Transition(
            "dispatch_cache_replay",
            ("cache.RoutePlanCache.get", "supervisor.RouteService._resolve"),
            lambda v: v["phase"] in ("queued", "requeued") and bool(v["cached"]),
            terminalize,
        ),
        Transition(
            "complete_ok",
            ("supervisor.RouteService._on_result", "cache.RoutePlanCache.put"),
            lambda v: v["phase"] == "dispatched" and v["chaos"] in _REPLY_OK,
            complete_ok,
        ),
        Transition(
            "fail_typed",
            ("supervisor.RouteService._on_result", "supervisor.RouteService._resolve"),
            lambda v: v["phase"] == "dispatched" and v["chaos"] in _REPLY_OK,
            terminalize,
        ),
        Transition(
            "budget_fallback",
            ("supervisor.RouteService._on_result",),
            lambda v: v["phase"] == "dispatched"
            and v["chaos"] in _REPLY_OK
            and not v["degraded"],
            lambda v: _up(v, phase="requeued", degraded=True, chaos="spent"),
        ),
        Transition(
            "worker_crash",
            (
                "supervisor.RouteService._reclaim",
                "supervisor.RouteService._requeue_or_fail",
            ),
            lambda v: v["phase"] == "dispatched",
            requeue_or_fail,
        ),
        Transition(
            "worker_hang",
            (
                "supervisor.RouteService._reclaim",
                "supervisor.RouteService._requeue_or_fail",
            ),
            lambda v: v["phase"] == "dispatched",
            requeue_or_fail,
        ),
        Transition(
            "deadline_expire",
            ("supervisor.RouteService._dispatch_ticks",),
            lambda v: v["phase"] in deadline_phases,
            terminalize,
        ),
    )
    safety = (
        SafetyProperty(
            "exactly-one-terminal",
            lambda v: int(v["terminals"]) <= 1,
            "a request resolves at most one terminal response",
        ),
        SafetyProperty(
            "requeue-at-most-once",
            lambda v: int(v["retries"]) <= retry_limit,
            "crash/hang recovery retries a request at most retry_limit times",
        ),
        SafetyProperty(
            "bounded-intake",
            lambda v: int(v["backlog"]) + (1 if v["phase"] == "queued" else 0)
            <= queue_bound,
            "intake occupancy never exceeds the configured queue bound",
        ),
        SafetyProperty(
            "never-cache-degraded",
            lambda v: not v["poisoned"],
            "degraded fallback plans are never written to the cache",
        ),
    )
    return Machine(
        name="request-lifecycle",
        fields=(
            "phase",
            "backlog",
            "retries",
            "terminals",
            "degraded",
            "cached",
            "poisoned",
            "chaos",
        ),
        initial={
            "phase": "submitted",
            "backlog": 0,
            "retries": 0,
            "terminals": 0,
            "degraded": False,
            "cached": False,
            "poisoned": False,
            "chaos": "fresh",
        },
        transitions=transitions,
        safety=safety,
        liveness="admitted-eventually-terminal",
        goal=lambda v: v["phase"] == "terminal",
        params={
            "queue_bound": queue_bound,
            "retry_limit": retry_limit,
            "bug": bug,
        },
    )


# --- circuit breaker -------------------------------------------------


def circuit_breaker_machine(threshold: int = 3, bug: str | None = None) -> Machine:
    """The per-(scheme, topology) breaker: closed -> open after
    ``threshold`` consecutive breaker-visible failures -> one half-open
    probe after cooldown -> closed on success, back to open on failure.

    The failure counter saturates at the trip point, mirroring the
    supervisor: an open breaker routes requests to the fallback, so no
    further primary failures can be recorded against it.

    ``bug="off-by-one"`` models the classic trip-guard mistake
    (``> threshold`` instead of ``>= threshold``): one extra failure
    slips through while the breaker is still closed, violating both
    ``closed-implies-under-threshold`` (after ``threshold`` failures)
    and ``failures-within-threshold`` (after ``threshold + 1``).
    """
    cap = threshold + 1 if bug == "off-by-one" else threshold

    def tripped(failures: int) -> bool:
        if bug == "off-by-one":
            return failures > threshold
        return failures >= threshold

    def record_failure(view: View) -> View:
        failures = min(int(view["failures"]) + 1, cap)
        if tripped(failures):
            return _up(view, mode="open", failures=failures, cooling=True)
        return _up(view, failures=failures)

    transitions = (
        Transition(
            "record_success",
            ("supervisor.CircuitBreaker.record_success",),
            lambda v: v["mode"] == "closed",
            lambda v: _up(v, failures=0),
        ),
        Transition(
            "record_failure",
            ("supervisor.CircuitBreaker.record_failure",),
            lambda v: v["mode"] == "closed",
            record_failure,
        ),
        Transition(
            "cooldown_elapse",
            ("supervisor.CircuitBreaker.allow",),
            lambda v: v["mode"] == "open" and bool(v["cooling"]),
            lambda v: _up(v, cooling=False),
        ),
        Transition(
            "half_open_probe",
            ("supervisor.CircuitBreaker.allow",),
            lambda v: v["mode"] == "open" and not v["cooling"],
            lambda v: _up(v, mode="half-open", probe=True),
        ),
        Transition(
            "probe_success",
            ("supervisor.CircuitBreaker.record_success",),
            lambda v: v["mode"] == "half-open",
            lambda v: _up(v, mode="closed", failures=0, probe=False),
        ),
        Transition(
            "probe_failure",
            ("supervisor.CircuitBreaker.record_failure",),
            lambda v: v["mode"] == "half-open",
            lambda v: _up(
                v,
                mode="open",
                cooling=True,
                probe=False,
                failures=min(int(v["failures"]) + 1, cap),
            ),
        ),
    )
    safety = (
        SafetyProperty(
            "failures-within-threshold",
            lambda v: int(v["failures"]) <= threshold,
            "the consecutive-failure counter never runs past the trip point",
        ),
        SafetyProperty(
            "closed-implies-under-threshold",
            lambda v: v["mode"] != "closed" or int(v["failures"]) < threshold,
            "a breaker at the failure threshold cannot still be closed",
        ),
        SafetyProperty(
            "probe-implies-half-open",
            lambda v: bool(v["probe"]) == (v["mode"] == "half-open"),
            "exactly the half-open state carries the single probe grant",
        ),
    )
    return Machine(
        name="circuit-breaker",
        fields=("mode", "failures", "cooling", "probe"),
        initial={"mode": "closed", "failures": 0, "cooling": False, "probe": False},
        transitions=transitions,
        safety=safety,
        liveness="eventually-closed",
        goal=lambda v: v["mode"] == "closed",
        params={"threshold": threshold, "bug": bug},
    )


# --- worker heartbeat / respawn --------------------------------------


def worker_heartbeat_machine(bug: str | None = None) -> Machine:
    """One worker's health protocol as the dispatcher sees it.

    ``status`` is the dispatcher's view of the heartbeat stream:
    ``fresh`` (recent beat), ``stale`` (beats missed but inside the
    timeout), ``stalled`` (past the timeout — chaos stall or a genuine
    wedge), ``dead`` (process gone).  ``stale_reply`` models a reply a
    crashing worker may leave buffered in its pipe; the supervisor
    closes the connection during reclaim precisely so that the buffered
    bytes can never be read back and routed to a later request.

    ``bug="leaky-pipe"`` drops that close: the respawned worker's slot
    still holds the dead worker's buffered reply, violating
    ``stale-reply-only-while-dead`` and then ``no-misrouted-reply``.
    """
    alive = ("fresh", "stale", "stalled")

    def crash(view: View) -> list[View]:
        if view["busy"]:
            # the dying worker may or may not have flushed a reply
            return [
                _up(view, status="dead", stale_reply=True),
                _up(view, status="dead", stale_reply=False),
            ]
        return [_up(view, status="dead")]

    def reclaim(view: View) -> View:
        if bug == "leaky-pipe":
            return _up(view, status="fresh", busy=False)
        # conn.close() before respawn drops anything left in the pipe
        return _up(view, status="fresh", busy=False, stale_reply=False)

    transitions = (
        Transition(
            "assign_job",
            ("supervisor.RouteService._send_job",),
            lambda v: v["status"] == "fresh" and not v["busy"],
            lambda v: _up(v, busy=True),
        ),
        Transition(
            "deliver_result",
            ("supervisor.RouteService._on_result",),
            lambda v: bool(v["busy"])
            and v["status"] in ("fresh", "stale")
            and not v["stale_reply"],
            lambda v: _up(v, busy=False),
        ),
        Transition(
            "deliver_stale_reply",
            ("supervisor.RouteService._on_result",),
            lambda v: bool(v["stale_reply"]) and v["status"] == "fresh",
            lambda v: _up(v, misrouted=True, stale_reply=False),
        ),
        Transition(
            "heartbeat",
            ("supervisor.RouteService._dispatch_ticks", "worker.worker_main"),
            lambda v: v["status"] == "stale",
            lambda v: _up(v, status="fresh"),
        ),
        Transition(
            "miss_heartbeats",
            ("supervisor.RouteService._dispatch_ticks",),
            lambda v: v["status"] == "fresh",
            lambda v: _up(v, status="stale"),
        ),
        Transition(
            "worker_stall",
            ("chaos.ChaosPlan.action",),
            lambda v: v["status"] in ("fresh", "stale"),
            lambda v: _up(v, status="stalled"),
        ),
        Transition(
            "worker_crash",
            ("chaos.ChaosPlan.action",),
            lambda v: v["status"] in alive,
            crash,
        ),
        Transition(
            "detect_death",
            ("supervisor.RouteService._reclaim",),
            lambda v: v["status"] == "dead",
            reclaim,
        ),
        Transition(
            "detect_hang",
            ("supervisor.RouteService._reclaim",),
            lambda v: v["status"] == "stalled",
            reclaim,
        ),
    )
    safety = (
        SafetyProperty(
            "no-misrouted-reply",
            lambda v: not v["misrouted"],
            "a dead worker's buffered reply is never delivered to a later request",
        ),
        SafetyProperty(
            "stale-reply-only-while-dead",
            lambda v: not v["stale_reply"] or v["status"] == "dead",
            "reclaim closes the pipe, so buffered replies die with the worker",
        ),
    )
    return Machine(
        name="worker-heartbeat",
        fields=("status", "busy", "stale_reply", "misrouted"),
        initial={
            "status": "fresh",
            "busy": False,
            "stale_reply": False,
            "misrouted": False,
        },
        transitions=transitions,
        safety=safety,
        liveness="eventually-healthy-idle",
        goal=lambda v: v["status"] == "fresh" and not v["busy"],
        params={"bug": bug},
    )


# --- registry --------------------------------------------------------

#: machine name -> zero-argument factory with production parameters
MACHINES: dict[str, Callable[[], Machine]] = {
    "request-lifecycle": request_lifecycle_machine,
    "circuit-breaker": circuit_breaker_machine,
    "worker-heartbeat": worker_heartbeat_machine,
}


class UnknownMachineError(ValueError):
    def __init__(self, name: str):
        known = ", ".join(sorted(MACHINES))
        super().__init__(f"unknown machine {name!r} (known: {known})")


def build_machines(only: list[str] | None = None) -> list[Machine]:
    """The production machines, in registry order, optionally filtered
    to ``only`` (raises :class:`UnknownMachineError` on a bad name)."""
    names = list(MACHINES) if not only else list(dict.fromkeys(only))
    for name in names:
        if name not in MACHINES:
            raise UnknownMachineError(name)
    return [MACHINES[name]() for name in names]
