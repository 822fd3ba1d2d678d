"""The supervised routing core: :class:`RouteService`.

A synchronous engine (the asyncio socket front end in
:mod:`repro.service.server` is a thin adapter over it) built around
one invariant — **every submitted request resolves exactly one
terminal :class:`RouteResponse`**, whatever the workers do:

* **bounded intake / load shedding** — admission pushes into a bounded
  queue; a full queue resolves the request immediately with a typed
  ``overloaded`` error instead of building unbounded backlog;
* **route-plan cache** — admission and dispatch both probe the LRU
  (:mod:`repro.service.cache`); hits resolve without touching a
  worker and are tagged ``cache_hit=True``;
* **supervised workers** — each request runs in one of a fixed pool
  of persistent worker processes (:mod:`repro.service.worker`) over a
  per-worker pipe.  The dispatcher detects death (end-of-file on the
  pipe) and hangs (stale heartbeats), SIGKILLs and restarts the
  worker, and **requeues the in-flight request exactly once** with a
  seeded, deadline-capped backoff (:func:`repro.retry.retry_delay`);
* **per-request deadline** — one budget spans all attempts; when it
  expires the request resolves ``timeout`` and the worker still
  grinding on it is recycled;
* **circuit breaker + graceful degradation** — consecutive
  ``budget-exceeded`` / ``timeout`` failures per ``(scheme,
  topology)`` open a breaker; while open, requests go straight to the
  scheme's registered ``fallback`` (tagged ``degraded=True``), with a
  single half-open probe after the cooldown.  A lone
  ``budget-exceeded`` also falls back immediately — degradation is
  per-request, the breaker just skips the doomed primary attempt;
* **chaos hooks** — a seeded :class:`~repro.service.chaos.ChaosPlan`
  sabotages attempt-0 dispatches (kill / delay / drop / stall) so the
  robustness suite can prove the machinery above actually recovers.

Threading model: ``submit()`` (any thread) only touches the intake
queue, the cache, the counters lock and the wake-up socket; all worker
and breaker state belongs to the single dispatcher thread.  Futures are
resolved exactly once, guarded by the dispatch record's ``resolved``
flag.

The dispatcher runs on events: each pass ends in one
:func:`multiprocessing.connection.wait` on the workers' pipes (a
result, a heartbeat or end-of-file), the wake-up socket that
``submit()`` and ``close()`` write, and a timeout to the nearest timer:
a deadline, a staged chaos kill, a requeue backoff or a heartbeat
expiry (:meth:`RouteService._next_timer`).

The discipline is machine-checked: attributes carry ``# owned-by:
dispatcher`` / ``# guarded-by: _lock`` annotations and dispatcher-only
methods carry ``# thread: dispatcher``, which the
``dispatcher-ownership`` / ``guarded-mutation`` / ``lock-discipline``
rules of :mod:`repro.analysis.lint` verify over the AST, and the
protocol itself is verified exhaustively by ``python -m repro
modelcheck`` (:mod:`repro.analysis.model`).
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

from .. import registry
from ..parallel import kill_process
from ..retry import retry_delay
from ..topology import parse_topology
from .cache import CacheKey, RoutePlanCache, route_key
from .chaos import ChaosPlan
from .protocol import RouteRequest, RouteResponse
from .worker import worker_main

__all__ = ["CircuitBreaker", "RouteService", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`RouteService` (validated)."""

    workers: int = 2
    queue_bound: int = 64
    cache_capacity: int = 1024
    #: default per-request wall-clock budget (seconds, all attempts).
    request_deadline: float = 10.0
    #: crashed/hung dispatches are requeued at most this many times.
    retry_limit: int = 1
    retry_base: float = 0.005
    retry_factor: float = 2.0
    retry_jitter: float = 0.5
    heartbeat_interval: float = 0.05
    #: a worker silent for this long is declared hung and recycled.
    heartbeat_timeout: float = 2.0
    #: consecutive breaker-visible failures that open the circuit.
    breaker_threshold: int = 3
    #: seconds an open breaker waits before its half-open probe.
    breaker_cooldown: float = 5.0
    #: seeds the retry-jitter stream (and the chaos stream, see plan).
    seed: int = 1
    chaos: ChaosPlan | None = None

    def __post_init__(self) -> None:
        def require(ok: bool, name: str, why: str) -> None:
            if not ok:
                raise ValueError(
                    f"ServiceConfig.{name} = {getattr(self, name)!r}: {why}"
                )

        require(self.workers >= 1, "workers", "need at least one worker")
        require(self.queue_bound >= 1, "queue_bound", "need a positive bound")
        require(self.cache_capacity >= 0, "cache_capacity", "cannot be negative")
        require(self.request_deadline > 0, "request_deadline", "must be positive")
        require(self.retry_limit >= 0, "retry_limit", "cannot be negative")
        require(self.retry_base > 0, "retry_base", "must be positive")
        require(self.retry_factor >= 1.0, "retry_factor", "must be >= 1")
        require(0.0 <= self.retry_jitter <= 1.0, "retry_jitter", "must lie in [0, 1]")
        require(self.heartbeat_interval > 0, "heartbeat_interval", "must be positive")
        require(
            self.heartbeat_timeout > self.heartbeat_interval,
            "heartbeat_timeout",
            "must exceed the heartbeat interval",
        )
        require(self.breaker_threshold >= 1, "breaker_threshold", "need at least one")
        require(self.breaker_cooldown >= 0, "breaker_cooldown", "cannot be negative")


class CircuitBreaker:
    """Per-``(scheme, topology)`` consecutive-failure breaker.

    closed → (``threshold`` consecutive failures) → open → (after
    ``cooldown``) → one half-open probe → closed on success, straight
    back to open on failure.  Only failures the issue names —
    ``budget-exceeded`` and deadline timeouts — are recorded; typed
    request errors like ``unroutable`` never trip it.
    """

    def __init__(self, threshold: int, cooldown: float) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.trips = 0

    def allow(self, now: float) -> bool:
        """Whether a primary-scheme dispatch may proceed right now
        (grants the single half-open probe after the cooldown)."""
        if self.state == "closed":
            return True
        if self.state == "open" and now - self.opened_at >= self.cooldown:
            self.state = "half-open"
            return True
        return False  # open and cooling, or probe already in flight

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.threshold:
            if self.state != "open":
                self.trips += 1
            self.state = "open"
            self.opened_at = now

    def snapshot(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "failures": self.failures,
            "trips": self.trips,
        }


@dataclass
class _Dispatch:
    """One admitted request's mutable bookkeeping (dispatcher-owned
    after admission)."""

    seq: int
    request: RouteRequest
    scheme: str  # canonical primary scheme name
    fallback: str | None  # canonical fallback name, topology-checked
    cache_key: CacheKey
    future: Future[RouteResponse]
    deadline_abs: float
    submitted_at: float
    attempts: int = 0
    retries: int = 0
    not_before: float = 0.0
    degraded: bool = False  # dispatching via the fallback scheme
    kill_at: float | None = None  # staged chaos SIGKILL
    chaos_done: bool = False
    resolved: bool = False
    terminal: RouteResponse | None = field(default=None, repr=False)


class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    def __init__(self, ctx: BaseContext, heartbeat_interval: float) -> None:
        self._ctx = ctx
        self._hb = heartbeat_interval
        self.busy: _Dispatch | None = None
        self.pipe_broken = False
        self.spawn()

    def spawn(self) -> None:
        parent, child = self._ctx.Pipe()
        self.conn = parent
        self.process = self._ctx.Process(
            target=worker_main, args=(child,), kwargs={"heartbeat_interval": self._hb},
            daemon=True,
        )
        self.process.start()
        child.close()  # parent keeps only its end; EOF detection works
        self.last_heartbeat = time.monotonic()
        self.pipe_broken = False

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except OSError:
            pass
        kill_process(self.process, hard=True)
        self.conn.close()


#: Breaker-visible error codes (see :class:`CircuitBreaker`).
_BREAKER_ERRORS = ("budget-exceeded", "timeout")


class RouteService:
    """The supervised, cached, degradable routing engine.

    Use as a context manager::

        with RouteService(ServiceConfig(workers=2)) as svc:
            fut = svc.submit(RouteRequest(1, "mesh:8x8", "dual-path",
                                          (0, 0), ((7, 7), (3, 4))))
            response = fut.result()
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = RoutePlanCache(self.config.cache_capacity)
        self._intake: queue.Queue[_Dispatch] = queue.Queue(maxsize=self.config.queue_bound)
        self._pending: list[_Dispatch] = []  # owned-by: dispatcher
        self._workers: list[_WorkerHandle] = []  # owned-by: dispatcher
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}  # owned-by: dispatcher
        self._lock = threading.Lock()  # counters + seq + lifecycle flags
        self._drained = threading.Condition(self._lock)  # _outstanding hit 0
        self._seq = 0  # guarded-by: _lock
        self._outstanding = 0  # guarded-by: _lock
        self._wake_pending = False  # guarded-by: _lock
        self._counters = {  # guarded-by: _lock
            "submitted": 0,
            "completed": 0,  # terminal responses of any kind
            "succeeded": 0,  # ok=True, degraded=False
            "degraded": 0,  # ok=True via fallback
            "failed": 0,  # ok=False of any code
            "shed": 0,
            "cache_served": 0,
            "retries": 0,
            "worker_crashes": 0,
            "hung_workers": 0,
            "worker_restarts": 0,
            "timeouts": 0,
            "breaker_short_circuits": 0,  # open breaker -> direct fallback
            "budget_fallbacks": 0,  # per-request budget-exceeded fallback
            "chaos_kills": 0,
            "chaos_delays": 0,
            "chaos_drops": 0,
            "chaos_stalls": 0,
        }
        self._errors: dict[str, int] = {}  # guarded-by: _lock
        self._started = False  # guarded-by: _lock
        self._stopped = False  # guarded-by: _lock
        self._dispatcher: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "RouteService":
        with self._lock:
            if self._started:
                return self
            self._started = True
            # the dispatcher's wait reads what _wake writes
            self._wake_r, self._wake_w = socket.socketpair()
            self._wake_r.setblocking(False)
        from ..parallel import _pool_context

        # load the scheme catalogue before the workers fork, so that no
        # request pays for its imports, at admission or in a worker
        registry.known_names()
        ctx = _pool_context()
        # happens-before: the pool is built before the dispatcher
        # thread exists, so this write cannot race it
        self._workers = [  # lint: ignore[dispatcher-ownership]
            _WorkerHandle(ctx, self.config.heartbeat_interval)
            for _ in range(self.config.workers)
        ]
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="route-dispatcher", daemon=True
        )
        self._dispatcher.start()
        return self

    def __enter__(self) -> "RouteService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop the dispatcher, resolve everything still queued with a
        typed ``shutdown`` error, and reap the workers."""
        with self._lock:
            if self._stopped or not self._started:
                self._stopped = True
                return
            self._stopped = True
        self._wake()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
        for handle in self._workers:
            handle.shutdown()
        with self._lock:
            self._wake_r.close()
            self._wake_w.close()

    # -- admission ----------------------------------------------------

    def submit(self, request: RouteRequest) -> Future[RouteResponse]:
        """Admit one request; the returned future resolves to exactly
        one terminal :class:`RouteResponse` (it never raises)."""
        future: Future[RouteResponse] = Future()
        now = time.monotonic()
        with self._lock:
            self._seq += 1
            seq = self._seq
            self._counters["submitted"] += 1
            stopped = self._stopped or not self._started
        if stopped:
            return self._admission_reject(
                future, request, "shutdown", "service is not running"
            )

        try:
            spec = registry.get(request.scheme)
        except registry.UnknownSchemeError as exc:
            return self._admission_reject(future, request, "unknown-scheme", str(exc))
        try:
            topology = parse_topology(request.topology)
        except ValueError as exc:
            return self._admission_reject(future, request, "bad-request", str(exc))
        if not spec.supports(topology):
            return self._admission_reject(
                future,
                request,
                "unsupported-topology",
                f"{spec.name} is not defined on {topology}",
            )
        if not spec.routable:
            return self._admission_reject(
                future,
                request,
                "not-routable",
                f"{spec.name} produces no constructive route",
            )
        if not request.destinations:
            return self._admission_reject(
                future, request, "bad-request", "no destinations"
            )
        bad = [
            n
            for n in (request.source, *request.destinations)
            if not topology.is_node(n)
        ]
        if bad:
            return self._admission_reject(
                future, request, "bad-request", f"not a node: {bad[0]!r}"
            )

        key = route_key(
            request.topology, spec.name, request.source, request.destinations
        )
        cached = self.cache.get(key)
        if cached is not None:
            response = cached.replayed(request.request_id)
            self._account_terminal(response, cache_hit=True)
            future.set_result(response)
            return future

        fallback = spec.fallback_spec()
        fallback_name = (
            fallback.name
            if fallback is not None
            and fallback.routable
            and fallback.supports(topology)
            else None
        )
        deadline = request.deadline or self.config.request_deadline
        dispatch = _Dispatch(
            seq=seq,
            request=request,
            scheme=spec.name,
            fallback=fallback_name,
            cache_key=key,
            future=future,
            deadline_abs=now + deadline,
            submitted_at=now,
        )
        with self._lock:
            self._outstanding += 1
        try:
            self._intake.put_nowait(dispatch)
        except queue.Full:
            with self._lock:
                self._outstanding -= 1
                self._counters["shed"] += 1
                if not self._outstanding:
                    self._drained.notify_all()
            return self._admission_reject(
                future,
                request,
                "overloaded",
                f"intake queue full ({self.config.queue_bound} waiting)",
            )
        self._wake()
        return future

    def _wake(self) -> None:
        """Wake the dispatcher's wait.  The flag and its one byte change
        together under the lock, and the dispatcher takes both before it
        drains the intake, so a request put after that drain always
        finds a byte waiting to end the next wait."""
        with self._lock:
            if self._wake_pending:
                return
            self._wake_pending = True
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # closed: the dispatcher is gone

    def route(self, request: RouteRequest, timeout: float | None = None) -> RouteResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request).result(timeout=timeout)

    def _admission_reject(
        self,
        future: Future[RouteResponse],
        request: RouteRequest,
        code: str,
        detail: str,
    ) -> Future[RouteResponse]:
        response = RouteResponse(
            request_id=request.request_id, ok=False, error=code, detail=detail
        )
        self._account_terminal(response)
        future.set_result(response)
        return future

    # -- accounting ---------------------------------------------------

    def _account_terminal(self, response: RouteResponse, cache_hit: bool = False) -> None:
        with self._lock:
            self._counters["completed"] += 1
            if cache_hit:
                self._counters["cache_served"] += 1
            if response.ok:
                if response.degraded:
                    self._counters["degraded"] += 1
                else:
                    self._counters["succeeded"] += 1
            else:
                self._counters["failed"] += 1
                self._errors[response.error] = self._errors.get(response.error, 0) + 1

    def _resolve(self, dispatch: _Dispatch, response: RouteResponse, cache_hit: bool = False) -> None:  # thread: dispatcher
        """The only place a dispatched request turns terminal — the
        ``resolved`` guard enforces exactly-once even if two failure
        paths fire in one pass.  ``cache_hit`` marks a plan replayed
        from the cache."""
        if dispatch.resolved:
            return
        dispatch.resolved = True
        dispatch.terminal = response
        self._account_terminal(response, cache_hit=cache_hit)
        with self._lock:
            self._outstanding -= 1
            if not self._outstanding:
                self._drained.notify_all()
        dispatch.future.set_result(response)

    def outstanding(self) -> int:
        """Requests admitted but not yet terminal."""
        with self._lock:
            return self._outstanding

    def drain(self, timeout: float | None = None) -> dict[str, Any]:
        """Wait until every admitted request is terminal, then return
        :meth:`report` (raises ``TimeoutError`` past ``timeout``)."""
        with self._drained:
            if not self._drained.wait_for(lambda: not self._outstanding, timeout):
                raise TimeoutError(
                    f"{self._outstanding} requests still in flight after {timeout}s"
                )
        return self.report()

    def report(self) -> dict[str, Any]:
        """Counters + cache + breaker + worker snapshot (the drain
        report the CI chaos job asserts on).

        Safe from any thread: ``_breakers`` / ``_workers`` are only
        *read* here (the ownership lint checks mutations), and a
        slightly stale monitoring snapshot is acceptable."""
        with self._lock:
            counters = dict(self._counters)
            errors = dict(self._errors)
            outstanding = self._outstanding
        chaos = self.config.chaos
        return {
            "counters": counters,
            "errors": errors,
            "outstanding": outstanding,
            "cache": self.cache.stats(),
            "breakers": {
                f"{scheme}@{topo}": breaker.snapshot()
                for (scheme, topo), breaker in sorted(self._breakers.items())
            },
            "workers": [
                {"pid": handle.process.pid, "alive": handle.process.is_alive()}
                for handle in self._workers
            ],
            "chaos": None if chaos is None else chaos.to_json(),
        }

    # -- dispatcher ---------------------------------------------------

    def _breaker(self, dispatch: _Dispatch) -> CircuitBreaker:  # thread: dispatcher
        key = (dispatch.scheme, dispatch.request.topology)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.config.breaker_threshold, self.config.breaker_cooldown
            )
            self._breakers[key] = breaker
        return breaker

    def _requeue_or_fail(  # thread: dispatcher
        self, dispatch: _Dispatch, now: float, code: str, detail: str
    ) -> None:
        """Crash/hang recovery: requeue with deadline-capped backoff if
        the retry budget and the deadline both allow, else terminal."""
        remaining = dispatch.deadline_abs - now
        if dispatch.retries < self.config.retry_limit and remaining > 0:
            dispatch.retries += 1
            delay = retry_delay(
                dispatch.retries - 1,
                base=self.config.retry_base,
                factor=self.config.retry_factor,
                jitter=self.config.retry_jitter,
                seed=self.config.seed,
                request_id=dispatch.seq,
                remaining=remaining,
            )
            dispatch.not_before = now + delay
            dispatch.kill_at = None
            with self._lock:
                self._counters["retries"] += 1
            self._pending.append(dispatch)
            return
        self._resolve(
            dispatch,
            RouteResponse(
                request_id=dispatch.request.request_id,
                ok=False,
                error=code,
                detail=detail,
                attempts=dispatch.attempts,
            ),
        )

    def _reclaim(self, handle: _WorkerHandle, now: float, *, hung: bool) -> None:  # thread: dispatcher
        """A worker died or hung: recycle it and recover its request."""
        kill_process(handle.process, hard=True)
        exitcode = handle.process.exitcode
        handle.conn.close()
        dispatch = handle.busy
        handle.busy = None
        with self._lock:
            self._counters["hung_workers" if hung else "worker_crashes"] += 1
            self._counters["worker_restarts"] += 1
        handle.spawn()
        if dispatch is not None and not dispatch.resolved:
            detail = (
                f"worker hung (no heartbeat for {self.config.heartbeat_timeout:g}s)"
                if hung
                else f"worker died (exit code {exitcode})"
            )
            self._requeue_or_fail(dispatch, now, "worker-crashed", detail)

    def _on_result(  # thread: dispatcher
        self,
        handle: _WorkerHandle,
        dispatch: _Dispatch,
        outcome: tuple[bool, dict[str, Any]],
    ) -> None:
        now = time.monotonic()
        ok, payload = outcome
        breaker = self._breaker(dispatch)
        if ok:
            if not dispatch.degraded:
                breaker.record_success()
            response = RouteResponse(
                request_id=dispatch.request.request_id,
                ok=True,
                scheme=payload["scheme"],
                degraded=dispatch.degraded,
                traffic=payload["traffic"],
                max_hops=payload["max_hops"],
                attempts=dispatch.attempts,
            )
            if not dispatch.degraded:
                # degraded plans are never cached: once the breaker
                # closes, fresh requests should reach the primary again
                self.cache.put(dispatch.cache_key, response)
            self._resolve(dispatch, response)
            return
        code, detail = payload["error"], payload["detail"]
        if not dispatch.degraded and code in _BREAKER_ERRORS:
            breaker.record_failure(now)
        if (
            code == "budget-exceeded"
            and not dispatch.degraded
            and dispatch.fallback is not None
        ):
            # per-request graceful degradation: retry immediately on
            # the declared fallback scheme
            dispatch.degraded = True
            dispatch.not_before = now
            with self._lock:
                self._counters["budget_fallbacks"] += 1
            self._pending.append(dispatch)
            return
        self._resolve(
            dispatch,
            RouteResponse(
                request_id=dispatch.request.request_id,
                ok=False,
                error=code,
                detail=detail,
                attempts=dispatch.attempts,
            ),
        )

    def _send_job(self, handle: _WorkerHandle, dispatch: _Dispatch, now: float) -> bool:  # thread: dispatcher
        request = dispatch.request
        job: dict[str, Any] = {
            "seq": dispatch.seq,
            "topology": request.topology,
            "scheme": dispatch.fallback if dispatch.degraded else dispatch.scheme,
            "source": request.source,
            "destinations": request.destinations,
            "budget": request.budget,
        }
        plan = self.config.chaos
        action = None
        if plan is not None and not dispatch.chaos_done:
            action = plan.action(dispatch.seq, dispatch.attempts)
            dispatch.chaos_done = True
            if action == "kill":
                job["hold_s"] = plan.delay_s
                dispatch.kill_at = now + plan.delay_s / 2
            elif action == "delay":
                job["delay_s"] = plan.delay_s
            elif action == "drop":
                job["drop"] = True
            elif action == "stall":
                job["stall"] = True
            if action is not None:
                with self._lock:
                    self._counters[f"chaos_{action}s"] += 1
        try:
            handle.conn.send(job)
        except OSError:
            handle.pipe_broken = True
            dispatch.kill_at = None
            self._pending.insert(0, dispatch)
            return False
        dispatch.attempts += 1
        handle.busy = dispatch
        return True

    def _dispatch_loop(self) -> None:  # thread: dispatcher
        try:
            self._dispatch_ticks()
        except Exception:
            # a dispatcher bug must not leave futures hanging forever:
            # flip to stopped and fall through to terminal resolution
            with self._lock:
                self._stopped = True
        # shutdown: everything still admitted resolves `shutdown`
        while True:
            try:
                self._pending.append(self._intake.get_nowait())
            except queue.Empty:
                break
        for handle in self._workers:
            dispatch = handle.busy
            handle.busy = None
            if dispatch is not None:
                self._resolve(
                    dispatch,
                    RouteResponse(
                        request_id=dispatch.request.request_id,
                        ok=False,
                        error="shutdown",
                        detail="service stopped mid-request",
                        attempts=dispatch.attempts,
                    ),
                )
        for dispatch in self._pending:
            self._resolve(
                dispatch,
                RouteResponse(
                    request_id=dispatch.request.request_id,
                    ok=False,
                    error="shutdown",
                    detail="service stopped with the request queued",
                    attempts=dispatch.attempts,
                ),
            )
        self._pending = []

    def _next_timer(self, now: float) -> float:  # thread: dispatcher
        """When the dispatcher must next run without an event: the
        earliest deadline, staged chaos kill, pending requeue backoff or
        heartbeat expiry (``now`` for a worker whose send failed)."""
        timeout = self.config.heartbeat_timeout
        due = [
            now if handle.pipe_broken else handle.last_heartbeat + timeout
            for handle in self._workers
        ]
        for handle in self._workers:
            dispatch = handle.busy
            if dispatch is not None:
                due.append(dispatch.deadline_abs)
                if dispatch.kill_at is not None:
                    due.append(dispatch.kill_at)
        for dispatch in self._pending:
            due.append(dispatch.deadline_abs)
            if dispatch.not_before > now:
                due.append(dispatch.not_before)
        return min(due)

    def _dispatch_ticks(self) -> None:  # thread: dispatcher
        cfg = self.config
        while True:
            with self._lock:
                stopping = self._stopped
                if self._wake_pending:
                    # take the byte with the flag (see _wake)
                    self._wake_pending = False
                    self._wake_r.recv(1)
            now = time.monotonic()

            # 1. pull admissions into the dispatcher-owned pending list
            while True:
                try:
                    self._pending.append(self._intake.get_nowait())
                except queue.Empty:
                    break

            if stopping:
                break

            # 2. drain worker pipes (results + heartbeats)
            for handle in self._workers:
                try:
                    while handle.conn.poll():
                        message = handle.conn.recv()
                        if message[0] == "hb":
                            handle.last_heartbeat = now
                        elif message[0] == "res":
                            handle.last_heartbeat = now
                            dispatch = handle.busy
                            if (
                                dispatch is not None
                                and dispatch.seq == message[1]
                            ):
                                handle.busy = None
                                self._on_result(handle, dispatch, message[2])
                except (EOFError, OSError):
                    handle.pipe_broken = True

            # 3. staged chaos kills (mid-request SIGKILL)
            for handle in self._workers:
                dispatch = handle.busy
                if (
                    dispatch is not None
                    and dispatch.kill_at is not None
                    and now >= dispatch.kill_at
                ):
                    dispatch.kill_at = None
                    kill_process(handle.process, hard=True)

            # 4. worker health: a death is end-of-file on the pipe
            # (step 2); a silent worker is asked whether it is alive, to
            # tell a hang from a death
            for handle in self._workers:
                if handle.pipe_broken:
                    self._reclaim(handle, now, hung=False)
                elif now - handle.last_heartbeat > cfg.heartbeat_timeout:
                    self._reclaim(handle, now, hung=handle.process.is_alive())

            # 5. per-request deadlines — in flight and still queued
            for handle in self._workers:
                dispatch = handle.busy
                if dispatch is not None and now > dispatch.deadline_abs:
                    handle.busy = None
                    if not dispatch.degraded:
                        self._breaker(dispatch).record_failure(now)
                    with self._lock:
                        self._counters["timeouts"] += 1
                        self._counters["worker_restarts"] += 1
                    self._resolve(
                        dispatch,
                        RouteResponse(
                            request_id=dispatch.request.request_id,
                            ok=False,
                            error="timeout",
                            detail=f"deadline expired after "
                            f"{now - dispatch.submitted_at:.3f}s",
                            attempts=dispatch.attempts,
                        ),
                    )
                    # the worker is still grinding on the stale job:
                    # recycle it rather than poison the next request
                    kill_process(handle.process, hard=True)
                    handle.conn.close()
                    handle.spawn()
            still_pending = []
            for dispatch in self._pending:
                if now > dispatch.deadline_abs:
                    with self._lock:
                        self._counters["timeouts"] += 1
                    self._resolve(
                        dispatch,
                        RouteResponse(
                            request_id=dispatch.request.request_id,
                            ok=False,
                            error="timeout",
                            detail="deadline expired before dispatch",
                            attempts=dispatch.attempts,
                        ),
                    )
                else:
                    still_pending.append(dispatch)
            self._pending = still_pending

            # 6. dispatch to idle workers.  Cache replays and
            # circuit-open rejections cost no worker, so each idle
            # worker keeps pulling until it lands a real job (else a
            # burst of cache hits would drain at one per worker per
            # pass instead of resolving immediately).
            for handle in self._workers:
                while handle.busy is None and not handle.pipe_broken:
                    index = next(
                        (
                            i
                            for i, d in enumerate(self._pending)
                            if d.not_before <= now
                        ),
                        None,
                    )
                    if index is None:
                        break
                    dispatch = self._pending.pop(index)
                    cached = self.cache.get(dispatch.cache_key)
                    if cached is not None:
                        self._resolve(
                            dispatch,
                            cached.replayed(dispatch.request.request_id),
                            cache_hit=True,
                        )
                        continue
                    if not dispatch.degraded:
                        breaker = self._breaker(dispatch)
                        if not breaker.allow(now):
                            if dispatch.fallback is not None:
                                dispatch.degraded = True
                                with self._lock:
                                    self._counters["breaker_short_circuits"] += 1
                            else:
                                self._resolve(
                                    dispatch,
                                    RouteResponse(
                                        request_id=dispatch.request.request_id,
                                        ok=False,
                                        error="circuit-open",
                                        detail=f"{dispatch.scheme} is failing on "
                                        f"{dispatch.request.topology} and declares "
                                        "no fallback",
                                        attempts=dispatch.attempts,
                                    ),
                                )
                                continue
                    self._send_job(handle, dispatch, now)

            # 7. block until a pipe turns readable (a result, a
            # heartbeat or end-of-file), submit() or close() writes the
            # wake-up byte, or the nearest timer falls due
            due = self._next_timer(now)
            wait(
                [self._wake_r, *(handle.conn for handle in self._workers)],
                max(0.0, due - time.monotonic()),
            )
