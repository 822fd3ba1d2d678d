"""Unit + integration tests for the resilient routing service.

Covers the wire protocol, the route-plan cache, the circuit breaker,
graceful degradation through registered fallbacks, load shedding,
deadlines, and the socket front end — everything except the chaos
fault-injection matrix, which lives in `test_service_chaos.py`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest

from repro import registry
from repro.models.request import MulticastRequest
from repro.service import (
    ChaosPlan,
    CircuitBreaker,
    RoutePlanCache,
    RouteRequest,
    RouteResponse,
    RouteService,
    ServiceClient,
    ServiceConfig,
    ServiceOverloaded,
)
from repro.service.cache import route_key
from repro.service.protocol import ProtocolError, decode_line, encode_line
from repro.service.server import serve
from repro.topology import Mesh2D


class TestProtocol:
    def test_request_roundtrip_mesh_nodes(self):
        request = RouteRequest(
            request_id=7,
            topology="mesh:8x8",
            scheme="dual-path",
            source=(0, 0),
            destinations=((7, 7), (3, 4)),
            budget=1000,
            deadline=2.5,
        )
        wire = json.loads(encode_line(request.to_json()))
        back = RouteRequest.from_json(wire)
        assert back == request
        assert isinstance(back.source, tuple)
        assert all(isinstance(d, tuple) for d in back.destinations)

    def test_request_roundtrip_cube_nodes(self):
        request = RouteRequest(
            request_id=1,
            topology="cube:4",
            scheme="greedy-st",
            source=0,
            destinations=(3, 9, 15),
        )
        back = RouteRequest.from_json(json.loads(encode_line(request.to_json())))
        assert back == request
        assert isinstance(back.source, int)

    def test_response_roundtrip(self):
        response = RouteResponse(
            request_id=9,
            ok=True,
            scheme="sorted-mp",
            degraded=True,
            traffic=14,
            max_hops=9,
            attempts=2,
        )
        assert RouteResponse.from_json(response.to_json()) == response
        error = RouteResponse(
            request_id=10, ok=False, error="timeout", detail="too slow", attempts=1
        )
        assert RouteResponse.from_json(error.to_json()) == error

    def test_error_code_vocabulary_enforced(self):
        with pytest.raises(ValueError):
            RouteResponse(request_id=1, ok=False, error="kaboom")
        with pytest.raises(ValueError):
            RouteResponse(request_id=1, ok=True, error="timeout")

    def test_replayed_tags_cache_hit(self):
        response = RouteResponse(
            request_id=1, ok=True, scheme="dual-path", traffic=5, max_hops=3, attempts=2
        )
        replay = response.replayed(42)
        assert replay.request_id == 42
        assert replay.cache_hit and replay.attempts == 0
        assert replay.traffic == response.traffic

    def test_decode_line_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1,2,3]\n")
        with pytest.raises(ProtocolError):
            RouteRequest.from_json({"op": "route"})

    def test_require_raises_typed(self):
        shed = RouteResponse(request_id=1, ok=False, error="overloaded", detail="full")
        with pytest.raises(ServiceOverloaded):
            shed.require()
        ok = RouteResponse(request_id=1, ok=True, scheme="x", traffic=1, max_hops=1)
        assert ok.require() is ok


class TestRoutePlanCache:
    def test_lru_eviction_order(self):
        cache = RoutePlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_counters_and_hit_rate(self):
        cache = RoutePlanCache(capacity=4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1 and stats["capacity"] == 4

    def test_zero_capacity_stores_nothing(self):
        cache = RoutePlanCache(capacity=0)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert cache.misses == 2 - 1  # one counted miss

    def test_key_ignores_destination_order(self):
        a = route_key("mesh:8x8", "dual-path", (0, 0), ((1, 1), (2, 2)))
        b = route_key("mesh:8x8", "dual-path", (0, 0), ((2, 2), (1, 1)))
        assert a == b
        assert a != route_key("mesh:8x8", "dual-path", (1, 0), ((1, 1), (2, 2)))


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers(self):
        breaker = CircuitBreaker(threshold=3, cooldown=0.05)
        t = 100.0
        assert breaker.allow(t)
        for _ in range(3):
            breaker.record_failure(t)
        assert breaker.state == "open" and breaker.trips == 1
        assert not breaker.allow(t + 0.01)  # still cooling
        assert breaker.allow(t + 0.06)  # the half-open probe
        assert not breaker.allow(t + 0.06)  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow(t + 0.07)

    def test_failed_probe_reopens_immediately(self):
        breaker = CircuitBreaker(threshold=2, cooldown=0.05)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.allow(0.1)  # half-open
        breaker.record_failure(0.1)
        assert breaker.state == "open"
        assert not breaker.allow(0.11)

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        assert breaker.state == "closed"


class TestChaosPlan:
    def test_deterministic_and_attempt0_only(self):
        plan = ChaosPlan(seed=3, kill_rate=0.2, delay_rate=0.2, drop_rate=0.1)
        actions = [plan.action(i, 0) for i in range(200)]
        assert actions == [plan.action(i, 0) for i in range(200)]
        assert all(plan.action(i, 1) is None for i in range(200))
        hit = sum(1 for a in actions if a is not None)
        assert 0.3 < hit / 200 < 0.7  # close to the 50% aggregate rate
        assert {"kill", "delay", "drop"} <= set(a for a in actions if a)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(seed=1, kill_rate=0.6, delay_rate=0.6)
        with pytest.raises(ValueError):
            ChaosPlan(seed=1, kill_rate=-0.1)

    def test_json_roundtrip(self):
        plan = ChaosPlan(seed=5, kill_rate=0.1, delay_rate=0.2, delay_s=0.01)
        assert ChaosPlan.from_json(json.loads(json.dumps(plan.to_json()))) == plan


def _mesh_request(request_id, dests=((7, 7), (3, 4), (1, 6)), scheme="dual-path"):
    return RouteRequest(
        request_id=request_id,
        topology="mesh:8x8",
        scheme=scheme,
        source=(0, 0),
        destinations=dests,
    )


class TestRouteService:
    def test_route_matches_direct_registry_call(self):
        with RouteService(ServiceConfig(workers=1)) as svc:
            response = svc.route(_mesh_request(1), timeout=30)
        assert response.ok and not response.degraded
        spec = registry.get("dual-path")
        route = spec.fn(MulticastRequest(Mesh2D(8, 8), (0, 0), ((7, 7), (3, 4), (1, 6))))
        assert response.traffic == route.traffic
        assert response.max_hops == max(
            route.dest_hops(((7, 7), (3, 4), (1, 6))).values()
        )
        assert response.scheme == "dual-path"

    def test_cache_hits_and_counters(self):
        with RouteService(ServiceConfig(workers=1)) as svc:
            first = svc.route(_mesh_request(1), timeout=30)
            second = svc.route(_mesh_request(2), timeout=30)
            report = svc.drain(timeout=30)
        assert not first.cache_hit and second.cache_hit
        assert second.traffic == first.traffic
        assert second.request_id == 2
        assert report["counters"]["cache_served"] == 1
        assert report["cache"]["hits"] == 1

    def test_burst_cache_hits_reconcile(self):
        # identical requests submitted back to back miss at admission;
        # the dispatcher serves all but the first from the plan the
        # first one caches, and each cache-served request counts one hit
        with RouteService(ServiceConfig(workers=1)) as svc:
            futures = [svc.submit(_mesh_request(i)) for i in range(1, 9)]
            responses = [f.result(timeout=30) for f in futures]
            report = svc.drain(timeout=30)
        assert sum(r.cache_hit for r in responses) == 7
        assert report["cache"]["hits"] == report["counters"]["cache_served"] > 0

    def test_typed_admission_errors(self):
        with RouteService(ServiceConfig(workers=1)) as svc:
            unknown = svc.route(_mesh_request(1, scheme="nope"), timeout=30)
            unsupported = svc.route(
                RouteRequest(2, "torus:4x2", "sorted-mp", (0, 0), ((1, 1),)),
                timeout=30,
            )
            bad_node = svc.route(
                RouteRequest(3, "mesh:4x4", "dual-path", (0, 0), ((9, 9),)),
                timeout=30,
            )
            bad_topo = svc.route(
                RouteRequest(4, "blob:9", "dual-path", (0, 0), ((1, 1),)), timeout=30
            )
            no_dests = svc.route(
                RouteRequest(5, "mesh:4x4", "dual-path", (0, 0), ()), timeout=30
            )
        assert unknown.error == "unknown-scheme"
        assert unsupported.error == "unsupported-topology"
        assert bad_node.error == "bad-request"
        assert bad_topo.error == "bad-request"
        assert no_dests.error == "bad-request"

    def test_invalid_route_is_a_bad_request(self, monkeypatch):
        """Routers do not check their output; the worker does, before a
        route leaves the service."""
        import dataclasses

        from repro.models import MulticastTree
        from repro.service import worker

        def stray(request):  # one arc from the source, far from any destination
            return MulticastTree(request.topology, request.source, (((0, 0), (1, 0)),))

        def broken_spec(name):
            return dataclasses.replace(registry.get(name), fn=stray)

        monkeypatch.setattr(worker, "get_spec", broken_spec)
        job = {"scheme": "xfirst", "topology": "mesh:4x4",
               "source": (0, 0), "destinations": ((3, 3),)}
        ok, body = worker.compute_route({}, job)
        assert not ok
        assert body["error"] == "bad-request"
        assert "does not reach" in body["detail"]

    def test_budget_exhaustion_degrades_to_fallback(self):
        """A single `omp` request over budget falls back to the Ch. 5
        `sorted-mp` heuristic for the same problem, tagged degraded."""
        with RouteService(ServiceConfig(workers=1)) as svc:
            response = svc.route(
                RouteRequest(
                    1,
                    "mesh:6x6",
                    "omp",
                    (0, 0),
                    ((5, 5), (2, 3), (4, 1), (0, 5), (5, 0)),
                    budget=10,
                ),
                timeout=30,
            )
            report = svc.drain(timeout=30)
        assert response.ok and response.degraded
        assert response.scheme == "sorted-mp"
        assert report["counters"]["budget_fallbacks"] == 1
        assert report["counters"]["degraded"] == 1

    def test_breaker_opens_and_short_circuits_to_fallback(self):
        """After `breaker_threshold` consecutive budget failures, the
        primary is skipped entirely: later requests dispatch once (to
        the fallback) instead of burning a doomed exact search."""
        config = ServiceConfig(
            workers=1,
            breaker_threshold=2,
            breaker_cooldown=60.0,
            cache_capacity=0,
        )
        dest_sets = [
            ((5, 5), (2, 3), (4, 1), (0, 5), (5, 0)),
            ((5, 4), (1, 3), (4, 2), (0, 5), (5, 0)),
            ((5, 3), (2, 4), (3, 1), (1, 5), (5, 0)),
            ((4, 5), (2, 2), (4, 3), (0, 4), (5, 1)),
        ]
        responses = []
        with RouteService(config) as svc:
            for i, dests in enumerate(dest_sets):
                responses.append(
                    svc.route(
                        RouteRequest(i, "mesh:6x6", "omp", (0, 0), dests, budget=10),
                        timeout=60,
                    )
                )
            report = svc.drain(timeout=30)
        assert all(r.ok and r.degraded and r.scheme == "sorted-mp" for r in responses)
        # the first two burned a primary attempt then fell back (two
        # dispatches); once the breaker opened, requests went straight
        # to the fallback (one dispatch)
        assert [r.attempts for r in responses] == [2, 2, 1, 1]
        breaker = report["breakers"]["omp@mesh:6x6"]
        assert breaker["state"] == "open" and breaker["trips"] == 1
        assert report["counters"]["breaker_short_circuits"] == 2

    def test_load_shedding_typed_overloaded(self):
        """With a tiny intake bound and slow workers, extra admissions
        shed immediately with a typed `overloaded` response."""
        config = ServiceConfig(
            workers=1,
            queue_bound=2,
            cache_capacity=0,
            chaos=ChaosPlan(seed=1, delay_rate=1.0, delay_s=0.3),
        )
        with RouteService(config) as svc:
            futures = [
                svc.submit(_mesh_request(i, dests=((7, 7 - i % 4), (3, i % 8))))
                for i in range(12)
            ]
            responses = [f.result(timeout=60) for f in futures]
            report = svc.drain(timeout=60)
        shed = [r for r in responses if not r.ok]
        assert shed and all(r.error == "overloaded" for r in shed)
        assert all(r.attempts == 0 for r in shed)
        assert report["counters"]["shed"] == len(shed)
        assert report["counters"]["completed"] == 12

    def test_deadline_expires_as_typed_timeout(self):
        """A dropped response leaves only the per-request deadline;
        the request resolves `timeout`, never hangs."""
        config = ServiceConfig(
            workers=1,
            request_deadline=0.4,
            cache_capacity=0,
            chaos=ChaosPlan(seed=1, drop_rate=1.0),
        )
        with RouteService(config) as svc:
            response = svc.route(_mesh_request(1), timeout=30)
            report = svc.drain(timeout=30)
        assert response.error == "timeout"
        assert report["counters"]["timeouts"] >= 1

    def test_submit_after_close_is_typed_shutdown(self):
        svc = RouteService(ServiceConfig(workers=1)).start()
        svc.close()
        response = svc.submit(_mesh_request(1)).result(timeout=10)
        assert response.error == "shutdown"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(retry_jitter=2.0)
        with pytest.raises(ValueError):
            ServiceConfig(heartbeat_timeout=0.01, heartbeat_interval=0.05)


class TestFallbackConformance:
    def test_declared_fallbacks_resolve_and_match_model(self):
        """Every declared fallback is a registered, routable scheme
        producing the same Chapter 3 result model as its primary —
        degraded responses stay drop-in comparable."""
        declaring = [s for s in registry.specs() if s.fallback is not None]
        assert declaring, "expected at least the exact solvers to declare fallbacks"
        for spec in declaring:
            fallback = spec.fallback_spec()
            assert fallback is not None
            assert fallback.routable
            assert fallback.result_model == spec.result_model
            assert fallback.name != spec.name

    def test_self_fallback_rejected(self):
        with pytest.raises(ValueError, match="own fallback"):
            registry.AlgorithmSpec(name="x", kind="exact", fallback="x")


class TestSocketServer:
    def test_roundtrip_stats_and_shutdown(self, tmp_path):
        path = str(tmp_path / "route.sock")
        thread = threading.Thread(
            target=serve,
            args=(path,),
            kwargs={"config": ServiceConfig(workers=1)},
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(path):
            assert time.monotonic() < deadline, "socket never appeared"
            time.sleep(0.02)
        with ServiceClient(path) as client:
            assert client.ping()
            first = client.route("mesh:8x8", "dual-path", (0, 0), [(7, 7), (3, 4)])
            assert first.ok and isinstance(first.traffic, int)
            second = client.route("mesh:8x8", "dual-path", (0, 0), [(7, 7), (3, 4)])
            assert second.cache_hit
            stats = client.stats()
            assert stats["counters"]["submitted"] == 2
            assert stats["workers"] and all(w["pid"] for w in stats["workers"])
            client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert not os.path.exists(path)

    def test_pipelined_requests_all_answered(self, tmp_path):
        path = str(tmp_path / "route.sock")
        thread = threading.Thread(
            target=serve,
            args=(path,),
            kwargs={"config": ServiceConfig(workers=2)},
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(path):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        with ServiceClient(path) as client:
            for i in range(10):
                client.submit(
                    RouteRequest(
                        request_id=100 + i,
                        topology="mesh:8x8",
                        scheme="dual-path",
                        source=(i % 8, 0),
                        destinations=((7, (i * 3) % 8), (0, 7)),
                    )
                )
            responses = {100 + i: client.collect(100 + i) for i in range(10)}
            assert all(r.ok for r in responses.values())
            client.shutdown()
        thread.join(timeout=10)


#: heartbeats too rare to mask a timer the dispatcher's wait missed
_QUIET = dict(workers=1, cache_capacity=0, heartbeat_interval=1.0, heartbeat_timeout=10.0)
#: how late a lone timer may fire, fork and route included
_SLACK = 0.15


def _resolve_time(svc, request):
    """Submit ``request``; returns (response, seconds until its result)."""
    t0 = time.monotonic()
    response = svc.submit(request).result(timeout=30)
    return response, time.monotonic() - t0


class TestDispatcherWait:
    """The dispatcher has no tick: it blocks on the worker pipes, the
    admission wake-up and the nearest timer.  Each timer below fires
    alone, with heartbeats too rare to wake the dispatcher in time."""

    def test_idle_service_costs_little_cpu(self):
        # measured: 49-56 ms of CPU per idle second with a 2 ms poll,
        # 5.7-6.5 ms waiting on events (20 heartbeats/s from each worker)
        with RouteService(ServiceConfig(workers=2)) as svc:
            svc.route(_mesh_request(1), timeout=30)
            time.sleep(0.2)
            start = time.process_time()
            time.sleep(1.0)
            idle = time.process_time() - start
        assert idle < 0.018

    def test_dropped_reply_times_out_at_its_deadline(self):
        deadline = 0.3
        config = ServiceConfig(
            **_QUIET, request_deadline=deadline, chaos=ChaosPlan(seed=1, drop_rate=1.0)
        )
        with RouteService(config) as svc:
            response, elapsed = _resolve_time(svc, _mesh_request(1))
        assert response.error == "timeout"
        assert deadline <= elapsed <= deadline + _SLACK

    def test_stalled_worker_is_hung_after_heartbeat_timeout(self):
        interval, timeout = 0.05, 0.3
        config = ServiceConfig(
            workers=1,
            cache_capacity=0,
            heartbeat_interval=interval,
            heartbeat_timeout=timeout,
            retry_limit=0,
            chaos=ChaosPlan(seed=1, stall_rate=1.0),
        )
        with RouteService(config) as svc:
            time.sleep(0.1)  # heartbeats flowing before the stall
            response, elapsed = _resolve_time(svc, _mesh_request(1))
            report = svc.drain(timeout=30)
        assert response.error == "worker-crashed" and "hung" in response.detail
        assert report["counters"]["hung_workers"] == 1
        # the last heartbeat came at most one interval before the submit
        assert timeout - interval - 0.02 <= elapsed <= timeout + _SLACK

    def test_killed_request_is_dispatched_after_its_backoff(self):
        hold, backoff = 0.2, 0.3
        config = ServiceConfig(
            **_QUIET,
            retry_base=backoff,
            retry_jitter=0.0,
            chaos=ChaosPlan(seed=1, kill_rate=1.0, delay_s=hold),
        )
        with RouteService(config) as svc:
            response, elapsed = _resolve_time(svc, _mesh_request(1))
            report = svc.drain(timeout=30)
        assert response.ok and response.attempts == 2
        assert report["counters"]["worker_crashes"] == 1
        # the staged SIGKILL lands half-way through the hold
        assert hold / 2 + backoff <= elapsed <= hold / 2 + backoff + _SLACK

    def test_concurrent_submits_never_lose_a_wake_up(self):
        threads, rounds = 4, 50
        config = ServiceConfig(
            workers=2, cache_capacity=0, heartbeat_interval=2.0, heartbeat_timeout=10.0
        )
        barrier = threading.Barrier(threads)
        results: list[tuple] = []

        def submitter(index: int) -> None:
            for r in range(rounds):
                barrier.wait()
                results.append(_resolve_time(svc, _mesh_request(r * threads + index)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings of submit and wait
        try:
            with RouteService(config) as svc:
                workers = [
                    threading.Thread(target=submitter, args=(i,)) for i in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(results) == threads * rounds
        assert all(response.ok for response, _ in results)
        # a lost wake-up waits for the next heartbeat, 2 s away
        assert max(elapsed for _, elapsed in results) < 0.5

    def test_close_on_idle_service_returns_promptly(self):
        svc = RouteService(ServiceConfig(**_QUIET)).start()
        svc.route(_mesh_request(1), timeout=30)
        time.sleep(0.1)
        start = time.monotonic()
        svc.close()
        assert time.monotonic() - start < 0.5

    def test_drain_waits_for_the_last_request(self):
        config = ServiceConfig(
            **_QUIET, request_deadline=0.3, chaos=ChaosPlan(seed=1, drop_rate=1.0)
        )
        with RouteService(config) as svc:
            svc.submit(_mesh_request(1))
            with pytest.raises(TimeoutError, match="1 requests still in flight"):
                svc.drain(timeout=0.05)
            start = time.monotonic()
            report = svc.drain(timeout=30)
            waited = time.monotonic() - start
        assert report["outstanding"] == 0 and report["counters"]["timeouts"] == 1
        assert waited < 0.3 + _SLACK
