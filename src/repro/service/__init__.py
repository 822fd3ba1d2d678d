"""Resilient multicast routing service.

A long-lived routing daemon around the registry: clients stream route
requests (topology spec, scheme, destination set) over a local socket
in JSONL, a supervised pool of persistent worker processes answers
them from warm topologies, one per topology spec (memoized distance
rows and labelings), and every request gets **exactly one terminal response** — a route, a
``degraded=True`` route from a registered fallback scheme, or a typed
error — no matter which workers crash, hang or drop replies along the
way.

Layers (each usable alone):

* :mod:`repro.service.protocol` — the request/response dataclasses and
  the JSONL wire encoding, including the typed error vocabulary;
* :mod:`repro.service.cache` — the LRU route-plan cache with hit-rate
  counters;
* :mod:`repro.service.supervisor` — :class:`RouteService`, the
  synchronous core: bounded intake with load shedding, a dispatcher
  thread, per-request deadlines, bounded retry with seeded backoff
  jitter, heartbeat-based hang detection, worker restart with
  requeue-once, and a per-``(scheme, topology)`` circuit breaker that
  degrades to the spec's declared ``fallback``;
* :mod:`repro.service.worker` — the worker process main loop (warm
  topologies per spec, heartbeat thread, chaos hooks);
* :mod:`repro.service.chaos` — the seeded chaos plan (kill / delay /
  drop / stall injection) the robustness suite drives the service
  with;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio unix-socket front end and the small synchronous client
  (``python -m repro serve`` / ``python -m repro client``).
"""

from .cache import RoutePlanCache
from .chaos import ChaosPlan
from .client import ServiceClient
from .protocol import (
    ERROR_CODES,
    ProtocolError,
    RouteRequest,
    RouteResponse,
    ServiceOverloaded,
)
from .supervisor import CircuitBreaker, RouteService, ServiceConfig

__all__ = [
    "ERROR_CODES",
    "ChaosPlan",
    "CircuitBreaker",
    "ProtocolError",
    "RoutePlanCache",
    "RouteRequest",
    "RouteResponse",
    "RouteService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceOverloaded",
]
