"""LRU route-plan cache with probe counters.

Keys are ``(topology_repr, scheme, source, frozenset(destinations))``
— the issue's ``(topology, scheme, destinations)`` key plus the
source, because every Chapter 3 route model is rooted at the source
(two requests differing only in source take different routes).  Values
are terminal :class:`~repro.service.protocol.RouteResponse` objects;
:meth:`RouteResponse.with_id` re-keys a cached plan under the new
request's correlation id, so ``cache_hit=True`` responses are replayed
plans, never shared mutable state.

Counts hits / misses / evictions, exported by :meth:`stats` for the
service drain report and ``BENCH_service.json``.  ``hits`` and
``misses`` count probes (:meth:`RoutePlanCache.get` calls), not
requests: admission and the dispatcher each probe, so one request can
count twice.  The per-request figure is the service's
``counters["cache_served"]``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from typing import Any

from .protocol import RouteResponse

__all__ = ["CacheKey", "RoutePlanCache", "route_key"]

#: ``(topology_repr, scheme, source, frozenset(destinations))``.
CacheKey = tuple[str, str, Any, frozenset[Any]]


def route_key(
    topology_repr: str, scheme: str, source: Any, destinations: Iterable[Any]
) -> CacheKey:
    """The canonical cache key (destination order must not matter)."""
    return (topology_repr, scheme, source, frozenset(destinations))


class RoutePlanCache:
    """A bounded LRU map from route keys to terminal responses.

    Thread-safe: the service front end probes it at admission (so hot
    requests never enter the queue) while the dispatcher thread fills
    it, so every operation takes the internal lock.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError(f"capacity cannot be negative, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, RouteResponse] = OrderedDict()
        self._lock = threading.Lock()
        #: probes answered from / missing the cache (one request may
        #: probe twice: at admission and at dispatch)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> RouteResponse | None:
        """The cached value (refreshed to most-recently-used) or
        ``None``; every call counts as a hit or a miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: CacheKey, value: RouteResponse) -> None:
        """Insert/refresh an entry, evicting the least recently used
        one past capacity.  A zero-capacity cache stores nothing (every
        lookup is a miss) but keeps counting."""
        with self._lock:
            if self.capacity == 0:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, Any]:
        """Counters snapshot for reports and benchmarks (``hits`` and
        ``misses`` count probes)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }
