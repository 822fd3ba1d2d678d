"""Wire protocol of the routing service: dataclasses + JSONL encoding.

One request or response per line, UTF-8 JSON, ``\\n``-terminated.  Node
addresses survive the round trip: tuples become JSON arrays on the way
out and are restored recursively on the way in (hypercube nodes stay
ints).

Every response is **terminal** and carries either a route summary
(``ok=True``, possibly ``degraded=True`` when a circuit breaker routed
it through the scheme's registered fallback) or a typed error code
from :data:`ERROR_CODES`.  Raw tracebacks never cross the wire.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Any

__all__ = [
    "ERROR_CODES",
    "ProtocolError",
    "RouteRequest",
    "RouteResponse",
    "ServiceOverloaded",
    "decode_line",
    "encode_line",
    "tupled",
]

#: The closed error vocabulary.  Clients can switch on these; anything
#: else on the wire is a protocol violation.
ERROR_CODES = (
    "bad-request",  # malformed request (unparseable topology, bad node, ...)
    "unknown-scheme",  # the scheme name resolves to nothing
    "unsupported-topology",  # scheme not defined on this topology family
    "not-routable",  # the spec has no constructive route function
    "unroutable",  # no route exists (infeasible instance)
    "budget-exceeded",  # exact solver ran out of search budget
    "timeout",  # per-request deadline expired
    "worker-crashed",  # worker died and the retry budget is spent
    "overloaded",  # intake queue full — request shed at admission
    "circuit-open",  # breaker open and the scheme declares no fallback
    "shutdown",  # service stopped with the request still queued
    "internal-error",  # unexpected worker-side exception (summarized)
)


class ProtocolError(ValueError):
    """A line that does not decode to a well-formed message."""


class ServiceOverloaded(RuntimeError):
    """Client-side rendering of an ``overloaded`` response (raised by
    :meth:`RouteResponse.require` so callers can back off)."""


def tupled(value: Any) -> Any:
    """Restore node addresses after JSON: lists become tuples,
    recursively; everything else passes through."""
    if isinstance(value, list):
        return tuple(tupled(v) for v in value)
    return value


@dataclass(frozen=True)
class RouteRequest:
    """One multicast routing question.

    ``request_id`` is the client's correlation key — the service echoes
    it verbatim in exactly one response.  ``deadline`` is a relative
    budget in seconds covering *every* attempt (retries included);
    ``budget`` forwards to schemes declaring the ``budget`` tunable
    (the exact branch-and-bound solvers).
    """

    request_id: int
    topology: str  # spec, e.g. "mesh:8x8" | "cube:4" (topology.parse_topology)
    scheme: str
    source: Any
    destinations: tuple[Any, ...]
    budget: int | None = None
    deadline: float | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "op": "route",
            "request_id": self.request_id,
            "topology": self.topology,
            "scheme": self.scheme,
            "source": self.source,
            "destinations": list(self.destinations),
        }
        if self.budget is not None:
            out["budget"] = self.budget
        if self.deadline is not None:
            out["deadline"] = self.deadline
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "RouteRequest":
        try:
            return cls(
                request_id=int(data["request_id"]),
                topology=str(data["topology"]),
                scheme=str(data["scheme"]),
                source=tupled(data["source"]),
                destinations=tuple(tupled(d) for d in data["destinations"]),
                budget=None if data.get("budget") is None else int(data["budget"]),
                deadline=(
                    None if data.get("deadline") is None else float(data["deadline"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed route request: {exc}") from exc


@dataclass(frozen=True)
class RouteResponse:
    """The single terminal answer to one :class:`RouteRequest`."""

    request_id: int
    ok: bool
    #: one of :data:`ERROR_CODES` when ``ok`` is false, else ``None``.
    error: str | None = None
    detail: str = ""
    #: the scheme that actually produced the route (the fallback when
    #: ``degraded``).
    scheme: str | None = None
    degraded: bool = False
    traffic: int | None = None
    max_hops: int | None = None
    #: dispatch attempts consumed (0 for cache hits and shed requests).
    attempts: int = 0
    cache_hit: bool = False

    def __post_init__(self) -> None:
        if not self.ok and self.error not in ERROR_CODES:
            raise ValueError(
                f"error must be one of {ERROR_CODES}, got {self.error!r}"
            )
        if self.ok and self.error is not None:
            raise ValueError("a successful response carries no error code")

    def replayed(self, request_id: int) -> "RouteResponse":
        """The same plan served from cache under a fresh correlation
        id: re-keyed, tagged ``cache_hit=True``, zero attempts."""
        return replace(self, request_id=request_id, cache_hit=True, attempts=0)

    def require(self) -> "RouteResponse":
        """Return self if ``ok``, else raise a typed exception
        (:class:`ServiceOverloaded` for shed requests, ``RuntimeError``
        otherwise)."""
        if self.ok:
            return self
        if self.error == "overloaded":
            raise ServiceOverloaded(self.detail or "service overloaded")
        raise RuntimeError(f"{self.error}: {self.detail}")

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"request_id": self.request_id, "ok": self.ok}
        if self.ok:
            out.update(
                scheme=self.scheme,
                degraded=self.degraded,
                traffic=self.traffic,
                max_hops=self.max_hops,
            )
        else:
            out.update(error=self.error, detail=self.detail)
        out.update(attempts=self.attempts, cache_hit=self.cache_hit)
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "RouteResponse":
        try:
            return cls(
                request_id=int(data["request_id"]),
                ok=bool(data["ok"]),
                error=data.get("error"),
                detail=str(data.get("detail", "")),
                scheme=data.get("scheme"),
                degraded=bool(data.get("degraded", False)),
                traffic=data.get("traffic"),
                max_hops=data.get("max_hops"),
                attempts=int(data.get("attempts", 0)),
                cache_hit=bool(data.get("cache_hit", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed route response: {exc}") from exc


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """One JSONL wire line (compact separators, trailing newline)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a dict (:class:`ProtocolError` on
    garbage — the server answers those with ``bad-request``)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON line: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(f"expected a JSON object, got {type(data).__name__}")
    return data
