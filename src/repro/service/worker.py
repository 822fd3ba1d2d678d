"""Worker process: warm-topology route computation + heartbeats.

Each worker is a long-lived child process holding one end of a
``multiprocessing.Pipe``.  It answers job dicts with small result
tuples and, from a daemon thread, streams ``("hb", n)`` heartbeats so
the supervisor can tell a *hung* worker (stale heartbeat) from a
*busy* one (fresh heartbeats, no result yet) from a *dead* one
(end-of-file on its pipe).

Why a Pipe per worker instead of one shared queue: the chaos harness
SIGKILLs workers mid-request, and a kill landing mid-``put`` on a
shared queue can corrupt it for everyone.  A per-worker pipe confines
the damage — the supervisor treats a broken/garbled pipe as that one
worker crashing — and our messages are far below ``PIPE_BUF``, so
individual sends are atomic.

Warm state: the worker keeps one topology instance per topology spec
string, so every request against the same spec shares its memoized
distance rows, neighbor tables and labeling for the lifetime of the
worker — those caches are what the service benchmark's
routed-destinations/sec rests on.

All sends share one lock (``Connection.send`` is not thread-safe
against the heartbeat thread).  Chaos directives (``hold_s`` /
``delay_s`` / ``drop`` / ``stall``) arrive inside the job dict; the
worker itself stays deterministic — it only ever does what the
supervisor's seeded :class:`~repro.service.chaos.ChaosPlan` told it
to.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

from ..exact.errors import InfeasibleRoute, SearchBudgetExceeded
from ..models.request import MulticastRequest
from ..registry import UnknownSchemeError, get as get_spec
from ..topology import parse_topology
from ..wormhole.fault_tolerance import Unroutable

__all__ = ["compute_route", "worker_main"]

#: How long a stalled worker sleeps (heartbeats off) before giving up
#: waiting for the supervisor's SIGKILL.
_STALL_S = 600.0


def compute_route(
    topology_cache: dict[str, Any], job: Mapping[str, Any]
) -> tuple[bool, dict[str, Any]]:
    """Answer one job: ``(True, route summary)`` or ``(False, {error,
    detail})`` with a typed error code — exceptions never escape as
    tracebacks.

    ``topology_cache`` maps topology specs to their instances; pass
    the same dict across calls to keep topologies warm (the worker loop
    does, and so does the in-process benchmark baseline).
    """
    try:
        spec = get_spec(job["scheme"])
    except UnknownSchemeError as exc:
        return False, {"error": "unknown-scheme", "detail": str(exc)}
    try:
        topology = topology_cache.get(job["topology"])
        if topology is None:
            topology = parse_topology(job["topology"])
            topology_cache[job["topology"]] = topology
        if not spec.supports(topology):
            return False, {
                "error": "unsupported-topology",
                "detail": f"{spec.name} is not defined on {topology} "
                f"(supported families: {', '.join(spec.topologies)})",
            }
        if not spec.routable:
            return False, {
                "error": "not-routable",
                "detail": f"{spec.name} produces no constructive route "
                f"(result model: {spec.result_model})",
            }
        request = MulticastRequest(topology, job["source"], tuple(job["destinations"]))
        kwargs: dict[str, Any] = {}
        if job.get("budget") is not None and "budget" in spec.tunables:
            kwargs["budget"] = job["budget"]
        route = spec.fn(request, **kwargs)
        route.validate(request)
        hops = route.dest_hops(request.destinations)
        return True, {
            "scheme": spec.name,
            "traffic": route.traffic,
            "max_hops": max(hops.values()) if hops else 0,
        }
    except SearchBudgetExceeded as exc:
        return False, {"error": "budget-exceeded", "detail": str(exc)}
    except (InfeasibleRoute, Unroutable) as exc:
        return False, {"error": "unroutable", "detail": str(exc)}
    except (ValueError, TypeError, KeyError) as exc:
        return False, {"error": "bad-request", "detail": str(exc)}
    except Exception as exc:  # summarize, never traceback across the wire
        return False, {
            "error": "internal-error",
            "detail": f"{type(exc).__name__}: {exc}",
        }


def worker_main(conn: Connection, heartbeat_interval: float = 0.05) -> None:
    """The child-process loop: heartbeat thread + recv/compute/send.

    Exits cleanly on a ``None`` job (shutdown) or a closed pipe; every
    other exit is a crash the supervisor will notice.
    """
    send_lock = threading.Lock()
    heartbeats_on = threading.Event()
    heartbeats_on.set()
    stop = threading.Event()

    def beat() -> None:
        n = 0
        while not stop.is_set():
            if heartbeats_on.is_set():
                n += 1
                try:
                    with send_lock:
                        conn.send(("hb", n))
                except OSError:
                    return  # supervisor side gone
            time.sleep(heartbeat_interval)

    threading.Thread(target=beat, daemon=True).start()

    topology_cache: dict[str, Any] = {}
    try:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                return
            if job is None:
                return
            if job.get("stall"):
                # simulate a hung interpreter: heartbeats go silent and
                # no result ever comes — only the supervisor's
                # heartbeat monitor can reclaim this worker
                heartbeats_on.clear()
                time.sleep(_STALL_S)
                continue
            hold = job.get("hold_s", 0.0)
            if hold:
                time.sleep(hold)  # window for a staged chaos SIGKILL
            outcome = compute_route(topology_cache, job)
            delay = job.get("delay_s", 0.0)
            if delay:
                time.sleep(delay)
            if job.get("drop"):
                continue  # chaos: response lost in flight
            try:
                with send_lock:
                    conn.send(("res", job["seq"], outcome))
            except OSError:
                return
    finally:
        stop.set()
