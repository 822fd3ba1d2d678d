"""Model/code conformance: the formal machines must track the service.

Two checks keep the models honest as the supervisor evolves:

* **binding resolution** — every transition names the production code
  it abstracts as dotted paths under :mod:`repro.service`
  (``supervisor.RouteService._send_job``, ``cache.RoutePlanCache.get``,
  ...).  Each path must resolve to a real attribute, so renaming or
  deleting a supervisor method without updating the model fails the
  conformance test (and `python -m repro modelcheck`, and therefore
  CI).
* **protocol coverage** — the converse direction: every method of the
  supervisor's request/breaker/health protocol (the curated
  :data:`PROTOCOL_METHODS` set) must be abstracted by at least one
  transition across the production machines, so a *new* protocol
  method cannot quietly escape the verified model.
"""

from __future__ import annotations

import importlib
from collections.abc import Iterable

from .checker import Machine

__all__ = [
    "PROTOCOL_METHODS",
    "binding_failures",
    "check_conformance",
    "coverage_failures",
    "resolve_binding",
]

#: every method of the supervisor's verified protocols; each must be
#: covered by at least one model transition
PROTOCOL_METHODS: frozenset[str] = frozenset(
    {
        # request lifecycle
        "supervisor.RouteService.submit",
        "supervisor.RouteService._admission_reject",
        "supervisor.RouteService._send_job",
        "supervisor.RouteService._on_result",
        "supervisor.RouteService._resolve",
        "supervisor.RouteService._requeue_or_fail",
        "supervisor.RouteService._reclaim",
        "supervisor.RouteService._dispatch_ticks",
        # circuit breaker
        "supervisor.CircuitBreaker.allow",
        "supervisor.CircuitBreaker.record_success",
        "supervisor.CircuitBreaker.record_failure",
        # cache and chaos surfaces the lifecycle rides on
        "cache.RoutePlanCache.get",
        "cache.RoutePlanCache.put",
        "chaos.ChaosPlan.action",
        # worker side of the heartbeat loop
        "worker.worker_main",
    }
)

_MISSING = object()


def resolve_binding(path: str) -> object:
    """Resolve a ``module.Qual.name`` path under :mod:`repro.service`;
    returns the attribute or raises :class:`AttributeError`."""
    module_name, _, qualname = path.partition(".")
    module = importlib.import_module(f"repro.service.{module_name}")
    obj: object = module
    for part in qualname.split(".") if qualname else []:
        obj = getattr(obj, part, _MISSING)
        if obj is _MISSING:
            raise AttributeError(f"{path!r} does not resolve under repro.service")
    return obj


def binding_failures(machines: Iterable[Machine]) -> list[str]:
    """Transition bindings that no longer resolve to service code."""
    failures: list[str] = []
    for machine in machines:
        for transition in machine.transitions:
            for method in transition.methods:
                try:
                    resolve_binding(method)
                except (AttributeError, ImportError):
                    failures.append(
                        f"{machine.name}.{transition.name}: binding {method!r} "
                        "does not resolve under repro.service"
                    )
    return failures


def coverage_failures(machines: Iterable[Machine]) -> list[str]:
    """Protocol methods not abstracted by any model transition."""
    covered: set[str] = set()
    for machine in machines:
        for transition in machine.transitions:
            covered.update(transition.methods)
    return [
        f"protocol method {method!r} is not covered by any model transition"
        for method in sorted(PROTOCOL_METHODS - covered)
    ]


def check_conformance(machines: Iterable[Machine]) -> list[str]:
    """All conformance failures (empty means the models track the code)."""
    machines = list(machines)
    return binding_failures(machines) + coverage_failures(machines)
