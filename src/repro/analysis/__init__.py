"""Static verification: deadlock certificates, routing invariants, lint.

The dissertation's correctness claims are *structural* (Ch. 6): a
multicast wormhole scheme is deadlock-free iff its channel dependency
graph is acyclic, and path/tree routes must respect Hamiltonian-label
monotonicity and subnetwork partitioning.  This package turns those
claims from test-time spot checks into machine-checked artifacts:

* :mod:`repro.analysis.graph` — the deterministic cycle/topological-
  order core shared by every engine (``is_acyclic`` / ``find_cycle`` /
  ``topological_order``, with shortest-cycle minimization);
* :mod:`repro.analysis.certify` — the deadlock certifier: for every
  registered :class:`repro.registry.AlgorithmSpec` with a
  ``deadlock_free`` claim it either emits a machine-checkable
  acyclicity certificate (a topological order of the full CDG,
  serialized as JSON) or a *minimized* counterexample — the shortest
  channel cycle plus the witness multicast sets inducing it (the
  Fig. 6.1 / 6.4 constructions fall out of the same engine);
* :mod:`repro.analysis.invariants` — reusable static checkers for
  label monotonicity, reachability, subnetwork partition soundness and
  virtual-channel layering, applied to every routable spec;
* :mod:`repro.analysis.lint` — the repo-specific AST lint pass
  (``python -m repro lint``) with a plugin-style rule API, including
  the concurrency-ownership rules for the service supervisor;
* :mod:`repro.analysis.model` — the explicit-state model checker
  (``python -m repro modelcheck``): exhaustive BFS verification of the
  routing service's request-lifecycle, circuit-breaker and
  worker-heartbeat machines (safety + liveness-under-fairness) with
  certificates committed under ``analysis/certificates/service/``.

Front ends: ``python -m repro certify [--all]`` and
``python -m repro lint``; both run in CI (the ``analyze`` job).
"""

from __future__ import annotations

import importlib

#: the submodule that defines each public name; the package resolves
#: them on first use (PEP 562), so a caller of one submodule (the
#: wormhole CDG code imports :mod:`repro.analysis.graph`) loads none of
#: the others
_SOURCES = {
    "certify": (
        "REPRESENTATIVE_TOPOLOGIES", "Certificate", "CertificationError", "Counterexample",
        "certificate_status", "certify_all", "certify_claim", "certify_spec",
        "fig_6_1_counterexample", "fig_6_4_counterexample", "load_artifact", "refute",
        "search_counterexample",
    ),
    "graph": ("CycleError", "find_cycle", "is_acyclic", "shortest_cycle", "topological_order"),
    "invariants": (
        "InvariantViolation", "check_label_monotonicity", "check_partition_soundness",
        "check_quadrant_coverage", "check_reachability", "check_spec_invariants",
        "check_vc_layering",
    ),
    "lint": ("LintFinding", "lint_paths", "rule", "rules"),
    "model": (
        "MACHINES", "Machine", "ModelCertificate", "ModelCheckResult", "SafetyProperty",
        "Transition", "UnknownMachineError", "Violation", "build_machines",
        "check_conformance", "check_machine", "modelcheck_all",
    ),
}
_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SOURCES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
