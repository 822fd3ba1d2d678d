"""Discrete-event wormhole network simulation (§7.2's dynamic study).

The CSIM-equivalent kernel lives in :mod:`repro.sim.kernel`; the
reference flit-level wormhole model in :mod:`repro.sim.reference` (the
vectorized structure-of-arrays engine in :mod:`repro.sim.dense` is its
parity-tested counterpart for fault-free path worms); routing adapters in
:mod:`repro.sim.traffic`; the experiment drivers in
:mod:`repro.sim.runner`, one per run type, sharing one Poisson arrival
process.  :func:`run_dynamic` picks its engine per run (``"auto"``)
and takes ``engine="reference"`` or ``"dense"`` to force one; the
other drivers run on the reference engine.

The dense engine is the package's one NumPy user in a simulation, so
:class:`DenseEngine` and :class:`EngineCounters` resolve on first
access (a module ``__getattr__``): importing :mod:`repro.sim` loads
no NumPy, and ``from repro.sim import DenseEngine`` loads it then.
"""

from typing import TYPE_CHECKING

from .config import InvalidConfigError, SimConfig
from .kernel import Environment, Event, LegacyEnvironment, Process, Timeout
from .reference import (
    AdaptivePathWorm,
    Channel,
    Delivery,
    PathWorm,
    TreeWorm,
    WormholeNetwork,
)
from .circuit import CircuitMessage, inject_circuit_path
from .faults import (
    FaultEvent,
    FaultPlan,
    FaultState,
    FaultyWormholeNetwork,
    derive_fault_seed,
)
from .saf import SAFNetwork
from .vct import VCTWorm, inject_vct_path
from .runner import (
    ENGINES,
    DeadlockDetected,
    FaultResult,
    MixedResult,
    inject_specs,
    run_mixed,
    run_resilient,
    run_until_confident,
    DynamicResult,
    ScenarioResult,
    run_dynamic,
    run_static_scenario,
    run_switching,
)
from .stats import SimStats, Summary, batch_means, t975
from .traffic import AdaptiveSpec, PathSpec, Router, TreeSpec, VCTTreeSpec
from .vct_tree import VCTTreeMulticast, inject_vct_tree, tree_chains

if TYPE_CHECKING:
    from .dense import DenseEngine, EngineCounters

__all__ = [
    "AdaptivePathWorm",
    "AdaptiveSpec",
    "Channel",
    "CircuitMessage",
    "DeadlockDetected",
    "Delivery",
    "DenseEngine",
    "DynamicResult",
    "ENGINES",
    "EngineCounters",
    "Environment",
    "InvalidConfigError",
    "FaultEvent",
    "FaultPlan",
    "FaultResult",
    "FaultState",
    "FaultyWormholeNetwork",
    "LegacyEnvironment",
    "MixedResult",
    "Event",
    "PathSpec",
    "PathWorm",
    "SAFNetwork",
    "Process",
    "Router",
    "ScenarioResult",
    "SimConfig",
    "SimStats",
    "Summary",
    "Timeout",
    "TreeSpec",
    "VCTTreeMulticast",
    "VCTTreeSpec",
    "TreeWorm",
    "VCTWorm",
    "WormholeNetwork",
    "batch_means",
    "inject_circuit_path",
    "inject_specs",
    "inject_vct_path",
    "inject_vct_tree",
    "tree_chains",
    "derive_fault_seed",
    "run_dynamic",
    "run_mixed",
    "run_resilient",
    "run_until_confident",
    "run_static_scenario",
    "run_switching",
    "t975",
]

#: names resolved from :mod:`repro.sim.dense` on first access
_DENSE_NAMES = ("DenseEngine", "EngineCounters")


def __getattr__(name: str) -> object:
    if name in _DENSE_NAMES:
        from . import dense

        value = getattr(dense, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
