"""The deadlock certifier: machine-checked CDG certificates and
minimized counterexamples for every registered scheme.

Dally & Seitz reduce deadlock freedom of a wormhole routing algorithm
to acyclicity of its channel dependency graph, and Chapter 6 extends
the dependency relation to multicast (a blocked message holds *every*
channel it has acquired).  The registry's ``deadlock_free`` flag and
``cdg_certificate`` hook (PR 2) declared those claims; this engine
*verifies* them:

* for a spec claiming ``deadlock_free=True``, the full conservative
  CDG is built on representative topologies of every supported family
  and a :class:`Certificate` — a topological order of the CDG, i.e. a
  witness anyone can re-check edge by edge — is emitted as a JSON
  artifact (``analysis/certificates/``).  A cyclic CDG refutes the
  claim and is a hard conformance error.
* for a spec claiming ``deadlock_free=False``, the engine *refutes*
  deadlock freedom constructively: it searches combinations of witness
  multicasts whose combined extended CDG is cyclic, then minimizes the
  evidence — the witness set is shrunk greedily and the cycle reported
  is a shortest cycle (:func:`repro.analysis.graph.shortest_cycle`).
  The classic Fig. 6.1 (two e-cube broadcasts) and Fig. 6.4 (X-first
  trees on single channels) constructions fall out of this same
  engine as :func:`fig_6_1_counterexample` / :func:`fig_6_4_counterexample`.

``python -m repro certify [--all | --scheme NAME]`` drives this from
the CLI and fails (exit 1) on any uncertified ``deadlock_free=True``
spec; CI runs it in the ``analyze`` job.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .. import registry
from ..models.request import MulticastRequest, random_multicast
from ..models.results import MulticastStar, MulticastTree
from ..topology import parse_topology
from .graph import CycleError, node_key, shortest_cycle, topological_order, validate_cycle

__all__ = [
    "ARTIFACT_SCHEMA",
    "REPRESENTATIVE_TOPOLOGIES",
    "Certificate",
    "CertificationError",
    "Counterexample",
    "certificate_status",
    "certify_all",
    "certify_claim",
    "certify_spec",
    "fig_6_1_counterexample",
    "fig_6_4_counterexample",
    "load_artifact",
    "refute",
    "search_counterexample",
]

#: artifact format identifier (bump on incompatible changes).
ARTIFACT_SCHEMA = "repro.analysis/certificate.v1"

#: Representative instances swept per topology family: the smallest
#: size every scheme supports plus larger ones exercising asymmetric
#: dimensions.  CDG construction is O(channels^2), so these stay small
#: enough for CI while covering every claim's structural cases.
REPRESENTATIVE_TOPOLOGIES: dict[str, tuple[str, ...]] = {
    "mesh2d": ("mesh:4x3", "mesh:5x5", "mesh:8x8"),
    "mesh3d": ("mesh3d:3x3x2", "mesh3d:3x3x3"),
    "hypercube": ("cube:3", "cube:4"),
    "torus": ("torus:4x2", "torus:5x3"),
}

#: families a claim defaults to when the spec declares none.
_DEFAULT_FAMILIES = ("mesh2d", "hypercube")


class CertificationError(RuntimeError):
    """A deadlock claim failed machine verification (cyclic CDG for a
    ``deadlock_free=True`` spec, a stale/corrupt artifact, or a missing
    counterexample for a claimed-unsafe spec)."""

    def __init__(self, message: str, cycle: list | None = None):
        super().__init__(message)
        self.cycle = cycle


def _edge_digest(edges: Iterable) -> str:
    lines = sorted(f"{node_key(a)} -> {node_key(b)}" for a, b in edges)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable acyclicity certificate for one scheme on one
    topology: a topological order of the full CDG's channel nodes.

    ``order`` holds the canonical node keys
    (:func:`repro.analysis.graph.node_key`) in certified order;
    ``edge_digest`` pins the exact CDG the order was computed for, so a
    stale artifact (scheme or certificate hook changed) is detected on
    re-validation rather than silently accepted.
    """

    scheme: str
    topology_spec: str
    order: tuple[str, ...]
    num_edges: int
    edge_digest: str
    min_channels: int = 1
    params: dict = field(default_factory=dict)

    kind = "acyclicity-certificate"

    def validate(self, edges: Iterable) -> None:
        """Re-check this certificate against a freshly computed edge
        set; raises :class:`CertificationError` on any mismatch."""
        edges = list(edges)
        digest = _edge_digest(edges)
        if digest != self.edge_digest:
            raise CertificationError(
                f"{self.scheme} on {self.topology_spec}: certificate is stale "
                f"(CDG digest {digest[:12]} != certified {self.edge_digest[:12]})"
            )
        position = {key: i for i, key in enumerate(self.order)}
        if len(position) != len(self.order):
            raise CertificationError(
                f"{self.scheme} on {self.topology_spec}: certificate order "
                "contains duplicate nodes"
            )
        for a, b in edges:
            ka, kb = node_key(a), node_key(b)
            if ka not in position or kb not in position:
                raise CertificationError(
                    f"{self.scheme} on {self.topology_spec}: CDG node missing "
                    f"from certificate order: {ka if ka not in position else kb}"
                )
            if position[ka] >= position[kb]:
                raise CertificationError(
                    f"{self.scheme} on {self.topology_spec}: certificate order "
                    f"violated by edge {ka} -> {kb}"
                )

    def revalidate(self) -> None:
        """Recompute the CDG from the registry and re-check the
        certificate end to end (the round-trip CI relies on)."""
        spec = registry.get(self.scheme)
        topology = parse_topology(self.topology_spec)
        self.validate(spec.cdg_edges(topology))

    def to_json(self) -> dict:
        return {
            "schema": ARTIFACT_SCHEMA,
            "kind": self.kind,
            "scheme": self.scheme,
            "topology": self.topology_spec,
            "min_channels": self.min_channels,
            "params": dict(self.params),
            "nodes": len(self.order),
            "edges": self.num_edges,
            "edge_digest": self.edge_digest,
            "order": list(self.order),
        }

    @classmethod
    def from_json(cls, payload: dict) -> Certificate:
        if payload.get("schema") != ARTIFACT_SCHEMA:
            raise CertificationError(
                f"unknown certificate schema {payload.get('schema')!r}"
            )
        return cls(
            scheme=payload["scheme"],
            topology_spec=payload["topology"],
            order=tuple(payload["order"]),
            num_edges=payload["edges"],
            edge_digest=payload["edge_digest"],
            min_channels=payload.get("min_channels", 1),
            params=payload.get("params", {}),
        )

    @property
    def filename(self) -> str:
        topo = self.topology_spec.replace(":", "-")
        return f"{self.scheme}--{topo}.json"


@dataclass(frozen=True)
class Counterexample:
    """A minimized refutation of deadlock freedom: the witness
    multicast sets (as ``(source, destinations)`` node keys) whose
    combined extended CDG contains ``cycle`` — a shortest channel
    cycle, serialized as canonical node keys (closed: first == last)."""

    scheme: str
    topology_spec: str
    cycle: tuple[str, ...]
    witnesses: tuple[tuple[str, tuple[str, ...]], ...]
    construction: str = ""

    kind = "deadlock-counterexample"

    def to_json(self) -> dict:
        return {
            "schema": ARTIFACT_SCHEMA,
            "kind": self.kind,
            "scheme": self.scheme,
            "topology": self.topology_spec,
            "construction": self.construction,
            "cycle": list(self.cycle),
            "witnesses": [
                {"source": src, "destinations": list(dests)}
                for src, dests in self.witnesses
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> Counterexample:
        if payload.get("schema") != ARTIFACT_SCHEMA:
            raise CertificationError(
                f"unknown certificate schema {payload.get('schema')!r}"
            )
        return cls(
            scheme=payload["scheme"],
            topology_spec=payload["topology"],
            cycle=tuple(payload["cycle"]),
            witnesses=tuple(
                (w["source"], tuple(w["destinations"]))
                for w in payload["witnesses"]
            ),
            construction=payload.get("construction", ""),
        )

    @property
    def filename(self) -> str:
        topo = self.topology_spec.replace(":", "-")
        return f"{self.scheme}--{topo}.refutation.json"


# ----------------------------------------------------------------------
# Dependency stages of arbitrary route objects.
# ----------------------------------------------------------------------


def _route_messages(route) -> list[list]:
    """The per-message dependency stage lists of one route object (a
    star spawns one independent message per path)."""
    from ..wormhole.cdg import path_stages, star_stages, tree_stages

    if isinstance(route, MulticastStar):
        return star_stages(route)
    if isinstance(route, MulticastTree):
        return [tree_stages(route)]
    nodes = getattr(route, "nodes", None)
    if nodes is not None:  # multicast path / cycle
        return [path_stages(nodes)]
    raise TypeError(f"cannot derive dependency stages from {type(route).__name__}")


def _combined_route_cdg(spec: registry.AlgorithmSpec, requests: Sequence[MulticastRequest]) -> set:
    """The combined extended CDG of routing every request with the
    scheme's route function (§6.1's simultaneous-messages relation)."""
    from ..wormhole.cdg import combined_cdg

    stages = []
    for request in requests:
        for message in _route_messages(spec.fn(request)):
            stages.append(message)
    return combined_cdg(stages)


# ----------------------------------------------------------------------
# Refutation: minimized counterexamples.
# ----------------------------------------------------------------------


def refute(
    scheme: str,
    topology_spec: str,
    requests: Sequence[MulticastRequest],
    construction: str = "",
) -> Counterexample:
    """Refute deadlock freedom of ``scheme`` with the given witness
    multicasts: build their combined extended CDG, require a cycle, and
    minimize the evidence (greedily drop witnesses that are not needed
    to keep the CDG cyclic, then report a shortest cycle).

    Raises :class:`CertificationError` if the witnesses do *not*
    produce a cyclic CDG.
    """
    spec = registry.get(scheme)
    if spec.fn is None:
        raise CertificationError(f"{scheme} has no route function to refute with")
    witnesses = list(requests)
    if shortest_cycle(_combined_route_cdg(spec, witnesses)) is None:
        raise CertificationError(
            f"{scheme} on {topology_spec}: witness set induces an acyclic "
            "CDG — not a counterexample"
        )
    # greedy witness minimization: drop any request whose removal keeps
    # the combined CDG cyclic (scan is deterministic, first-to-last)
    i = 0
    while i < len(witnesses) and len(witnesses) > 1:
        trial = witnesses[:i] + witnesses[i + 1:]
        if shortest_cycle(_combined_route_cdg(spec, trial)) is not None:
            witnesses = trial
        else:
            i += 1
    cycle = shortest_cycle(_combined_route_cdg(spec, witnesses))
    assert cycle is not None
    return Counterexample(
        scheme=scheme,
        topology_spec=topology_spec,
        cycle=tuple(node_key(c) for c in cycle),
        witnesses=tuple(
            (node_key(w.source), tuple(node_key(d) for d in w.destinations))
            for w in witnesses
        ),
        construction=construction,
    )


def _witness_pool(topology, seed: int = 90, extra: int = 24) -> list[MulticastRequest]:
    """Deterministic candidate witnesses on one topology: a broadcast
    from every node (the Fig. 6.1 shape), then seeded random multicasts
    of a few sizes (the Fig. 6.4 shape needs only 2 destinations)."""
    nodes = topology.node_list()
    pool = [
        MulticastRequest(topology, src, tuple(v for v in nodes if v != src))
        for src in nodes
    ]
    rng = random.Random(seed)
    sizes = [2, 3, max(2, topology.num_nodes // 4)]
    for _ in range(extra):
        pool.append(random_multicast(topology, rng.choice(sizes), rng))
    return pool


def search_counterexample(
    scheme: str,
    topology_spec: str,
    max_combinations: int = 600,
    seed: int = 90,
) -> Counterexample | None:
    """Search for a deadlock counterexample for ``scheme`` on the given
    topology: singletons first (a single multicast whose own extended
    CDG is cyclic), then pairs of candidate witnesses, in deterministic
    order under a combination budget.  Returns a minimized
    :class:`Counterexample` or ``None`` if the budget is exhausted."""
    spec = registry.get(scheme)
    if spec.fn is None:
        return None
    topology = parse_topology(topology_spec)
    pool = _witness_pool(topology, seed=seed)
    tried = 0
    combos: list[list[MulticastRequest]] = [[w] for w in pool]
    combos += [
        [pool[i], pool[j]]
        for i in range(len(pool))
        for j in range(i + 1, len(pool))
    ]
    for witnesses in combos:
        if tried >= max_combinations:
            break
        tried += 1
        try:
            cdg = _combined_route_cdg(spec, witnesses)
        except Exception:
            continue  # witness not routable by this scheme; skip it
        if shortest_cycle(cdg) is not None:
            return refute(scheme, topology_spec, witnesses)
    return None


def fig_6_1_counterexample() -> Counterexample:
    """The Fig. 6.1 construction through the refutation engine: two
    simultaneous e-cube broadcasts from nodes 000 and 001 of a 3-cube
    deadlock — their combined extended CDG is cyclic."""
    # imported here: repro.wormhole.cdg imports repro.analysis.graph,
    # and this package imports this module eagerly
    from ..wormhole.cdg import fig_6_1_requests

    return refute("ecube-tree", "cube:3", fig_6_1_requests(), construction="fig-6.1")


def fig_6_4_counterexample() -> Counterexample:
    """The Fig. 6.4 construction through the refutation engine: two
    X-first multicast trees on a 3x4 mesh with *single* channels (no
    quadrant subnetworks) deadlock on the pair of channels
    (1,1)->(0,1) and (2,1)->(3,1)."""
    from ..wormhole.cdg import fig_6_4_requests

    return refute("xfirst", "mesh:4x3", fig_6_4_requests(), construction="fig-6.4")


#: constructions every ``certify --all`` run re-verifies, keyed by the
#: scheme they refute (single-channel deployment for ``xfirst``).
KNOWN_CONSTRUCTIONS = {
    "ecube-tree": fig_6_1_counterexample,
    "xfirst": fig_6_4_counterexample,
}


# ----------------------------------------------------------------------
# Certification driver.
# ----------------------------------------------------------------------


def _representative_specs(spec: registry.AlgorithmSpec) -> list[str]:
    families = spec.topologies or _DEFAULT_FAMILIES
    return [t for fam in families for t in REPRESENTATIVE_TOPOLOGIES.get(fam, ())]


def _concrete(spec: registry.AlgorithmSpec) -> registry.AlgorithmSpec:
    """Resolve a parametric family template to a representative
    instance (``virtual-channel-<p>`` -> ``virtual-channel-2``)."""
    if "<p>" in spec.name:
        return registry.get(spec.name.replace("<p>", "2"))
    return spec


def certify_claim(spec: registry.AlgorithmSpec, topology_spec: str) -> Certificate:
    """Machine-check a ``deadlock_free=True`` claim on one topology:
    build the full CDG from the spec's certificate hook and return an
    acyclicity :class:`Certificate`.  Raises
    :class:`CertificationError` — the claim is *refuted* — when the
    CDG is cyclic, carrying a shortest cycle."""
    spec = _concrete(spec)
    if not spec.deadlock_free:
        raise ValueError(f"{spec.name} does not claim deadlock freedom")
    if spec.cdg_certificate is None:
        raise CertificationError(
            f"{spec.name} claims deadlock_free=True without a CDG certificate hook"
        )
    topology = parse_topology(topology_spec)
    edges = list(spec.cdg_edges(topology))
    try:
        order = topological_order(edges)
    except CycleError as exc:
        raise CertificationError(
            f"{spec.name} on {topology_spec}: deadlock_free=True is REFUTED — "
            f"CDG cycle {' -> '.join(map(node_key, exc.cycle))}",
            cycle=exc.cycle,
        ) from exc
    return Certificate(
        scheme=spec.name,
        topology_spec=topology_spec,
        order=tuple(node_key(v) for v in order),
        num_edges=len(set(edges)),
        edge_digest=_edge_digest(edges),
        min_channels=spec.min_channels,
        params=dict(spec.params),
    )


def certify_spec(
    spec: registry.AlgorithmSpec,
    topologies: Sequence[str] | None = None,
) -> list[Certificate | Counterexample]:
    """Verify one spec's deadlock claim over representative topologies:
    certificates for ``deadlock_free=True``, a minimized counterexample
    for ``deadlock_free=False`` (searched on the smallest supported
    instance; the known Fig. 6.1/6.4 constructions seed the search).

    Raises :class:`CertificationError` when a True claim fails or a
    False claim cannot be refuted within budget.
    """
    spec = _concrete(spec)
    if spec.deadlock_free is None:
        return []
    reps = list(topologies) if topologies is not None else _representative_specs(spec)
    if spec.deadlock_free:
        return [certify_claim(spec, t) for t in reps]
    known = KNOWN_CONSTRUCTIONS.get(spec.name)
    if known is not None:
        return [known()]
    found = search_counterexample(spec.name, reps[0])
    if found is None:
        raise CertificationError(
            f"{spec.name} claims deadlock_free=False but no counterexample "
            f"was found on {reps[0]} within budget"
        )
    return [found]


def certify_all(
    schemes: Sequence[str] | None = None,
    out_dir: str | Path | None = None,
) -> tuple[list[Certificate | Counterexample], list[str]]:
    """Certify every registered deadlock claim (or the given scheme
    names).  Returns ``(artifacts, failures)``; ``out_dir`` (e.g.
    ``analysis/certificates``) receives one JSON artifact per result.

    The Fig. 6.1 / Fig. 6.4 constructions are always re-verified, even
    when their schemes carry no dynamic deadlock claim themselves."""
    if schemes is not None:
        specs = [registry.get(name) for name in schemes]
    else:
        specs = [s for s in registry.specs() if s.deadlock_free is not None]
        # the canonical refutations ride along on full sweeps
        specs += [
            registry.get(name)
            for name in KNOWN_CONSTRUCTIONS
            if not any(s.name == name for s in specs)
        ]
    artifacts: list[Certificate | Counterexample] = []
    failures: list[str] = []
    for spec in specs:
        if spec.deadlock_free is None and spec.name in KNOWN_CONSTRUCTIONS:
            try:
                artifacts.append(KNOWN_CONSTRUCTIONS[spec.name]())
            except CertificationError as exc:
                failures.append(str(exc))
            continue
        try:
            artifacts.extend(certify_spec(spec))
        except CertificationError as exc:
            failures.append(str(exc))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for artifact in artifacts:
            path = out / artifact.filename
            with path.open("w", encoding="utf-8") as fh:
                json.dump(artifact.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
    return artifacts, failures


def load_artifact(path: str | Path) -> Certificate | Counterexample:
    """Load a certificate/counterexample JSON artifact from disk."""
    with Path(path).open(encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload.get("kind")
    if kind == Certificate.kind:
        return Certificate.from_json(payload)
    if kind == Counterexample.kind:
        return Counterexample.from_json(payload)
    raise CertificationError(f"unknown artifact kind {kind!r} in {path}")


def verify_counterexample(counterexample: Counterexample) -> None:
    """Re-check a counterexample artifact: re-route its witnesses and
    confirm the recorded cycle is a genuine cycle of their combined
    CDG.  Raises :class:`CertificationError` otherwise."""
    spec = registry.get(counterexample.scheme)
    topology = parse_topology(counterexample.topology_spec)
    by_key = {node_key(v): v for v in topology.nodes()}
    requests = []
    for src_key, dest_keys in counterexample.witnesses:
        requests.append(
            MulticastRequest(
                topology, by_key[src_key], tuple(by_key[k] for k in dest_keys)
            )
        )
    edges = _combined_route_cdg(spec, requests)
    keyed_edges = [(node_key(a), node_key(b)) for a, b in edges]
    if not validate_cycle(list(counterexample.cycle), keyed_edges):
        raise CertificationError(
            f"{counterexample.scheme} on {counterexample.topology_spec}: "
            "recorded counterexample cycle is not a cycle of the witness CDG"
        )


# ----------------------------------------------------------------------
# Table/status support (README "certified" column).
# ----------------------------------------------------------------------

_STATUS_CACHE: dict[str, str] = {}


def certificate_status(spec: registry.AlgorithmSpec) -> str:
    """Compact certification status for the registry's scheme table:
    ``certified`` (machine-checked acyclic CDG on the smallest
    representative topology), ``refuted`` (counterexample verified) or
    ``n/a`` (no dynamic deadlock claim).  Memoized per scheme name."""
    if spec.deadlock_free is None:
        return "n/a"
    cached = _STATUS_CACHE.get(spec.name)
    if cached is not None:
        return cached
    concrete = _concrete(spec)
    reps = _representative_specs(concrete)
    try:
        if concrete.deadlock_free:
            certify_claim(concrete, reps[0])
            status = "certified"
        else:
            certify_spec(concrete, reps[:1])
            status = "refuted"
    except CertificationError:
        status = "FAILED"
    _STATUS_CACHE[spec.name] = status
    return status
