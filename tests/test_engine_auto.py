"""``engine="auto"`` — the default of :func:`repro.sim.runner.run_dynamic`.

One engine remains, so the decision
(:func:`repro.sim.runner.choose_engine`) is always the reference
engine, whose free-flight windows engage at run time on what the run
shows.  The policy must (a) pick it on every load, grid and worm style,
without routing a probe request, (b) record its features in
``result.engine_stats["auto"]``, and (c) never change the numbers: a
default run equals a forced reference run and a hop-by-hop one.  Sweep
checkpoints written while the dense engine existed still resume.
"""

import json
from dataclasses import replace

import pytest

import repro.sim.runner as sim_runner
from repro.parallel import SweepJob, SweepStats, run_sweep
from repro.sim.config import InvalidConfigError, SimConfig
from repro.sim.kernel import LegacyEnvironment
from repro.sim.runner import (
    choose_engine,
    run_dynamic,
    run_resilient,
    _make_router,
)
from repro.topology import Hypercube, Mesh2D

DYADIC = dict(bandwidth=2**21, flit_bytes=2, quantize_arrivals=True)


def _light_config(**kw):
    """Sparse Poisson traffic on the exact flit grid."""
    base = dict(
        mean_interarrival=360000e-6,
        num_messages=30,
        num_destinations=4,
        channels_per_link=2,
        seed=11,
        **DYADIC,
    )
    base.update(kw)
    return SimConfig(**base)


def _decide(topology, scheme, config):
    return choose_engine(topology, _make_router(topology, scheme, config), config)


def _hop_by_hop(topology, scheme, config):
    saved = sim_runner.Environment
    sim_runner.Environment = LegacyEnvironment
    try:
        return run_dynamic(topology, scheme, config, engine="reference")
    finally:
        sim_runner.Environment = saved


def _outcome(result):
    return (result.latency, result.sim_time, result.deliveries, result.worms)


class TestChooseEngine:
    def test_saturated_picks_reference(self):
        engine, feats = _decide(
            Hypercube(6), "fixed-path", _light_config(mean_interarrival=300e-6)
        )
        assert engine == "reference"
        assert feats["reason"] == "free-flight"

    def test_short_routes_pick_reference(self):
        engine, feats = _decide(
            Mesh2D(16, 16), "dual-path", _light_config(num_destinations=6)
        )
        assert engine == "reference"
        assert feats["worm_style"] == "star"

    def test_tree_style_picks_reference(self):
        engine, feats = _decide(Hypercube(6), "ecube-tree", _light_config())
        assert engine == "reference"
        assert feats["reason"] == "worm-style"
        assert feats["worm_style"] == "tree"

    def test_unquantized_grid_picks_reference(self):
        # windows fly off the exact grid too
        cfg = _light_config().replace(quantize_arrivals=False)
        engine, feats = _decide(Hypercube(6), "fixed-path", cfg)
        assert engine == "reference"
        assert feats["reason"] == "free-flight"

    def test_inexact_flit_time_picks_reference_without_probe(self):
        # the paper's 20 MB/s: a 0.1 us flit time is no power of two;
        # the decision routes no request either way
        cfg = _light_config(bandwidth=20e6)
        assert not cfg.exact_grid
        router = _make_router(Hypercube(7), "fixed-path", cfg)
        calls = []
        router.spec = replace(router.spec, fn=lambda *a: calls.append(a))
        engine, feats = choose_engine(Hypercube(7), router, cfg)
        assert engine == "reference" and feats["reason"] == "free-flight"
        assert calls == []

    def test_features_are_complete(self):
        _, feats = _decide(Hypercube(7), "fixed-path", _light_config())
        assert feats == {"worm_style": "star", "decision": "reference", "reason": "free-flight"}
        _, feats = _decide(Hypercube(7), "virtual-channel-2", _light_config())
        assert feats["reason"] == "free-flight"


class TestRunDynamicAuto:
    def test_reference_decision_matches_reference_run(self):
        topo = Hypercube(6)
        cfg = _light_config(mean_interarrival=500e-6, num_messages=20)
        auto = run_dynamic(topo, "fixed-path", cfg, engine="auto")
        ref = run_dynamic(topo, "fixed-path", cfg, engine="reference")
        assert auto.engine == "reference"
        assert auto.engine_stats["auto"]["decision"] == "reference"
        assert (auto.sim_time, auto.deliveries) == (ref.sim_time, ref.deliveries)
        assert auto.latency == ref.latency
        assert auto.engine_stats["windows"] == ref.engine_stats["windows"]

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_dynamic(Hypercube(4), "fixed-path", _light_config(), engine="bogus")

    def test_default_off_exact_grid_equals_reference(self):
        # at 20 MB/s a window adds flit times as hop-by-hop dispatch does
        topo, cfg = Hypercube(7), _light_config(bandwidth=20e6)
        assert not cfg.exact_grid
        auto = run_dynamic(topo, "fixed-path", cfg)
        ref = run_dynamic(topo, "fixed-path", cfg, engine="reference")
        assert auto.engine_stats["windows"]["windows"] > 0
        assert replace(auto, engine_stats=None) == replace(ref, engine_stats=None)
        assert _outcome(auto) == _outcome(_hop_by_hop(topo, "fixed-path", cfg))

    @pytest.mark.parametrize("kw", [dict(bandwidth=20e6), dict(quantize_arrivals=False)],
                             ids=["flit-0.1us", "unquantized"])
    def test_forced_dense_off_exact_grid_raises(self, kw):
        cfg = _light_config(**kw)
        assert not cfg.exact_grid
        with pytest.raises(InvalidConfigError, match="removed"):
            run_dynamic(Hypercube(7), "fixed-path", cfg, engine="dense")


class TestOtherDriversAuto:
    def test_resilient_with_faults_goes_reference(self):
        # resilient runs take no engine: the result reports the
        # fault-aware reference network and carries no decision record
        cfg = _light_config(link_fault_rate=0.02, fault_mtbf=1.0, num_messages=15)
        res = run_resilient(Hypercube(6), "fixed-path", cfg)
        assert res.engine == "reference"
        assert res.engine_stats is None

    def test_resilient_faultfree_goes_reference(self):
        # a resilient run stays on the fault-aware network, which never
        # flies, and on the flit grid it matches the windowed run event
        # for event
        topo, cfg = Hypercube(7), _light_config()
        res = run_resilient(topo, "fixed-path", cfg)
        assert (res.engine, res.engine_stats) == ("reference", None)
        auto = run_dynamic(topo, "fixed-path", cfg, engine="auto")
        assert auto.engine_stats["windows"]["windows"] > 0
        assert (res.sim_time, res.latency, res.deliveries, res.worms) == (
            auto.sim_time, auto.latency, auto.deliveries, auto.worms
        )


class TestSweepAuto:
    def test_checkpoint_roundtrip(self, tmp_path):
        """A resumed job keeps its engine record, and a checkpoint
        written while the dense engine existed still resumes, with its
        ``window_hist`` keys back to ints."""
        jobs = [
            SweepJob(Hypercube(7), "fixed-path", _light_config(seed=s))
            for s in (1, 2)
        ]
        ckpt = tmp_path / "sweep.jsonl"
        first = run_sweep(jobs, workers=1, checkpoint=str(ckpt))
        assert [r.engine for r in first] == ["reference", "reference"]
        stats = SweepStats()
        again = run_sweep(jobs, workers=1, checkpoint=str(ckpt), resume=True, stats=stats)
        assert stats.resumed == len(jobs)
        assert again == first
        # the same records as a dense run wrote them
        records = [json.loads(line) for line in ckpt.read_text().splitlines()]
        for record in records:
            record["result"]["engine"] = "dense"
            record["result"]["engine_stats"] = {
                "windows": 3, "window_hist": {"8": 2, "512": 1}, "auto": {"decision": "dense"},
            }
        ckpt.write_text("".join(json.dumps(r) + "\n" for r in records))
        stats = SweepStats()
        old = run_sweep(jobs, workers=1, checkpoint=str(ckpt), resume=True, stats=stats)
        assert stats.resumed == len(jobs)
        assert [r.engine for r in old] == ["dense", "dense"]
        assert old[0].engine_stats["window_hist"] == {8: 2, 512: 1}
        assert [_outcome(r) for r in old] == [_outcome(r) for r in first]
