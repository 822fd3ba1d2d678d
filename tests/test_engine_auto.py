"""``engine="auto"`` — per-run engine selection from workload features,
the default of :func:`repro.sim.runner.run_dynamic`.

The policy (:func:`repro.sim.runner.choose_engine`) must (a) pick the
dense engine exactly where its frontier windows pay off, and never off
the exact flit grid, (b) record every feature that fed the decision in
``result.engine_stats["auto"]``, and (c) never change the numbers: a
default run equals a forced reference run.
"""

from dataclasses import replace

import pytest

from repro.parallel import SweepJob, run_sweep
from repro.sim.config import InvalidConfigError, SimConfig
from repro.sim.runner import (
    AUTO_GAP_TICKS,
    AUTO_MIN_HOPS,
    choose_engine,
    run_dynamic,
    run_resilient,
    _make_router,
)
from repro.topology import Hypercube, Mesh2D

DYADIC = dict(bandwidth=2**21, flit_bytes=2, quantize_arrivals=True)


def _light_config(**kw):
    """Sparse Poisson traffic: aggregate injection gap well above the
    window-amortization threshold."""
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


def _decide(topology, scheme, config, **kw):
    return choose_engine(topology, _make_router(topology, scheme, config), config, **kw)


class TestChooseEngine:
    def test_light_fixed_path_picks_dense(self):
        engine, feats = _decide(Hypercube(7), "fixed-path", _light_config())
        assert engine == "dense"
        assert feats["decision"] == "dense"
        assert feats["reason"] == "frontier-windows"
        assert feats["aggregate_gap_ticks"] >= AUTO_GAP_TICKS
        assert feats["route_hops"] >= AUTO_MIN_HOPS

    def test_saturated_picks_reference(self):
        engine, feats = _decide(
            Hypercube(6), "fixed-path", _light_config(mean_interarrival=300e-6)
        )
        assert engine == "reference"
        assert feats["reason"] == "saturated"
        assert feats["aggregate_gap_ticks"] < AUTO_GAP_TICKS

    def test_short_routes_pick_reference(self):
        # dual-path on a small mesh splits each multicast into two short
        # worms — too few frontier rows to clear the dispatch crossover
        engine, feats = _decide(
            Mesh2D(16, 16), "dual-path", _light_config(num_destinations=6)
        )
        assert engine == "reference"
        assert feats["reason"] == "short-routes"
        assert 0 < feats["route_hops"] < AUTO_MIN_HOPS
        assert feats["worms_per_message"] >= 2

    def test_tree_style_picks_reference(self):
        engine, feats = _decide(Hypercube(6), "ecube-tree", _light_config())
        assert engine == "reference"
        assert feats["reason"] == "worm-style"
        assert feats["worm_style"] == "tree"

    def test_unquantized_grid_picks_reference(self):
        cfg = _light_config().replace(quantize_arrivals=False)
        engine, feats = _decide(Hypercube(6), "fixed-path", cfg)
        assert engine == "reference"
        assert feats["reason"] == "inexact-grid"

    def test_inexact_flit_time_picks_reference_without_probe(self):
        # the paper's 20 MB/s: quantized arrivals, but a 0.1 us flit
        # time is no power of two, so the grid is not exact and no
        # request is routed to decide
        cfg = _light_config(bandwidth=20e6)
        assert not cfg.exact_grid
        engine, feats = _decide(Hypercube(7), "fixed-path", cfg)
        assert engine == "reference"
        assert feats["reason"] == "inexact-grid"
        assert feats["route_hops"] is None and feats["worms_per_message"] is None

    def test_features_are_complete(self):
        _, feats = _decide(Hypercube(7), "fixed-path", _light_config())
        for key in (
            "worm_style",
            "nodes",
            "interarrival_ticks",
            "aggregate_gap_ticks",
            "gap_threshold_ticks",
            "flits_per_message",
            "num_destinations",
            "route_hops",
            "hops_threshold",
            "worms_per_message",
            "exact_grid",
            "decision",
            "reason",
        ):
            assert key in feats, key


class TestRunDynamicAuto:
    def test_dense_decision_matches_dense_run(self):
        topo, cfg = Hypercube(7), _light_config()
        auto = run_dynamic(topo, "fixed-path", cfg, engine="auto")
        dense = run_dynamic(topo, "fixed-path", cfg, engine="dense")
        assert auto.engine == "dense"
        assert auto.engine_stats["auto"]["decision"] == "dense"
        assert (auto.sim_time, auto.deliveries, auto.worms) == (
            dense.sim_time,
            dense.deliveries,
            dense.worms,
        )
        assert auto.latency == dense.latency
        # the dense counters stay alongside the decision record
        assert "windows" in auto.engine_stats

    def test_reference_decision_matches_reference_run(self):
        topo = Hypercube(6)
        cfg = _light_config(mean_interarrival=500e-6, num_messages=20)
        auto = run_dynamic(topo, "fixed-path", cfg, engine="auto")
        ref = run_dynamic(topo, "fixed-path", cfg, engine="reference")
        assert auto.engine == "reference"
        assert auto.engine_stats["auto"]["decision"] == "reference"
        assert (auto.sim_time, auto.deliveries) == (ref.sim_time, ref.deliveries)
        assert auto.latency == ref.latency

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_dynamic(Hypercube(4), "fixed-path", _light_config(), engine="bogus")

    def test_default_picks_dense_on_exact_grid(self):
        topo, cfg = Hypercube(7), _light_config()
        auto = run_dynamic(topo, "fixed-path", cfg)
        ref = run_dynamic(topo, "fixed-path", cfg, engine="reference")
        assert auto.engine == "dense"
        assert auto.engine_stats["auto"]["reason"] == "frontier-windows"
        assert replace(auto, engine="reference", engine_stats=None) == ref

    def test_default_off_exact_grid_equals_reference(self):
        # at 20 MB/s the dense engine's integer clock would round the
        # reference's float calendar and move the mean latency
        topo, cfg = Hypercube(7), _light_config(bandwidth=20e6)
        auto = run_dynamic(topo, "fixed-path", cfg)
        ref = run_dynamic(topo, "fixed-path", cfg, engine="reference")
        assert auto.engine_stats["auto"]["reason"] == "inexact-grid"
        assert replace(auto, engine_stats=None) == ref

    @pytest.mark.parametrize("kw", [dict(bandwidth=20e6), dict(quantize_arrivals=False)],
                             ids=["flit-0.1us", "unquantized"])
    def test_forced_dense_off_exact_grid_raises(self, kw):
        cfg = _light_config(**kw)
        assert not cfg.exact_grid
        with pytest.raises(InvalidConfigError, match="exact flit grid"):
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
        # the light-load cell auto sends to dense: a resilient run stays
        # on the fault-aware reference network even with no faults, and
        # on the flit grid it matches the dense run event for event
        topo, cfg = Hypercube(7), _light_config()
        res = run_resilient(topo, "fixed-path", cfg)
        assert (res.engine, res.engine_stats) == ("reference", None)
        dense = run_dynamic(topo, "fixed-path", cfg, engine="auto")
        assert dense.engine == "dense"
        assert (res.sim_time, res.latency, res.deliveries, res.worms) == (
            dense.sim_time, dense.latency, dense.deliveries, dense.worms
        )


class TestSweepAuto:
    def test_checkpoint_roundtrip(self, tmp_path):
        """A resumed job keeps its engine record: auto sends this light
        cube:7 load to dense, and the checkpoint restores ``engine`` and
        ``engine_stats`` (``window_hist`` keys back to ints)."""
        from repro.parallel import SweepStats

        jobs = [
            SweepJob(Hypercube(7), "fixed-path", _light_config(seed=s))
            for s in (1, 2)
        ]
        ckpt = str(tmp_path / "sweep.jsonl")
        first = run_sweep(jobs, workers=1, checkpoint=ckpt)
        assert [r.engine for r in first] == ["dense", "dense"]
        stats = SweepStats()
        again = run_sweep(jobs, workers=1, checkpoint=ckpt, resume=True, stats=stats)
        assert stats.resumed == len(jobs)
        assert again == first
