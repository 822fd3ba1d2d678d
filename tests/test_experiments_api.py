"""Tests for the programmatic experiment-regeneration API."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.experiments as experiments
from repro.analysis.invariants import MINIMAL_TREE_SCHEMES
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    fault_degradation,
    fig_7_7,
    fig_7_10,
    reproduce,
)
from repro.parallel import NoResultsError, SweepJob, pooled_latency, replicate, run_sweep
from repro.registry import get as get_spec
from repro.sim import SimConfig
from repro.topology import Mesh2D


class TestExperimentResult:
    def test_series_extraction(self):
        r = ExperimentResult(
            "x", "desc", "k", ("a", "b"), ((1, 10.0, 20.0), (2, 11.0, 21.0))
        )
        assert r.series("a") == [10.0, 11.0]
        assert r.series("b") == [20.0, 21.0]
        assert r.series("k") == [1, 2]  # the swept parameter itself
        with pytest.raises(ValueError):
            r.series("c")

    def test_as_table(self):
        r = ExperimentResult("x", "My figure", "k", ("a",), ((1, 2.0),))
        table = r.as_table()
        assert "My figure" in table
        assert "2.00" in table

    def test_as_table_without_rows(self):
        # benchmarks/conftest.py's emit formats every archived table
        # here, so an empty sweep still prints its title and header
        r = ExperimentResult("x", "Empty", "k", ("long name",), ())
        assert r.as_table() == "Empty\n\nk  long name\n-  ---------"


class TestRegistry:
    def test_all_eleven_figures_registered(self):
        assert set(EXPERIMENTS) == {
            f"fig7.{i}" for i in range(1, 12)
        }

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            reproduce("fig9.99")


class TestRegeneration:
    def test_static_figure_small_scale(self):
        r = fig_7_7(runs_per_point=4)
        assert r.columns == ("multi-path", "dual-path", "fixed-path")
        assert len(r.rows) == 6
        # the Fig 7.7 shape at even tiny replication
        for row in r.rows:
            assert row[1] <= row[2] * 1.25  # multi ~<= dual
            assert row[2] <= row[3] * 1.05  # dual <= fixed

    def test_dynamic_figure_small_scale(self):
        r = fig_7_10(messages_per_point=120)
        dual = r.series("dual-path")
        assert dual[-1] > dual[0]  # latency grows with load

    def test_reproduce_scales_replication(self):
        r = reproduce("fig7.7", scale=0.05)
        assert isinstance(r, ExperimentResult)
        assert len(r.rows) == 6

    def test_cli_reproduce(self, capsys):
        from repro.cli import main

        assert main(["reproduce", "fig7.7", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Fig 7.7" in out


class TestStaticFigureRoutes:
    """The routers do not check their own output, so this is where the
    routes behind Figs 7.1-7.7 are checked: each against its request,
    and the Def. 3.4 tree schemes for shortest paths too."""

    @pytest.mark.parametrize("name", [f"fig7.{i}" for i in range(1, 8)])
    def test_every_route_validates(self, name, monkeypatch):
        resolved, checked = [], []

        def validating_spec(scheme):
            resolved.append(scheme)
            spec = get_spec(scheme)
            route_fn = spec.fn
            # Def. 3.4: the minimal tree schemes must use shortest paths
            kwargs = {"shortest_paths": True} if spec.name in MINIMAL_TREE_SCHEMES else {}

            def routed(request):
                route = route_fn(request)
                route.validate(request, **kwargs)
                checked.append(scheme)
                return route

            return dataclasses.replace(spec, fn=routed)

        plain = reproduce(name, scale=0.05)
        monkeypatch.setattr(experiments, "get_spec", validating_spec)
        assert reproduce(name, scale=0.05).rows == plain.rows
        # every route function the figure resolved ran and was checked
        assert resolved and set(checked) == set(resolved)


def _cmd_faults_records(topology, schemes, rates, cfg, replications):
    """The job list and aggregation ``repro faults`` wrote inline before
    :func:`fault_degradation`, kept verbatim (in-process sweep)."""
    # one sweep point per (scheme, rate); replications derive their
    # seeds from the base seed, so every scheme sees the same traffic
    # and the same fault schedule at a given rate (paired comparison)
    jobs: list = []
    points: list = []
    for scheme in schemes:
        for rate in rates:
            reps = replicate(
                SweepJob(
                    topology, scheme, cfg.replace(link_fault_rate=rate), "resilient"
                ),
                replications,
            )
            points.append((scheme, rate, len(jobs), len(reps)))
            jobs.extend(reps)

    failures: list = []
    results = run_sweep(jobs, workers=1, on_error="record", failures=failures)

    records = []
    for scheme, rate, start, count in points:
        chunk = results[start : start + count]
        ok = [r for r in chunk if r is not None]
        delivered = sum(r.stats.delivered for r in ok)
        expected = sum(r.expected_deliveries for r in ok)
        try:
            pooled = pooled_latency(ok, failures)
            mean_us = pooled.mean * 1e6
            ci_us = pooled.ci_halfwidth * 1e6
        except NoResultsError:
            mean_us = ci_us = float("nan")
        records.append(
            {
                "scheme": scheme,
                "fault_rate": rate,
                "delivery_ratio": delivered / expected if expected else float("nan"),
                "mean_latency_us": mean_us,
                "ci_halfwidth_us": ci_us,
                "delivered": delivered,
                "expected": expected,
                "killed_worms": sum(r.stats.killed_worms for r in ok),
                "retries": sum(r.stats.retries for r in ok),
                "detoured": sum(r.stats.detoured for r in ok),
                "replications_ok": len(ok),
                "replications_failed": count - len(ok),
            }
        )
    return records, failures


class TestFaultDegradation:
    def test_matches_the_inline_cli_aggregation(self):
        """Records (key order and NaN rows included) and failures equal
        the old ``repro faults`` loop's; the single-channel X-first tree
        wedges, so one point pools nothing."""
        mesh = Mesh2D(4, 4)
        schemes = ("dual-path-adaptive", "xfirst-tree")
        rates = (0.0, 0.1)
        cfg = SimConfig(num_messages=80, num_destinations=4, mean_interarrival=40e-6, seed=11)
        records, failures = fault_degradation(
            mesh, schemes, rates, replicate(cfg, 2), workers=1
        )
        old_records, old_failures = _cmd_faults_records(mesh, schemes, rates, cfg, 2)
        assert json.dumps(records) == json.dumps(old_records)
        assert [str(f) for f in failures] == [str(f) for f in old_failures]
        assert failures and any(r["replications_failed"] for r in records)
        assert [(r["scheme"], r["fault_rate"]) for r in records] == [
            (s, rate) for s in schemes for rate in rates
        ]

    def test_bench_smoke_run_leaves_the_committed_record_untouched(self, monkeypatch, tmp_path):
        """``bench_fault_degradation.py --smoke`` without ``--output``
        writes to a scratch path, not over the committed full-mode
        ``BENCH_faults.json``."""
        import importlib.util
        import sys
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / "bench_fault_degradation.py"
        spec = importlib.util.spec_from_file_location("bench_fault_degradation", path)
        bench = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, bench)
        spec.loader.exec_module(bench)
        assert not bench.SMOKE_OUTPUT.resolve().is_relative_to(bench.REPO_ROOT)
        committed = bench.OUTPUT.read_bytes()
        monkeypatch.setattr(bench, "SMOKE_OUTPUT", tmp_path / "smoke.json")
        assert bench.main(["--smoke", "--workers", "1"]) == 0
        assert bench.OUTPUT.read_bytes() == committed
        assert json.loads((tmp_path / "smoke.json").read_text())["mode"] == "smoke"
