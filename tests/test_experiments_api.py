"""Tests for the programmatic experiment-regeneration API."""

from __future__ import annotations

import dataclasses

import pytest

import repro.experiments as experiments
from repro.analysis.invariants import MINIMAL_TREE_SCHEMES
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    fig_7_7,
    fig_7_10,
    reproduce,
)
from repro.registry import get as get_spec


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
