"""Tests for the ASCII visualisation module and the command-line
interface."""

from __future__ import annotations

import pytest

from repro.cli import main, parse_node, parse_topology
from repro.heuristics import sorted_mc_route, sorted_mp_route, xfirst_route
from repro.labeling import BoustrophedonMeshLabeling
from repro.models import MulticastRequest
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D
from repro.viz import render_labeling, render_quadrants, render_route, route_arcs
from repro.wormhole import dual_path_route


class TestViz:
    def setup_method(self):
        self.mesh = Mesh2D(4, 4)
        self.req = MulticastRequest(self.mesh, (0, 0), ((3, 0), (0, 3)))

    def test_route_arcs_path(self):
        path = sorted_mp_route(self.req)
        arcs = route_arcs(path)
        assert len(arcs) == path.traffic

    def test_route_arcs_cycle_closes(self):
        cyc = sorted_mc_route(self.req)
        arcs = route_arcs(cyc)
        assert len(arcs) == cyc.traffic

    def test_route_arcs_tree_and_star(self):
        assert len(route_arcs(xfirst_route(self.req))) == xfirst_route(self.req).traffic
        star = dual_path_route(self.req)
        assert len(route_arcs(star)) == star.traffic

    def test_route_arcs_rejects_unknown(self):
        with pytest.raises(TypeError):
            route_arcs(object())

    def test_render_route_glyphs(self):
        art = render_route(self.mesh, xfirst_route(self.req), self.req)
        assert art.count("S") == 1
        assert art.count("D") == 2
        assert "--" in art
        # 4 node rows + 3 separator rows
        assert len(art.splitlines()) == 7

    def test_render_labeling_matches(self):
        lab = BoustrophedonMeshLabeling(self.mesh)
        art = render_labeling(self.mesh, lab)
        lines = art.splitlines()
        # bottom row is labels 0..3
        assert lines[-1].split() == ["0", "1", "2", "3"]
        # second row from bottom is reversed (boustrophedon)
        assert lines[-2].split() == ["7", "6", "5", "4"]

    def test_render_quadrants(self):
        art = render_quadrants(Mesh2D(3, 3), (1, 1), ((2, 2), (0, 0)))
        assert "S" in art
        assert "+X+Y" in art and "-X-Y" in art


class TestTopologyParsing:
    def test_mesh(self):
        t = parse_topology("mesh:6x4")
        assert isinstance(t, Mesh2D) and (t.width, t.height) == (6, 4)

    def test_mesh3d(self):
        t = parse_topology("mesh3d:2x3x4")
        assert isinstance(t, Mesh3D)

    def test_cube(self):
        t = parse_topology("cube:5")
        assert isinstance(t, Hypercube) and t.n == 5

    def test_torus(self):
        t = parse_topology("torus:4x2")
        assert isinstance(t, KAryNCube) and (t.k, t.n) == (4, 2)

    def test_bad_specs(self):
        import argparse

        from repro import topology

        for bad in ("ring:5", "mesh:axb", "mesh", "cube:x"):
            with pytest.raises(argparse.ArgumentTypeError) as cli_error:
                parse_topology(bad)
            # the topology layer owns the grammar and raises ValueError
            # with the text the CLI shows
            with pytest.raises(ValueError) as error:
                topology.parse_topology(bad)
            assert str(error.value) == str(cli_error.value)

    def test_parse_node_mesh(self):
        m = Mesh2D(4, 4)
        assert parse_node(m, "2,3") == (2, 3)

    def test_parse_node_cube_binary(self):
        h = Hypercube(4)
        assert parse_node(h, "0b1010") == 0b1010
        assert parse_node(h, "12") == 12

    def test_parse_node_rejects_foreign(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_node(Mesh2D(2, 2), "5,5")


class TestCLI:
    def test_route(self, capsys):
        rc = main(
            [
                "route", "--topology", "mesh:6x6", "--source", "3,2",
                "--dest", "0,0", "--dest", "5,4", "--algorithm", "dual-path",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "traffic=" in out and "max_hops=" in out

    def test_route_show(self, capsys):
        rc = main(
            [
                "route", "--topology", "mesh:4x4", "--source", "0,0",
                "--dest", "3,3", "--algorithm", "xfirst", "--show",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "S" in out and "D" in out

    def test_route_on_cube(self, capsys):
        rc = main(
            [
                "route", "--topology", "cube:4", "--source", "0b1100",
                "--dest", "0b0011", "--dest", "0b1111", "--algorithm", "greedy-st",
            ]
        )
        assert rc == 0

    def test_route_is_checked_before_it_is_printed(self, monkeypatch, capsys):
        """Routers do not check their output; ``route`` does."""
        import dataclasses

        from repro import registry
        from repro.models import InvalidRouteError, MulticastTree

        def stray(request):  # one arc from the source, far from the destination
            return MulticastTree(request.topology, request.source, (((0, 0), (1, 0)),))

        get = registry.get
        monkeypatch.setattr(
            registry, "get", lambda name: dataclasses.replace(get(name), fn=stray)
        )
        with pytest.raises(InvalidRouteError, match="does not reach"):
            main(["route", "--topology", "mesh:4x4", "--source", "0,0",
                  "--dest", "3,3", "--algorithm", "xfirst"])
        assert capsys.readouterr().out == ""

    def test_simulate(self, capsys):
        rc = main(
            [
                "simulate", "--topology", "mesh:6x6", "--scheme", "multi-path",
                "--messages", "100", "--dests", "5",
            ]
        )
        assert rc == 0
        assert "mean latency" in capsys.readouterr().out

    def test_simulate_virtual_channels(self, capsys):
        rc = main(
            [
                "simulate", "--topology", "mesh:6x6",
                "--scheme", "virtual-channel-2", "--messages", "100",
            ]
        )
        assert rc == 0

    def test_mixed(self, capsys):
        rc = main(
            [
                "mixed", "--topology", "mesh:6x6", "--messages", "100",
                "--unicast-fraction", "0.6",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "unicast" in out and "multicast" in out

    def test_labels(self, capsys):
        assert main(["labels", "--topology", "mesh:4x3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].split() == ["0", "1", "2", "3"]

    def test_labels_spiral(self, capsys):
        assert main(["labels", "--topology", "mesh:4x3", "--spiral"]) == 0

    def test_labels_rejects_cube(self):
        assert main(["labels", "--topology", "cube:3"]) == 2

    def test_deadlock(self, capsys):
        assert main(["deadlock"]) == 0
        out = capsys.readouterr().out
        assert out.count("DEADLOCK") == 2
