"""Tests for switching latency models (Fig. 2.3) and static metrics (§7.1)."""

from __future__ import annotations

import pytest

from repro.experiments import _static_sweep
from repro.heuristics import multiple_unicast_route, sorted_mp_route
from repro.metrics import (
    SwitchingParams,
    additional_traffic,
    circuit_switching_latency,
    max_hops,
    store_and_forward_latency,
    traffic,
    virtual_cut_through_latency,
    wormhole_latency,
)
from repro.models import MulticastRequest
from repro.topology import Mesh2D


class TestSwitchingLatency:
    def setup_method(self):
        self.p = SwitchingParams()

    def test_transmission_time(self):
        assert self.p.transmission_time == pytest.approx(128 / 20e6)
        assert self.p.flit_time == pytest.approx(2 / 20e6)

    def test_saf_linear_in_distance(self):
        l1 = store_and_forward_latency(1, self.p)
        l10 = store_and_forward_latency(10, self.p)
        assert l10 == pytest.approx(l1 * 11 / 2)
        assert l1 == pytest.approx(2 * self.p.transmission_time)

    def test_pipelined_models_nearly_distance_free(self):
        """Fig. 2.3's point: for L >> L_f the wormhole latency barely
        depends on D, unlike store-and-forward."""
        for model in (virtual_cut_through_latency, circuit_switching_latency, wormhole_latency):
            l1, l20 = model(1, self.p), model(20, self.p)
            assert l20 < 2 * l1
        assert store_and_forward_latency(20, self.p) > 10 * store_and_forward_latency(1, self.p)

    def test_ordering_at_distance(self):
        """SAF is the slowest at any distance > 0 for these parameters."""
        for d in (1, 5, 20):
            saf = store_and_forward_latency(d, self.p)
            assert saf >= wormhole_latency(d, self.p)
            assert saf >= circuit_switching_latency(d, self.p)
            assert saf >= virtual_cut_through_latency(d, self.p)

    def test_wormhole_flit_granularity(self):
        small_flit = SwitchingParams(flit_bytes=1.0)
        assert wormhole_latency(10, small_flit) < wormhole_latency(10, SwitchingParams(flit_bytes=4.0))


class TestStaticMetrics:
    def test_traffic_and_additional(self):
        m = Mesh2D(6, 6)
        req = MulticastRequest(m, (0, 0), ((3, 0), (0, 2)))
        route = multiple_unicast_route(req)
        assert traffic(route) == 5
        assert additional_traffic(route, req) == 3
        assert max_hops(route, req) == 3

    def test_mean_additional_traffic(self):
        # one sweep point: k = 4 on 10 random multicast sets
        ((k, val),) = _static_sweep(
            Mesh2D(8, 8), {"multi-unicast": multiple_unicast_route}, (4,), runs_per_point=10
        )
        assert k == 4
        assert val > 0

    def test_sweep_shares_workload_across_algorithms(self):
        # every router of a sweep sees the same multicast sets, so two
        # copies of one router give equal columns
        rows = _static_sweep(
            Mesh2D(8, 8),
            {"a": multiple_unicast_route, "b": multiple_unicast_route},
            (2, 4),
            runs_per_point=5,
        )
        assert [k for k, _, _ in rows] == [2, 4]
        assert all(a == b for _, a, b in rows)

    def test_sorted_mp_beats_unicast_on_average(self):
        ((_, mp, uni),) = _static_sweep(
            Mesh2D(8, 8),
            {"sorted-MP": sorted_mp_route, "multi-unicast": multiple_unicast_route},
            (10,),
            runs_per_point=20,
        )
        assert mp < uni
