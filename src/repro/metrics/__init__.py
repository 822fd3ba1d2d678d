"""Routing evaluation metrics: switching latency models (Fig. 2.3) and
static traffic measurements (§7.1)."""

from .static import additional_traffic, max_hops, traffic
from .route_latency import dest_latencies, max_latency, mean_latency
from .switching import (
    LATENCY_MODELS,
    SwitchingParams,
    circuit_switching_latency,
    store_and_forward_latency,
    virtual_cut_through_latency,
    wormhole_latency,
)

__all__ = [
    "LATENCY_MODELS",
    "SwitchingParams",
    "additional_traffic",
    "circuit_switching_latency",
    "dest_latencies",
    "max_hops",
    "max_latency",
    "mean_latency",
    "store_and_forward_latency",
    "traffic",
    "virtual_cut_through_latency",
    "wormhole_latency",
]
