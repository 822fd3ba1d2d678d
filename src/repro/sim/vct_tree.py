"""Tree multicast under virtual cut-through — the ref. [21] router
style (Lan/Ni/Esfahanian's VLSI multicast router, §1.2).

Before wormhole routing, multicast trees were safe: a virtual
cut-through router replicates the message at branch nodes *after
buffering it*, so each branch proceeds independently and a blocked
branch never stalls its siblings — no lockstep, no cross-branch channel
dependencies, no Fig. 6.1 deadlock.  The price is store-and-forward
behaviour at every replication point.

Chapter 6's whole premise is that this approach "does not carry over"
to wormhole switching; this model quantifies the comparison: VCT trees
are deadlock-free out of the box but pay full-message buffering delay
per branch level, while the Chapter 6 wormhole schemes avoid both the
deadlock and the buffering.
"""

from __future__ import annotations

from collections import defaultdict

from .reference import WormholeNetwork
from .vct import inject_vct_path


def tree_chains(arcs, source):
    """Decompose a multicast tree into root/branch-to-branch chains:
    maximal paths whose interior nodes have exactly one child."""
    children: defaultdict = defaultdict(list)
    for u, v in arcs:
        children[u].append(v)
    chains: list = []
    _walk(children, source, chains)
    return chains


def _walk(children, start, chains: list) -> None:
    """Append the chains below ``start`` to ``chains``, depth first (a
    module function: a nested one recursing through its own closure
    would be a reference cycle)."""
    for child in children[start]:
        chain = [start, child]
        node = child
        while len(children[node]) == 1:
            node = children[node][0]
            chain.append(node)
        chains.append(chain)
        if children[node]:
            _walk(children, node, chains)


class VCTTreeMulticast:
    """Drives one multicast tree as independent VCT chain messages:
    each chain is launched when the full message has been buffered at
    its head (the replication rule of a cut-through multicast router)."""

    def __init__(self, net: WormholeNetwork, message_id: int, arcs, source, destinations):
        self.net = net
        self.message_id = message_id
        self.dests = set(destinations)
        self.chains_by_head = defaultdict(list)
        for chain in tree_chains(list(arcs), source):
            self.chains_by_head[chain[0]].append(chain)
        self.source = source
        self.injected_at = net.env.now

    def start(self) -> None:
        self._launch_from(self.source)

    def _launch_from(self, node) -> None:
        for chain in self.chains_by_head.get(node, ()):  # one VCT worm per chain
            tail_node = chain[-1]
            dests_on_chain = (set(chain[1:]) & self.dests) | {tail_node}
            worm = inject_vct_path(
                self.net,
                self.message_id,
                chain,
                dests_on_chain & self.dests,
            )
            # latency is measured from the original injection, not from
            # this chain's replication time
            worm.injected_at = self.injected_at
            # when the tail arrives at the chain end, replicate onward
            worm.on_finished = lambda node=tail_node: self._launch_from(node)


def inject_vct_tree(
    net: WormholeNetwork, message_id: int, arcs, source, destinations
) -> VCTTreeMulticast:
    """Inject a multicast tree as buffered-replication VCT chains."""
    mc = VCTTreeMulticast(net, message_id, arcs, source, destinations)
    mc.start()
    return mc
