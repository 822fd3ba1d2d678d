"""Vectorized structure-of-arrays wormhole engine for fault-free path
worms.

The reference model (:mod:`repro.sim.reference`) steps one worm object
per event through the kernel.  This engine runs the *same* simulation
of plain path worms (``worm_style`` ``star``) over flat state:

* channel occupancy (``in_use``/``cap``) as NumPy arrays over interned
  channel ids;
* per-worm route cursors (``w_idx``), lengths, flit counts, message
  ids and injection ticks as parallel arrays;
* routes in one flat route pool (``rp_chan``/``rp_dest``), sliced per
  worm by ``w_off``;
* blocked state as per-channel FIFO waiter lists of worm ids.

Time is an integer flit clock.  The calendar is a bucket per tick
(found through a heap of tick keys, so empty ticks cost nothing).  A
span of upcoming ticks proven interaction-free commits as one
multi-tick frontier window — acquires, releases, deliveries and cursor
moves as bulk array ops; a tick that no window can commit runs through
the classic dispatcher, one event at a time.  Windows pay off only at
light load on large networks, which is where ``engine="auto"`` picks
this engine.  Only :func:`repro.sim.runner.run_dynamic` selects it, and
only for star worms on the exact flit grid
(:func:`repro.sim.runner.dense_refusal`); every other driver, fault
injection included, runs on the reference engine.

Parity contract
---------------

Event-for-event equality with the reference engine on the exact grid
(``SimConfig.exact_grid``: quantized arrivals and a power-of-two flit
time): every traffic delay is then a whole number of flit times, held
exactly in a float on the reference side, and this engine reproduces
the reference kernel's dispatch order exactly — pre-scheduled bucket
entries run in scheduling order, zero-delay work appends to the live
bucket (the immediate lane), and releases wake waiters FIFO.  A window
commits only what it proves that order would do (see
:meth:`DenseEngine._run_window`).  The parity suite asserts identical
delivery streams and latency summaries across engines.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import SimConfig

__all__ = ["DenseEngine", "EngineCounters"]

# calendar entry kinds (first element of a tuple entry); a *list* entry
# is a chunk of consecutive mid-route path-worm steps.
_STEP = 0    # (kind, w): a woken worm re-attempts its next hop
_REL = 1     # (kind, w, hop): release one held channel, latch delivery
_FIN = 2     # (kind, w): tail fully drained
_CALL = 3    # (kind, fn, args): inline callback (injection)
_ARR = 4     # (kind, w): path worm starts its arrival drain


def _ragged(starts, counts):
    """Expand ragged per-row ranges ``[starts[i], starts[i]+counts[i])``
    into flat ``(row, value)`` arrays."""
    tot = int(counts.sum())
    if tot == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    rep = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    cum = np.cumsum(counts) - counts
    return rep, np.arange(tot, dtype=np.int64) - cum[rep] + starts[rep]


@dataclass
class EngineCounters:
    """Dense-engine progress counters (a ``cache_stats()``-style API:
    :meth:`DenseEngine.cache_stats` returns them as a plain dict)."""

    #: non-empty ticks processed
    ticks: int = 0
    #: events dispatched one at a time (classic path)
    events: int = 0
    #: events committed inside frontier windows
    batched_events: int = 0
    #: most events one frontier window committed
    max_batch_width: int = 0
    #: NumPy array-op dispatches issued by the frontier windows (counted
    #: per code path, so ``array_ops / windows`` is the measured
    #: per-commit dispatch floor)
    array_ops: int = 0
    #: multi-tick frontier windows committed
    windows: int = 0
    #: frontier windows abandoned to per-tick dispatch mid-validation
    window_aborts: int = 0
    #: committed frontier-window widths (ticks merged -> count)
    window_hist: dict = field(default_factory=dict)
    #: most worms simultaneously in flight
    max_active_worms: int = 0
    #: total worms injected
    worms: int = 0
    #: deliveries recorded
    deliveries: int = 0
    #: channel-acquisition attempts that blocked
    blocks: int = 0
    #: blocked worms woken by a release
    wakes: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class DenseEngine:
    """Structure-of-arrays flit simulation core for path worms.

    Drop-in for the path-worm surface of
    :class:`~repro.sim.reference.WormholeNetwork`: ``inject_path``,
    ``config``, delays in seconds (``schedule``), ``run_to_completion``,
    ``now``, the worm counts and ``delivery_latencies``, so
    :func:`repro.sim.runner.inject_specs` and
    :func:`repro.sim.runner.run_dynamic` drive either engine unchanged.
    """

    #: routes at least this long use the vectorized edge-LUT interner
    LUT_MIN_HOPS = 8
    #: node-id width of the edge LUT (nodes must fit in LUT_BITS bits)
    LUT_BITS = 11

    def __init__(self, config: SimConfig):
        self.config = config
        self.tf = config.flit_time
        self.tick = 0
        self.counters = EngineCounters()
        self.active_worms = 0
        self.total_worms = 0

        # calendar: bucket of entries per integer tick
        self.buckets: dict[int, list] = {}
        self.tick_heap: list[int] = []
        self._pending: list = []

        # multi-tick frontier batching: adaptive window width,
        # consecutive-abort count and attempt cooldown (exponential
        # under sustained contention)
        self._win_k = 8
        self._win_bad = 0
        self._win_cool = 0
        self._win_cool_len = 16

        # channels (SoA over interned ids)
        n = 256
        self.chan_ids: dict = {}
        self.n_chan = 0
        self.cap = np.zeros(n, dtype=np.int32)
        self.in_use = np.zeros(n, dtype=np.int32)
        self.has_waiters = np.zeros(n, dtype=bool)
        self.waiters: dict[int, list[int]] = {}
        self._waiter_total = 0

        # worms (SoA)
        m = 1024
        self.n_worms = 0
        self.w_idx = np.zeros(m, dtype=np.int64)
        self.w_len = np.zeros(m, dtype=np.int64)
        self.w_flits = np.zeros(m, dtype=np.int64)
        self.w_mid = np.zeros(m, dtype=np.int64)
        self.w_inj = np.zeros(m, dtype=np.int64)
        self.w_off = np.zeros(m, dtype=np.int64)

        # flat route pool (path worms)
        p = 4096
        self.rp_chan = np.zeros(p, dtype=np.int64)
        self.rp_dest = np.zeros(p, dtype=bool)
        self.rp_used = 0
        #: lazily-filled (u << LUT_BITS | v) -> channel-id table, built
        #: the first time a long route over small-int nodes is injected
        #: (-1 = not interned yet); one table per capacity
        self._edge_luts: dict = {}
        self._dest_scratch = None
        #: node label -> dense small int for the edge LUTs
        self._node_ids: dict = {}

        # delivery stream (column-wise; Delivery objects built on demand)
        self.d_mid: list[int] = []
        self.d_inj: list[int] = []
        self.d_tick: list[int] = []

    # ------------------------------------------------------------------
    # Calendar.
    # ------------------------------------------------------------------

    def _bucket(self, t: int) -> list:
        b = self.buckets.get(t)
        if b is None:
            b = self.buckets[t] = []
            heapq.heappush(self.tick_heap, t)
        return b

    def _at(self, dt: int, entry) -> None:
        self._bucket(self.tick + dt).append(entry)

    def schedule(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` inline ``delay`` seconds from now, rounded
        to whole flit ticks (``SimConfig.ticks``)."""
        self._at(self.config.ticks(delay), (_CALL, fn, args))

    def _sched_step(self, w: int) -> None:
        """Schedule the next flit step of ``w`` one tick out.
        Consecutive mid-route steps coalesce into one chunk entry;
        arrivals are tagged at scheduling time so the window scan never
        needs a per-entry cursor read."""
        b = self._bucket(self.tick + 1)
        if self.w_idx[w] == self.w_len[w]:
            b.append((_ARR, w))
        elif b and type(b[-1]) is list:
            b[-1].append(w)
        else:
            b.append([w])

    @property
    def now(self) -> float:
        return self.tick * self.tf

    # ------------------------------------------------------------------
    # Channels.
    # ------------------------------------------------------------------

    def _chan(self, key, capacity: int | None = None) -> int:
        cid = self.chan_ids.get(key)
        if cid is not None:
            return cid
        cid = self.n_chan
        if cid == len(self.cap):
            self.cap = np.concatenate([self.cap, np.zeros(cid, dtype=np.int32)])
            self.in_use = np.concatenate([self.in_use, np.zeros(cid, dtype=np.int32)])
            self.has_waiters = np.concatenate(
                [self.has_waiters, np.zeros(cid, dtype=bool)]
            )
        self.n_chan = cid + 1
        self.chan_ids[key] = cid
        self.cap[cid] = capacity or self.config.channels_per_link
        return cid

    def _intern_route(self, nodes, destinations, off: int, n: int, cap: int) -> bool:
        """Vectorized route interning for long paths: node labels of
        any hashable kind intern to dense small ints, channel ids come
        from one gather on a lazily-filled ``(u << LUT_BITS) | v``
        table (one per capacity), delivery flags from a scratch
        membership array.  Returns False when the engine has seen more
        distinct nodes than a table covers and the caller must fall
        back to the per-hop loop."""
        lut = self._edge_luts.get(cap)
        if lut is None:
            lut = self._edge_luts[cap] = np.full(
                1 << (2 * self.LUT_BITS), -1, dtype=np.int32
            )
            if self._dest_scratch is None:
                self._dest_scratch = np.zeros(1 << self.LUT_BITS, dtype=bool)
        nid = self._node_ids
        try:
            arr = np.fromiter(
                map(nid.__getitem__, nodes), dtype=np.int64, count=n + 1
            )
        except KeyError:
            lim = 1 << self.LUT_BITS
            for x in nodes:
                if x not in nid:
                    if len(nid) >= lim:
                        return False
                    nid[x] = len(nid)
            arr = np.fromiter(
                map(nid.__getitem__, nodes), dtype=np.int64, count=n + 1
            )
        u = arr[:-1]
        v = arr[1:]
        keys = (u << self.LUT_BITS) | v
        cids = lut[keys]
        miss = cids < 0
        if miss.any():
            for i in np.flatnonzero(miss):
                lut[keys[i]] = self._chan((nodes[i], nodes[i + 1]), cap)
            cids = lut[keys]
        self.rp_chan[off : off + n] = cids
        scratch = self._dest_scratch
        dl = [nid[d] for d in destinations if d in nid]
        scratch[dl] = True
        self.rp_dest[off : off + n] = scratch[v]
        scratch[dl] = False
        return True

    def _block(self, w: int, cid: int) -> None:
        q = self.waiters.get(cid)
        if q is None:
            q = self.waiters[cid] = []
        q.append(w)
        self.has_waiters[cid] = True
        self._waiter_total += 1
        self.counters.blocks += 1

    def _wake(self, cid: int) -> None:
        """Wake every waiter of ``cid`` FIFO: each re-attempts its
        acquisition from the immediate lane, re-queueing if still
        blocked (mirrors ``WormholeNetwork.release``)."""
        q = self.waiters.get(cid)
        if not q:
            return
        self.waiters[cid] = []
        self.has_waiters[cid] = False
        self._waiter_total -= len(q)
        self._pending.extend([(_STEP, w) for w in q])
        self.counters.wakes += len(q)

    def _release_cid(self, cid: int) -> None:
        self.in_use[cid] -= 1
        if self._waiter_total:
            self._wake(cid)

    # ------------------------------------------------------------------
    # Worm bookkeeping.
    # ------------------------------------------------------------------

    def _grow_worms(self) -> None:
        m = len(self.w_idx)
        for name in ("w_idx", "w_len", "w_flits", "w_mid", "w_inj", "w_off"):
            arr = getattr(self, name)
            setattr(self, name, np.concatenate([arr, np.zeros(m, dtype=arr.dtype)]))

    def _new_worm(self, message_id: int, length: int, flits) -> int:
        w = self.n_worms
        if w == len(self.w_idx):
            self._grow_worms()
        self.n_worms = w + 1
        self.w_idx[w] = 0
        self.w_len[w] = length
        self.w_flits[w] = self.config.flits_per_message if flits is None else flits
        self.w_mid[w] = message_id
        self.w_inj[w] = self.tick
        self.active_worms += 1
        self.total_worms += 1
        c = self.counters
        c.worms += 1
        if self.active_worms > c.max_active_worms:
            c.max_active_worms = self.active_worms
        return w

    def _deliver(self, mid: int, inj_tick: int) -> None:
        self.d_mid.append(mid)
        self.d_inj.append(inj_tick)
        self.d_tick.append(self.tick)
        self.counters.deliveries += 1

    # ------------------------------------------------------------------
    # Injection (mirrors WormholeNetwork.inject_path).
    # ------------------------------------------------------------------

    def inject_path(
        self,
        message_id: int,
        nodes,
        destinations: set,
        capacity: int | None = None,
        flits: int | None = None,
    ) -> int:
        """Inject a path worm along ``nodes`` on the ``(u, v)``
        channels of ``capacity`` (default: the config's channels per
        link); members of ``destinations`` latch a copy as the tail
        passes them."""
        cap = capacity or self.config.channels_per_link
        n = len(nodes) - 1
        w = self._new_worm(message_id, n, flits)
        need = self.rp_used + n
        # >= keeps one slack slot past rp_used so a gather may read
        # (but never use) one position beyond a finished route
        if need >= len(self.rp_chan):
            extra = max(len(self.rp_chan), need - len(self.rp_chan))
            self.rp_chan = np.concatenate([self.rp_chan, np.zeros(extra, dtype=np.int64)])
            self.rp_dest = np.concatenate([self.rp_dest, np.zeros(extra, dtype=bool)])
        off = self.rp_used
        self.w_off[w] = off
        self.rp_used = need
        # a long route interns through the edge LUTs
        if not (
            n >= self.LUT_MIN_HOPS
            and self._intern_route(nodes, destinations, off, n, cap)
        ):
            rp_chan = self.rp_chan
            rp_dest = self.rp_dest
            for i in range(n):
                v = nodes[i + 1]
                rp_chan[off + i] = self._chan((nodes[i], v), cap)
                rp_dest[off + i] = v in destinations
        if n == 0:  # degenerate: source-only path
            self.active_worms -= 1
            return w
        self._advance_path(w)
        return w

    # ------------------------------------------------------------------
    # Scalar path-worm kernels (the classic dispatch).
    # ------------------------------------------------------------------

    def _advance_path(self, w: int) -> None:
        i = int(self.w_idx[w])
        cid = int(self.rp_chan[self.w_off[w] + i])
        if self.in_use[cid] >= self.cap[cid]:
            self._block(w, cid)
            return
        self.in_use[cid] += 1
        self.w_idx[w] = i + 1
        j = i - int(self.w_flits[w])
        if j >= 0:
            self._release_path_hop(w, j)
        self._sched_step(w)

    def _arrive_path(self, w: int) -> None:
        D = int(self.w_len[w])
        F = int(self.w_flits[w])
        pend = self._pending
        for i in range(max(0, D - F), D):
            d = i + F - D
            if d == 0:
                pend.append((_REL, w, i))
            else:
                self._at(d, (_REL, w, i))
        if F == 1:
            pend.append((_FIN, w))
        else:
            self._at(F - 1, (_FIN, w))

    def _release_path_hop(self, w: int, i: int) -> None:
        p = int(self.w_off[w] + i)
        self._release_cid(int(self.rp_chan[p]))
        if self.rp_dest[p]:
            self._deliver(int(self.w_mid[w]), int(self.w_inj[w]))

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run_to_completion(self) -> bool:
        """Run the calendar dry.  Returns True if every worm finished;
        False indicates deadlock (blocked worms, no pending events)."""
        buckets = self.buckets
        heap = self.tick_heap
        c = self.counters
        while heap:
            t = heapq.heappop(heap)
            pending = buckets.pop(t)
            self.tick = t
            self._pending = pending
            c.ticks += 1
            # a window of upcoming ticks may be provably interaction-free
            # (no touched channel has waiters, every acquire fits) and
            # drain in one vectorized commit; a tick no window can
            # commit runs through the ordered classic dispatcher
            if self._win_cool:
                self._win_cool -= 1
            elif self._run_window(t, pending):
                continue
            self._run_classic(pending)
        self._pending = []
        return self.active_worms == 0

    def _run_classic(self, pending: list) -> None:
        """Dispatch ``pending`` (live — entries may append) one event
        at a time, in exact reference order."""
        c = self.counters
        advance = self._advance_path
        i = 0
        while i < len(pending):
            e = pending[i]
            i += 1
            if type(e) is list:
                # a chunk holds mid-route worms only (arrivals are
                # tagged _ARR when scheduled)
                for w in e:
                    advance(w)
                c.events += len(e)
                continue
            k = e[0]
            if k == _STEP:
                advance(e[1])
            elif k == _REL:
                self._release_path_hop(e[1], e[2])
            elif k == _ARR:
                self._arrive_path(e[1])
            elif k == _FIN:
                self.active_worms -= 1
            else:  # _CALL
                e[1](*e[2])
            c.events += 1

    # ------------------------------------------------------------------
    # Multi-tick frontier windows.
    # ------------------------------------------------------------------
    #
    # An unblocked path worm's trajectory is a straight line: a worm at
    # cursor i0 when tick t starts acquires route position p at tick
    # t + (p - i0), releases it (delivering if flagged) at
    # t + (p - i0) + F, arrives at a = t + (L - i0) and finishes at
    # a + F - 1 — provided no acquire ever blocks.  A window [t, E) is
    # *sound* when (1) no touched channel has a waiter queue (blocked
    # worms elsewhere cannot interact: their wake would need a release
    # on their own channel, which is untouched), (2) no channel is
    # touched twice at the same tick and (3) a segmented occupancy scan
    # proves every windowed acquire fits under its channel's capacity
    # given every windowed release.  A sound window admits no block,
    # wake or queue-jump, so all K ticks commit in one fixed set of
    # array ops;
    # the delivery stream is replayed in exact reference order from a
    # closed-form sort key (see _run_window).  Any foreign calendar
    # entry (an injection or other callback) clips the window,
    # and a failed proof falls back to one-tick dispatch, so parity is
    # preserved unconditionally.

    #: frontier windows never merge more than this many ticks
    WIN_MAX = 512

    def _run_window(self, t: int, pending: list) -> bool:
        """Try to drain every event in ``[t, t + win_k)`` in one
        vectorized commit.  Returns False — with no state mutated —
        when the window cannot be proven sound; the caller then runs
        tick ``t`` through the ordinary one-tick dispatch."""
        c = self.counters
        heap = self.tick_heap
        buckets = self.buckets
        E = t + self._win_k
        # -- phase 1: scan tick t itself, before touching the heap —
        # a foreign entry (an injection or other callback) here is
        # the common bail and must stay cheap (code 3 =
        # pre-scheduled finish)
        ow: list[int] = []
        ocode: list[int] = []
        oarg: list[int] = []
        for e in pending:
            if type(e) is list:
                ow.extend(e)
                k = len(e)
                ocode.extend([0] * k)
                oarg.extend([-1] * k)
                continue
            k = e[0]
            if k == _REL:
                ow.append(e[1])
                ocode.append(1)
                oarg.append(e[2])
            elif k == _ARR:
                ow.append(e[1])
                ocode.append(2)
                oarg.append(-1)
            elif k == _FIN:
                ow.append(e[1])
                ocode.append(3)
                oarg.append(-1)
            else:
                return False
        # -- phase 2: collect the window's pre-scheduled buckets; any
        # entry besides an arrival drain (_REL/_FIN) clips the window
        taken: list = []
        while heap and heap[0] < E:
            tk = heap[0]
            b = buckets[tk]
            ok = True
            for e in b:
                k = e[0] if type(e) is tuple else -1
                if k != _REL and k != _FIN:
                    ok = False
                    break
            if not ok:
                E = tk
                break
            heapq.heappop(heap)
            del buckets[tk]
            taken.append((tk, b))
        if E - t < 2:
            for tk, b in taken:
                heapq.heappush(heap, tk)
                buckets[tk] = b
            return False
        wv = np.array(ow, dtype=np.int64)
        code = np.array(ocode, dtype=np.int8)
        arg = np.array(oarg, dtype=np.int64)
        mrows = np.flatnonzero((code == 0) | (code == 2))
        mw = wv[mrows]
        i0 = self.w_idx[mw]
        off = self.w_off[mw]
        L = self.w_len[mw]
        F = self.w_flits[mw]
        arr = t + L - i0
        fin = arr + F - 1
        # pre-scheduled drains: tick-t release rows + collected buckets
        rel_rows = np.flatnonzero(code == 1)
        pos_b = self.w_off[wv[rel_rows]] + arg[rel_rows]
        ch_b = self.rp_chan[pos_b]
        n_fin0 = int(np.count_nonzero(code == 3))
        pre_w: list[int] = []
        pre_p: list[int] = []
        pre_tk: list[int] = []
        pre_ix: list[int] = []
        fin_tk: list[int] = []
        for tk, b in taken:
            j = 0
            for e in b:
                if e[0] == _REL:
                    pre_w.append(e[1])
                    pre_p.append(e[2])
                    pre_tk.append(tk)
                    pre_ix.append(j)
                    j += 1
                else:
                    fin_tk.append(tk)
        pw_full = np.array(pre_w, dtype=np.int64)
        pos_p_full = self.w_off[pw_full] + np.array(pre_p, dtype=np.int64)
        ch_p_full = self.rp_chan[pos_p_full]
        tk_p_full = np.array(pre_tk, dtype=np.int64)
        pre_ix_full = np.array(pre_ix, dtype=np.int64)
        fin_tka = np.array(fin_tk, dtype=np.int64)
        # -- phase 3: soundness proof, clipping to the sound prefix.
        # Per-channel event trajectories ordered by tick: any touch of
        # a waiter channel or any acquire the segmented occupancy scan
        # cannot fit shrinks the window to end just before the first
        # conflicting tick, and the smaller window is re-proven.
        while True:
            K_eff = E - t
            # windowed trajectory slices (route positions p)
            a_hi = np.minimum(L, i0 + K_eff)
            r_lo = np.maximum(0, i0 - F)
            r_hi = np.maximum(r_lo, np.minimum(L, i0 + K_eff - F))
            rep_a, p_a = _ragged(i0, a_hi - i0)
            rep_r, p_r = _ragged(r_lo, r_hi - r_lo)
            ch_a = self.rp_chan[off[rep_a] + p_a]
            tk_a = t + p_a - i0[rep_a]
            pos_r = off[rep_r] + p_r
            ch_r = self.rp_chan[pos_r]
            tk_r = t + p_r + F[rep_r] - i0[rep_r]
            psel = tk_p_full < E
            pw = pw_full[psel]
            pos_p = pos_p_full[psel]
            ch_p = ch_p_full[psel]
            tk_p = tk_p_full[psel]
            pre_ixa = pre_ix_full[psel]
            ch_all = np.concatenate([ch_a, ch_r, ch_b, ch_p])
            if not ch_all.size:
                break
            tk_all = np.concatenate(
                [tk_a, tk_r, np.full(ch_b.size, t, dtype=np.int64), tk_p]
            )
            t_bad = E
            # waiters elsewhere are harmless, but a touched channel
            # with a waiter queue could wake or queue-jump mid-window
            if self._waiter_total:
                wmask = self.has_waiters[ch_all]
                if bool(np.any(wmask)):
                    t_bad = int(tk_all[wmask].min())
            ds = np.ones(ch_all.size, dtype=np.int64)
            ds[ch_a.size:] = -1
            # stable sort puts acquires before releases within a
            # (channel, tick) tie: the occupancy scan then proves the
            # worst-case intra-tick order fits, so the real bucket
            # order (which can only release earlier) fits too and no
            # acquire can block
            o = np.lexsort((tk_all, ch_all))
            chs = ch_all[o]
            ds = ds[o]
            same = chs[1:] == chs[:-1]
            cs = np.cumsum(ds)
            starts = np.flatnonzero(
                np.concatenate([[True], ~same])
            )
            counts = np.diff(np.concatenate([starts, [chs.size]]))
            base = np.repeat(cs[starts] - ds[starts], counts)
            occ = cs - base + self.in_use[chs]
            viol = (ds > 0) & (occ > self.cap[chs])
            if bool(np.any(viol)):
                t_bad = min(t_bad, int(tk_all[o][viol].min()))
            if t_bad >= E:
                break
            c.array_ops += 30
            if t_bad - t < 2:
                for tk, b in taken:
                    heapq.heappush(heap, tk)
                    buckets[tk] = b
                c.window_aborts += 1
                self._win_k = max(2, self._win_k >> 1)
                self._win_bad += 1
                if self._win_bad >= 4:
                    self._win_bad = 0
                    self._win_cool = self._win_cool_len
                    self._win_cool_len = min(1024, self._win_cool_len * 2)
                return False
            E = t_bad
        # conflicting-suffix buckets go back on the calendar
        if taken and taken[-1][0] >= E:
            keep: list = []
            for tk, b in taken:
                if tk >= E:
                    heapq.heappush(heap, tk)
                    buckets[tk] = b
                else:
                    keep.append((tk, b))
            taken = keep
        n_pre_fin = n_fin0 + int(np.count_nonzero(fin_tka < E))
        # -- phase 4: commit.  Channel occupancy moves by each
        # channel's net windowed delta; cursors jump to the window end
        if ch_all.size:
            ends = starts + counts - 1
            net = cs[ends] - (cs[starts] - ds[starts])
            self.in_use[chs[starts]] += net.astype(np.int32)
        if mrows.size:
            self.w_idx[mw] = a_hi
        nfin_w = int(np.count_nonzero(fin < E))
        self.active_worms -= nfin_w + n_pre_fin
        # deliveries, replayed in exact reference order.  Within one
        # tick the bucket runs (a) drains appended by arrivals >= 2
        # ticks back, ordered by (arrival tick, frontier row); then (b)
        # the frontier walk in row order — step releases interleaved
        # with day-1 drains of worms that arrived the tick before; then
        # (c) the immediate-lane drains of worms arriving this very
        # tick, appended behind the walk, in row order.  The (tick, category, key1, key2) sort
        # below reproduces that order in closed form.
        dm_r = self.rp_dest[pos_r]
        dm_b = self.rp_dest[pos_b]
        dm_p = self.rp_dest[pos_p]
        ndel = int(dm_r.sum()) + int(dm_b.sum()) + int(dm_p.sum())
        if ndel:
            fr = np.flatnonzero(dm_r)
            arr_f = arr[rep_r[fr]]
            tau_f = tk_r[fr]
            row_f = mrows[rep_r[fr]]
            cat_f = np.where(
                tau_f >= arr_f + 2, 0, np.where(tau_f == arr_f, 2, 1)
            )
            drain = cat_f == 0
            k1_f = np.where(drain, arr_f, row_f)
            k2_f = np.where(drain, row_f, 0)
            br = np.flatnonzero(dm_b)
            pr_ = np.flatnonzero(dm_p)
            tau = np.concatenate(
                [tau_f, np.full(br.size, t, dtype=np.int64), tk_p[pr_]]
            )
            cat = np.concatenate(
                [
                    cat_f,
                    np.ones(br.size, dtype=np.int64),
                    np.full(pr_.size, -1, dtype=np.int64),
                ]
            )
            k1 = np.concatenate(
                [
                    k1_f,
                    rel_rows[br],
                    pre_ixa[pr_],
                ]
            )
            k2 = np.concatenate(
                [k2_f, np.zeros(br.size + pr_.size, dtype=np.int64)]
            )
            dw = np.concatenate([mw[rep_r[fr]], wv[rel_rows[br]], pw[pr_]])
            so = np.lexsort((k2, k1, cat, tau))
            mids = self.w_mid[dw[so]].tolist()
            injs = self.w_inj[dw[so]].tolist()
            taus = tau[so].tolist()
            self.d_mid.extend(mids)
            self.d_inj.extend(injs)
            self.d_tick.extend(taus)
            c.deliveries += ndel
        # residual events past the window end, appended in virtual
        # execution order: first the drains of worms arriving by E-2
        # (by arrival tick then row), then the bucket-E frontier walk —
        # surviving movers as one chunk, split in row order by arrival
        # markers and the day-1 drains of tick-(E-1) arrivals
        transit = a_hi < L
        resid = ~transit & (arr < E) & ((r_hi < L) | (fin >= E))
        early = np.flatnonzero(resid & (arr <= E - 2))
        if early.size:
            eo = early[np.lexsort((early, arr[early]))]
            for j in eo.tolist():
                w = int(mw[j])
                base_t = t + int(F[j]) - int(i0[j])
                for p in range(int(r_hi[j]), int(L[j])):
                    self._bucket(base_t + p).append((_REL, w, p))
                if fin[j] >= E:
                    self._bucket(int(fin[j])).append((_FIN, w))
        late = resid & (arr == E - 1)
        walk = np.flatnonzero(transit | (arr == E) | late)
        if walk.size:
            ent: list = []
            cur: list = []
            tr_l = transit.tolist()
            arrE_l = (arr == E).tolist()
            for j in walk.tolist():
                w = int(mw[j])
                if tr_l[j]:
                    cur.append(w)
                    continue
                if cur:
                    ent.append(cur)
                    cur = []
                if arrE_l[j]:
                    ent.append((_ARR, w))
                    continue
                base_t = t + int(F[j]) - int(i0[j])
                for p in range(int(r_hi[j]), int(L[j])):
                    tkp = base_t + p
                    if tkp == E:
                        ent.append((_REL, w, p))
                    else:
                        self._bucket(tkp).append((_REL, w, p))
                if fin[j] == E:
                    ent.append((_FIN, w))
                elif fin[j] > E:
                    self._bucket(int(fin[j])).append((_FIN, w))
            if cur:
                ent.append(cur)
            if ent:
                self._bucket(E).extend(ent)
        # the reference pops a bucket for every in-window event tick;
        # land self.tick on the last of them so ``now`` stays exact
        # even when the calendar runs dry inside the window
        last = t
        if tk_a.size:
            last = max(last, int(tk_a.max()))
        if tk_r.size:
            last = max(last, int(tk_r.max()))
        if tk_p.size:
            last = max(last, int(tk_p.max()))
        if mrows.size:
            inwin = arr[arr < E]
            if inwin.size:
                last = max(last, int(inwin.max()))
            finwin = fin[fin < E]
            if finwin.size:
                last = max(last, int(finwin.max()))
        self.tick = last
        c.ticks += last - t
        c.windows += 1
        c.window_hist[K_eff] = c.window_hist.get(K_eff, 0) + 1
        c.array_ops += 40
        nbatch = int(ch_all.size) + nfin_w + n_pre_fin
        c.batched_events += nbatch
        if nbatch > c.max_batch_width:
            c.max_batch_width = nbatch
        self._win_bad = 0
        self._win_k = min(self.WIN_MAX, self._win_k * 2)
        self._win_cool_len = 16
        return True

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict:
        """Engine counters plus table sizes, as a plain dict (the same
        shape as ``Topology.cache_stats``)."""
        out = self.counters.to_dict()
        out["channels"] = self.n_chan
        out["route_pool_used"] = int(self.rp_used)
        return out

    def delivery_latencies(self) -> list[tuple[int, float]]:
        """``(message_id, latency)`` per delivery (latency in seconds),
        in delivery order."""
        tf = self.tf
        # computed as delivered_at - injected_at (not (t - inj) * tf) so
        # the floats match the reference model's Delivery.latency
        return [
            (mid, t * tf - inj * tf)
            for mid, inj, t in zip(self.d_mid, self.d_inj, self.d_tick)
        ]
