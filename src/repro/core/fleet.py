"""Batched structure-of-arrays (SoA) fleet kernel: B switches per numpy op.

The fast kernel (:mod:`repro.core.hirise`) simulates one switch at a time
in pure-Python loops; replicate-style workloads (confidence intervals,
fuzz campaigns, saturation searches) run B independent instances of the
*same* :class:`~repro.core.config.HiRiseConfig` under different seeds,
traffic patterns and fault schedules.  This module holds those B
instances — called *lanes* — in preallocated 2-D/3-D numpy arrays
(occupancy, ownership, cooling, CLRG banks and LRG recency keys laid out
as ``(lane, resource)`` / ``(lane, port, vc)`` arrays) and advances all
lanes per vectorized operation: masked candidate selection, fused
transmit+refill, cooling clears and the two-phase arbitration as array
ops with ``np.lexsort``-based group reductions.

**Bit-identical per lane.**  Lane ``i`` of a fleet run produces exactly
the :class:`~repro.network.engine.SimulationResult` the scalar fast
kernel produces for the same (config, traffic, fault schedule), field
for field — including the deterministic latency-sample decimation.
The mapping from scalar semantics to array ops:

* the scalar per-port ascending scans (transmit, refill, request
  collection) become row-major ``np.nonzero`` orders, which sort by
  ``(lane, port)`` exactly like the scans;
* LRG recency keys are distinct, so every scalar ``min()`` pick has a
  unique argmin and the vectorized segment-minimum picks the same
  winner;
* the one ordering the set view cannot see — priority allocation lets a
  single pair arbiter establish *several* winners in one cycle, demoted
  in ``by_output`` dict-insertion order — is reconstructed explicitly:
  each phase-1 winner carries its dict-insertion key (``wkey``), each
  output group takes the minimum (``out_min``), and same-pair demotions
  are stamped in ``out_min`` order;
* the redundant phase-1/phase-2 busy/cooling re-checks of the scalar
  kernel are provable no-ops (nothing mutates between the request scan
  and the checks) and are omitted.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.channels import make_allocation
from repro.core.config import ArbitrationScheme, HiRiseConfig
from repro.faults import (
    CORRUPT_CLRG,
    FAIL_CHANNEL,
    FAIL_INPUT,
    REPAIR_CHANNEL,
    REPAIR_INPUT,
    FaultCursor,
    FaultSchedule,
)
from repro.network.engine import (
    DEFAULT_LATENCY_SAMPLE_LIMIT,
    SimulationResult,
)
from repro.obs.trace import (
    CLRG_HALVE,
    COOL,
    DRAIN_STALL,
    EJECT,
    FAULT_CHANNEL,
    FAULT_CLRG,
    FAULT_INJECT,
    FAULT_INPUT,
    FAULT_REPAIR,
    INJECT,
    P1_GRANT,
    P2_BLOCK,
    P2_GRANT,
    REASON_CHANNEL_FAILED,
    REASON_OUTPUT_BUSY,
    REASON_OUTPUT_COOLING,
    REASON_RESOURCE_BUSY,
    REASON_RESOURCE_COOLING,
    VIA_BLOCK,
)

#: wkey encoding: phase-1 winners iterate ints, then channels, then
#: pairs (dict-insertion order of the scalar kernel); within a kind the
#: order is by first-requesting port, and pair winners additionally by
#: free-channel position.  4096 > any channel multiplicity in practice.
_WKEY_PORT = 4096
_WKEY_CHAN = 1 << 30
_WKEY_PAIR = 1 << 31

#: Scatter-min sentinel: larger than every arbiter rank and phase-2 key.
_BIG = 1 << 62

#: Cycles of uniform traffic :class:`FleetSimulation` draws per lane scan.
_DRAW_BLOCK = 16


def fleet_supports(config: HiRiseConfig) -> bool:
    """Whether the fleet kernel can simulate ``config`` bit-identically.

    Everything the scalar fast kernel supports is covered except the
    QoS-weighted CLRG extension (float cost state with its own commit
    rule), which stays on the scalar path, and the VOQ input-queued
    schemes (iSLIP / MWM), which run on ``repro.switches.VOQSwitch``
    rather than the Hi-Rise kernel family.
    """
    return config.qos_weights is None and not config.uses_voq


def _group_starts(g_sorted):
    """Segment starts + lengths of a sorted group-id array."""
    brk = np.empty(g_sorted.size, dtype=bool)
    brk[0] = True
    np.not_equal(g_sorted[1:], g_sorted[:-1], out=brk[1:])
    starts = np.flatnonzero(brk)
    counts = np.empty(starts.size, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = g_sorted.size - starts[-1]
    return starts, counts


#: Unsigned view dtypes for the fast contiguous last-axis ``any``.
_ANY_VIEW = (
    {2: np.uint16, 4: np.uint32, 8: np.uint64} if np is not None else {}
)


def _any_last(a):
    """``a.any(axis=-1)`` for a C-contiguous bool array, fast.

    ``logical_or.reduce`` over a short innermost axis is pathologically
    slow in numpy; reinterpreting the V bools of each row as one
    unsigned word (V in {2, 4, 8}) or folding V column slices is an
    order of magnitude cheaper.
    """
    V = a.shape[-1]
    view = _ANY_VIEW.get(V)
    if view is not None and a.flags.c_contiguous:
        return a.view(view).reshape(a.shape[:-1]) != 0
    out = a[..., 0].copy()
    for v in range(1, V):
        out |= a[..., v]
    return out


def _replay_latency_samples(
    latencies: List[int], limit: Optional[int]
) -> Tuple[List[int], int]:
    """Replay ``SimulationResult.record_latency`` decimation exactly.

    Given the full ordered latency stream of one lane as a list of
    Python ints, return the ``(packet_latencies, _sample_stride)`` pair
    the scalar result would hold after recording them one at a time:
    the sample list keeps every ``stride``-th packet and halves itself
    (doubling the stride) each time it outgrows ``limit``.
    Phase-replayed (one slice per stride doubling) instead of
    element-at-a-time, so finalization stays cheap even for
    multi-million-packet runs.
    """
    if limit is None:
        return list(latencies), 1
    samples: List[int] = []
    stride = 1
    index = 0
    total = len(latencies)
    while index < total:
        room = limit + 1 - len(samples)
        take = latencies[index::stride][:room]
        taken = len(take)
        samples.extend(take)
        if taken < room:
            break  # stream exhausted before the next halving
        last = index + (taken - 1) * stride
        if len(samples) > limit:
            samples = samples[::2]
            stride *= 2
        # Next recorded index: smallest multiple of stride beyond `last`
        # (samples are always exactly the multiples of the live stride).
        index = last - (last % stride) + stride
    return samples, stride


class FleetKernel:
    """B Hi-Rise switch instances advanced as one set of array ops.

    Args:
        config: Shared architectural configuration of every lane.
        num_lanes: Number of lanes (B).
        faults: Optional per-lane fault schedules (``None`` entries mean
            no faults for that lane).

    Raises:
        ValueError: If the configuration is unsupported
            (see :func:`fleet_supports`) or ``num_lanes`` < 1.
    """

    def __init__(
        self,
        config: HiRiseConfig,
        num_lanes: int,
        faults: Optional[Sequence[Optional[FaultSchedule]]] = None,
    ) -> None:
        if num_lanes < 1:
            raise ValueError("need at least one lane")
        if not fleet_supports(config):
            raise ValueError(
                "config not supported by the fleet kernel "
                "(QoS-weighted CLRG stays on the scalar path)"
            )
        if faults is not None and len(faults) != num_lanes:
            raise ValueError(
                f"need one fault schedule entry per lane "
                f"({num_lanes}), got {len(faults)}"
            )
        self.config = config
        cfg = config
        B = self.num_lanes = num_lanes
        N = self.num_ports = cfg.radix
        self.allocation = make_allocation(cfg)
        V = self._V = cfg.port_config.num_vcs
        self._depth = cfg.port_config.vc_depth
        R = self._R = cfg.num_resources
        L = self._L = cfg.layers
        C = self._C = cfg.channel_multiplicity
        self._PPL = cfg.ports_per_layer
        S = self._S = cfg.subblock_inputs
        self._scheme = cfg.arbitration
        self._binned = self.allocation.is_binned

        # --- static lookup tables -------------------------------------
        self._layer_of = np.asarray(cfg.layer_of_port_table, dtype=np.int64)
        self._local_of = np.asarray(cfg.local_index_table, dtype=np.int64)
        # Flat rid -> sub-block slot (intermediates use the local slot;
        # the diagonal is -1 and never requested).
        slot_of_rid = np.full(R, cfg.local_slot, dtype=np.int64)
        slot_of_rid[N:] = np.asarray(
            cfg.slot_of_channel_table, dtype=np.int64
        )
        self._slot_of_rid = slot_of_rid
        # Port x destination static tables.
        self._same_layer = (
            self._layer_of[:, None] == self._layer_of[None, :]
        )
        self._pair_of = (
            self._layer_of[:, None] * L + self._layer_of[None, :]
        )
        if self._binned:
            nominal = np.empty((N, N), dtype=np.int64)
            for port in range(N):
                local = int(self._local_of[port])
                nominal[port] = [
                    self.allocation.channel_for(local, dst)
                    for dst in range(N)
                ]
            self._nominal_channel = nominal
        else:
            self._nominal_channel = None
        # Diagonal sentinel rid per source layer (permanently cooling).
        self._dead_rid = np.asarray(
            [cfg.channel_resource_id(l, l, 0) for l in range(L)],
            dtype=np.int64,
        )
        # Broadcast index helpers reused by the hot loop.
        self._b1 = np.arange(B, dtype=np.int64)
        self._b3 = self._b1[:, None, None]
        self._n3 = np.arange(N, dtype=np.int64)[None, :, None]
        self._v3 = np.arange(V, dtype=np.int64)[None, None, :]

        # --- port state -----------------------------------------------
        ii8 = np.int64
        self.active_vc = np.full((B, N), -1, dtype=ii8)
        self._rr_next_vc = np.zeros((B, N), dtype=ii8)
        self._refill_vc = np.zeros((B, N), dtype=ii8)
        self._refill_blocked = np.zeros((B, N), dtype=bool)

        # --- virtual channel state (one packet per VC, contiguous seqs)
        self._vc_owner = np.full((B, N, V), -1, dtype=ii8)   # packet id
        self._vc_cnt = np.zeros((B, N, V), dtype=ii8)        # buffered flits
        self._vc_lo = np.zeros((B, N, V), dtype=ii8)         # front flit seq
        self._vc_dst = np.zeros((B, N, V), dtype=ii8)
        self._vc_nf = np.ones((B, N, V), dtype=ii8)
        self._vc_created = np.zeros((B, N, V), dtype=ii8)
        # Flat views (reshape(-1) aliases the same buffers) plus the
        # (lane, port) -> flat VC base offsets, for cheap scatter/gather.
        self._vc_owner_f = self._vc_owner.reshape(-1)
        self._vc_cnt_f = self._vc_cnt.reshape(-1)
        self._vc_lo_f = self._vc_lo.reshape(-1)
        self._vc_dst_f = self._vc_dst.reshape(-1)
        self._vc_nf_f = self._vc_nf.reshape(-1)
        self._vc_created_f = self._vc_created.reshape(-1)
        self._flat_nv = (
            self._b1[:, None] * N + np.arange(N, dtype=ii8)[None, :]
        ) * V

        # --- source queues: a (B, N, cap, 4) record ring ---------------
        # One record per queued packet — [dst, num_flits, created, pid]
        # packed together so append/front touch one cache line per
        # packet instead of four scattered arrays.  Records are 32-bit:
        # at saturation the ring dominates memory traffic (random
        # 16-byte row scatters plus full-ring copies on growth), and
        # every field fits — inject_cycle rejects values >= 2**31.
        cap = 64
        self._q_cap = cap
        self._q = np.zeros((B, N, cap, 4), dtype=np.int32)
        # Front-of-queue record cache: refill reads the same front
        # packet for several cycles, so keep it in a small contiguous
        # array instead of re-gathering from the ring.
        self._front = np.zeros((B, N, 4), dtype=np.int32)
        # Ring pointers: wrapped head slot in [0, cap) plus a record
        # count, so the hot paths never need a modulo (appends can wrap
        # at most once past ``cap``).
        self._q_head = np.zeros((B, N), dtype=ii8)
        self._q_len = np.zeros((B, N), dtype=ii8)
        # Seq of the next flit of the front packet to enter a VC.
        self._q_front_seq = np.zeros((B, N), dtype=ii8)
        self._pending = np.zeros((B, N), dtype=ii8)   # queued flits
        self.lane_occupancy = np.zeros(B, dtype=ii8)  # flits per lane

        # --- path state -----------------------------------------------
        self.resource_owner = np.full((B, R), -1, dtype=ii8)
        self.output_owner = np.full((B, N), -1, dtype=ii8)
        self._conn_rid = np.full((B, N), -1, dtype=ii8)
        self._conn_out = np.full((B, N), -1, dtype=ii8)
        self._cool_in = np.zeros((B, N), dtype=bool)
        self._cool_out = np.zeros((B, N), dtype=bool)
        self._cool_res = np.zeros((B, R), dtype=bool)
        # Diagonal channel ids are dead sentinels: permanently cooling,
        # never in a teardown, so the incremental clear never resets them.
        for layer in range(L):
            for channel in range(C):
                self._cool_res[
                    :, cfg.channel_resource_id(layer, layer, channel)
                ] = True
        # Previous cycle's teardowns, as flat (B*N) / (B*R) cooling
        # indices (cleared at the next step start).
        empty = np.empty(0, dtype=ii8)
        self._tear = (empty, empty, empty)  # (in_base, out_base, res_base)

        # --- arbiter state (LRG recency keys; ascending initial order)
        # Intermediate-output arbiters (rid < N) and channel arbiters
        # (rid >= N) share one rid-indexed table, so binned phase 1 is a
        # single group-arbitrate pass and a single demotion scatter.
        PPL = self._PPL
        LL = L * L
        ramp_ppl = np.arange(PPL, dtype=ii8)
        self._loc_rank = np.broadcast_to(ramp_ppl, (B, R, PPL)).copy()
        self._loc_stamp = np.full((B, R), PPL, dtype=ii8)
        self._pair_rank = np.broadcast_to(ramp_ppl, (B, LL, PPL)).copy()
        self._pair_stamp = np.full((B, LL), PPL, dtype=ii8)
        scheme = self._scheme
        ramp_s = np.arange(S, dtype=ii8)
        if scheme is ArbitrationScheme.L2L_RR:
            self._sb_ptr = np.zeros((B, N), dtype=ii8)
        elif scheme is not ArbitrationScheme.AGE:
            self._sb_rank = np.broadcast_to(ramp_s, (B, N, S)).copy()
            self._sb_stamp = np.full((B, N), S, dtype=ii8)
            if scheme is ArbitrationScheme.WLRG:
                self._sb_served = np.zeros((B, N, S), dtype=ii8)
            elif scheme is ArbitrationScheme.CLRG:
                self._clrg_counts = np.zeros((B, N, N), dtype=ii8)

        # --- per-lane fault state -------------------------------------
        base_failed = frozenset(cfg.failed_channels)
        self._failed: List[frozenset] = [base_failed] * B
        self._stuck = np.zeros((B, N), dtype=bool)
        self._cursors: List[Optional[FaultCursor]] = [
            FaultCursor(schedule) if schedule is not None else None
            for schedule in (faults or [None] * B)
        ]
        self._have_faults = any(
            cursor is not None for cursor in self._cursors
        )

        # Per-lane healthy-channel mask over (packed pair, channel);
        # the diagonal rows stay False (never requested).
        healthy = np.zeros((B, LL, C), dtype=bool)
        for src in range(L):
            for dst in range(L):
                if src != dst:
                    healthy[:, src * L + dst, :] = True
        for (src, dst, channel) in base_failed:
            healthy[:, src * L + dst, channel] = False
        self._healthy = healthy
        if self._binned:
            self._rid_of_dst = np.empty((B, N, N), dtype=ii8)
            for lane in range(B):
                self._rebuild_lane_tables(lane)
        else:
            self._rid_of_dst = None

        # --- flat aliases and scratch (hot-loop fast paths) ------------
        # Single-index gathers/scatters through these reshape views are
        # several times cheaper than two-array advanced indexing at the
        # fleet's array sizes; every view aliases the array above it, so
        # fault handlers can keep writing the 2-D/3-D forms.
        self.active_vc_f = self.active_vc.reshape(-1)
        self._rr_next_vc_f = self._rr_next_vc.reshape(-1)
        self._refill_vc_f = self._refill_vc.reshape(-1)
        self._refill_blocked_f = self._refill_blocked.reshape(-1)
        self._q_head_f = self._q_head.reshape(-1)
        self._q_len_f = self._q_len.reshape(-1)
        self._q_front_seq_f = self._q_front_seq.reshape(-1)
        self._pending_f = self._pending.reshape(-1)
        self._front_f = self._front.reshape(-1, 4)
        self._q_f = self._q.reshape(-1, 4)
        self.resource_owner_f = self.resource_owner.reshape(-1)
        self.output_owner_f = self.output_owner.reshape(-1)
        self._conn_rid_f = self._conn_rid.reshape(-1)
        self._conn_out_f = self._conn_out.reshape(-1)
        self._cool_in_f = self._cool_in.reshape(-1)
        self._cool_out_f = self._cool_out.reshape(-1)
        self._cool_res_f = self._cool_res.reshape(-1)
        self._vc_owner_rows = self._vc_owner.reshape(-1, V)
        self._vc_dst_rows = self._vc_dst.reshape(-1, V)
        self._loc_rank_f = self._loc_rank.reshape(-1)
        self._loc_stamp_f = self._loc_stamp.reshape(-1)
        if self._rid_of_dst is not None:
            self._rid_of_dst_f = self._rid_of_dst.reshape(-1)
        if scheme is ArbitrationScheme.L2L_RR:
            self._sb_ptr_f = self._sb_ptr.reshape(-1)
        elif scheme is not ArbitrationScheme.AGE:
            self._sb_rank_f = self._sb_rank.reshape(-1)
            self._sb_stamp_f = self._sb_stamp.reshape(-1)
            if scheme is ArbitrationScheme.WLRG:
                self._sb_served_f = self._sb_served.reshape(-1)
            elif scheme is ArbitrationScheme.CLRG:
                self._clrg_counts_f = self._clrg_counts.reshape(-1)
                self._clrg_rows = self._clrg_counts.reshape(-1, N)
        # Dense per-group scratch for the scatter-min arbitration passes.
        self._dense_r = np.empty(B * R, dtype=ii8)
        self._dense_n = np.empty(B * N, dtype=ii8)
        # Native binary tracing (attach_tracer): grant-cycle and CLRG
        # halving counters exist only while a tracer is attached — they
        # feed event payloads, never the simulation itself.
        self._tracer = None
        self._grant_cycle = None
        self._halve_count = None
        # Opt-in phase-level perf counters (attach_perf): clock reads
        # only, so attached runs stay bit-identical per lane.
        self._perf = None
        # Round-robin VC pick via a 4-bit viability mask: a contiguous
        # (K, 4) bool viewed as uint32 packs the four flags into bytes
        # b0..b3; multiplying by 0x08040201 lands b3..b0 (no carries —
        # every partial product occupies distinct bits) in bits 24..27,
        # so ``(packed * M) >> 24`` is the reversed mask and a 64-entry
        # table maps (mask, rr_next) to the winning VC.  Little-endian
        # only (byte 0 must be VC 0); V != 4 uses the generic argmin.
        self._vc_lut = None
        if V == 4 and np.little_endian:
            lut = np.zeros(64, dtype=ii8)
            for nib in range(16):
                for r in range(4):
                    for off in range(4):
                        v = (r + off) % 4
                        if (nib >> (3 - v)) & 1:
                            lut[nib * 4 + r] = v
                            break
            self._vc_lut = lut

    # ------------------------------------------------------------------
    # Native binary tracing
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.tracebin.FleetTracer` (or detach).

        The kernel then emits the scalar fast kernel's event stream
        natively, per lane: every capture point appends lane-ordered
        batches, so ``tracer.lane_tracer(i)`` is event-for-event equal
        to a scalar :class:`~repro.obs.tracebin.BinaryTracer` run of
        lane ``i``.  Attach before the first ``step`` — the cooling
        events' ``granted`` cycle is recorded at establish time.
        """
        if tracer is not None:
            lanes = getattr(tracer, "num_lanes", self.num_lanes)
            if lanes != self.num_lanes:
                raise ValueError(
                    f"tracer has {lanes} lanes, kernel has "
                    f"{self.num_lanes}"
                )
            tracer.bind(self.config)
            if self._grant_cycle is None:
                B, N = self.num_lanes, self.num_ports
                self._grant_cycle = np.full((B, N), -1, dtype=np.int64)
                self._grant_cycle_f = self._grant_cycle.reshape(-1)
                self._halve_count = np.zeros((B, N), dtype=np.int64)
                self._halve_count_f = self._halve_count.reshape(-1)
        self._tracer = tracer

    def attach_perf(self, perf) -> None:
        """Attach :class:`repro.obs.perf.PerfCounters` (or detach).

        One counters object profiles the whole fleet (``lanes`` records
        the batch width): ``step`` phase-times one cycle in every
        ``perf.stride`` and the injection entry points are shadowed so
        batched injections are timed per call.  The counters only read
        the monotonic clock — attached runs stay bit-identical.
        """
        self._perf = perf
        if perf is not None:
            perf.bind(self)
            self.inject_cycle = self._inject_cycle_perf  # type: ignore[method-assign]
            self.inject_packed = self._inject_packed_perf  # type: ignore[method-assign]
        else:
            self.__dict__.pop("inject_cycle", None)
            self.__dict__.pop("inject_packed", None)

    def _inject_cycle_perf(
        self, lanes, srcs, dsts, created, num_flits, pids, _checked=False
    ) -> None:
        perf = self._perf
        start = time.perf_counter_ns()
        FleetKernel.inject_cycle(
            self, lanes, srcs, dsts, created, num_flits, pids, _checked
        )
        perf.add("inject", time.perf_counter_ns() - start, len(srcs))

    def _inject_packed_perf(self, gid, recs, lane_flits) -> None:
        perf = self._perf
        start = time.perf_counter_ns()
        FleetKernel.inject_packed(self, gid, recs, lane_flits)
        perf.add("inject", time.perf_counter_ns() - start, len(gid))

    # ------------------------------------------------------------------
    # Fault handling (rare; per-lane python mirroring apply_fault_events)
    # ------------------------------------------------------------------
    def _rebuild_lane_tables(self, lane: int) -> None:
        """Rebuild lane-local binned request tables after a fault event.

        Mirrors ``HiRiseSwitch._build_fast_tables``: the nominal binned
        channel remaps to the next healthy channel toward the same layer
        (cyclically), or to the source layer's diagonal sentinel when
        the whole pair is dead.
        """
        if not self._binned:
            return
        cfg = self.config
        L, C, N = self._L, self._C, cfg.radix
        healthy = self._healthy[lane]
        # remap[pair, nominal] -> healthy channel or -1 (pair dead).
        remap = np.full((L * L, C), -1, dtype=np.int64)
        for pair in range(L * L):
            if pair // L == pair % L:
                continue
            live = healthy[pair]
            for nominal in range(C):
                for offset in range(C):
                    channel = (nominal + offset) % C
                    if live[channel]:
                        remap[pair, nominal] = channel
                        break
        pair_t = self._pair_of                     # (N, N)
        chan = remap[pair_t, self._nominal_channel]
        rid = N + pair_t * C + chan
        dead = chan < 0
        if dead.any():
            sentinel = self._dead_rid[self._layer_of][:, None]
            rid = np.where(dead, np.broadcast_to(sentinel, rid.shape), rid)
        dst_ids = np.arange(N, dtype=np.int64)[None, :]
        self._rid_of_dst[lane] = np.where(self._same_layer, dst_ids, rid)

    def _apply_fault_events(self, lane: int, events, cycle: int = 0) -> None:
        """Per-lane twin of :func:`repro.faults.apply_fault_events`."""
        cfg = self.config
        L, C = self._L, self._C
        failed = set(self._failed[lane])
        tracer = self._tracer
        topology_changed = False
        for event in events:
            kind = event.kind
            if kind == FAIL_CHANNEL:
                channel = event.channel
                if channel[2] >= C or not (
                    0 <= channel[0] < L and 0 <= channel[1] < L
                ):
                    raise ValueError(
                        f"fault channel {channel} out of range"
                    )
                if channel in failed:
                    continue
                failed.add(channel)
                self._healthy[
                    lane, channel[0] * L + channel[1], channel[2]
                ] = False
                topology_changed = True
                if tracer is not None:
                    tracer.append_row(
                        cycle, lane, FAULT_INJECT, FAULT_CHANNEL,
                        cfg.channel_resource_id(*channel), 0,
                    )
            elif kind == REPAIR_CHANNEL:
                channel = event.channel
                if channel not in failed:
                    continue
                failed.discard(channel)
                self._healthy[
                    lane, channel[0] * L + channel[1], channel[2]
                ] = True
                topology_changed = True
                if tracer is not None:
                    tracer.append_row(
                        cycle, lane, FAULT_REPAIR, FAULT_CHANNEL,
                        cfg.channel_resource_id(*channel),
                    )
            elif kind == FAIL_INPUT:
                port = event.port
                if not 0 <= port < cfg.radix:
                    raise ValueError(f"fault port {port} out of range")
                if self._stuck[lane, port]:
                    continue
                self._stuck[lane, port] = True
                topology_changed = True
                if tracer is not None:
                    tracer.append_row(
                        cycle, lane, FAULT_INJECT, FAULT_INPUT, port, 0
                    )
            elif kind == REPAIR_INPUT:
                port = event.port
                if not self._stuck[lane, port]:
                    continue
                self._stuck[lane, port] = False
                topology_changed = True
                if tracer is not None:
                    tracer.append_row(
                        cycle, lane, FAULT_REPAIR, FAULT_INPUT, port
                    )
            elif kind == CORRUPT_CLRG:
                output = event.output
                if not 0 <= output < cfg.radix:
                    raise ValueError(
                        f"fault output {output} out of range"
                    )
                if self._scheme is not ArbitrationScheme.CLRG:
                    continue  # non-CLRG scheme: nothing to corrupt
                value = min(max(int(event.value), 0), cfg.num_classes - 1)
                if event.port is not None and not (
                    0 <= event.port < cfg.radix
                ):
                    raise ValueError(
                        f"fault port {event.port} out of range"
                    )
                if event.port is None:
                    self._clrg_counts[lane, output, :] = value
                else:
                    self._clrg_counts[lane, output, event.port] = value
                if tracer is not None:
                    tracer.append_row(
                        cycle, lane, FAULT_INJECT, FAULT_CLRG, output,
                        value,
                    )
            else:  # pragma: no cover - FaultEvent validates kinds
                raise ValueError(f"unknown fault kind {kind!r}")
        self._failed[lane] = frozenset(failed)
        if topology_changed:
            self._rebuild_lane_tables(lane)

    # ------------------------------------------------------------------
    # Injection (array-native source-queue ring append)
    # ------------------------------------------------------------------
    def _grow_rings(self, need: int) -> None:
        """Grow the shared ring capacity so ``need`` entries fit.

        Heads are always wrapped into ``[0, cap)``, so tiling the old
        ring twice into the new array puts each queue's record
        ``head + i`` (``i < length <= cap``, hence ``head + i <
        2 * cap <= new_cap``) at its un-wrapped position — two bulk
        copies, no index math.  Slots beyond each queue's length hold
        garbage by contract (``_q_len`` delimits validity), so the rest
        of the new array stays uninitialised.
        """
        cap = self._q_cap
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        B, N = self.num_lanes, self.num_ports
        new = np.empty((B, N, new_cap, 4), dtype=np.int32)
        new[:, :, :cap] = self._q
        new[:, :, cap:2 * cap] = self._q
        self._q = new
        self._q_f = new.reshape(-1, 4)
        self._q_cap = new_cap

    def inject_cycle(
        self, lanes, srcs, dsts, created, num_flits, pids, _checked=False
    ) -> None:
        """Append a batch of packets across lanes (one cycle's traffic).

        All arguments are equal-length integer arrays; rows may arrive
        in any order but rows of one ``(lane, src)`` queue keep their
        relative order, matching per-packet ``inject`` calls.
        ``_checked=True`` skips port-range validation for callers whose
        rows already passed traffic-model validation.

        Raises:
            ValueError: On an out-of-range source or destination port
                (the scalar ``inject`` contract).
            OverflowError: If ``num_flits``/``created``/``pids`` fall
                outside ``[0, 2**31)`` — ring records are 32-bit.
        """
        count = len(srcs)
        if count == 0:
            return
        N = self.num_ports
        if not _checked:
            if srcs.min() < 0 or srcs.max() >= N:
                bad = int(srcs[(srcs < 0) | (srcs >= N)][0])
                raise ValueError(f"source port {bad} out of range")
            if dsts.min() < 0 or dsts.max() >= N:
                bad = int(dsts[(dsts < 0) | (dsts >= N)][0])
                raise ValueError(f"destination port {bad} out of range")
        if ((num_flits | created | pids) >> 31).any():
            raise OverflowError(
                "fleet ring records are 32-bit: num_flits, created and "
                "pid must lie in [0, 2**31)"
            )
        gid = lanes * N + srcs
        unique = True
        if count > 1 and not (gid[1:] > gid[:-1]).all():
            unique = False
            if not (gid[1:] >= gid[:-1]).all():
                # Row streams from the harness arrive (lane, src)-sorted;
                # sort stably only when an external caller's batch is not.
                order = np.argsort(gid, kind="stable")
                gid = gid[order]
                lanes = lanes[order]
                dsts = dsts[order]
                created = created[order]
                num_flits = num_flits[order]
                pids = pids[order]
        recs = np.empty((count, 4), dtype=np.int32)
        recs[:, 0] = dsts
        recs[:, 1] = num_flits
        recs[:, 2] = created
        recs[:, 3] = pids
        if unique:
            # Each queue receives at most one packet (the synthetic
            # traffic models inject at most once per input per cycle),
            # so no grouping is needed.
            self._append_sorted(gid, recs, num_flits)
        else:
            starts, counts = _group_starts(gid)
            gb = gid[starts]
            qlen = self._q_len_f[gb]
            longest = int((qlen + counts).max())
            if longest > self._q_cap:
                self._grow_rings(longest)
            cap = self._q_cap
            slots = (
                np.repeat(self._q_head_f[gb] + qlen, counts)
                + np.arange(count, dtype=np.int64)
                - np.repeat(starts, counts)
            )
            # head < cap and final length <= cap, so one wrap suffices.
            slots -= (slots >= cap) * cap
            self._q_f[gid * cap + slots] = recs
            we = np.flatnonzero(qlen == 0)
            if we.size:
                self._front_f[gb[we]] = recs[starts[we]]
            self._q_len_f[gb] = qlen + counts
            self._pending_f[gb] += np.add.reduceat(num_flits, starts)
        np.add.at(self.lane_occupancy, lanes, num_flits)

    def _append_sorted(self, gid, recs, num_flits) -> None:
        """Append one record per queue; ``gid`` strictly increasing."""
        qlen = self._q_len_f[gid]
        longest = int(qlen.max()) + 1
        if longest > self._q_cap:
            self._grow_rings(longest)
        cap = self._q_cap
        slots = self._q_head_f[gid] + qlen
        slots -= (slots >= cap) * cap
        self._q_f[gid * cap + slots] = recs
        we = np.flatnonzero(qlen == 0)
        if we.size:
            self._front_f[gid[we]] = recs[we]
        self._q_len_f[gid] = qlen + 1
        self._pending_f[gid] += num_flits

    def inject_packed(self, gid, recs, lane_flits) -> None:
        """Append pre-packed packet records (the batched-driver path).

        The fleet analogue of handing ``inject_many`` a pre-staged
        ``Packet`` list: packing rows into the ring-record layout is
        packet *construction* and happens off the kernel's clock.

        Args:
            gid: Strictly increasing ``lane * num_ports + src`` array —
                at most one packet per source queue per call, rows
                pre-sorted (the natural order of a per-cycle traffic
                scan).
            recs: Matching ``(len(gid), 4)`` int32 record block, columns
                ``[dst, num_flits, created, packet_id]`` — the ring
                layout.  Port ranges and the 32-bit value bounds are the
                caller's contract (`inject_cycle` checks them when
                packing; :func:`stage_fleet_traffic`-style drivers check
                at staging time).
            lane_flits: Per-lane injected-flit totals, shape
                ``(num_lanes,)``.
        """
        if len(gid):
            self._append_sorted(gid, recs, recs[:, 1])
            self.lane_occupancy += lane_flits

    # ------------------------------------------------------------------
    # One fleet cycle
    # ------------------------------------------------------------------
    def step(self, cycle: int, active=None):
        """Advance every (active) lane one cycle.

        Args:
            cycle: Global cycle number (shared by all lanes).
            active: Optional boolean lane mask; inactive lanes receive
                no fault events (they are only ever inactive once empty,
                when stepping is a no-op for them anyway).

        Returns:
            ``(flit_counts, tail_lane, tail_src, tail_dst,
            tail_created)`` — per-lane ejected-flit counts plus one row
            per delivered packet, in the scalar per-port scan order.
        """
        if self._perf is not None:
            return self._step_perf(cycle, active)
        if self._have_faults:
            for lane, cursor in enumerate(self._cursors):
                if cursor is None:
                    continue
                if active is not None and not active[lane]:
                    continue
                due = cursor.take(cycle)
                if due:
                    self._apply_fault_events(lane, due, cycle)
        # Clear the previous cycle's teardown cooling (incremental).
        tbase, obase, rbase = self._tear
        if tbase.size:
            self._cool_in_f[tbase] = False
            self._cool_out_f[obase] = False
            self._cool_res_f[rbase] = False
        counts_and_tails = self._transmit(cycle)
        self._refill(cycle)
        self._arbitrate(cycle)
        return counts_and_tails

    def _step_perf(self, cycle: int, active=None):
        """Perf-counting step twin: phase-time one cycle per stride.

        The fleet phases are already separate array passes, so sampled
        cycles just put a monotonic read between them; op counts are
        fleet-aggregate (flits transmitted across all lanes).
        """
        perf = self._perf
        perf.cycles_total += 1
        sampled = cycle % perf.stride == 0
        if sampled:
            perf.cycles_sampled += 1
        ns = time.perf_counter_ns
        if self._have_faults:
            for lane, cursor in enumerate(self._cursors):
                if cursor is None:
                    continue
                if active is not None and not active[lane]:
                    continue
                due = cursor.take(cycle)
                if due:
                    self._apply_fault_events(lane, due, cycle)
        tbase, obase, rbase = self._tear
        if tbase.size:
            self._cool_in_f[tbase] = False
            self._cool_out_f[obase] = False
            self._cool_res_f[rbase] = False
        if not sampled:
            counts_and_tails = self._transmit(cycle)
            self._refill(cycle)
            self._arbitrate(cycle)
            return counts_and_tails
        t1 = ns()
        counts_and_tails = self._transmit(cycle)
        t2 = ns()
        self._refill(cycle)
        t3 = ns()
        self._arbitrate(cycle)
        t4 = ns()
        perf.add("transmit", t2 - t1, int(counts_and_tails[0].sum()))
        perf.add("refill", t3 - t2)
        perf.add("arbitrate", t4 - t3, len(counts_and_tails[1]))
        return counts_and_tails

    def _transmit(self, cycle: int):
        """Stream one flit on every connected port; tear down on tails."""
        act = self.active_vc
        busy = act >= 0
        # act is -1 on idle ports; `act * busy` clamps those to 0 so the
        # gather below stays in range (fire masks them out anyway).
        fidx_full = self._flat_nv + act * busy
        fire = busy & (self._vc_cnt_f[fidx_full] > 0)
        fb, fn = np.nonzero(fire)
        fbase = fb * self.num_ports + fn
        fidx = fidx_full.reshape(-1)[fbase]
        seq = self._vc_lo_f[fidx]
        nf = self._vc_nf_f[fidx]
        self._vc_lo_f[fidx] = seq + 1
        self._vc_cnt_f[fidx] -= 1
        self._refill_blocked_f[fbase] = False
        tracer = self._tracer
        tail = seq == nf - 1
        if tracer is not None and fb.size:
            # Ejects in the scalar per-port scan order: np.nonzero is
            # row-major, i.e. already (lane, port)-ascending.
            tracer.append_batch(
                cycle, fb, EJECT, fn, self._vc_dst_f[fidx], seq, tail
            )
        ti = np.flatnonzero(tail)
        tbase = fbase[ti]
        tidx = fidx[ti]
        tb = fb[ti]
        tn = fn[ti]
        # Tails: the popped flit was the packet's last, so the VC is
        # empty — free it, release the path, start the cooling blackout.
        self._vc_owner_f[tidx] = -1
        self.active_vc_f[tbase] = -1
        rid = self._conn_rid_f[tbase]
        out = self._conn_out_f[tbase]
        rbase = tb * self._R + rid
        obase = tb * self.num_ports + out
        self.resource_owner_f[rbase] = -1
        self.output_owner_f[obase] = -1
        self._conn_rid_f[tbase] = -1
        self._conn_out_f[tbase] = -1
        self._cool_in_f[tbase] = True
        self._cool_out_f[obase] = True
        self._cool_res_f[rbase] = True
        self._tear = (tbase, obase, rbase)
        if tracer is not None and tb.size:
            # Cooling events follow every eject, teardown scan order;
            # ``granted`` persists after teardown exactly like the
            # scalar kernel's grant_cycle dict (never cleared).
            tracer.append_batch(
                cycle, tb, COOL, rid, tn, out, self._grant_cycle_f[tbase]
            )
        flit_counts = np.bincount(fb, minlength=self.num_lanes)
        self.lane_occupancy -= flit_counts
        return (
            flit_counts,
            tb,
            tn,
            self._vc_dst_f[tidx],
            self._vc_created_f[tidx],
        )

    def _refill(self, cycle: int) -> None:
        """Move up to one source-queue flit per port into a VC."""
        cand = (~self._refill_blocked) & (self._q_len > 0)
        cb, cn = np.nonzero(cand)
        if cb.size == 0:
            return
        V = self._V
        cbase = cb * self.num_ports + cn
        rec = self._front_f[cbase]
        fdst, fnf, fcre, fpid = rec[:, 0], rec[:, 1], rec[:, 2], rec[:, 3]
        fseq = self._q_front_seq_f[cbase]
        head_case = fseq == 0
        moved_parts = []

        # Head flits: the first free VC takes the packet (a free VC is
        # always empty and depth >= 1, so no space check is needed).
        h = np.flatnonzero(head_case)
        if h.size:
            hbase = cbase[h]
            freem = self._vc_owner_rows[hbase] < 0
            if self._vc_lut is not None:
                # Packed-mask pick of the first free VC (the rr=0 row of
                # the arbitration LUT), replacing any()+argmax().
                packed = freem.view(np.uint32).reshape(-1)
                hh = np.flatnonzero(packed)
                has_free = packed != 0
            else:
                has_free = _any_last(freem)
                hh = np.flatnonzero(has_free)
            if hh.size:
                rows = h[hh]
                if self._vc_lut is not None:
                    nib = (
                        packed[hh] * np.uint32(0x08040201)
                    ) >> np.uint32(24)
                    vsel = self._vc_lut[nib * 4]
                else:
                    vsel = freem[hh].argmax(axis=1)
                vidx = hbase[hh] * V + vsel
                self._vc_owner_f[vidx] = fpid[rows]
                self._vc_dst_f[vidx] = fdst[rows]
                self._vc_nf_f[vidx] = fnf[rows]
                self._vc_created_f[vidx] = fcre[rows]
                self._vc_cnt_f[vidx] = 1
                self._vc_lo_f[vidx] = 0
                self._refill_vc_f[hbase[hh]] = vsel
                moved_parts.append(rows)
            blocked = np.flatnonzero(~has_free)
            if blocked.size:
                self._refill_blocked_f[hbase[blocked]] = True

        # Body/tail flits: only the packet's owner VC may take them.
        bsel = np.flatnonzero(~head_case)
        if bsel.size:
            bbase = cbase[bsel]
            vcur = self._refill_vc_f[bbase]
            vidx = bbase * V + vcur
            match = self._vc_owner_f[vidx] == fpid[bsel]
            if not match.all():
                # Scalar fallback scan (unreachable for well-formed
                # streams, kept for exactness): find the owning VC.
                for k in np.nonzero(~match)[0]:
                    flat = int(bbase[k])
                    owners = self._vc_owner_f[flat * V:flat * V + V]
                    hits = np.nonzero(owners == fpid[bsel[k]])[0]
                    if hits.size:
                        self._refill_vc_f[flat] = hits[0]
                        vidx[k] = flat * V + hits[0]
                        match[k] = True
                    else:
                        self._refill_blocked_f[flat] = True
            ok = np.flatnonzero(match)
            if ok.size:
                space = self._vc_cnt_f[vidx[ok]] < self._depth
                good = ok[space]
                self._vc_cnt_f[vidx[good]] += 1
                if good.size:
                    moved_parts.append(bsel[good])
                full = ok[~space]
                if full.size:
                    self._refill_blocked_f[bbase[full]] = True

        if moved_parts:
            # Rows are distinct queues, so scatter order is irrelevant.
            m = (
                moved_parts[0] if len(moved_parts) == 1
                else np.concatenate(moved_parts)
            )
            mbase = cbase[m]
            self._pending_f[mbase] -= 1
            new_seq = fseq[m] + 1
            done = new_seq == fnf[m]
            # Front packet finished: reset its seq for the next packet.
            self._q_front_seq_f[mbase] = new_seq * ~done
            di = np.flatnonzero(done)
            if di.size:
                dbase = mbase[di]
                head = self._q_head_f[dbase] + 1
                head *= head != self._q_cap  # wrap cap -> 0
                self._q_head_f[dbase] = head
                self._q_len_f[dbase] -= 1
                # Refresh the front cache (garbage when the queue just
                # emptied — never read, the length guard filters it).
                self._front_f[dbase] = self._q_f[dbase * self._q_cap + head]

    # ------------------------------------------------------------------
    # Arbitration (two phases within one cycle, all lanes at once)
    # ------------------------------------------------------------------
    @staticmethod
    def _segments(gid, order_key):
        """Sort rows by ``(gid, order_key)``; return (perm, starts, counts).

        ``perm[starts]`` indexes each group's minimum-``order_key`` row
        (the scalar ``min()`` winner — keys are distinct by invariant).
        """
        perm = np.lexsort((order_key, gid))
        starts, counts = _group_starts(gid[perm])
        return perm, starts, counts

    def _arbitrate(self, cycle: int) -> None:
        B, N, V = self.num_lanes, self.num_ports, self._V
        S, C, LL = self._S, self._C, self._L * self._L
        scheme = self._scheme
        elig = (
            (self.active_vc < 0) & ~self._cool_in & ~self._stuck
        )
        # ---- candidate selection: one request per idle port ----------
        # Work on the (sparse) eligible ports only; everything below is
        # flat-indexed (K, V) gathers, far cheaper than full (B, N, V)
        # fancy indexing when most ports are busy or empty.
        head_ok_full = (self._vc_cnt > 0) & (self._vc_lo == 0)
        pcand = elig & _any_last(head_ok_full)
        kb, kn = np.nonzero(pcand)
        if kb.size == 0:
            return
        base = kb * N + kn
        head_ok = head_ok_full.reshape(-1, V)[base]
        vdst = self._vc_dst_rows[base]
        out_free = (self.output_owner < 0) & ~self._cool_out
        res_free = (self.resource_owner < 0) & ~self._cool_res
        res_free_f = res_free.reshape(-1)
        out_ok = out_free.reshape(-1)[(kb * N)[:, None] + vdst]
        free_h = None
        rid2 = None
        if self._binned:
            rid2 = self._rid_of_dst_f[(base * N)[:, None] + vdst]
            viable = head_ok & out_ok
            viable &= res_free_f[(kb * self._R)[:, None] + rid2]
        else:
            knN = (kn * N)[:, None]
            same2 = self._same_layer.reshape(-1)[knN + vdst]
            free_h = self._healthy & res_free[:, N:].reshape(B, LL, C)
            pair_any = _any_last(free_h)
            pair2 = self._pair_of.reshape(-1)[knN + vdst]
            viable = head_ok & out_ok & np.where(
                same2,
                res_free_f[(kb * self._R)[:, None] + vdst],
                pair_any.reshape(-1)[(kb * LL)[:, None] + pair2],
            )
        tracer = self._tracer
        # Round-robin VC pick: smallest (vc - rr_next) mod V wins.
        if self._vc_lut is not None:
            # Packed-mask fast path (see __init__): selected rows only.
            packed = viable.view(np.uint32).reshape(-1)
            sel = np.flatnonzero(packed)
            if sel.size == 0:
                if tracer is not None:
                    self._trace_via_blocked(cycle, kb, kn, head_ok,
                                            vdst, sel)
                return
            nib = (packed[sel] * np.uint32(0x08040201)) >> np.uint32(24)
            rb, rn = kb[sel], kn[sel]
            rvc = self._vc_lut[nib * 4 + self._rr_next_vc_f[base[sel]]]
        else:
            rr = self._rr_next_vc_f[base]
            d = self._v3[0] - rr[:, None]
            if V & (V - 1) == 0:
                d &= V - 1
            else:
                d %= V
            rr_key = d + ~viable * np.int64(V)
            vc_star = rr_key.argmin(axis=1)
            sel = np.flatnonzero(_any_last(viable))
            if sel.size == 0:
                if tracer is not None:
                    self._trace_via_blocked(cycle, kb, kn, head_ok,
                                            vdst, sel)
                return
            rb, rn = kb[sel], kn[sel]
            rvc = vc_star[sel]
        if tracer is not None and sel.size != kb.size:
            self._trace_via_blocked(cycle, kb, kn, head_ok, vdst, sel)
        ridx = base[sel] * V + rvc
        rdst = self._vc_dst_f[ridx]
        rlocal = self._local_of[rn]
        track_ages = scheme is ArbitrationScheme.AGE

        if self._binned:
            # Intermediate and channel requests arbitrate in one pass:
            # ``rid_of_dst`` already keys both by resource id, and the
            # shared ``_loc_rank`` table holds both arbiter kinds.  Both
            # phases use a dense scatter-min instead of a lexsort: ranks
            # (phase 1) and sub-block keys (phase 2) are distinct within
            # a group by invariant, so ``value == groupmin`` recovers
            # exactly one winner per group.
            R, PPL = self._R, self._PPL
            rrid = rid2.reshape(-1)[sel * V + rvc]
            gid = rb * R + rrid
            rank = self._loc_rank_f[gid * PPL + rlocal]
            dense = self._dense_r
            dense.fill(_BIG)
            np.minimum.at(dense, gid, rank)
            win = np.flatnonzero(rank == dense[gid])
            p1key_w = None
            if tracer is not None:
                # Scalar winners-dict insertion order: all intermediate
                # groups before all channel groups, each in ascending
                # first-requesting-port order (ports scan once per
                # cycle, so first ports are distinct per group).  The
                # dense buffer is free again after ``win``.
                weight_w = np.bincount(gid, minlength=dense.size)[gid[win]]
                dense.fill(_BIG)
                np.minimum.at(dense, gid, rn)
                p1key_w = (
                    dense[gid[win]] * _WKEY_PORT
                    + (rrid[win] >= N) * _WKEY_CHAN
                )
                order1 = np.lexsort((p1key_w, rb[win]))
                wl = win[order1]
                tracer.append_batch(
                    cycle, rb[wl], P1_GRANT, rrid[wl], rn[wl], rdst[wl],
                    weight_w[order1],
                )
            # ---- phase 2: one sub-block winner per contested output --
            w_out = rdst[win]
            w_slot = self._slot_of_rid[rrid[win]]
            gid2 = rb[win] * N + w_out
            cnow = None
            if scheme in (
                ArbitrationScheme.L2L_LRG, ArbitrationScheme.WLRG
            ):
                skey = self._sb_rank_f[gid2 * S + w_slot]
            elif scheme is ArbitrationScheme.L2L_RR:
                skey = (w_slot - self._sb_ptr_f[gid2]) % S
            elif scheme is ArbitrationScheme.CLRG:
                cnow = self._clrg_counts_f[gid2 * N + rn[win]]
                skey = (
                    cnow * (1 << 44)
                    + self._sb_rank_f[gid2 * S + w_slot]
                )
            else:  # AGE: min (-age, slot), stateless
                skey = (
                    -(cycle - self._vc_created_f[ridx[win]]) * (S + 1)
                    + w_slot
                )
            dense2 = self._dense_n
            dense2.fill(_BIG)
            np.minimum.at(dense2, gid2, skey)
            pick = np.flatnonzero(skey == dense2[gid2])
            est = win[pick]
            outkey = None
            if tracer is not None:
                # by_output dict-insertion key of each output group: the
                # minimum phase-1 winner key among its candidates (the
                # dense phase-2 buffer is free after ``pick``).
                dense2.fill(_BIG)
                np.minimum.at(dense2, gid2, p1key_w)
                outkey = dense2[gid2[pick]]
            # ---- establish every picked winner's path ----------------
            eb, eport = rb[est], rn[est]
            evc, erid, eout = rvc[est], rrid[est], rdst[est]
            ebase = eb * N + eport
            sb2 = gid2[pick]       # = lane * N + output
            abase = gid[est]       # = lane * R + rid
            self.active_vc_f[ebase] = evc
            self._rr_next_vc_f[ebase] = (evc + 1) % V
            self.resource_owner_f[abase] = eport
            self.output_owner_f[sb2] = eport
            self._conn_rid_f[ebase] = erid
            self._conn_out_f[ebase] = eout
            if self._grant_cycle is not None:
                self._grant_cycle_f[ebase] = cycle
            # ---- sub-block commit (one per output; no collisions) ----
            eslot = w_slot[pick]
            if scheme is ArbitrationScheme.L2L_LRG:
                stamp = self._sb_stamp_f[sb2]
                self._sb_rank_f[sb2 * S + eslot] = stamp
                self._sb_stamp_f[sb2] = stamp + 1
            elif scheme is ArbitrationScheme.L2L_RR:
                self._sb_ptr_f[sb2] = (eslot + 1) % S
            elif scheme is ArbitrationScheme.WLRG:
                weight = np.bincount(gid, minlength=B * R)[abase]
                sidx = sb2 * S + eslot
                served = self._sb_served_f[sidx] + 1
                done = served >= weight
                self._sb_served_f[sidx] = served * ~done
                d2 = np.flatnonzero(done)
                if d2.size:
                    dsb = sb2[d2]
                    stamp = self._sb_stamp_f[dsb]
                    self._sb_rank_f[dsb * S + eslot[d2]] = stamp
                    self._sb_stamp_f[dsb] = stamp + 1
            elif scheme is ArbitrationScheme.CLRG:
                sat = np.flatnonzero(
                    cnow[pick] >= self.config.num_classes - 1
                )
                if sat.size:
                    rows = self._clrg_rows[sb2[sat]]
                    self._clrg_rows[sb2[sat]] = rows // 2
                    if tracer is not None:
                        # Halvings raw-emit during phase-2 processing,
                        # i.e. in by_output insertion order; the payload
                        # is the bank's cumulative halving count.
                        self._halve_count_f[sb2[sat]] += 1
                        horder = np.lexsort((outkey[sat], eb[sat]))
                        hs = sat[horder]
                        tracer.append_batch(
                            cycle, eb[hs], CLRG_HALVE, rdst[est[hs]],
                            self._halve_count_f[sb2[hs]], 0, 0,
                        )
                self._clrg_counts_f[sb2 * N + eport] += 1
                stamp = self._sb_stamp_f[sb2]
                self._sb_rank_f[sb2 * S + eslot] = stamp
                self._sb_stamp_f[sb2] = stamp + 1
            # AGE: stateless sub-blocks.
            # ---- local demotion (one winner per (lane, rid) arbiter) -
            stamp = self._loc_stamp_f[abase]
            self._loc_rank_f[abase * PPL + rlocal[est]] = stamp
            self._loc_stamp_f[abase] = stamp + 1
            if tracer is not None:
                # Phase-2 outcomes iterate the full winners dict in
                # insertion order: grant when the path was established,
                # block otherwise; CLRG grants carry the post-commit
                # class counter.
                granted = np.zeros(win.size, dtype=bool)
                granted[pick] = True
                kinds = np.where(granted, P2_GRANT, P2_BLOCK)
                dcol = np.zeros(win.size, dtype=np.int64)
                if scheme is ArbitrationScheme.CLRG:
                    dcol[pick] = self._clrg_counts_f[sb2 * N + eport]
                else:
                    dcol[pick] = -1
                order2 = np.lexsort((p1key_w, rb[win]))
                wl = win[order2]
                tracer.append_batch(
                    cycle, rb[wl], kinds[order2], rrid[wl], rn[wl],
                    rdst[wl], dcol[order2],
                )
            return

        # ---- priority allocation (lexsort machinery) -----------------
        rage = (
            cycle - self._vc_created_f[ridx]
            if track_ages
            else np.zeros(rb.size, dtype=np.int64)
        )
        parts = []  # phase-1 winner record batches

        def emit(rows, rid, out, weight, key, kind, arb):
            parts.append((
                rb[rows], rid, rn[rows], rvc[rows], out, weight,
                self._slot_of_rid[rid], key, rage[rows], kind, arb,
                rlocal[rows],
            ))

        rsame = self._same_layer[rn, rdst]
        im = np.nonzero(rsame)[0]
        if im.size:
            gid = rb[im] * N + rdst[im]
            rank = self._loc_rank[rb[im], rdst[im], rlocal[im]]
            perm, starts, counts = self._segments(gid, rank)
            rows = im[perm[starts]]
            firstp = rn[im[np.minimum.reduceat(perm, starts)]]
            out = rdst[rows]
            emit(
                rows, out, out, counts, firstp * _WKEY_PORT,
                np.zeros(rows.size, dtype=np.int64), out,
            )
        cm = np.nonzero(~rsame)[0]
        if cm.size:
            # Priority allocation: the pair arbiter ranks requestors
            # and the priority mux hands the free healthy channels
            # (channel order) to the top-ranked ones, one winner per
            # channel.
            pb = rb[cm]
            ppair = self._pair_of[rn[cm], rdst[cm]]
            gid = pb * LL + ppair
            rank = self._pair_rank[pb, ppair, rlocal[cm]]
            perm, starts, counts = self._segments(gid, rank)
            firstp = rn[cm[np.minimum.reduceat(perm, starts)]]
            nfree = free_h.sum(axis=2)
            # Free healthy channels compacted left, ascending order.
            ch_order = np.argsort(~free_h, axis=2, kind="stable")
            j = (
                np.arange(gid.size, dtype=np.int64)
                - np.repeat(starts, counts)
            )
            sb, sp = pb[perm], ppair[perm]
            keep = j < nfree[sb, sp]
            rows = cm[perm[keep]]
            if rows.size:
                jk = j[keep]
                channel = ch_order[sb[keep], sp[keep], jk]
                rid = N + sp[keep] * C + channel
                weight = np.repeat(-(-counts // C), counts)[keep]
                key = (
                    _WKEY_PAIR
                    + np.repeat(firstp, counts)[keep] * _WKEY_PORT
                    + jk
                )
                emit(
                    rows, rid, rdst[rows], weight, key,
                    np.full(rows.size, 2, dtype=np.int64), sp[keep],
                )

        if not parts:
            return
        (
            w_b, w_rid, w_port, w_vc, w_out, w_weight, w_slot, w_key,
            w_age, w_kind, w_arb, w_local,
        ) = (
            np.concatenate(cols) if len(parts) > 1 else parts[0][k]
            for k, cols in enumerate(zip(*parts))
        )
        if tracer is not None:
            # ``w_key`` already encodes the scalar winners-dict
            # insertion order (ints before pairs, first-requesting port,
            # free-channel position).
            order1 = np.lexsort((w_key, w_b))
            tracer.append_batch(
                cycle, w_b[order1], P1_GRANT, w_rid[order1],
                w_port[order1], w_out[order1], w_weight[order1],
            )

        # ---- phase 2: one sub-block winner per contested output ------
        if scheme in (
            ArbitrationScheme.L2L_LRG, ArbitrationScheme.WLRG
        ):
            skey = self._sb_rank[w_b, w_out, w_slot]
        elif scheme is ArbitrationScheme.L2L_RR:
            skey = (w_slot - self._sb_ptr[w_b, w_out]) % S
        elif scheme is ArbitrationScheme.CLRG:
            skey = (
                self._clrg_counts[w_b, w_out, w_port] * (1 << 44)
                + self._sb_rank[w_b, w_out, w_slot]
            )
        else:  # AGE: min (-age, slot)
            skey = -w_age * (S + 1) + w_slot
        gid2 = w_b * N + w_out
        perm2 = np.lexsort((skey, gid2))
        starts2, _ = _group_starts(gid2[perm2])
        pick = perm2[starts2]
        # by_output dict-insertion position of each output group: the
        # minimum winner-iteration key among its candidates.
        out_min = np.minimum.reduceat(w_key[perm2], starts2)
        eb, eport = w_b[pick], w_port[pick]
        evc, eout, erid = w_vc[pick], w_out[pick], w_rid[pick]
        eslot, ekind, earb = w_slot[pick], w_kind[pick], w_arb[pick]
        elocal = w_local[pick]

        # Establish every picked winner's path.
        self.active_vc[eb, eport] = evc
        self._rr_next_vc[eb, eport] = (evc + 1) % V
        self.resource_owner[eb, erid] = eport
        self.output_owner[eb, eout] = eport
        self._conn_rid[eb, eport] = erid
        self._conn_out[eb, eport] = eout
        if self._grant_cycle is not None:
            self._grant_cycle[eb, eport] = cycle

        # Sub-block commit (one per output, so scatters never collide).
        if scheme is ArbitrationScheme.L2L_LRG:
            self._sb_rank[eb, eout, eslot] = self._sb_stamp[eb, eout]
            self._sb_stamp[eb, eout] += 1
        elif scheme is ArbitrationScheme.L2L_RR:
            self._sb_ptr[eb, eout] = (eslot + 1) % S
        elif scheme is ArbitrationScheme.WLRG:
            served = self._sb_served[eb, eout, eslot] + 1
            done = served >= w_weight[pick]
            self._sb_served[eb, eout, eslot] = np.where(done, 0, served)
            d = np.nonzero(done)[0]
            if d.size:
                db, do = eb[d], eout[d]
                self._sb_rank[db, do, eslot[d]] = self._sb_stamp[db, do]
                self._sb_stamp[db, do] += 1
        elif scheme is ArbitrationScheme.CLRG:
            counts_now = self._clrg_counts[eb, eout, eport]
            sat = np.nonzero(counts_now >= self.config.num_classes - 1)[0]
            if sat.size:
                rows = self._clrg_counts[eb[sat], eout[sat]]
                self._clrg_counts[eb[sat], eout[sat]] = rows // 2
                if tracer is not None:
                    # Halvings emit in by_output insertion order
                    # (``out_min`` is aligned with ``pick``).
                    self._halve_count[eb[sat], eout[sat]] += 1
                    horder = np.lexsort((out_min[sat], eb[sat]))
                    hs = sat[horder]
                    tracer.append_batch(
                        cycle, eb[hs], CLRG_HALVE, eout[hs],
                        self._halve_count[eb[hs], eout[hs]], 0, 0,
                    )
            self._clrg_counts[eb, eout, eport] += 1
            self._sb_rank[eb, eout, eslot] = self._sb_stamp[eb, eout]
            self._sb_stamp[eb, eout] += 1
        # AGE: stateless sub-blocks.

        # Back-propagated local demotions.  Int arbiters see at most
        # one established winner per cycle (winners are keyed by rid);
        # a pair arbiter can establish several, demoted in by_output
        # insertion order — reconstructed via out_min.
        m01 = np.nonzero(ekind < 2)[0]
        if m01.size:
            ab, aa = eb[m01], earb[m01]
            self._loc_rank[ab, aa, elocal[m01]] = self._loc_stamp[ab, aa]
            self._loc_stamp[ab, aa] += 1
        m2 = np.nonzero(ekind == 2)[0]
        if m2.size:
            b2, p2 = eb[m2], earb[m2]
            perm3 = np.lexsort((out_min[m2], p2, b2))
            g3 = b2[perm3] * LL + p2[perm3]
            starts3, counts3 = _group_starts(g3)
            j3 = (
                np.arange(g3.size, dtype=np.int64)
                - np.repeat(starts3, counts3)
            )
            gb3 = b2[perm3][starts3]
            gp3 = p2[perm3][starts3]
            base = np.repeat(self._pair_stamp[gb3, gp3], counts3)
            rows = m2[perm3]
            self._pair_rank[
                eb[rows], earb[rows], elocal[rows]
            ] = base + j3
            self._pair_stamp[gb3, gp3] += counts3
        if tracer is not None:
            granted = np.zeros(w_b.size, dtype=bool)
            granted[pick] = True
            kinds = np.where(granted, P2_GRANT, P2_BLOCK)
            dcol = np.zeros(w_b.size, dtype=np.int64)
            if scheme is ArbitrationScheme.CLRG:
                dcol[pick] = self._clrg_counts[eb, eout, eport]
            else:
                dcol[pick] = -1
            order2 = np.lexsort((w_key, w_b))
            tracer.append_batch(
                cycle, w_b[order2], kinds[order2], w_rid[order2],
                w_port[order2], w_out[order2], dcol[order2],
            )

    def _trace_via_blocked(self, cycle, kb, kn, head_ok, vdst, sel) -> None:
        """Emit ``via_block`` events for candidate ports with no viable VC.

        Mirrors the scalar ``_capture_blocked``/``_blocked_reason``
        decomposition: the reported head is the first seq-0 front in VC
        index order, and the reason reads the same pre-arbitration
        ownership/cooling state.  Runs on the rare blocked rows only
        (a small python loop, like the scalar cold path).
        """
        blocked = np.ones(kb.size, dtype=bool)
        blocked[sel] = False
        rows = np.flatnonzero(blocked)
        if rows.size == 0:
            return
        N, C, L = self.num_ports, self._C, self._L
        lanes = kb[rows]
        ports = kn[rows]
        dsts = vdst[rows, np.argmax(head_ok[rows], axis=1)]
        reasons = np.empty(rows.size, dtype=np.int64)
        for k in range(rows.size):
            lane = int(lanes[k])
            port = int(ports[k])
            dst = int(dsts[k])
            if self.output_owner[lane, dst] >= 0:
                reason = REASON_OUTPUT_BUSY
            elif self._cool_out[lane, dst]:
                reason = REASON_OUTPUT_COOLING
            else:
                src_layer = int(self._layer_of[port])
                dst_layer = int(self._layer_of[dst])
                pair = src_layer * L + dst_layer
                if (src_layer != dst_layer
                        and not self._healthy[lane, pair].any()):
                    reason = REASON_CHANNEL_FAILED
                else:
                    if self._binned:
                        rids = (int(self._rid_of_dst[lane, port, dst]),)
                    elif src_layer == dst_layer:
                        rids = (dst,)
                    else:
                        rids = [
                            N + pair * C + channel
                            for channel in range(C)
                            if self._healthy[lane, pair, channel]
                        ]
                    reason = REASON_RESOURCE_COOLING
                    for rid in rids:
                        if (self.resource_owner[lane, rid] >= 0
                                and not self._cool_res[lane, rid]):
                            reason = REASON_RESOURCE_BUSY
                            break
            reasons[k] = reason
        self._tracer.append_batch(
            cycle, lanes, VIA_BLOCK, ports, dsts, reasons, 0
        )


class Injections(NamedTuple):
    """One fleet cycle's injections, flattened lane-major (int64).

    ``packed`` is the :meth:`FleetKernel.inject_packed` argument tuple
    ``(gid, recs, lane_flits)`` when the queue ids strictly increase
    (at most one packet per source queue, in scan order), else None and
    the batch goes through :meth:`FleetKernel.inject_cycle`.
    """

    lanes: object
    srcs: object
    dsts: object
    num_flits: object
    pids: object
    counts: object
    packed: Optional[tuple]


def pack_injections(
    cycle: int,
    columns: Sequence[Tuple[List[int], List[int]]],
    factories: Sequence[object],
    num_ports: int,
) -> Optional[Injections]:
    """Flatten each lane's ``(srcs, dsts)`` columns; None when none inject.

    The list form of :func:`pack_lanes`: lane ``i``'s rows are
    ``columns[i]``.
    """
    num_lanes = len(columns)
    counts = np.fromiter(
        (len(srcs) for srcs, _ in columns), dtype=np.int64, count=num_lanes
    )
    flat_srcs: List[int] = []
    flat_dsts: List[int] = []
    for srcs, dsts in columns:
        flat_srcs += srcs
        flat_dsts += dsts
    return pack_lanes(
        cycle,
        np.repeat(np.arange(num_lanes, dtype=np.int64), counts),
        np.array(flat_srcs, dtype=np.int64),
        np.array(flat_dsts, dtype=np.int64),
        factories, num_ports,
    )


def pack_lanes(
    cycle: int,
    lanes,
    srcs,
    dsts,
    factories: Sequence[object],
    num_ports: int,
) -> Optional[Injections]:
    """Pack one cycle's lane-major rows; None when none inject.

    ``lanes``/``srcs``/``dsts`` are int64 rows sorted by lane, each
    lane's rows in traffic order.  Lane ``i``'s packets take consecutive ids claimed from
    ``factories[i]`` (:meth:`~repro.network.packet.PacketFactory.reserve`)
    and its ``num_flits``, so ids and lengths match a scalar run of the
    same source without building a ``Packet``.

    Raises:
        OverflowError: If a flit count, packet id or the cycle does not
            fit the kernel's 32-bit ring records.
    """
    total = lanes.size
    if not total:
        return None
    num_lanes = len(factories)
    counts = np.bincount(lanes, minlength=num_lanes)
    first_ids = np.fromiter(
        (factory.reserve(count)
         for factory, count in zip(factories, counts.tolist())),
        dtype=np.int64, count=num_lanes,
    )
    lane_flit_len = np.fromiter(
        (factory.num_flits for factory in factories),
        dtype=np.int64, count=num_lanes,
    )
    offsets = np.cumsum(counts) - counts
    pids = np.arange(total, dtype=np.int64) + (first_ids - offsets)[lanes]
    num_flits = lane_flit_len[lanes]
    if ((num_flits | pids) >> 31).any() or (cycle >> 31):
        raise OverflowError(
            "fleet ring records are 32-bit: num_flits, "
            "created and pid must lie in [0, 2**31)"
        )
    gid = lanes * num_ports + srcs
    packed = None
    if total == 1 or (gid[1:] > gid[:-1]).all():
        recs = np.empty((total, 4), dtype=np.int32)
        recs[:, 0] = dsts
        recs[:, 1] = num_flits
        recs[:, 2] = cycle
        recs[:, 3] = pids
        packed = (gid, recs, counts * lane_flit_len)
    return Injections(lanes, srcs, dsts, num_flits, pids, counts, packed)


class FleetSimulation:
    """Drives B lanes through the warm-up / measure / drain cycle loop.

    The per-lane accounting mirrors :class:`repro.network.engine.Simulation`
    exactly (window semantics, latency-sample decimation, drain idle
    limit), so each lane's :class:`SimulationResult` is bit-identical to a
    scalar run with the same traffic source and fault schedule.

    Every traffic source must offer ``columns_for_cycle`` and the
    ``factory`` numbering its packets (every generator in
    :mod:`repro.traffic` does): each cycle the lanes' ``(srcs, dsts)``
    columns are packed into one batched injection
    (:func:`pack_injections`), with no ``Packet`` objects built.  When
    every lane is a plain :class:`~repro.traffic.uniform.UniformRandomTraffic`
    of one shape, the lanes' columns are drawn ``_DRAW_BLOCK`` cycles at
    a time in one array scan
    (:func:`~repro.traffic.base.bernoulli_uniform_lanes`) instead.
    """

    def __init__(
        self,
        config: HiRiseConfig,
        traffics: Sequence[object],
        faults: Optional[Sequence[Optional[FaultSchedule]]] = None,
        warmup_cycles: int = 0,
        latency_sample_limit: Optional[int] = DEFAULT_LATENCY_SAMPLE_LIMIT,
        tracer=None,
        perf=None,
    ) -> None:
        if warmup_cycles < 0:
            raise ValueError("warm-up must be non-negative")
        if latency_sample_limit is not None and latency_sample_limit < 1:
            raise ValueError("latency sample limit must be >= 1 or None")
        self.kernel = FleetKernel(config, len(traffics), faults)
        if tracer is not None:
            self.kernel.attach_tracer(tracer)
        if perf is not None:
            self.kernel.attach_perf(perf)
        self.traffics = list(traffics)
        for traffic in self.traffics:
            if not (hasattr(traffic, "columns_for_cycle")
                    and hasattr(traffic, "factory")):
                raise TypeError(
                    f"fleet lanes need column traffic sources "
                    f"(columns_for_cycle and a PacketFactory factory); "
                    f"{type(traffic).__name__} has not"
                )
        self._factories = [traffic.factory for traffic in self.traffics]
        self.warmup_cycles = warmup_cycles
        self.latency_sample_limit = latency_sample_limit
        self._cycle = 0
        self._uniform = self._uniform_lanes()
        # Drawn injections of cycles [_block_start, _block_end): the
        # scan's rows, or None when those cycles draw lane by lane.
        self._block = None
        self._block_start = 0
        self._block_end = 0
        self._inject_end = 0

    def _uniform_lanes(self):
        """Arguments of the lane scan when every lane can take it.

        Every lane must be exactly ``UniformRandomTraffic`` (a subclass
        may override its draws) with its own stream and a shared port set
        and self rule.
        """
        from repro.traffic.uniform import UniformRandomTraffic

        traffics = self.traffics
        if not traffics or any(
            type(traffic) is not UniformRandomTraffic for traffic in traffics
        ):
            return None
        first = traffics[0]
        streams = [traffic.stream for traffic in traffics]
        if len(set(map(id, streams))) < len(streams) or any(
            traffic.num_ports != first.num_ports
            or traffic.active_inputs != first.active_inputs
            or traffic.exclude_self != first.exclude_self
            for traffic in traffics
        ):
            return None
        span = first.num_ports - (1 if first.exclude_self else 0)
        return (
            streams,
            first.active_inputs,
            [traffic._inject_threshold for traffic in traffics],
            span,
            first.exclude_self,
        )

    @property
    def cycle(self) -> int:
        """The next cycle to be simulated."""
        return self._cycle

    def _tick(
        self,
        acct: dict,
        measuring: bool,
        inject: bool,
        active=None,
    ) -> None:
        cycle = self._cycle
        kernel = self.kernel
        if inject:
            batch = self._injections(cycle)
            if batch is not None:
                tracer = kernel._tracer
                if tracer is not None:
                    # Lane-major with each lane's packets in traffic
                    # order — the scalar inject order.
                    tracer.append_batch(
                        cycle, batch.lanes, INJECT, batch.srcs, batch.dsts,
                        batch.num_flits, batch.pids,
                    )
                if batch.packed is not None:
                    kernel.inject_packed(*batch.packed)
                else:
                    created = np.full(batch.lanes.size, cycle,
                                      dtype=np.int64)
                    kernel.inject_cycle(
                        batch.lanes, batch.srcs, batch.dsts, created,
                        batch.num_flits, batch.pids, _checked=True,
                    )
                if measuring:
                    acct["injected"] += batch.counts
        fc, tb, tsrc, tdst, tcre = kernel.step(cycle, active)
        if measuring:
            if active is None:
                acct["cycles"] += 1
            else:
                acct["cycles"] += active
            acct["flits"] += fc
            if tb.size:
                acct["tails"].append((tb, tsrc, tdst, cycle - tcre))
        self._cycle += 1

    def _injections(self, cycle: int) -> Optional[Injections]:
        """Draw and pack ``cycle``'s injections across every lane."""
        perf = self.kernel._perf
        if cycle >= self._block_end:
            self._draw_block(cycle, perf)
        num_ports = self.kernel.num_ports
        start = time.perf_counter_ns() if perf is not None else 0
        if self._block is None:
            columns = [
                traffic.columns_for_cycle(cycle) for traffic in self.traffics
            ]
            if perf is not None:
                mid = time.perf_counter_ns()
                perf.add("traffic", mid - start,
                         sum(len(srcs) for srcs, _ in columns))
                start = mid
            batch = pack_injections(cycle, columns, self._factories,
                                    num_ports)
        else:
            bounds, lanes, srcs, dsts = self._block
            k = cycle - self._block_start
            rows = slice(bounds[k], bounds[k + 1])
            batch = pack_lanes(
                cycle, lanes[rows], srcs[rows], dsts[rows],
                self._factories, num_ports,
            )
        if perf is not None:
            perf.add("pack", time.perf_counter_ns() - start)
        return batch

    def _draw_block(self, cycle: int, perf) -> None:
        """Draw the next block of cycles, never past the last injecting one."""
        end = min(cycle + _DRAW_BLOCK, self._inject_end)
        self._block = None
        self._block_start = cycle
        self._block_end = end
        if self._uniform is None:
            return
        from repro.traffic.base import bernoulli_uniform_lanes

        start = time.perf_counter_ns() if perf is not None else 0
        drawn = bernoulli_uniform_lanes(*self._uniform, end - cycle)
        packets = 0
        if drawn is not None:
            bounds, lanes, srcs, dsts = drawn
            self._block = (bounds.tolist(), lanes, srcs, dsts)
            packets = lanes.size
        if perf is not None:
            perf.add("traffic", time.perf_counter_ns() - start, packets)

    def run(
        self, measure_cycles: int, drain: bool = False
    ) -> List[SimulationResult]:
        """Run all lanes; returns one :class:`SimulationResult` per lane."""
        kernel = self.kernel
        B = kernel.num_lanes
        acct = {
            "injected": np.zeros(B, dtype=np.int64),
            "cycles": np.zeros(B, dtype=np.int64),
            "flits": np.zeros(B, dtype=np.int64),
            "tails": [],
        }
        end_warmup = self._cycle + self.warmup_cycles
        end_measure = end_warmup + measure_cycles
        self._inject_end = end_measure
        while self._cycle < end_measure:
            measuring = self._cycle >= end_warmup
            self._tick(acct, measuring, inject=True)
        if drain:
            # Per-lane drain: a lane participates (and accrues measured
            # cycles) only while it still holds flits, matching the
            # scalar ``while occupancy() > 0`` loop lane by lane.
            from repro.network import engine as _engine

            idle = np.zeros(B, dtype=np.int64)
            active = kernel.lane_occupancy > 0
            while active.any():
                stuck = active & (idle >= _engine.DRAIN_IDLE_LIMIT)
                if stuck.any():
                    from repro.check.invariants import DrainStallError

                    lane = int(np.nonzero(stuck)[0][0])
                    if kernel._tracer is not None:
                        # Mirror the scalar drain loop: the stall event
                        # lands at the last stepped cycle.
                        kernel._tracer.append_row(
                            self._cycle - 1, lane, DRAIN_STALL,
                            int(idle[lane]),
                            int(kernel.lane_occupancy[lane]),
                        )
                    raise DrainStallError(
                        f"fleet lane {lane} drain made no progress for "
                        f"{int(idle[lane])} consecutive cycles at cycle "
                        f"{self._cycle}: "
                        f"{int(kernel.lane_occupancy[lane])} flits still "
                        f"inside the switch",
                        cycle=self._cycle,
                        idle_cycles=int(idle[lane]),
                        occupancy=int(kernel.lane_occupancy[lane]),
                    )
                before = kernel.lane_occupancy.copy()
                self._tick(acct, measuring=True, inject=False, active=active)
                progressed = kernel.lane_occupancy != before
                idle = np.where(active & ~progressed, idle + 1, 0)
                active = kernel.lane_occupancy > 0
        return self._finalize(acct)

    def _finalize(self, acct: dict) -> List[SimulationResult]:
        B = self.kernel.num_lanes
        N = self.kernel.num_ports
        if acct["tails"]:
            tb, tsrc, tdst, tlat = (
                np.concatenate(column) for column in zip(*acct["tails"])
            )
        else:
            tb = tsrc = tdst = tlat = np.zeros(0, dtype=np.int64)
        # One stable sort by lane keeps each lane's delivery order.
        order = np.argsort(tb, kind="stable")
        lat = tlat[order]
        lane_count = np.bincount(tb, minlength=B)
        bounds = np.zeros(B + 1, dtype=np.int64)
        np.cumsum(lane_count, out=bounds[1:])
        lat_sum = np.zeros(lat.size + 1, dtype=np.int64)
        np.cumsum(lat, out=lat_sum[1:])
        lat_sumsq = np.zeros(lat.size + 1, dtype=np.int64)
        np.cumsum(lat * lat, out=lat_sumsq[1:])
        src_key = tb * N + tsrc
        src_cnt = np.bincount(src_key, minlength=B * N).reshape(B, N)
        src_lat = np.bincount(
            src_key, weights=tlat, minlength=B * N
        ).reshape(B, N)
        dst_cnt = np.bincount(tb * N + tdst, minlength=B * N).reshape(B, N)
        results = []
        for lane in range(B):
            lo = int(bounds[lane])
            hi = int(bounds[lane + 1])
            samples, stride = _replay_latency_samples(
                lat[lo:hi].tolist(), self.latency_sample_limit
            )
            result = SimulationResult(
                latency_sample_limit=self.latency_sample_limit
            )
            result.cycles = int(acct["cycles"][lane])
            result.packets_injected = int(acct["injected"][lane])
            result.packets_ejected = hi - lo
            result.flits_ejected = int(acct["flits"][lane])
            result.packet_latencies = samples
            result._sample_stride = stride
            result.latency_count = hi - lo
            result.latency_sum = int(lat_sum[hi] - lat_sum[lo])
            result.latency_sumsq = int(lat_sumsq[hi] - lat_sumsq[lo])
            results.append(result)
        lanes, ports = np.nonzero(src_cnt)
        for lane, port, count, total in zip(
            lanes.tolist(), ports.tolist(), src_cnt[lanes, ports].tolist(),
            src_lat[lanes, ports].tolist(),
        ):
            results[lane].per_input_ejected[port] = count
            results[lane].per_input_latency_sum[port] = int(total)
        lanes, ports = np.nonzero(dst_cnt)
        for lane, port, count in zip(
            lanes.tolist(), ports.tolist(), dst_cnt[lanes, ports].tolist()
        ):
            results[lane].per_output_ejected[port] = count
        return results


@dataclass(frozen=True)
class LanePlan:
    """One lane's worth of work for a fleet dispatch.

    ``traffic_factory`` must build a *fresh* traffic source when called
    (lanes cannot share RNG state).  Plans grouped into one fleet must
    agree on every field except ``traffic_factory``/``faults``.
    """

    config: HiRiseConfig
    traffic_factory: Callable[[], object]
    faults: Optional[FaultSchedule] = None
    warmup_cycles: int = 0
    measure_cycles: int = 0
    drain: bool = False
    latency_sample_limit: Optional[int] = DEFAULT_LATENCY_SAMPLE_LIMIT
    #: ``callable() -> tracer`` with a truthy ``fleet_capable`` marker
    #: (e.g. :class:`repro.obs.tracebin.BinaryTracerFactory`).  The
    #: fleet then runs traced natively: one shared
    #: :class:`~repro.obs.tracebin.FleetTracer` with a per-lane column,
    #: no scalar fallback.
    tracer_factory: Optional[Callable[[], object]] = None
    #: ``callable() -> PerfCounters`` with a truthy ``fleet_capable``
    #: marker (e.g. :class:`repro.obs.perf.PerfCountersFactory`).  One
    #: counters object profiles the whole fleet — no scalar fallback.
    perf_factory: Optional[Callable[[], object]] = None


def plans_compatible(a: LanePlan, b: LanePlan) -> bool:
    """Whether two plans may share a fleet (same config and windows)."""
    return (
        a.config == b.config
        and a.warmup_cycles == b.warmup_cycles
        and a.measure_cycles == b.measure_cycles
        and a.drain == b.drain
        and a.latency_sample_limit == b.latency_sample_limit
        and a.tracer_factory == b.tracer_factory
        and a.perf_factory == b.perf_factory
    )


def run_fleet_plans(
    plans: Sequence[LanePlan], tracer=None
) -> List[SimulationResult]:
    """Run a batch of compatible lane plans through one fleet kernel.

    Pass a :class:`~repro.obs.tracebin.FleetTracer` to capture every
    lane's binary event stream; otherwise one is created when the plans
    carry a fleet-capable ``tracer_factory`` (and dropped with the
    simulation, exactly like the scalar measurement path drops its
    per-run tracer).
    """
    if not plans:
        return []
    first = plans[0]
    for plan in plans[1:]:
        if not plans_compatible(first, plan):
            raise ValueError("fleet lanes must share config and windows")
    if tracer is None and first.tracer_factory is not None:
        from repro.obs.tracebin import DEFAULT_CAPACITY, FleetTracer

        tracer = FleetTracer(
            len(plans),
            capacity=getattr(
                first.tracer_factory, "capacity", DEFAULT_CAPACITY
            ),
        )
    perf = None
    if first.perf_factory is not None:
        perf = first.perf_factory()
    sim = FleetSimulation(
        first.config,
        [plan.traffic_factory() for plan in plans],
        [plan.faults for plan in plans],
        warmup_cycles=first.warmup_cycles,
        latency_sample_limit=first.latency_sample_limit,
        tracer=tracer,
        perf=perf,
    )
    return sim.run(first.measure_cycles, drain=first.drain)


def verify_fleet_parity(
    config: HiRiseConfig,
    schedule: Optional[FaultSchedule] = None,
    load: float = 0.9,
    seed: int = 0,
    measure_cycles: int = 300,
    warmup_cycles: int = 40,
    lanes: int = 4,
    drain: bool = False,
    traffic_factories: Optional[Sequence[Callable[[], object]]] = None,
    trace: bool = False,
) -> List[str]:
    """Compare each fleet lane against a scalar fast-kernel run.

    Lane ``i`` uses seed ``seed + i`` (or ``traffic_factories[i]``) and a
    private cursor over the shared ``schedule``.  Returns human-readable
    mismatch strings, empty when every lane is bit-identical.

    With ``trace=True`` both sides also run binary tracers (a shared
    :class:`~repro.obs.tracebin.FleetTracer` on the fleet, one
    :class:`~repro.obs.tracebin.BinaryTracer` per scalar run) and each
    lane's event stream is pinned equal to the scalar stream.
    """
    from repro.core.hirise import HiRiseSwitch
    from repro.network.engine import Simulation
    from repro.traffic.uniform import UniformRandomTraffic

    if traffic_factories is None:
        def make_factory(lane_seed):
            return lambda: UniformRandomTraffic(
                config.radix, load, seed=lane_seed
            )

        traffic_factories = [make_factory(seed + i) for i in range(lanes)]
    plans = [
        LanePlan(
            config=config,
            traffic_factory=factory,
            faults=schedule,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            drain=drain,
        )
        for factory in traffic_factories
    ]
    fleet_tracer = None
    if trace:
        from repro.obs.tracebin import FleetTracer

        fleet_tracer = FleetTracer(len(plans), capacity=None)
    fleet_results = run_fleet_plans(plans, tracer=fleet_tracer)
    fleet_columns = (
        fleet_tracer.columns() if fleet_tracer is not None else None
    )
    fields = (
        "packets_injected",
        "packets_ejected",
        "flits_ejected",
        "cycles",
        "packet_latencies",
        "per_input_ejected",
        "per_input_latency_sum",
        "per_output_ejected",
    )
    mismatches = []
    for lane, (plan, fleet) in enumerate(zip(plans, fleet_results)):
        scalar_tracer = None
        if trace:
            from repro.obs.tracebin import BinaryTracer

            scalar_tracer = BinaryTracer(capacity=None)
        switch = HiRiseSwitch(
            config, tracer=scalar_tracer, faults=plan.faults
        )
        sim = Simulation(
            switch, plan.traffic_factory(), warmup_cycles=plan.warmup_cycles
        )
        scalar = sim.run(plan.measure_cycles, drain=plan.drain)
        for name in fields:
            if getattr(scalar, name) != getattr(fleet, name):
                mismatches.append(
                    f"fleet lane {lane}: result field {name!r} differs "
                    f"(scalar={getattr(scalar, name)!r}, "
                    f"fleet={getattr(fleet, name)!r})"
                )
        if trace:
            lane_events = fleet_tracer.lane_tracer(
                lane, columns=fleet_columns
            ).events
            scalar_events = scalar_tracer.events
            if lane_events != scalar_events:
                limit = min(len(lane_events), len(scalar_events))
                first_diff = next(
                    (
                        k for k in range(limit)
                        if lane_events[k] != scalar_events[k]
                    ),
                    limit,
                )
                mismatches.append(
                    f"fleet lane {lane}: traced event stream differs at "
                    f"event {first_diff} (scalar has "
                    f"{len(scalar_events)} events, fleet "
                    f"{len(lane_events)}; scalar="
                    f"{scalar_events[first_diff:first_diff + 3]!r}, "
                    f"fleet={lane_events[first_diff:first_diff + 3]!r})"
                )
    return mismatches
