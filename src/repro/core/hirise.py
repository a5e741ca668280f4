"""Cycle-accurate model of the Hi-Rise 3D switch (fast-path kernel).

Structure (Section III-A): the N inputs and N outputs are split evenly over
L layers.  Each layer has a *local switch* routing its N/L inputs to N/L
dedicated intermediate outputs (one per final output on the same layer) and
to ``c`` layer-to-layer channels (L2LCs) toward each other layer, and an
*inter-layer switch* of N/L sub-blocks, each arbitrating one final output
among the ``c*(L-1)`` incoming L2LCs plus the local intermediate output.

Arbitration is two-phase but completes in a single cycle (two-phase
clocking, Section IV-C):

* **Phase 1 (local)** — every idle input presents one request (for the
  intermediate output dedicated to a same-layer destination, or for an
  L2LC chosen by the allocation policy); each free local resource picks a
  winner by LRG.  *The local priority vector is not updated yet.*
* **Phase 2 (inter-layer)** — each free final output arbitrates among the
  local winners reaching it (over L2LCs and the local intermediate) using
  the configured scheme (L2L-LRG / WLRG / CLRG).  Only a final-output win
  back-propagates the local LRG update, which is what guarantees
  starvation freedom: a repeatedly losing input keeps its local priority
  while rising at the inter-layer switch.

A winning packet locks its whole path — input port, local resource (L2LC or
intermediate output), and final output — until its tail flit transfers, and
data moves end-to-end in one cycle per flit, exactly like the flat switch.

**Fast-path representation.**  Resources are flat integer ids
(``repro.core.config`` builds the tables): an intermediate output's id is
its final output's global port id (``[0, radix)``); L2LC ids are dense in
``[radix, num_resources)`` in ``(src_layer, dst_layer, channel)`` row-major
order.  ``resource_owner`` is a plain list indexed by id (``-1`` = free),
cooling state is per-id/per-port bytearrays cleared incrementally, and the
per-(port, destination) resource an arbitration request would occupy is
precomputed at construction, so the viability check allocates nothing per
cycle.  The arbitration *decisions* are bit-identical to the frozen seed
kernel (:mod:`repro.core.reference`), enforced by
``tests/core/test_golden_equivalence.py``.
"""

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arbitration.age import AgeArbiter
from repro.arbitration.clrg import CLRGArbiter
from repro.arbitration.lrg import LRGArbiter
from repro.arbitration.round_robin import RoundRobinArbiter
from repro.arbitration.wlrg import WLRGArbiter
from repro.core.channels import make_allocation
from repro.core.config import ArbitrationScheme, HiRiseConfig
from repro.faults import FaultCursor, FaultSchedule, apply_fault_events
from repro.network.engine import SwitchModel
from repro.network.flit import Flit
from repro.network.packet import Packet
from repro.network.port import InputPort, queue_columns, queue_packet
from repro.obs.trace import (
    CLRG_HALVE,
    REASON_CHANNEL_FAILED,
    REASON_OUTPUT_BUSY,
    REASON_OUTPUT_COOLING,
    REASON_RESOURCE_BUSY,
    REASON_RESOURCE_COOLING,
)
from repro.obs.tracebin import (
    _T_COOL,
    _T_EJECT,
    _T_INJECT,
    _T_P1,
    _T_P2,
    _T_VIA,
)


def _halve_hook(tracer, output: int):
    """CLRG counter-bank callback: records a halving against ``output``."""

    def on_halve(halvings: int) -> None:
        tracer.emit(CLRG_HALVE, output, halvings)

    return on_halve


@dataclass(slots=True)
class _LocalWin:
    """Outcome of one phase-1 (local switch) arbitration."""

    input_port: int          # global id of the winning primary input
    dst_output: int          # global final output it requests
    weight: int              # live requestor count (for WLRG)
    resource: int            # flat id of the resource this winner occupies
    local_arbiter: LRGArbiter
    local_slot: int          # slot to update in the local arbiter on a win
    age: int = 0             # head-flit wait in cycles (for AGE arbitration)


class _PriorityViability:
    """Closure-free head-flit viability check for priority allocation.

    ``rids_of_dst`` maps every destination to the tuple of resource ids
    any of which could carry the request: a single intermediate-output id
    for same-layer traffic, the healthy L2LC ids toward the destination
    layer (in channel order) otherwise.  Calling the instance allocates
    nothing.  It holds the switch's ownership and cooling containers
    (never rebound), not the switch, so a finished switch is freed by
    reference counting.
    """

    __slots__ = (
        "output_owner", "out_cooling", "resource_owner", "res_cooling",
        "rids_of_dst",
    )

    def __init__(
        self, switch: "HiRiseSwitch", rids_of_dst: Tuple[Tuple[int, ...], ...]
    ):
        self.output_owner = switch.output_owner
        self.out_cooling = switch._out_cooling
        self.resource_owner = switch.resource_owner
        self.res_cooling = switch._res_cooling
        self.rids_of_dst = rids_of_dst

    def __call__(self, flit: Flit) -> bool:
        dst = flit.dst
        if self.output_owner[dst] is not None or self.out_cooling[dst]:
            return False
        owner = self.resource_owner
        cooling = self.res_cooling
        for rid in self.rids_of_dst[dst]:
            if owner[rid] < 0 and not cooling[rid]:
                return True
        return False


class HiRiseSwitch(SwitchModel):
    """Cycle-accurate Hi-Rise switch (optimized fast-path kernel).

    Args:
        config: Architectural parameters (radix, layers, channel
            multiplicity, allocation policy, arbitration scheme).

    Public state (kept from the seed kernel, re-keyed to flat ids):
    ``resource_owner`` is a list indexed by flat resource id (``-1`` =
    free), ``output_owner`` a list indexed by output port (``None`` =
    free), ``connections`` a dict ``input -> (resource_id, output)``,
    ``grant_cycle`` a dict ``input -> cycle its live path was granted``.
    The per-resource arbiters remain tuple-keyed dictionaries
    (``int_arbiters``, ``chan_arbiters``, ``pair_arbiters``,
    ``subblock_arbiters``) so tests and walkthroughs can seed specific
    priority states.

    Tracing: pass a :class:`repro.obs.BinaryTracer` as ``tracer`` to
    record cycle-level events (grants, blocks, cooldowns, CLRG
    halvings).  The tracer only observes — traced runs are bit-identical
    to untraced runs — and with ``tracer=None`` (the default) the cycle
    kernel pays exactly one predictable branch per cycle.

    Fault injection: pass a :class:`repro.faults.FaultSchedule` as
    ``faults`` to apply scripted/stochastic mid-run faults (channel
    failure/repair, stuck inputs, CLRG corruption).  Events due at a
    cycle are applied at the very start of ``step()``, before any
    transmit or arbitration, via the shared
    :func:`repro.faults.apply_fault_events` hook — identical in the
    reference kernel, so faulted runs stay bit-identical across kernels.
    ``faults=None`` (the default) adds one predictable branch per cycle.
    """

    def __init__(
        self,
        config: Optional[HiRiseConfig] = None,
        tracer: Optional[object] = None,
        faults: Optional[FaultSchedule] = None,
        invariants: Optional[object] = None,
        perf: Optional[object] = None,
    ) -> None:
        self.config = config or HiRiseConfig()
        cfg = self.config
        self.num_ports = cfg.radix
        self.allocation = make_allocation(cfg)
        self.ports: List[InputPort] = [
            InputPort(i, cfg.port_config) for i in range(cfg.radix)
        ]
        # Per-port source queues, pre-resolved for the inject methods.
        self._queues = [port.source_queue for port in self.ports]

        ports_per_layer = cfg.ports_per_layer
        # Phase-1 arbiters, all over local input indices.
        self.int_arbiters: Dict[Tuple[int, int], LRGArbiter] = {
            (layer, j): LRGArbiter(ports_per_layer)
            for layer in range(cfg.layers)
            for j in range(ports_per_layer)
        }
        self.chan_arbiters: Dict[Tuple[int, int, int], LRGArbiter] = {}
        self.pair_arbiters: Dict[Tuple[int, int], LRGArbiter] = {}
        for src in range(cfg.layers):
            for dst in range(cfg.layers):
                if src == dst:
                    continue
                self.pair_arbiters[(src, dst)] = LRGArbiter(ports_per_layer)
                for channel in range(cfg.channel_multiplicity):
                    self.chan_arbiters[(src, dst, channel)] = LRGArbiter(
                        ports_per_layer
                    )

        # Phase-2 arbiters: one per final output (inter-layer sub-block).
        self.subblock_arbiters: Dict[int, object] = {
            output: self._make_subblock_arbiter() for output in range(cfg.radix)
        }

        # Path state, flat-indexed.
        self.resource_owner: List[int] = [-1] * cfg.num_resources
        self.output_owner: List[Optional[int]] = [None] * cfg.radix
        # input -> (resource_id, output) of its live connection.
        self.connections: Dict[int, Tuple[int, int]] = {}
        # input -> cycle its live (or most recent) path was granted.
        self.grant_cycle: Dict[int, int] = {}
        self._arb_cycle = -1
        # Cooling bitsets: paths whose tail transferred this cycle
        # (arbitration blackout), cleared incrementally from
        # _cooling_paths at the start of the next cycle.
        self._in_cooling = bytearray(cfg.radix)
        self._out_cooling = bytearray(cfg.radix)
        self._res_cooling = bytearray(cfg.num_resources)
        # Diagonal (src == dst) channel ids are never requested in a
        # healthy switch; permanently marking them as cooling turns them
        # into dead sentinels the binned tables can point at when every
        # channel toward a destination layer has failed mid-run (they
        # are never in _cooling_paths, so the bits are never cleared).
        for layer in range(cfg.layers):
            for channel in range(cfg.channel_multiplicity):
                self._res_cooling[
                    cfg.channel_resource_id(layer, layer, channel)
                ] = 1
        self._cooling_paths: List[Tuple[int, int, int]] = []
        # L2LCs with faulty TSV bundles: never granted (robustness ext.).
        self.failed_channels = frozenset(cfg.failed_channels)
        # Stuck inputs (dynamic faults): masked from arbitration via
        # _arb_ports, which aliases self.ports until a fault narrows it.
        self.stuck_inputs: set = set()
        self._arb_ports: List[InputPort] = self.ports
        self._fault_cursor = FaultCursor(faults) if faults is not None else None

        self._build_fast_tables()

        # Opt-in observability, wired entirely at construction so the
        # untraced hot loop carries no tracing state or branches.
        self._tracer = tracer
        if tracer is not None:
            tracer.bind(self)
            # Shadow the commit method on the instance: phase-2 grants
            # are captured without any check on the untraced path.  The
            # traced step (and inject_columns) append per-cycle
            # references to the tracer's timeline, expanded to columns
            # off the hot loop.
            self._p2_grants: List[Tuple[int, int, int]] = []
            self._establish = (  # type: ignore[method-assign]
                self._establish_traced
            )
            for output, arbiter in self.subblock_arbiters.items():
                counters = getattr(arbiter, "counters", None)
                if counters is not None:
                    counters.on_halve = _halve_hook(tracer, output)

        # Opt-in phase-level performance counters (repro.obs.perf): the
        # counters only read the monotonic clock, so attached runs stay
        # bit-identical.  step() hands one cycle in every perf.stride to
        # _step_perf, which times it phase by phase; the other cycles
        # run untimed.  perf.bind shadows the inject methods with twins
        # timed as "inject"; with a tracer, its deferred column
        # expansion is timed too, as "trace_drain".
        self._perf = perf
        if perf is not None:
            perf.bind(self)
            if tracer is not None:
                tracer.perf = perf

        # Opt-in runtime invariant verification (repro.check): binds
        # after the tracer so its injection counting wraps whichever
        # inject the switch ends up with; like tracing, it only
        # observes — checked runs are bit-identical to unchecked runs.
        self._invariants = invariants
        if invariants is not None:
            invariants.bind(self)

    def _build_fast_tables(self) -> None:
        """Precompute the per-port request/viability tables (hot path)."""
        cfg = self.config
        layers = cfg.layers
        cmult = cfg.channel_multiplicity
        layer_of = cfg.layer_of_port_table
        local_of = cfg.local_index_table

        # (src_layer, dst_layer) -> healthy channel indices, channel order.
        healthy: Dict[int, Tuple[int, ...]] = {}
        for src in range(layers):
            for dst in range(layers):
                if src == dst:
                    continue
                healthy[src * layers + dst] = tuple(
                    channel for channel in range(cmult)
                    if (src, dst, channel) not in self.failed_channels
                )
        self._healthy_channels = healthy
        # (src_layer, dst_layer) packed -> healthy L2LC ids, channel order.
        self._healthy_rids = {
            pair: tuple(
                cfg.channel_resource_id(pair // layers, pair % layers, ch)
                for ch in channels
            )
            for pair, channels in healthy.items()
        }
        # Decode table: channel rid - radix -> (src_layer, dst_layer, channel).
        self._chan_of_rid = tuple(
            (index // (layers * cmult),
             (index // cmult) % layers,
             index % cmult)
            for index in range(layers * layers * cmult)
        )

        # Per-port scratch: head-flit age of this cycle's candidate.
        # Only the AGE scheme consumes ages, so tracking is gated.
        self._ages = [0] * cfg.radix
        self._track_ages = cfg.arbitration is ArbitrationScheme.AGE
        # Persistent per-port buffer: slot i holds the candidate VC of
        # port i *for the cycle the port last requested in*.  Phase 2 only
        # reads ports that won phase 1 this cycle, so stale entries are
        # never observed and the buffer needs no clearing.
        self._candidate_vc = [0] * cfg.radix

        # Per-scheme sub-block implementation, resolved once.  Stored as
        # the plain function (a bound method on self would be a
        # reference cycle that only the cyclic collector could free).
        self._is_clrg = cfg.arbitration is ArbitrationScheme.CLRG
        if cfg.arbitration in (
            ArbitrationScheme.L2L_LRG, ArbitrationScheme.L2L_RR
        ):
            self._subblock_pick = HiRiseSwitch._subblock_slot_based
        elif cfg.arbitration is ArbitrationScheme.AGE:
            self._subblock_pick = HiRiseSwitch._subblock_age
        elif cfg.arbitration is ArbitrationScheme.WLRG:
            self._subblock_pick = HiRiseSwitch._subblock_wlrg
        else:
            self._subblock_pick = HiRiseSwitch._subblock_clrg

        # Per-port request tables (single allocation, at construction).
        if self.allocation.is_binned:
            # _request_rid[port][dst] is the one flat resource id a
            # request from ``port`` for ``dst`` would occupy: the dedicated
            # intermediate output for same-layer traffic, the
            # failure-remapped binned L2LC otherwise.  Phase 1 inlines the
            # viability check as reads of this table.  A destination
            # layer whose channels have all failed (only possible under
            # dynamic faults) maps to the src layer's diagonal sentinel
            # id: permanently cooling, so the check rejects it with zero
            # extra hot-path branches.
            # (src_layer, dst_layer, nominal channel), packed like the
            # L2LC ids -> the id a binned request for it contends for.
            rid_of_nominal = [0] * (layers * layers * cmult)
            for src in range(layers):
                dead_rid = cfg.channel_resource_id(src, src, 0)
                for dst in range(layers):
                    if src == dst:
                        continue
                    for nominal in range(cmult):
                        channel = self._healthy_channel_or_none(
                            src, dst, nominal
                        )
                        rid_of_nominal[(src * layers + dst) * cmult + nominal] = (
                            dead_rid if channel is None
                            else cfg.channel_resource_id(src, dst, channel)
                        )
            channel_for = self.allocation.channel_for
            self._request_rid = []
            for port in range(cfg.radix):
                src_layer = layer_of[port]
                local_input = local_of[port]
                rid_of_dst = []
                for dst in range(cfg.radix):
                    dst_layer = layer_of[dst]
                    if dst_layer == src_layer:
                        rid_of_dst.append(dst)
                    else:
                        rid_of_dst.append(rid_of_nominal[
                            (src_layer * layers + dst_layer) * cmult
                            + channel_for(local_input, dst)
                        ])
                self._request_rid.append(tuple(rid_of_dst))
            self._viability = None
        else:
            # Per-port viability objects for priority allocation.
            self._viability = []
            for port in range(cfg.radix):
                src_layer = layer_of[port]
                rids_of_dst = []
                for dst in range(cfg.radix):
                    if layer_of[dst] == src_layer:
                        rids_of_dst.append((dst,))
                    else:
                        rids_of_dst.append(
                            self._healthy_rids[src_layer * layers + layer_of[dst]]
                        )
                self._viability.append(
                    _PriorityViability(self, tuple(rids_of_dst))
                )
            self._request_rid = None

    def _make_subblock_arbiter(self):
        cfg = self.config
        slots = cfg.subblock_inputs
        if cfg.arbitration is ArbitrationScheme.L2L_LRG:
            return LRGArbiter(slots)
        if cfg.arbitration is ArbitrationScheme.WLRG:
            return WLRGArbiter(slots)
        if cfg.arbitration is ArbitrationScheme.CLRG:
            if cfg.qos_weights is not None:
                from repro.arbitration.qos import QoSCLRGArbiter

                return QoSCLRGArbiter(
                    slots, cfg.radix, cfg.qos_weights, cfg.num_classes
                )
            return CLRGArbiter(slots, cfg.radix, cfg.num_classes)
        if cfg.arbitration is ArbitrationScheme.L2L_RR:
            return RoundRobinArbiter(slots)
        if cfg.arbitration is ArbitrationScheme.AGE:
            return AgeArbiter(slots)
        raise ValueError(f"unknown arbitration scheme: {cfg.arbitration}")

    def healthy_channel(self, src_layer: int, dst_layer: int, nominal: int) -> int:
        """Remap a binned channel choice around failed TSV bundles.

        Returns the nominal channel when healthy, otherwise the next
        healthy channel toward the same destination layer (configuration
        validation guarantees one exists).
        """
        channel = self._healthy_channel_or_none(src_layer, dst_layer, nominal)
        if channel is None:
            raise AssertionError("config validation guarantees a healthy channel")
        return channel

    def _healthy_channel_or_none(
        self, src_layer: int, dst_layer: int, nominal: int
    ) -> Optional[int]:
        """Like :meth:`healthy_channel`, but None when the pair is dead.

        Dynamic faults (unlike static config validation) may fail every
        channel between a layer pair; table builds use this variant so a
        partition degrades the switch instead of crashing it.
        """
        c = self.config.channel_multiplicity
        for offset in range(c):
            channel = (nominal + offset) % c
            if (src_layer, dst_layer, channel) not in self.failed_channels:
                return channel
        return None

    def _refresh_fault_state(self) -> None:
        """Rebuild fault-dependent state after channel/input events.

        Called by :func:`repro.faults.apply_fault_events` between cycles
        (start of ``step()``), where a wholesale table rebuild is safe:
        ``_ages`` and ``_candidate_vc`` are written before they are read
        each cycle, and fault events are rare enough that the O(radix^2)
        rebuild cost never shows on the hot path.
        """
        self._build_fast_tables()
        if self.stuck_inputs:
            stuck = self.stuck_inputs
            self._arb_ports = [
                port for port in self.ports if port.port_id not in stuck
            ]
        else:
            self._arb_ports = self.ports

    def busy_resources(self) -> List[Tuple]:
        """Tuple keys of every currently owned resource (for probes).

        Keys follow the seed kernel's convention:
        ``("int", layer, local_output)`` / ``("ch", src, dst, channel)``.
        """
        key_table = self.config.resource_key_table
        return [
            key_table[rid]
            for rid, owner in enumerate(self.resource_owner)
            if owner >= 0
        ]

    # ------------------------------------------------------------------
    # SwitchModel interface
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        queue_packet(self._queues, packet)
        tracer = self._tracer
        if tracer is not None:
            tracer.inject(packet.created_cycle, packet.src, packet.dst,
                          packet.num_flits, packet.packet_id)

    def inject_many(self, packets: Iterable[Packet]) -> int:
        """Inject a batch of packets; returns how many were injected.

        Equivalent to calling :meth:`inject` per packet, without the
        per-packet calls (``scripts/bench_kernel.py`` injects pre-built
        packets this way); a traced switch captures the batch as one
        timeline entry, which is sound because a packet is not mutated
        after injection.
        """
        if type(packets) is not list:
            packets = list(packets)
        num_ports = self.num_ports
        queues = self._queues
        for packet in packets:
            src = packet.src
            dst = packet.dst
            if not 0 <= src < num_ports:
                raise ValueError(f"source port {src} out of range")
            if not 0 <= dst < num_ports:
                raise ValueError(f"destination port {dst} out of range")
            # Inlined SourceQueue.append_packet.
            num_flits = packet.num_flits
            queue = queues[src]
            queue._packets.append((packet.packet_id, dst,
                                   packet.created_cycle, num_flits,
                                   packet.payload))
            queue._pending_flits += num_flits
        if packets and self._tracer is not None:
            self._tracer.timeline.append((_T_INJECT, packets))
        return len(packets)

    def inject_columns(
        self,
        srcs: Sequence[int],
        dsts: Sequence[int],
        first: int,
        cycle: int,
        num_flits: int,
    ) -> None:
        """Queue one cycle's column injections as packet records.

        The engine's injection path (see
        :meth:`repro.network.engine.SwitchModel.inject_columns`): no
        :class:`Packet` is built; a traced switch captures the columns
        as one timeline entry.
        """
        queue_columns(self._queues, srcs, dsts, first, cycle, num_flits)
        tracer = self._tracer
        if tracer is not None:
            tracer.inject_columns(cycle, srcs, dsts, num_flits, first)

    def step(self, cycle: int) -> List[Flit]:
        """Advance one cycle; returns the flits ejected this cycle.

        Every step path runs the same phases in the same order:
        :meth:`_begin_cycle`, :meth:`_transmit`, :meth:`_refill`,
        :meth:`_phase1_local` and :meth:`_phase2_interlayer`.  A sampled
        perf cycle (:meth:`_step_perf`) adds clock reads between them and
        a traced one (:meth:`_step_traced`) timeline appends.
        """
        perf = self._perf
        if perf is not None:
            perf.cycles_total += 1
            if not cycle % perf.stride:
                return self._step_perf(cycle)
        if self._tracer is not None:
            return self._step_traced(cycle)
        self._begin_cycle(cycle)
        ejected = self._transmit(cycle)
        self._refill(cycle)
        self._phase2_interlayer(self._phase1_local(cycle))
        if self._invariants is not None:
            self._invariants.after_step(self, cycle, ejected)
        return ejected

    def _begin_cycle(self, cycle: int) -> None:
        """Per-cycle preamble shared by every step path.

        Scheduled faults land before anything else in the cycle, so a
        channel failing at cycle k is masked from cycle k's arbitration
        (its in-flight packet, if any, still quiesces via transmit).
        Then the paths released by a tail last cycle, which carried
        data on their wires and so could not also arbitrate ("arbitrate
        or transmit in a single cycle"), have their cooling flags
        cleared incrementally.
        """
        cursor = self._fault_cursor
        if cursor is not None:
            due = cursor.take(cycle)
            if due:
                apply_fault_events(self, due)
        paths = self._cooling_paths
        if paths:
            in_cooling = self._in_cooling
            out_cooling = self._out_cooling
            res_cooling = self._res_cooling
            for src, output, rid in paths:
                in_cooling[src] = 0
                out_cooling[output] = 0
                res_cooling[rid] = 0
            paths.clear()
        self._arb_cycle = cycle

    def _step_perf(self, cycle: int) -> List[Flit]:
        """Sampled perf cycle: :meth:`step`'s phases, timed one by one.

        :meth:`step` hands over one cycle in every ``perf.stride``; the
        others run untimed.  A monotonic read sits at each phase
        boundary.  Traced cycles are attributed whole (as ``step``)
        rather than split, since the traced step interleaves capture
        with every phase.
        """
        perf = self._perf
        perf.cycles_sampled += 1
        ns = time.perf_counter_ns
        if self._tracer is not None:
            t0 = ns()
            ejected = self._step_traced(cycle)
            perf.add("step", ns() - t0, len(ejected))
            return ejected
        self._begin_cycle(cycle)
        t1 = ns()
        ejected = self._transmit(cycle)
        t2 = ns()
        self._refill(cycle)
        t3 = ns()
        local_winners = self._phase1_local(cycle)
        t4 = ns()
        self._phase2_interlayer(local_winners)
        t5 = ns()
        perf.add("transmit", t2 - t1, len(ejected))
        perf.add("refill", t3 - t2)
        perf.add("arbitrate", t4 - t3, len(local_winners))
        perf.add("commit", t5 - t4)
        if self._invariants is not None:
            self._invariants.after_step(self, cycle, ejected)
        return ejected

    def _transmit(self, cycle: int) -> List[Flit]:
        # Inlined port.transmit() for every port with an active, non-empty
        # VC, plus the global path teardown on a tail.  No other port's
        # transmit or refill reads the torn-down state, so this pass and
        # _refill reproduce the seed's transmit-all-then-refill-all order.
        ejected: List[Flit] = []
        connections = self.connections
        resource_owner = self.resource_owner
        output_owner = self.output_owner
        in_cooling = self._in_cooling
        out_cooling = self._out_cooling
        res_cooling = self._res_cooling
        cooling_paths = self._cooling_paths
        for port in self.ports:
            active = port.active_vc
            if active is None:
                continue
            vc = port.vcs[active]
            fifo = vc._fifo
            if not fifo:
                continue
            flit = fifo.popleft()
            port._refill_blocked = False
            flit.ejected_cycle = cycle
            ejected.append(flit)
            seq = flit.seq
            if not seq:
                port._heads -= 1
            if seq == flit.num_flits - 1:  # tail: tear down
                if not fifo:
                    vc._owner_packet = None
                port.active_vc = None
                src = flit.src
                rid, output = connections.pop(src)
                resource_owner[rid] = -1
                output_owner[output] = None
                in_cooling[src] = 1
                out_cooling[output] = 1
                res_cooling[rid] = 1
                cooling_paths.append((src, output, rid))
        return ejected

    def _refill(self, cycle: int) -> None:
        # port.refill moves up to one flit per port.  A blocked port's VC
        # state cannot have changed since its last failed refill (the flag
        # clears when a flit pops), and a port with no flits or records
        # queued (no pending flits) has nothing to move: both skip the call.
        for port in self.ports:
            if not port._refill_blocked and port.source_queue._pending_flits:
                port.refill(cycle)

    def occupancy(self) -> int:
        return sum(port.total_occupancy() for port in self.ports)

    # ------------------------------------------------------------------
    # Arbitration (two phases within one cycle)
    # ------------------------------------------------------------------
    def _phase1_local(
        self, cycle: int,
        blocked: Optional[List[Tuple[int, int, int]]] = None,
    ) -> Dict[int, _LocalWin]:
        """Collect requests and run every free local resource's arbitration.

        Writes each requesting port's candidate VC into
        ``_candidate_vc``.  ``blocked`` (traced steps only) collects one
        ``(port, dst, reason)`` entry per idle port that had head flits
        but no viable request — the ``via_block`` events — through
        :meth:`_capture_blocked` on that rare branch.  Untraced calls
        pass ``None`` and pay only this default argument.
        """
        candidate_vcs = self._candidate_vc
        cfg = self.config
        layers = cfg.layers
        ports_per_layer = cfg.ports_per_layer
        layer_of = cfg.layer_of_port_table
        local_of = cfg.local_index_table
        in_cooling = self._in_cooling
        viability = self._viability
        ages = self._ages
        track_ages = self._track_ages
        binned = self.allocation.is_binned
        request_rid = self._request_rid
        output_owner = self.output_owner
        out_cooling = self._out_cooling
        resource_owner = self.resource_owner
        res_cooling = self._res_cooling
        num_vcs = cfg.port_config.num_vcs

        # Requests grouped by the flat id of the resource they contend
        # for (pair_requests by packed (src_layer, dst_layer) since the
        # priority mux assigns channels after ranking).
        int_requests: Dict[int, List[int]] = {}
        chan_requests: Dict[int, List[Tuple[int, int]]] = {}
        pair_requests: Dict[int, List[Tuple[int, int]]] = {}

        # _arb_ports aliases self.ports until a stuck-input fault
        # narrows it; stuck ports never present requests.  A port with
        # no head-fronted VC can neither request nor be blocked, so it
        # costs one attribute read.
        for port in self._arb_ports:
            if not port._heads:
                continue
            port_id = port.port_id
            if in_cooling[port_id] or port.active_vc is not None:
                continue
            if binned:
                # Inlined port.candidate_vc with the binned viability check:
                # round-robin over VCs fronted by a head flit whose output
                # and precomputed resource id are both free and not cooling.
                rid_of_dst = request_rid[port_id]
                vcs = port.vcs
                start = port._rr_next_vc
                for offset in range(num_vcs):
                    idx = start + offset
                    if idx >= num_vcs:
                        idx -= num_vcs
                    fifo = vcs[idx]._fifo
                    if fifo:
                        front = fifo[0]
                        if front.seq == 0:
                            dst = front.dst
                            if output_owner[dst] is None and not out_cooling[dst]:
                                rid = rid_of_dst[dst]
                                if resource_owner[rid] < 0 and not res_cooling[rid]:
                                    vc = idx
                                    break
                else:
                    if blocked is not None:
                        self._capture_blocked(port, blocked)
                    continue
            else:
                vc = port.candidate_vc(viability[port_id])
                if vc is None:
                    if blocked is not None:
                        self._capture_blocked(port, blocked)
                    continue
                front = port.vcs[vc]._fifo[0]
                dst = front.dst
            candidate_vcs[port_id] = vc
            src_layer = layer_of[port_id]
            local_input = local_of[port_id]
            if track_ages:
                ages[port_id] = cycle - front.created_cycle
            dst_layer = layer_of[dst]
            if dst_layer == src_layer:
                requestors = int_requests.get(dst)
                if requestors is None:
                    int_requests[dst] = [local_input]
                else:
                    requestors.append(local_input)
            elif binned:
                requests = chan_requests.get(rid)
                if requests is None:
                    chan_requests[rid] = [(local_input, dst)]
                else:
                    requests.append((local_input, dst))
            else:
                pair = src_layer * layers + dst_layer
                requests = pair_requests.get(pair)
                if requests is None:
                    pair_requests[pair] = [(local_input, dst)]
                else:
                    requests.append((local_input, dst))

        winners: Dict[int, _LocalWin] = {}

        for rid, requestors in int_requests.items():
            # Intermediate-output id == its final output's global port id.
            if resource_owner[rid] >= 0 or res_cooling[rid]:
                continue
            arbiter = self.int_arbiters[(layer_of[rid], local_of[rid])]
            if len(requestors) == 1:  # lone requestor wins outright
                local_win = requestors[0]
            else:
                # min-by-key == LRGArbiter.arbitrate (recency keys are
                # distinct, so the minimum is unique); skips validation.
                local_win = min(requestors, key=arbiter._rank.__getitem__)
            winner_port = layer_of[rid] * ports_per_layer + local_win
            winners[rid] = _LocalWin(
                winner_port, rid, len(requestors), rid, arbiter, local_win,
                ages[winner_port] if track_ages else 0,
            )

        radix = cfg.radix
        chan_of_rid = self._chan_of_rid
        for rid, requests in chan_requests.items():
            if resource_owner[rid] >= 0 or res_cooling[rid]:
                continue
            src, dst_layer, channel = chan_of_rid[rid - radix]
            arbiter = self.chan_arbiters[(src, dst_layer, channel)]
            if len(requests) == 1:  # lone requestor wins outright
                local_win, dst_output = requests[0]
            else:
                dst_by_input = dict(requests)
                local_win = min(dst_by_input, key=arbiter._rank.__getitem__)
                dst_output = dst_by_input[local_win]
            winner_port = src * ports_per_layer + local_win
            winners[rid] = _LocalWin(
                winner_port, dst_output, len(requests), rid, arbiter,
                local_win, ages[winner_port] if track_ages else 0,
            )

        cmult = cfg.channel_multiplicity
        for pair, requests in pair_requests.items():
            base = radix + pair * cmult
            free_rids = [
                base + channel
                for channel in self._healthy_channels[pair]
                if resource_owner[base + channel] < 0
                and not res_cooling[base + channel]
            ]
            if not free_rids:
                continue
            src = pair // layers
            arbiter = self.pair_arbiters[(src, pair % layers)]
            dst_by_input = dict(requests)
            ranked = sorted(dst_by_input, key=arbiter._rank.__getitem__)
            # The priority mux serialises: the top-ranked requestors take
            # the free channels in order.
            weight = -(-len(requests) // cmult)  # ceil
            for rid, local_win in zip(free_rids, ranked):
                winner_port = src * ports_per_layer + local_win
                winners[rid] = _LocalWin(
                    winner_port, dst_by_input[local_win], weight, rid,
                    arbiter, local_win,
                    ages[winner_port] if track_ages else 0,
                )
        return winners

    def _phase2_interlayer(self, local_winners: Dict[int, _LocalWin]) -> None:
        """Per-sub-block arbitration among local winners; lock paths."""
        candidate_vcs = self._candidate_vc
        cfg = self.config
        radix = cfg.radix
        local_slot = cfg.local_slot
        slot_table = cfg.slot_of_channel_table
        output_owner = self.output_owner
        out_cooling = self._out_cooling
        # Group candidates by final output; each local winner targets
        # exactly one output and each input appears at most once, so the
        # sub-blocks are independent.
        by_output: Dict[int, List[Tuple[int, _LocalWin]]] = {}
        for rid, win in local_winners.items():
            output = win.dst_output
            if output_owner[output] is not None or out_cooling[output]:
                continue
            slot = local_slot if rid < radix else slot_table[rid - radix]
            candidates = by_output.get(output)
            if candidates is None:
                by_output[output] = [(slot, win)]
            else:
                candidates.append((slot, win))

        subblock_pick = self._subblock_pick
        for output, candidates in by_output.items():
            winner = subblock_pick(self, output, candidates)
            if winner is None:
                continue
            self._establish(winner, output, candidate_vcs)

    def _subblock_slot_based(
        self, output: int, candidates: List[Tuple[int, "_LocalWin"]]
    ) -> Optional[_LocalWin]:
        """L2L-LRG / L2L-RR sub-block arbitration: slot identity only."""
        arbiter = self.subblock_arbiters[output]
        if len(candidates) == 1:  # a lone requestor always wins
            slot, win = candidates[0]
            arbiter.update(slot)
            return win
        wins_by_slot = dict(candidates)
        slot = arbiter.arbitrate(wins_by_slot.keys())
        if slot is None:
            return None
        arbiter.update(slot)
        return wins_by_slot[slot]

    def _subblock_age(
        self, output: int, candidates: List[Tuple[int, "_LocalWin"]]
    ) -> Optional[_LocalWin]:
        """AGE sub-block arbitration: oldest head flit wins."""
        arbiter = self.subblock_arbiters[output]
        if len(candidates) == 1:
            slot, win = candidates[0]
            arbiter.commit(slot, win.age)
            return win
        request = arbiter.arbitrate_requests(
            [(slot, win.age) for slot, win in candidates]
        )
        if request is None:
            return None
        slot, age = request
        arbiter.commit(slot, age)
        return dict(candidates)[slot]

    def _subblock_wlrg(
        self, output: int, candidates: List[Tuple[int, "_LocalWin"]]
    ) -> Optional[_LocalWin]:
        """WLRG sub-block arbitration: weighted by live requestor count."""
        arbiter = self.subblock_arbiters[output]
        if len(candidates) == 1:
            slot, win = candidates[0]
            arbiter.commit(slot, win.weight)
            return win
        request = arbiter.arbitrate_requests(
            [(slot, win.weight) for slot, win in candidates]
        )
        if request is None:
            return None
        slot, weight = request
        arbiter.commit(slot, weight)
        return dict(candidates)[slot]

    def _subblock_clrg(
        self, output: int, candidates: List[Tuple[int, "_LocalWin"]]
    ) -> Optional[_LocalWin]:
        """CLRG: class by primary input, LRG over slots to break ties."""
        arbiter = self.subblock_arbiters[output]
        if len(candidates) == 1:
            slot, win = candidates[0]
            # Inlined CLRGArbiter.commit (slot is valid by construction).
            arbiter.counters.record_win(win.input_port)
            lrg = arbiter.lrg
            lrg._rank[slot] = lrg._stamp
            lrg._stamp += 1
            return win
        request = arbiter.arbitrate_requests(
            [(slot, win.input_port) for slot, win in candidates]
        )
        if request is None:
            return None
        slot, primary_input = request
        arbiter.counters.record_win(primary_input)
        lrg = arbiter.lrg
        lrg._rank[slot] = lrg._stamp
        lrg._stamp += 1
        return dict(candidates)[slot]

    def _establish(
        self, win: _LocalWin, output: int, candidate_vcs: List[int]
    ) -> None:
        """Lock the winner's full path and back-propagate the local update."""
        input_port = win.input_port
        port = self.ports[input_port]
        # Inlined port.grant() — phase 2 grants one winner per input by
        # construction, so the busy check cannot fire here.
        vc_index = candidate_vcs[input_port]
        port.active_vc = vc_index
        port._rr_next_vc = (vc_index + 1) % len(port.vcs)
        self.resource_owner[win.resource] = input_port
        self.output_owner[output] = input_port
        self.connections[input_port] = (win.resource, output)
        self.grant_cycle[input_port] = self._arb_cycle
        # The local switch priority update is triggered only by the final
        # output win (Section III-B.1).  Local arbiters are always plain
        # LRG, so the O(1) recency-stamp demotion is inlined here.
        arbiter = win.local_arbiter
        arbiter._rank[win.local_slot] = arbiter._stamp
        arbiter._stamp += 1

    def _establish_traced(
        self, win: _LocalWin, output: int, candidate_vcs: List[int]
    ) -> None:
        """Traced :meth:`_establish`: also records the phase-2 grant.

        Appends ``(input, output, cls)``, where ``cls`` is the post-commit
        CLRG class (the sub-block's ``record_win`` has already run in
        ``_subblock_clrg``) or -1 for other schemes, so the traced step
        needs no second pass over the winners.
        """
        HiRiseSwitch._establish(self, win, output, candidate_vcs)
        input_port = win.input_port
        self._p2_grants.append((
            input_port, output,
            self.subblock_arbiters[output].counters._counts[input_port]
            if self._is_clrg else -1,
        ))

    # ------------------------------------------------------------------
    # Traced variants (deferred batch capture, repro.obs.tracebin)
    # ------------------------------------------------------------------
    def _step_traced(self, cycle: int) -> List[Flit]:
        """Traced step(): :meth:`step`'s phases, one timeline entry per batch.

        Identical state transitions to :meth:`step`; observation cost is
        a handful of list appends per cycle because the heavy per-event
        expansion is deferred to :meth:`BinaryTracer.drain` (mostly by
        capturing references to structures this step built anyway — the
        ejected-flit list, the phase-1 winners dict — which are never
        mutated after capture).  State-dependent payloads that a later
        cycle would overwrite (cooling grant cycles, phase-2 outcomes,
        viability reasons) are the only values materialised here.
        """
        tracer = self._tracer
        tracer.cycle = cycle
        # Fault events raw-emit straight onto the timeline, first in
        # the cycle (the tracer's cycle is already set for them).
        self._begin_cycle(cycle)
        timeline = tracer.timeline
        ejected = self._transmit(cycle)
        if ejected:
            timeline.append((_T_EJECT, cycle, ejected))
        cooled = self._cooling_paths
        if cooled:
            # _cooling_paths is cleared next cycle and grant_cycle
            # entries are overwritten on re-grant: materialise now.
            granted = self.grant_cycle.get
            timeline.append((_T_COOL, cycle, [
                (rid, src, output, granted(src, -1))
                for src, output, rid in cooled
            ]))
        self._refill(cycle)
        blocked: List[Tuple[int, int, int]] = []
        winners = self._phase1_local(cycle, blocked)
        if blocked:
            timeline.append((_T_VIA, cycle, blocked))
        if winners:
            timeline.append((_T_P1, cycle, winners))
            # Phase-2 grants are captured inside `_establish_traced`
            # (with post-commit CLRG classes); blocks are reconstructed
            # at drain time as winners minus grants.
            grants = self._p2_grants = []
            self._phase2_interlayer(winners)
            timeline.append((_T_P2, cycle, winners, grants))
        if len(timeline) >= tracer.drain_interval:
            tracer.drain()
        if self._invariants is not None:
            self._invariants.after_step(self, cycle, ejected)
        return ejected

    def _capture_blocked(
        self, port: InputPort, blocked: List[Tuple[int, int, int]]
    ) -> None:
        """Record one ``via_block`` entry for a port phase 1 just skipped.

        Runs only for idle ports whose request scan found no viable VC,
        so the extra work rides on the rare branch.  Mirrors the
        reference kernel's ``_trace_viability``: the reported head is
        the first seq-0 front in VC *index* order, and the reason
        decomposition reads the same pre-arbitration ownership/cooling
        state (the request scan mutates nothing, so the state is
        identical here).
        """
        head = None
        for vc in port.vcs:
            fifo = vc._fifo
            if fifo:
                flit = fifo[0]
                if flit.seq == 0:
                    head = flit
                    break
        if head is None:
            return
        port_id = port.port_id
        dst = head.dst
        if self.output_owner[dst] is not None:
            reason = REASON_OUTPUT_BUSY
        elif self._out_cooling[dst]:
            reason = REASON_OUTPUT_COOLING
        else:
            cfg = self.config
            src_layer = cfg.layer_of_port_table[port_id]
            dst_layer = cfg.layer_of_port_table[dst]
            if (dst_layer != src_layer
                    and not self._healthy_channels[
                        src_layer * cfg.layers + dst_layer]):
                reason = REASON_CHANNEL_FAILED
            else:
                if self.allocation.is_binned:
                    rids = (self._request_rid[port_id][dst],)
                else:
                    rids = self._viability[port_id].rids_of_dst[dst]
                reason = REASON_RESOURCE_COOLING
                for rid in rids:
                    if (self.resource_owner[rid] >= 0
                            and not self._res_cooling[rid]):
                        reason = REASON_RESOURCE_BUSY
                        break
        blocked.append((port_id, dst, reason))
