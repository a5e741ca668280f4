"""Frozen seed implementation of the Hi-Rise switch (golden reference).

:class:`ReferenceHiRiseSwitch` is the original, un-optimized cycle kernel
kept verbatim from the seed tree.  It exists for exactly two purposes:

* **golden-trace equivalence** — the optimized fast-path kernel in
  :mod:`repro.core.hirise` must produce bit-identical
  :class:`~repro.network.engine.SimulationResult`\\ s to this class for
  every arbitration scheme x allocation policy under the same seeds
  (``tests/core/test_golden_equivalence.py``);
* **performance baselining** — ``scripts/bench_kernel.py --reference``
  measures it so the before/after cycles/s trajectory stays visible.

Do not optimize or otherwise modify the arbitration logic here; any
behavioural change belongs in :mod:`repro.core.hirise` and must keep the
equivalence suite green.

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
"""

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    COOL,
    EJECT,
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

# Resource keys: ("int", layer, local_output) for intermediate outputs,
# ("ch", src_layer, dst_layer, channel) for layer-to-layer channels.
ResourceKey = Tuple


def _reference_halve_hook(tracer, output: int):
    """CLRG counter-bank callback: records a halving against ``output``."""

    def on_halve(halvings: int) -> None:
        tracer.emit(CLRG_HALVE, output, halvings)

    return on_halve


@dataclass
class _ReferenceLocalWin:
    """Outcome of one phase-1 (local switch) arbitration."""

    input_port: int          # global id of the winning primary input
    dst_output: int          # global final output it requests
    weight: int              # live requestor count (for WLRG)
    resource: ResourceKey    # the resource this winner would occupy
    local_arbiter: LRGArbiter
    local_slot: int          # slot to update in the local arbiter on a win
    age: int = 0             # head-flit wait in cycles (for AGE arbitration)


class ReferenceHiRiseSwitch(SwitchModel):
    """Seed-version cycle-accurate Hi-Rise switch (golden reference).

    Args:
        config: Architectural parameters (radix, layers, channel
            multiplicity, allocation policy, arbitration scheme).
        tracer: Optional :class:`repro.obs.BinaryTracer`; records the
            same cycle-level events as the fast kernel, one ``emit``
            call per event (observe-only, so arbitration decisions are
            untouched).  This per-event path is the oracle the fast
            kernel's batched capture is compared against.
        faults: Optional :class:`repro.faults.FaultSchedule`; applied
            through the same per-cycle hook as the fast kernel (events
            due at a cycle land at the very start of ``step()``), so
            faulted runs stay bit-identical across kernels.
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

        # Path state.
        self.resource_owner: Dict[ResourceKey, int] = {}
        self.output_owner: List[Optional[int]] = [None] * cfg.radix
        # input -> (resource, output) of its live connection.
        self.connections: Dict[int, Tuple[ResourceKey, int]] = {}
        # input -> cycle its live (or most recent) path was granted.
        self.grant_cycle: Dict[int, int] = {}
        self._arb_cycle = -1
        # Paths whose tail transferred this cycle (arbitration blackout).
        self._cooling_inputs: set = set()
        self._cooling_outputs: set = set()
        self._cooling_resources: set = set()
        # L2LCs with faulty TSV bundles: never granted (robustness ext.).
        self.failed_channels = frozenset(cfg.failed_channels)
        # Stuck inputs (dynamic faults): masked from arbitration via
        # _arb_ports, which aliases self.ports until a fault narrows it.
        self.stuck_inputs: set = set()
        self._arb_ports: List[InputPort] = self.ports
        self._fault_cursor = FaultCursor(faults) if faults is not None else None

        self._tracer = tracer
        if tracer is not None:
            tracer.bind(self)
            # Tuple resource key -> flat id, so the reference kernel
            # emits the same resource ids as the fast kernel.
            self._rid_of_key = {
                key: rid
                for rid, key in enumerate(cfg.resource_key_table)
            }
            for output, arbiter in self.subblock_arbiters.items():
                counters = getattr(arbiter, "counters", None)
                if counters is not None:
                    counters.on_halve = _reference_halve_hook(tracer, output)

        # Opt-in phase-level performance counters, wired exactly like
        # the fast kernel (clock reads only, bit-identical attached).
        self._perf = perf
        if perf is not None:
            perf.bind(self)

        # Opt-in runtime invariant verification (repro.check), wired
        # after the tracer exactly like the fast kernel: the checker
        # only observes, so checked runs stay bit-identical.
        self._invariants = invariants
        if invariants is not None:
            invariants.bind(self)

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
        c = self.config.channel_multiplicity
        for offset in range(c):
            channel = (nominal + offset) % c
            if (src_layer, dst_layer, channel) not in self.failed_channels:
                return channel
        raise AssertionError("config validation guarantees a healthy channel")

    def _healthy_channel_or_none(
        self, src_layer: int, dst_layer: int, nominal: int
    ) -> Optional[int]:
        """Like :meth:`healthy_channel`, but None when the pair is dead.

        Dynamic faults (unlike static config validation) may fail every
        channel between a layer pair; viability uses this variant so a
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

        The reference kernel consults ``failed_channels`` dynamically,
        so only the arbitration port list needs recomputing.
        """
        if self.stuck_inputs:
            stuck = self.stuck_inputs
            self._arb_ports = [
                port for port in self.ports if port.port_id not in stuck
            ]
        else:
            self._arb_ports = self.ports

    # ------------------------------------------------------------------
    # SwitchModel interface
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        queue_packet(self._queues, packet)
        if self._tracer is not None:
            self._tracer.inject(
                packet.created_cycle, packet.src, packet.dst,
                packet.num_flits, packet.packet_id,
            )

    def inject_columns(
        self,
        srcs: Sequence[int],
        dsts: Sequence[int],
        first: int,
        cycle: int,
        num_flits: int,
    ) -> None:
        queue_columns(self._queues, srcs, dsts, first, cycle, num_flits)
        if self._tracer is not None:
            self._tracer.inject_columns(cycle, srcs, dsts, num_flits, first)

    def step(self, cycle: int) -> List[Flit]:
        perf = self._perf
        if perf is not None:
            perf.cycles_total += 1
            if not cycle % perf.stride:
                return self._step_perf(cycle)
        if self._tracer is not None:
            return self._step_traced(cycle)
        self._begin_cycle(cycle)
        ejected = self._transmit(cycle)
        for port in self.ports:
            port.refill(cycle)
        self._arbitrate(cycle)
        if self._invariants is not None:
            self._invariants.after_step(self, cycle, ejected)
        return ejected

    def _begin_cycle(self, cycle: int) -> None:
        """Per-cycle preamble shared by every step path.

        Scheduled faults land before anything else in the cycle, so a
        channel failing at cycle k is masked from cycle k's arbitration
        (its in-flight packet, if any, still quiesces via transmit).
        Then last cycle's cooling sets are emptied; transmit refills
        them with the paths whose tail moves this cycle, which carry
        data on their wires and so cannot also arbitrate this cycle
        ("arbitrate or transmit in a single cycle").
        """
        cursor = self._fault_cursor
        if cursor is not None:
            due = cursor.take(cycle)
            if due:
                apply_fault_events(self, due)
        self._cooling_inputs.clear()
        self._cooling_outputs.clear()
        self._cooling_resources.clear()

    def _step_perf(self, cycle: int) -> List[Flit]:
        """Sampled perf cycle (see the fast kernel's _step_perf).

        The reference kernel's phases are already separate calls, so
        sampled cycles just put a monotonic read between them; traced
        sampled cycles are attributed whole as ``step``.
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
        for port in self.ports:
            port.refill(cycle)
        t3 = ns()
        self._arb_cycle = cycle
        candidate_vcs: Dict[int, int] = {}
        local_winners = self._phase1_local(candidate_vcs, cycle)
        t4 = ns()
        self._phase2_interlayer(local_winners, candidate_vcs)
        t5 = ns()
        perf.add("transmit", t2 - t1, len(ejected))
        perf.add("refill", t3 - t2)
        perf.add("arbitrate", t4 - t3, len(local_winners))
        perf.add("commit", t5 - t4)
        if self._invariants is not None:
            self._invariants.after_step(self, cycle, ejected)
        return ejected

    def occupancy(self) -> int:
        return sum(port.total_occupancy() for port in self.ports)

    # ------------------------------------------------------------------
    # Transmit phase
    # ------------------------------------------------------------------
    def _transmit(self, cycle: int) -> List[Flit]:
        ejected: List[Flit] = []
        for port in self.ports:
            if port.active_has_flit():
                flit = port.transmit()
                flit.ejected_cycle = cycle
                ejected.append(flit)
                if flit.is_tail:
                    resource, output = self.connections.pop(flit.src)
                    del self.resource_owner[resource]
                    self.output_owner[output] = None
                    self._cooling_inputs.add(flit.src)
                    self._cooling_outputs.add(output)
                    self._cooling_resources.add(resource)
        return ejected

    # ------------------------------------------------------------------
    # Arbitration (two phases within one cycle)
    # ------------------------------------------------------------------
    def _arbitrate(self, cycle: int) -> None:
        self._arb_cycle = cycle
        candidate_vcs: Dict[int, int] = {}
        local_winners = self._phase1_local(candidate_vcs, cycle)
        self._phase2_interlayer(local_winners, candidate_vcs)

    def _viable_for(self, port_id: int):
        """Predicate: can this head flit's path be granted this cycle?

        The cross-points expose channel-free status (Fig 6), so an input
        never wastes its single request on a busy final output or a busy
        L2LC; another VC's head gets the request lines instead.
        """
        cfg = self.config
        src_layer = cfg.layer_of_port(port_id)
        local_input = cfg.local_index(port_id)

        def resource_free(resource: ResourceKey) -> bool:
            return (
                resource not in self.resource_owner
                and resource not in self._cooling_resources
            )

        def viable(flit: Flit) -> bool:
            if self.output_owner[flit.dst] is not None:
                return False
            if flit.dst in self._cooling_outputs:
                return False
            dst_layer = cfg.layer_of_port(flit.dst)
            if dst_layer == src_layer:
                return resource_free(("int", src_layer, cfg.local_index(flit.dst)))
            if self.allocation.is_binned:
                channel = self._healthy_channel_or_none(
                    src_layer, dst_layer,
                    self.allocation.channel_for(local_input, flit.dst),
                )
                if channel is None:  # dynamic faults killed the whole pair
                    return False
                return resource_free(("ch", src_layer, dst_layer, channel))
            return any(
                resource_free(("ch", src_layer, dst_layer, channel))
                for channel in range(cfg.channel_multiplicity)
                if (src_layer, dst_layer, channel) not in self.failed_channels
            )

        return viable

    def _phase1_local(
        self, candidate_vcs: Dict[int, int], cycle: int
    ) -> Dict[ResourceKey, _ReferenceLocalWin]:
        """Collect requests and run every free local resource's arbitration."""
        cfg = self.config
        int_requests: Dict[Tuple[int, int], List[int]] = {}
        chan_requests: Dict[Tuple[int, int, int], List[Tuple[int, int]]] = {}
        pair_requests: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        # Head-flit wait per (layer, local input), for AGE arbitration.
        ages: Dict[Tuple[int, int], int] = {}

        # _arb_ports aliases self.ports until a stuck-input fault
        # narrows it; stuck ports never present requests.
        for port in self._arb_ports:
            if port.port_id in self._cooling_inputs:
                continue
            vc = port.candidate_vc(self._viable_for(port.port_id))
            if vc is None:
                continue
            front = port.vcs[vc].front()
            assert front is not None and front.is_head
            candidate_vcs[port.port_id] = vc
            dst = front.dst
            src_layer = cfg.layer_of_port(port.port_id)
            local_input = cfg.local_index(port.port_id)
            ages[(src_layer, local_input)] = cycle - front.created_cycle
            dst_layer = cfg.layer_of_port(dst)
            if dst_layer == src_layer:
                key = (src_layer, cfg.local_index(dst))
                int_requests.setdefault(key, []).append(local_input)
            elif self.allocation.is_binned:
                channel = self.healthy_channel(
                    src_layer, dst_layer,
                    self.allocation.channel_for(local_input, dst),
                )
                key = (src_layer, dst_layer, channel)
                chan_requests.setdefault(key, []).append((local_input, dst))
            else:
                key = (src_layer, dst_layer)
                pair_requests.setdefault(key, []).append((local_input, dst))

        winners: Dict[ResourceKey, _ReferenceLocalWin] = {}

        for (layer, local_out), requestors in int_requests.items():
            resource = ("int", layer, local_out)
            if resource in self.resource_owner or resource in self._cooling_resources:
                continue
            arbiter = self.int_arbiters[(layer, local_out)]
            local_win = arbiter.arbitrate(requestors)
            assert local_win is not None
            winners[resource] = _ReferenceLocalWin(
                input_port=cfg.global_port(layer, local_win),
                dst_output=cfg.global_port(layer, local_out),
                weight=len(requestors),
                resource=resource,
                local_arbiter=arbiter,
                local_slot=local_win,
                age=ages[(layer, local_win)],
            )

        for (src, dst_layer, channel), requests in chan_requests.items():
            resource = ("ch", src, dst_layer, channel)
            if resource in self.resource_owner or resource in self._cooling_resources:
                continue
            arbiter = self.chan_arbiters[(src, dst_layer, channel)]
            dst_by_input = dict(requests)
            local_win = arbiter.arbitrate(dst_by_input.keys())
            assert local_win is not None
            winners[resource] = _ReferenceLocalWin(
                input_port=cfg.global_port(src, local_win),
                dst_output=dst_by_input[local_win],
                weight=len(requests),
                resource=resource,
                local_arbiter=arbiter,
                local_slot=local_win,
                age=ages[(src, local_win)],
            )

        for (src, dst_layer), requests in pair_requests.items():
            free_channels = [
                channel
                for channel in range(cfg.channel_multiplicity)
                if ("ch", src, dst_layer, channel) not in self.resource_owner
                and ("ch", src, dst_layer, channel) not in self._cooling_resources
                and (src, dst_layer, channel) not in self.failed_channels
            ]
            if not free_channels:
                continue
            arbiter = self.pair_arbiters[(src, dst_layer)]
            dst_by_input = dict(requests)
            ranked = sorted(dst_by_input.keys(), key=arbiter.rank)
            # The priority mux serialises: the top-ranked requestors take
            # the free channels in order.
            weight = -(-len(requests) // cfg.channel_multiplicity)  # ceil
            for channel, local_win in zip(free_channels, ranked):
                resource = ("ch", src, dst_layer, channel)
                winners[resource] = _ReferenceLocalWin(
                    input_port=cfg.global_port(src, local_win),
                    dst_output=dst_by_input[local_win],
                    weight=weight,
                    resource=resource,
                    local_arbiter=arbiter,
                    local_slot=local_win,
                    age=ages[(src, local_win)],
                )
        return winners

    def _phase2_interlayer(
        self,
        local_winners: Dict[ResourceKey, _ReferenceLocalWin],
        candidate_vcs: Dict[int, int],
    ) -> None:
        """Per-sub-block arbitration among local winners; lock paths."""
        cfg = self.config
        # Group candidates by final output; each local winner targets
        # exactly one output and each input appears at most once, so the
        # sub-blocks are independent.
        by_output: Dict[int, List[Tuple[int, _ReferenceLocalWin]]] = {}
        for resource, win in local_winners.items():
            output = win.dst_output
            if self.output_owner[output] is not None:
                continue
            if output in self._cooling_outputs:
                continue
            if resource[0] == "int":
                slot = cfg.local_slot
            else:
                _, src, dst_layer, channel = resource
                slot = cfg.slot_of_channel(dst_layer, src, channel)
            by_output.setdefault(output, []).append((slot, win))

        for output, candidates in by_output.items():
            winner = self._subblock_arbitrate(output, candidates)
            if winner is None:
                continue
            self._establish(winner, output, candidate_vcs)

    def _subblock_arbitrate(
        self, output: int, candidates: List[Tuple[int, "_ReferenceLocalWin"]]
    ) -> Optional[_ReferenceLocalWin]:
        """Run the configured scheme for one sub-block; commit its state."""
        cfg = self.config
        arbiter = self.subblock_arbiters[output]
        wins_by_slot = {slot: win for slot, win in candidates}

        if cfg.arbitration in (
            ArbitrationScheme.L2L_LRG, ArbitrationScheme.L2L_RR
        ):
            slot = arbiter.arbitrate(wins_by_slot.keys())
            if slot is None:
                return None
            arbiter.update(slot)
            return wins_by_slot[slot]

        if cfg.arbitration is ArbitrationScheme.AGE:
            request = arbiter.arbitrate_requests(
                (slot, win.age) for slot, win in candidates
            )
            if request is None:
                return None
            slot, age = request
            arbiter.commit(slot, age)
            return wins_by_slot[slot]

        if cfg.arbitration is ArbitrationScheme.WLRG:
            request = arbiter.arbitrate_requests(
                (slot, win.weight) for slot, win in candidates
            )
            if request is None:
                return None
            slot, weight = request
            arbiter.commit(slot, weight)
            return wins_by_slot[slot]

        # CLRG: class by primary input, LRG over slots to break ties.
        request = arbiter.arbitrate_requests(
            (slot, win.input_port) for slot, win in candidates
        )
        if request is None:
            return None
        slot, primary_input = request
        arbiter.commit(slot, primary_input)
        return wins_by_slot[slot]

    def _establish(
        self, win: _ReferenceLocalWin, output: int, candidate_vcs: Dict[int, int]
    ) -> None:
        """Lock the winner's full path and back-propagate the local update."""
        port = self.ports[win.input_port]
        port.grant(candidate_vcs[win.input_port])
        self.resource_owner[win.resource] = win.input_port
        self.output_owner[output] = win.input_port
        self.connections[win.input_port] = (win.resource, output)
        self.grant_cycle[win.input_port] = self._arb_cycle
        # The local switch priority update is triggered only by the final
        # output win (Section III-B.1).
        win.local_arbiter.update(win.local_slot)

    # ------------------------------------------------------------------
    # Traced step (selected at construction when a tracer is given)
    # ------------------------------------------------------------------
    def _step_traced(self, cycle: int) -> List[Flit]:
        """Traced step(): identical state transitions plus event emission.

        Emits the same event stream as the fast kernel's traced path
        (flat resource ids via ``_rid_of_key``), derived from the
        unchanged transmit/refill/arbitrate helpers.
        """
        tracer = self._tracer
        tracer.cycle = cycle
        self._begin_cycle(cycle)
        conns_before = dict(self.connections)
        ejected = self._transmit(cycle)
        emit = tracer.emit
        rid_of_key = self._rid_of_key
        for flit in ejected:
            emit(EJECT, flit.src, flit.dst, flit.seq, 1 if flit.is_tail else 0)
        grant_cycle = self.grant_cycle
        for src in sorted(self._cooling_inputs):
            resource, output = conns_before[src]
            emit(COOL, rid_of_key[resource], src, output,
                 grant_cycle.get(src, -1))
        for port in self.ports:
            port.refill(cycle)
        self._trace_viability()
        self._arb_cycle = cycle
        candidate_vcs: Dict[int, int] = {}
        winners = self._phase1_local(candidate_vcs, cycle)
        for resource, win in winners.items():
            emit(P1_GRANT, rid_of_key[resource], win.input_port,
                 win.dst_output, win.weight)
        self._phase2_interlayer(winners, candidate_vcs)
        # Every phase-1 winner was an idle input, so a connection present
        # after phase 2 can only be this cycle's grant.
        connections = self.connections
        is_clrg = self.config.arbitration is ArbitrationScheme.CLRG
        for resource, win in winners.items():
            input_port = win.input_port
            entry = connections.get(input_port)
            if entry is not None:
                output = entry[1]
                cls = -1
                if is_clrg:
                    cls = int(
                        self.subblock_arbiters[output]
                        .counters.class_of(input_port)
                    )
                emit(P2_GRANT, rid_of_key[resource], input_port, output, cls)
            else:
                emit(P2_BLOCK, rid_of_key[resource], input_port,
                     win.dst_output)
        # Same bound on pending raw entries as the fast kernel's step.
        if len(tracer.timeline) >= tracer.drain_interval:
            tracer.drain()
        if self._invariants is not None:
            self._invariants.after_step(self, cycle, ejected)
        return ejected

    def _trace_viability(self) -> None:
        """Emit ``via_block`` for idle inputs with head flits but no
        viable request (same reason decomposition as the fast kernel)."""
        cfg = self.config
        emit = self._tracer.emit
        rid_of_key = self._rid_of_key
        for port in self._arb_ports:
            port_id = port.port_id
            if port_id in self._cooling_inputs or port.active_vc is not None:
                continue
            viable_for = self._viable_for(port_id)
            heads = []
            viable = False
            for vc in port.vcs:
                head = vc.front()
                if head is not None and head.is_head:
                    if viable_for(head):
                        viable = True
                        break
                    heads.append(head)
            if viable or not heads:
                continue
            dst = heads[0].dst
            if self.output_owner[dst] is not None:
                reason = REASON_OUTPUT_BUSY
            elif dst in self._cooling_outputs:
                reason = REASON_OUTPUT_COOLING
            else:
                src_layer = cfg.layer_of_port(port_id)
                dst_layer = cfg.layer_of_port(dst)
                if dst_layer == src_layer:
                    keys = [("int", src_layer, cfg.local_index(dst))]
                elif self.allocation.is_binned:
                    channel = self._healthy_channel_or_none(
                        src_layer, dst_layer,
                        self.allocation.channel_for(
                            cfg.local_index(port_id), dst
                        ),
                    )
                    keys = (
                        [] if channel is None
                        else [("ch", src_layer, dst_layer, channel)]
                    )
                else:
                    keys = [
                        ("ch", src_layer, dst_layer, channel)
                        for channel in range(cfg.channel_multiplicity)
                        if (src_layer, dst_layer, channel)
                        not in self.failed_channels
                    ]
                if not keys:
                    # Dynamic faults killed every channel toward the
                    # destination layer.
                    reason = REASON_CHANNEL_FAILED
                else:
                    reason = REASON_RESOURCE_COOLING
                    for key in keys:
                        if (key in self.resource_owner
                                and key not in self._cooling_resources):
                            reason = REASON_RESOURCE_BUSY
                            break
            emit(VIA_BLOCK, port_id, dst, reason)
