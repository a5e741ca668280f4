"""Virtual-output-queued crossbar driven by iterative schedulers.

The input-queued architecture the paper positions Hi-Rise against: each
input fans its source queue into one FIFO per output (a *virtual output
queue*), eliminating head-of-line blocking, and a centralized scheduler
computes an input/output matching every cycle over a weight matrix of
head-of-line flit ages (oldest-cell-first weighting; see
:meth:`VOQSwitch._schedule`) — iSLIP (``arbitration="islip"``, iteration
count from
``config.islip_iterations``) or the maximum-weight-matching oracle
(``arbitration="mwm"``).  The switch keeps the Hi-Rise timing contract
so comparisons are fair: one flit per established connection per cycle,
connections persist from the head flit's grant until the tail transfers,
and a port whose tail moved this cycle cannot also be scheduled this
cycle ("arbitrate or transmit in a single cycle").

Cycle order within :meth:`step` (mirrors the one-layer Hi-Rise switch,
i.e. the flat crossbar):

1. *faults* — due :class:`repro.faults.FaultSchedule` events land first,
   so an input stuck at cycle ``k`` is masked from cycle ``k``'s
   scheduling;
2. *transmit* — every established connection moves one flit from its
   VOQ to its output; tails release both endpoints;
3. *refill* — each unstuck input moves up to one flit from its source
   queue into the VOQ of that flit's destination;
4. *schedule* — the scheduler matches idle inputs to free outputs over
   the head-of-line-age weight matrix; every matched pair locks a
   connection that starts streaming next cycle.

Each input's :class:`VOQStage` stores only its non-empty VOQs, keyed by
output.  Weight rows, the transmit stall test and the matching checker
all read that one structure, so no counter can drift from the queues.

Stuck-input faults freeze the whole input: no refill (so its VOQs
stop growing), a zeroed row in the weight matrix (so iSLIP/MWM never
chase the phantom backlog of a port that cannot transmit), and its
source queue simply backs up until the repair event.  An
already-established connection of a stuck input keeps draining — the
wedge is at the request path, matching the Hi-Rise kernels' "stopped
requesting" semantics.

Observability hooks match the Hi-Rise constructors: ``tracer=`` (emits
``inject``/``eject``/``cool``/``p2_grant`` exactly like the 3D switch —
with the flat resource id of a connection being its output port id —
plus the VOQ-specific ``sched_grant``/``sched_accept`` rounds),
``faults=``, ``invariants=`` (see
:class:`repro.check.MatchingInvariantChecker`), and ``perf=``.
"""

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import time

from repro.arbitration.islip import ISLIPArbiter
from repro.arbitration.mwm import MWMOracle
from repro.core.config import ArbitrationScheme, HiRiseConfig
from repro.faults import FaultCursor, FaultSchedule, apply_fault_events
from repro.network.engine import SwitchModel
from repro.network.flit import Flit
from repro.network.packet import Packet
from repro.network.port import SourceQueue, queue_columns, queue_packet
from repro.obs.trace import COOL, EJECT, P2_GRANT, SCHED_ACCEPT, SCHED_GRANT


class VOQStage:
    """One input's virtual-output-queue bank.

    Fans the input's unbounded :class:`SourceQueue` into one flit FIFO
    per output (of ``num_outputs``) at one flit per cycle (the
    network-interface bandwidth).  ``voqs`` holds only the non-empty
    FIFOs: a refill creates a missing one, a pop that empties one
    deletes it.
    """

    __slots__ = ("input_id", "source", "voqs")

    def __init__(self, input_id: int, num_outputs: int) -> None:
        self.input_id = input_id
        self.source = SourceQueue(input_id)
        self.voqs: Dict[int, Deque[Flit]] = {}

    def refill(self) -> None:
        """Move up to one flit from the source queue into its VOQ."""
        flit = self.source.front()
        if flit is None:
            return
        self.source.popleft()
        voq = self.voqs.get(flit.dst)
        if voq is None:
            self.voqs[flit.dst] = deque((flit,))
        else:
            voq.append(flit)

    def pop(self, output: int) -> Flit:
        """Dequeue the front flit of the (non-empty) VOQ toward ``output``."""
        voq = self.voqs[output]
        flit = voq.popleft()
        if not voq:
            del self.voqs[output]
        return flit

    def total_occupancy(self) -> int:
        """Flits resident in this stage (source queue + all VOQs)."""
        return len(self.source) + sum(map(len, self.voqs.values()))


class VOQSwitch(SwitchModel):
    """Radix-N input-queued crossbar scheduled by iSLIP or MWM.

    Args:
        config: A :class:`HiRiseConfig` whose ``arbitration`` is one of
            the VOQ schemes (``config.uses_voq`` true).  Geometry fields
            beyond ``radix`` are ignored — the VOQ fabric is flat — but
            keeping the shared config type lets the harness sweep VOQ
            and Hi-Rise points through identical machinery.
        tracer / faults / invariants / perf: The same opt-in hooks the
            Hi-Rise constructors take, observing-only (traced runs are
            bit-identical to untraced runs).
    """

    def __init__(
        self,
        config: HiRiseConfig,
        tracer: Optional[object] = None,
        faults: Optional[FaultSchedule] = None,
        invariants: Optional[object] = None,
        perf: Optional[object] = None,
    ) -> None:
        if not config.uses_voq:
            raise ValueError(
                f"VOQSwitch requires a VOQ scheme, got {config.arbitration!r}"
            )
        self.config = config
        radix = config.radix
        self.radix = radix
        self.num_ports = radix
        self.stages: List[VOQStage] = [
            VOQStage(i, radix) for i in range(radix)
        ]
        self._queues = [stage.source for stage in self.stages]
        if config.arbitration is ArbitrationScheme.ISLIP:
            self.scheduler = ISLIPArbiter(radix, config.islip_iterations)
        else:
            self.scheduler = MWMOracle(radix)
        # Fault-hook compatibility: CORRUPT_CLRG events index
        # ``subblock_arbiters[output]`` and no-op when the arbiter has
        # no ``counters`` bank — which the VOQ schedulers never do.
        self.subblock_arbiters: Dict[int, object] = {
            out: self.scheduler for out in range(radix)
        }
        # input -> (resource id, output).  The VOQ fabric is flat, so a
        # connection's flat resource id is its output port id — probes,
        # the analyzer, and telemetry snapshots read these fields with
        # the same shapes the Hi-Rise kernels expose.
        self.connections: Dict[int, Tuple[int, int]] = {}
        self.output_owner: List[Optional[int]] = [None] * radix
        self.grant_cycle: Dict[int, int] = {}
        self.failed_channels = frozenset(config.failed_channels)
        self.stuck_inputs: set = set()
        self._fault_cursor = (
            FaultCursor(faults) if faults is not None else None
        )
        # The weight row of an input with no request: shared, never
        # written (a requesting input's row starts as a copy of it).
        self._zero_row = [0] * radix

        self._tracer = tracer
        if tracer is not None:
            tracer.bind(self)
        self._perf = perf
        if perf is not None:
            perf.bind(self)
        self._invariants = invariants
        if invariants is not None:
            invariants.bind(self)

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
        return self._step(cycle)

    def occupancy(self) -> int:
        return sum(stage.total_occupancy() for stage in self.stages)

    # ------------------------------------------------------------------
    # Fault hook
    # ------------------------------------------------------------------
    def _refresh_fault_state(self) -> None:
        """Nothing to rebuild: stuck/failed state is read per cycle."""

    # ------------------------------------------------------------------
    # Cycle phases
    # ------------------------------------------------------------------
    def _step(self, cycle: int) -> List[Flit]:
        self._begin_cycle(cycle)
        ejected = self._transmit(cycle)
        self._refill()
        self._schedule(cycle, ejected)
        self._end_cycle(cycle, ejected)
        return ejected

    def _step_perf(self, cycle: int) -> List[Flit]:
        """Sampled perf cycle: time transmit, refill and the schedule.

        The phase names are :meth:`repro.core.HiRiseSwitch._step_perf`'s,
        with the whole ``_schedule`` call (weights, match, commit) as
        ``arbitrate``.  A traced cycle runs the same phases, so its
        capture is booked to the phase that emits it.
        """
        perf = self._perf
        perf.cycles_sampled += 1
        ns = time.perf_counter_ns
        self._begin_cycle(cycle)
        t1 = ns()
        ejected = self._transmit(cycle)
        t2 = ns()
        self._refill()
        t3 = ns()
        matched = self._schedule(cycle, ejected)
        t4 = ns()
        perf.add("transmit", t2 - t1, len(ejected))
        perf.add("refill", t3 - t2)
        perf.add("arbitrate", t4 - t3, matched)
        self._end_cycle(cycle, ejected)
        return ejected

    def _begin_cycle(self, cycle: int) -> None:
        """Scheduled faults land before anything else in the cycle."""
        tracer = self._tracer
        if tracer is not None:
            tracer.cycle = cycle
        cursor = self._fault_cursor
        if cursor is not None:
            due = cursor.take(cycle)
            if due:
                apply_fault_events(self, due)

    def _end_cycle(self, cycle: int, ejected: List[Flit]) -> None:
        tracer = self._tracer
        # Bound the tracer's pending raw entries, as the Hi-Rise kernels do.
        if tracer is not None and (
            len(tracer.timeline) >= tracer.drain_interval
        ):
            tracer.drain()
        if self._invariants is not None:
            self._invariants.after_step(self, cycle, ejected)

    def _refill(self) -> None:
        # A stage with no flits or records queued has nothing to move.
        stuck = self.stuck_inputs
        for stage in self.stages:
            if stage.source._pending_flits and stage.input_id not in stuck:
                stage.refill()

    def _transmit(self, cycle: int) -> List[Flit]:
        ejected: List[Flit] = []
        released: List[int] = []
        tracer = self._tracer
        for inp, (resource, output) in self.connections.items():
            stage = self.stages[inp]
            if output not in stage.voqs:
                # The rest of the packet has not refilled yet: the
                # connection stalls this cycle but stays locked.
                continue
            flit = stage.pop(output)
            flit.ejected_cycle = cycle
            ejected.append(flit)
            if flit.is_tail:
                released.append(inp)
                self.output_owner[output] = None
                if tracer is not None:
                    tracer.emit(EJECT, flit.src, flit.dst, flit.seq, 1)
                    tracer.emit(
                        COOL, resource, inp, output,
                        self.grant_cycle.get(inp, -1),
                    )
            elif tracer is not None:
                tracer.emit(EJECT, flit.src, flit.dst, flit.seq, 0)
        for inp in released:
            del self.connections[inp]
        return ejected

    def _schedule(self, cycle: int, ejected: List[Flit]) -> int:
        """Match idle inputs to free outputs; return the pairs matched.

        A path whose tail left this cycle (in ``ejected``) cools: neither
        its input nor its output is matched until the next cycle.
        Weights are head-of-line ages.

        The weight of (input, output) is the age of the VOQ's head flit
        plus one — the oldest-cell-first weighting, which MWM turns into
        the OCF discipline.  Occupancy-weighted MWM (longest queue
        first) equalizes queue *lengths*, so under an oversubscribed
        output each input's service is its arrivals minus a common queue
        level: a small mean carrying full arrival noise, i.e. unfair at
        any horizon.  Age weights approximate FCFS across inputs
        instead.  iSLIP only reads weights as request indicators, so for
        it the two weightings are identical.
        """
        cooling_inputs = set()
        cooling_outputs = set()
        for flit in ejected:
            if flit.is_tail:
                cooling_inputs.add(flit.src)
                cooling_outputs.add(flit.dst)
        connections = self.connections
        output_owner = self.output_owner
        stuck = self.stuck_inputs
        blocked = [
            owner is not None or out in cooling_outputs
            for out, owner in enumerate(output_owner)
        ]
        zero_row = self._zero_row
        # Age + 1 of a head flit created at cycle c is ``base - c``.
        base = cycle + 1
        weights: List[List[int]] = []
        any_request = False
        for stage in self.stages:
            inp = stage.input_id
            voqs = stage.voqs
            if (
                not voqs
                or inp in connections
                or inp in stuck
                or inp in cooling_inputs
            ):
                weights.append(zero_row)
                continue
            # Only the stored (non-empty) VOQs can request: start from
            # zeros and write the head age of each one whose output is
            # free (rows are indexed by output, so order is moot).
            row = zero_row[:]
            for out, voq in voqs.items():
                if not blocked[out]:
                    row[out] = base - voq[0].created_cycle
                    any_request = True
            weights.append(row)
        if not any_request:
            return 0

        tracer = self._tracer
        observer = None
        if tracer is not None:
            emit = tracer.emit

            def observer(iteration, stage_name, pairs):
                kind = SCHED_GRANT if stage_name == "grant" else SCHED_ACCEPT
                for port, partner in pairs:
                    if stage_name == "grant":
                        weight = weights[partner][port]
                    else:
                        weight = weights[port][partner]
                    emit(kind, iteration, port, partner, weight)

        matching = self.scheduler.match(weights, observer=observer)
        if tracer is not None and isinstance(self.scheduler, MWMOracle):
            # MWM has no rounds: report the final matching as a single
            # iteration-0 grant+accept so audits see one schema.
            for inp, out in matching.items():
                emit(SCHED_GRANT, 0, out, inp, weights[inp][out])
                emit(SCHED_ACCEPT, 0, inp, out, weights[inp][out])
        for inp, out in matching.items():
            connections[inp] = (out, out)
            output_owner[out] = inp
            self.grant_cycle[inp] = cycle
            if tracer is not None:
                emit = tracer.emit
                emit(P2_GRANT, out, inp, out, -1)
        return len(matching)
