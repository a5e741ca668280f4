"""Deterministic, seeded fault injection for the Hi-Rise switch.

The paper's ``c``-channel redundancy exists because TSV bundles fail in
the field, yet a static ``failed_channels`` tuple frozen at
:class:`~repro.core.config.HiRiseConfig` construction can only model
faults present from cycle 0.  This module adds *dynamic* faults: a
:class:`FaultSchedule` is an immutable, cycle-ordered list of
:class:`FaultEvent`\\ s — scripted by hand or generated stochastically
from a seed (:meth:`FaultSchedule.random`) — that both cycle kernels
(:class:`repro.core.hirise.HiRiseSwitch` and
:class:`repro.core.reference.ReferenceHiRiseSwitch`) consume through an
identical per-cycle hook, so fast and reference runs stay bit-identical
under any schedule.

Supported fault classes:

* **channel failure / repair** (``fail_channel`` / ``repair_channel``) —
  an L2LC's TSV bundle dies mid-run.  The in-flight packet holding the
  channel *quiesces*: its path stays locked and its remaining flits
  stream out normally (flits are never dropped), but the channel is
  masked from all new arbitration from the event cycle onward.  On
  repair the channel re-arms and is grantable in the same cycle's
  arbitration.  Failing *every* channel between a layer pair is allowed
  dynamically (unlike static config validation): traffic toward the dead
  layer simply queues at its sources (degraded mode / partition).
* **stuck input** (``fail_input`` / ``repair_input``) — an input port's
  request logic wedges: it stops presenting phase-1 requests (its active
  packet, if any, quiesces first), while injected traffic keeps
  accumulating in its source queue.
* **CLRG counter corruption** (``corrupt_clrg``) — a sub-block's class
  counter bank is overwritten with an arbitrary value (single input or
  the whole bank), modelling an SEU in the fairness state.  A no-op
  under non-CLRG arbitration schemes.

Kernel hook contract (both kernels, identical ordering): at the very
start of ``step(cycle)`` — before the cooling-clear, transmit, and
arbitration sub-phases — the switch pops every schedule event with
``event.cycle <= cycle`` from its private :class:`FaultCursor` and
applies it via :func:`apply_fault_events`.  Traced switches emit one
``fault_inject`` / ``fault_repair`` trace event per applied fault before
any other event of that cycle.  A switch built with ``faults=None``
(the default) pays exactly one predictable branch per cycle and is
bit-identical to the pre-fault-engine kernels.
"""

import json
import random
from dataclasses import dataclass
from typing import IO, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.trace import (
    FAULT_CHANNEL,
    FAULT_CLRG,
    FAULT_INJECT,
    FAULT_INPUT,
    FAULT_REPAIR,
)

#: Schedule file format tag, written by :meth:`FaultSchedule.dump`.
SCHEDULE_FORMAT = "repro.faults/v1"

# Event kind names (the JSON wire vocabulary).
FAIL_CHANNEL = "fail_channel"
REPAIR_CHANNEL = "repair_channel"
FAIL_INPUT = "fail_input"
REPAIR_INPUT = "repair_input"
CORRUPT_CLRG = "corrupt_clrg"

#: All valid event kinds, and the payload field each one requires.
EVENT_KINDS: Dict[str, Tuple[str, ...]] = {
    FAIL_CHANNEL: ("channel",),
    REPAIR_CHANNEL: ("channel",),
    FAIL_INPUT: ("port",),
    REPAIR_INPUT: ("port",),
    CORRUPT_CLRG: ("output",),
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, applied at the start of ``step(cycle)``.

    Attributes:
        cycle: Simulation cycle the event takes effect (>= 0).
        kind: One of :data:`EVENT_KINDS` (``fail_channel``,
            ``repair_channel``, ``fail_input``, ``repair_input``,
            ``corrupt_clrg``).
        channel: ``(src_layer, dst_layer, channel)`` triple for channel
            events.
        port: Input port for stuck-input events; for ``corrupt_clrg``
            it optionally narrows the corruption to one input's counter
            (``None`` overwrites the whole bank).
        output: Final output whose sub-block is corrupted
            (``corrupt_clrg`` only).
        value: Counter value written by ``corrupt_clrg`` (clamped to the
            bank's saturation value on application).
    """

    cycle: int
    kind: str
    channel: Optional[Tuple[int, int, int]] = None
    port: Optional[int] = None
    output: Optional[int] = None
    value: int = 0

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError(f"fault cycle must be >= 0, got {self.cycle}")
        required = EVENT_KINDS.get(self.kind)
        if required is None:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(EVENT_KINDS)}"
            )
        for field_name in required:
            if getattr(self, field_name) is None:
                raise ValueError(f"{self.kind} event needs {field_name!r}")
        if self.channel is not None:
            channel = tuple(int(x) for x in self.channel)
            if len(channel) != 3:
                raise ValueError(
                    "channel must be a (src_layer, dst_layer, channel) triple"
                )
            if channel[0] == channel[1]:
                raise ValueError("a layer has no L2LC to itself")
            object.__setattr__(self, "channel", channel)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable record (only the fields the kind uses)."""
        record: Dict[str, object] = {"cycle": self.cycle, "kind": self.kind}
        if self.channel is not None:
            record["channel"] = list(self.channel)
        if self.port is not None:
            record["port"] = self.port
        if self.output is not None:
            record["output"] = self.output
        if self.kind == CORRUPT_CLRG:
            record["value"] = self.value
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "FaultEvent":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        channel = record.get("channel")
        return cls(
            cycle=int(record["cycle"]),
            kind=str(record["kind"]),
            channel=tuple(channel) if channel is not None else None,
            port=record.get("port"),
            output=record.get("output"),
            value=int(record.get("value", 0)),
        )


def fail_channel(cycle: int, src: int, dst: int, channel: int) -> FaultEvent:
    """Scripted transient/permanent L2LC failure at ``cycle``."""
    return FaultEvent(cycle, FAIL_CHANNEL, channel=(src, dst, channel))


def repair_channel(cycle: int, src: int, dst: int, channel: int) -> FaultEvent:
    """Scripted channel repair (re-arms the L2LC for arbitration)."""
    return FaultEvent(cycle, REPAIR_CHANNEL, channel=(src, dst, channel))


def fail_input(cycle: int, port: int) -> FaultEvent:
    """Scripted stuck-input fault: the port stops presenting requests."""
    return FaultEvent(cycle, FAIL_INPUT, port=port)


def repair_input(cycle: int, port: int) -> FaultEvent:
    """Scripted stuck-input recovery."""
    return FaultEvent(cycle, REPAIR_INPUT, port=port)


def corrupt_clrg(
    cycle: int, output: int, value: int, port: Optional[int] = None
) -> FaultEvent:
    """Scripted CLRG counter corruption at ``output`` (one input or all)."""
    return FaultEvent(cycle, CORRUPT_CLRG, port=port, output=output, value=value)


class FaultSchedule:
    """An immutable, cycle-ordered sequence of :class:`FaultEvent`\\ s.

    Events sort stably by cycle (scripted same-cycle order is
    preserved), so two schedules built from the same events in the same
    order apply identically — the determinism the golden parity suite
    relies on.  A schedule is shareable: each switch consuming it gets
    its own :class:`FaultCursor`, so running the fast and reference
    kernels from one schedule object is safe.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        materialised = list(events)
        for event in materialised:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"FaultSchedule takes FaultEvent items, got {type(event)!r}"
                )
        materialised.sort(key=lambda event: event.cycle)  # stable
        self._events = tuple(materialised)

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """The events, sorted by cycle (stable within a cycle)."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self._events)} events)"

    @property
    def max_cycle(self) -> int:
        """Cycle of the last event (-1 for an empty schedule)."""
        return self._events[-1].cycle if self._events else -1

    def event_cycles(self) -> List[int]:
        """Sorted unique cycles at which at least one event fires."""
        return sorted({event.cycle for event in self._events})

    # ------------------------------------------------------------------
    # Stochastic generation
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        config,
        seed: int,
        horizon: int,
        faults: int = 4,
        mean_downtime: int = 40,
        permanent_fraction: float = 0.0,
        include_inputs: bool = False,
        include_clrg: bool = False,
        start: int = 0,
    ) -> "FaultSchedule":
        """Generate a seeded stochastic schedule (deterministic per seed).

        Args:
            config: A :class:`~repro.core.config.HiRiseConfig` (only its
                geometry — layers, channel multiplicity, radix, class
                count — is read).
            seed: RNG seed; the same seed always yields the same schedule.
            horizon: Fault onset cycles are drawn from ``[start, horizon)``.
            faults: Number of fault onsets to draw.
            mean_downtime: Mean cycles between a transient failure and
                its repair (uniform on ``[1, 2 * mean_downtime]``).
            permanent_fraction: Probability a channel/input fault never
                repairs.
            include_inputs: Also draw stuck-input faults.
            include_clrg: Also draw CLRG counter corruptions.
            start: Earliest onset cycle.
        """
        if horizon <= start:
            raise ValueError("horizon must exceed the start cycle")
        if faults < 0:
            raise ValueError("fault count must be >= 0")
        rng = random.Random(seed)
        pairs = [
            (src, dst)
            for src in range(config.layers)
            for dst in range(config.layers)
            if src != dst
        ]
        # A one-layer switch has no L2LCs, so no channel can fail.
        kinds = ["channel"] if pairs else []
        if include_inputs:
            kinds.append("input")
        if include_clrg:
            kinds.append("clrg")
        if faults and not kinds:
            raise ValueError(
                "a one-layer switch has no channels to fail: include "
                "input or CLRG faults"
            )
        events: List[FaultEvent] = []
        for _ in range(faults):
            cycle = rng.randrange(start, horizon)
            kind = rng.choice(kinds)
            if kind == "channel":
                src, dst = rng.choice(pairs)
                channel = rng.randrange(config.channel_multiplicity)
                events.append(fail_channel(cycle, src, dst, channel))
                if rng.random() >= permanent_fraction:
                    downtime = 1 + rng.randrange(max(2 * mean_downtime, 1))
                    events.append(
                        repair_channel(cycle + downtime, src, dst, channel)
                    )
            elif kind == "input":
                port = rng.randrange(config.radix)
                events.append(fail_input(cycle, port))
                if rng.random() >= permanent_fraction:
                    downtime = 1 + rng.randrange(max(2 * mean_downtime, 1))
                    events.append(repair_input(cycle + downtime, port))
            else:
                output = rng.randrange(config.radix)
                value = rng.randrange(max(config.num_classes - 1, 1))
                events.append(corrupt_clrg(cycle, output, value))
        return cls(events)

    # ------------------------------------------------------------------
    # Serialisation (schedule files for the CLI and CI)
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, object]]:
        """Events as JSON-serialisable dicts."""
        return [event.to_dict() for event in self._events]

    @classmethod
    def from_records(
        cls, records: Sequence[Dict[str, object]]
    ) -> "FaultSchedule":
        """Build a schedule from :meth:`to_records` output."""
        return cls(FaultEvent.from_dict(record) for record in records)

    def dump(self, destination: Union[str, IO[str]]) -> None:
        """Write the schedule file (``repro.faults/v1`` JSON)."""
        payload = {"format": SCHEDULE_FORMAT, "events": self.to_records()}
        if hasattr(destination, "write"):
            json.dump(payload, destination, indent=2)
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)

    @classmethod
    def load(cls, source: Union[str, IO[str]]) -> "FaultSchedule":
        """Read a schedule file written by :meth:`dump`.

        Raises:
            ValueError: On a wrong format tag or malformed events.
        """
        if hasattr(source, "read"):
            payload = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        if payload.get("format") != SCHEDULE_FORMAT:
            raise ValueError(
                f"not a {SCHEDULE_FORMAT} schedule: "
                f"format={payload.get('format')!r}"
            )
        events = payload.get("events")
        if not isinstance(events, list):
            raise ValueError("schedule file needs an 'events' list")
        return cls.from_records(events)

    # ------------------------------------------------------------------
    # Static state reconstruction (degradation phases, reachability)
    # ------------------------------------------------------------------
    def state_at(
        self, cycle: int, initial_failed: Iterable[Tuple[int, int, int]] = ()
    ) -> Tuple[frozenset, frozenset]:
        """``(failed_channels, stuck_inputs)`` after events up to ``cycle``.

        Mirrors the kernel hook exactly: every event with
        ``event.cycle <= cycle`` has been applied.
        """
        failed = set(tuple(entry) for entry in initial_failed)
        stuck: set = set()
        for event in self._events:
            if event.cycle > cycle:
                break
            if event.kind == FAIL_CHANNEL:
                failed.add(event.channel)
            elif event.kind == REPAIR_CHANNEL:
                failed.discard(event.channel)
            elif event.kind == FAIL_INPUT:
                stuck.add(event.port)
            elif event.kind == REPAIR_INPUT:
                stuck.discard(event.port)
        return frozenset(failed), frozenset(stuck)


class FaultCursor:
    """Per-switch read position over a (shared) :class:`FaultSchedule`.

    The kernels call :meth:`take` once per cycle; with no event due it
    costs two comparisons.  Catch-up semantics: *every* event at or
    before the queried cycle is returned, so stepping a switch from a
    nonzero start cycle (or a schedule with cycle-0 events) applies the
    whole backlog on the first step.
    """

    __slots__ = ("_events", "_pos")

    def __init__(self, schedule: FaultSchedule) -> None:
        self._events = schedule.events
        self._pos = 0

    def take(self, cycle: int) -> Optional[List[FaultEvent]]:
        """Events due at or before ``cycle`` (None when there are none)."""
        events = self._events
        pos = self._pos
        if pos >= len(events) or events[pos].cycle > cycle:
            return None
        batch: List[FaultEvent] = []
        while pos < len(events) and events[pos].cycle <= cycle:
            batch.append(events[pos])
            pos += 1
        self._pos = pos
        return batch

    @property
    def applied(self) -> int:
        """Number of events already handed to the switch."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of events still pending in the schedule."""
        return len(self._events) - self._pos


def check_fault_event(config, event: FaultEvent) -> None:
    """Raise ``ValueError`` when an event's indices fall outside ``config``.

    Every kernel calls this before applying an event, so an
    out-of-range index raises the same error everywhere instead of
    reaching kernel state, where a negative index would wrap.
    Channel events need ``0 <= src, dst < layers`` and
    ``0 <= channel < channel_multiplicity``; stuck-input events a port
    in ``[0, radix)``; ``corrupt_clrg`` an output, and its optional port,
    in ``[0, radix)`` under every scheme.
    """
    kind = event.kind
    if kind in (FAIL_CHANNEL, REPAIR_CHANNEL):
        src, dst, channel = event.channel
        if not (
            0 <= src < config.layers and 0 <= dst < config.layers
            and 0 <= channel < config.channel_multiplicity
        ):
            raise ValueError(f"fault channel {event.channel} out of range")
    elif kind in (FAIL_INPUT, REPAIR_INPUT):
        if not 0 <= event.port < config.radix:
            raise ValueError(f"fault port {event.port} out of range")
    elif kind == CORRUPT_CLRG:
        if not 0 <= event.output < config.radix:
            raise ValueError(f"fault output {event.output} out of range")
        if event.port is not None and not 0 <= event.port < config.radix:
            raise ValueError(f"fault port {event.port} out of range")


def apply_fault_events(switch, events: Sequence[FaultEvent]) -> None:
    """Apply a batch of due fault events to a switch (both kernels).

    This is the shared half of the kernel hook: it mutates only state
    both kernels expose identically (``failed_channels``,
    ``stuck_inputs``, the sub-block arbiters' counter banks) and defers
    representation-specific rebuilds to the kernel's
    ``_refresh_fault_state()``.  Each event is range-checked first
    (:func:`check_fault_event`).  Idempotent per event: failing an
    already-failed channel (or repairing a healthy one) is a silent
    no-op and emits no trace event, so fast/reference event streams
    cannot diverge on redundant schedules.
    """
    tracer = switch._tracer
    config = switch.config
    topology_changed = False
    for event in events:
        check_fault_event(config, event)
        kind = event.kind
        if kind == FAIL_CHANNEL:
            channel = event.channel
            if channel in switch.failed_channels:
                continue
            switch.failed_channels = switch.failed_channels | {channel}
            topology_changed = True
            if tracer is not None:
                tracer.emit(
                    FAULT_INJECT, FAULT_CHANNEL,
                    config.channel_resource_id(*channel), 0,
                )
        elif kind == REPAIR_CHANNEL:
            channel = event.channel
            if channel not in switch.failed_channels:
                continue
            switch.failed_channels = switch.failed_channels - {channel}
            topology_changed = True
            if tracer is not None:
                tracer.emit(
                    FAULT_REPAIR, FAULT_CHANNEL,
                    config.channel_resource_id(*channel),
                )
        elif kind == FAIL_INPUT:
            port = event.port
            if port in switch.stuck_inputs:
                continue
            switch.stuck_inputs.add(port)
            topology_changed = True
            if tracer is not None:
                tracer.emit(FAULT_INJECT, FAULT_INPUT, port, 0)
        elif kind == REPAIR_INPUT:
            port = event.port
            if port not in switch.stuck_inputs:
                continue
            switch.stuck_inputs.discard(port)
            topology_changed = True
            if tracer is not None:
                tracer.emit(FAULT_REPAIR, FAULT_INPUT, port)
        elif kind == CORRUPT_CLRG:
            output = event.output
            counters = getattr(switch.subblock_arbiters[output], "counters", None)
            if counters is None:
                continue  # non-CLRG scheme: nothing to corrupt
            value = min(max(int(event.value), 0), counters.max_count)
            if hasattr(counters, "_costs"):
                # QoS banks shadow the integer counters with float costs.
                if event.port is None:
                    counters._costs = [float(value)] * counters.num_inputs
                else:
                    counters._costs[event.port] = float(value)
            elif event.port is None:
                counters._counts = [value] * counters.num_inputs
            else:
                counters._counts[event.port] = value
            if tracer is not None:
                tracer.emit(FAULT_INJECT, FAULT_CLRG, output, value)
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {kind!r}")
    if topology_changed:
        switch._refresh_fault_state()


def describe_fault_state(switch) -> Dict[str, object]:
    """JSON-serialisable live fault state of a switch.

    Embedded in telemetry snapshots (and therefore in the drain-stall
    ``RuntimeError``), so a wedge under faults shows *which* channels
    were dead and how much of the schedule was still pending.
    """
    state: Dict[str, object] = {
        "failed_channels": sorted(
            list(channel) for channel in switch.failed_channels
        ),
        "stuck_inputs": sorted(getattr(switch, "stuck_inputs", ()) or ()),
    }
    cursor = getattr(switch, "_fault_cursor", None)
    if cursor is not None:
        state["applied_events"] = cursor.applied
        state["pending_events"] = cursor.remaining
    return state


# ---------------------------------------------------------------------------
# Degraded-mode measurement (CLI `repro faults`, CI fault-smoke)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DegradationPhase:
    """Metrics for one inter-event window of a degraded run."""

    start_cycle: int
    end_cycle: int             # exclusive
    failed_channels: int       # active channel faults during the phase
    stuck_inputs: int          # active stuck inputs during the phase
    packets_ejected: int
    flits_ejected: int
    throughput: float          # packets per cycle
    avg_latency: float         # cycles (nan when nothing delivered)
    reachable_fraction: float  # reachable (src, dst) pairs / radix^2

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (one entry of the report's phase list)."""
        return {
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "failed_channels": self.failed_channels,
            "stuck_inputs": self.stuck_inputs,
            "packets_ejected": self.packets_ejected,
            "flits_ejected": self.flits_ejected,
            "throughput": self.throughput,
            "avg_latency": self.avg_latency,
            "reachable_fraction": self.reachable_fraction,
        }


@dataclass(frozen=True)
class DegradationReport:
    """Phase-by-phase degradation profile of one faulted run."""

    kernel: str
    load: float
    seed: int
    warmup_cycles: int
    measure_cycles: int
    schedule_events: int
    phases: Tuple[DegradationPhase, ...]
    total_packets: int
    total_cycles: int

    @property
    def overall_throughput(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.total_packets / self.total_cycles

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (rendered by the CLI and markdown)."""
        return {
            "kernel": self.kernel,
            "load": self.load,
            "seed": self.seed,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "schedule_events": self.schedule_events,
            "total_packets": self.total_packets,
            "total_cycles": self.total_cycles,
            "overall_throughput": self.overall_throughput,
            "phases": [phase.to_dict() for phase in self.phases],
        }


def reachable_fraction(
    config, failed_channels: Iterable[Tuple[int, int, int]]
) -> float:
    """Fraction of (src, dst) pairs connected under a live fault set."""
    from repro.analysis.connectivity import reachable_outputs

    failed = frozenset(tuple(entry) for entry in failed_channels)
    reachable = sum(
        len(reachable_outputs(config, src, failed_channels=failed))
        for src in range(config.radix)
    )
    return reachable / float(config.radix * config.radix)


def measure_degradation(
    config,
    schedule: FaultSchedule,
    load: float = 0.9,
    seed: int = 0,
    measure_cycles: int = 500,
    warmup_cycles: int = 50,
    kernel: str = "fast",
    tracer=None,
) -> DegradationReport:
    """Run a faulted simulation, slicing metrics at every event cycle.

    The measurement window ``[warmup, warmup + measure_cycles)`` is split
    into phases at each distinct schedule-event cycle; each phase reports
    its own throughput, latency, live fault counts, and proven
    reachability (:mod:`repro.analysis.connectivity` under the phase's
    failed-channel set).  No drain pass runs: a partitioned schedule
    (all channels of a pair dead) leaves undeliverable traffic queued,
    which is exactly the degraded mode being measured.
    """
    from repro.network.engine import Simulation
    from repro.traffic import UniformRandomTraffic

    switch = _make_switch(config, kernel, schedule, tracer)
    traffic = UniformRandomTraffic(config.radix, load=load, seed=seed)
    simulation = Simulation(switch, traffic, warmup_cycles=warmup_cycles)

    start = warmup_cycles
    end = warmup_cycles + measure_cycles
    boundaries = [start]
    boundaries.extend(
        cycle for cycle in schedule.event_cycles() if start < cycle < end
    )
    boundaries.append(end)

    phases: List[DegradationPhase] = []
    total_packets = 0
    total_cycles = 0
    reach_cache: Dict[frozenset, float] = {}
    for phase_start, phase_end in zip(boundaries, boundaries[1:]):
        window = phase_end - phase_start
        result = simulation.run(measure_cycles=window)
        failed, stuck = schedule.state_at(
            phase_start, initial_failed=config.failed_channels
        )
        reach = reach_cache.get(failed)
        if reach is None:
            reach = reachable_fraction(config, failed)
            reach_cache[failed] = reach
        phases.append(DegradationPhase(
            start_cycle=phase_start,
            end_cycle=phase_end,
            failed_channels=len(failed),
            stuck_inputs=len(stuck),
            packets_ejected=result.packets_ejected,
            flits_ejected=result.flits_ejected,
            throughput=result.throughput_packets_per_cycle,
            avg_latency=result.avg_latency_cycles,
            reachable_fraction=reach,
        ))
        total_packets += result.packets_ejected
        total_cycles += window
    return DegradationReport(
        kernel=kernel,
        load=load,
        seed=seed,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        schedule_events=len(schedule),
        phases=tuple(phases),
        total_packets=total_packets,
        total_cycles=total_cycles,
    )


def _make_switch(config, kernel: str, schedule: Optional[FaultSchedule],
                 tracer=None, invariants=None):
    """Instantiate a kernel by name with a fault schedule attached."""
    if kernel == "fast":
        from repro.core.hirise import HiRiseSwitch

        return HiRiseSwitch(
            config, tracer=tracer, faults=schedule, invariants=invariants
        )
    if kernel == "reference":
        from repro.core.reference import ReferenceHiRiseSwitch

        return ReferenceHiRiseSwitch(
            config, tracer=tracer, faults=schedule, invariants=invariants
        )
    raise ValueError(f"unknown kernel {kernel!r} (expected fast|reference)")


def verify_parity(
    config,
    schedule: Optional[FaultSchedule] = None,
    load: float = 0.9,
    seed: int = 0,
    measure_cycles: int = 300,
    warmup_cycles: int = 40,
    traffic_factory=None,
    invariants: bool = False,
    drain: bool = False,
    fleet_lanes: int = 0,
) -> List[str]:
    """Run both kernels under one schedule; return mismatch descriptions.

    Both kernels are traced, so the check covers results *and* the full
    trace event streams (the acceptance bar for golden parity under
    faults).  An empty list means bit-identical.

    Args:
        schedule: Fault schedule shared by both runs (``None`` = no
            faults).
        traffic_factory: ``callable(config) -> TrafficSource`` building
            a *fresh* source per kernel (sources hold RNG state);
            defaults to uniform random at ``load``/``seed``.
        invariants: Attach a fresh
            :class:`repro.check.invariants.InvariantChecker` to each
            kernel; a violation propagates to the caller.
        drain: Run each simulation with ``drain=True`` (a wedged drain
            raises :class:`repro.check.invariants.DrainStallError`).
        fleet_lanes: When > 0, additionally run the batched fleet kernel
            with this many lanes (lane ``i`` seeded ``seed + i``, or
            ``traffic_factory`` per lane when given) and compare every
            lane against a scalar fast-kernel run; lane mismatches are
            appended as ``"fleet lane i: …"`` entries.  Requires a
            fleet-supported config
            (:func:`repro.core.fleet.fleet_supports`).
    """
    from repro.network.engine import Simulation
    from repro.obs.tracebin import BinaryTracer
    from repro.traffic import UniformRandomTraffic

    results = {}
    traces = {}
    for kernel in ("fast", "reference"):
        tracer = BinaryTracer(capacity=None)
        checker = None
        if invariants:
            from repro.check.invariants import InvariantChecker

            checker = InvariantChecker()
        switch = _make_switch(config, kernel, schedule, tracer, checker)
        if traffic_factory is not None:
            traffic = traffic_factory(config)
        else:
            traffic = UniformRandomTraffic(config.radix, load=load, seed=seed)
        simulation = Simulation(switch, traffic, warmup_cycles=warmup_cycles)
        results[kernel] = simulation.run(
            measure_cycles=measure_cycles, drain=drain
        )
        traces[kernel] = tracer.events
    fast, reference = results["fast"], results["reference"]
    mismatches: List[str] = []
    for field_name in (
        "packets_injected", "packets_ejected", "flits_ejected", "cycles",
        "packet_latencies", "per_input_ejected", "per_input_latency_sum",
        "per_output_ejected",
    ):
        if getattr(fast, field_name) != getattr(reference, field_name):
            mismatches.append(f"result field {field_name} differs")
    if traces["fast"] != traces["reference"]:
        length = f"{len(traces['fast'])} vs {len(traces['reference'])} events"
        for index, (left, right) in enumerate(
            zip(traces["fast"], traces["reference"])
        ):
            if left != right:
                mismatches.append(
                    f"trace diverges at event {index}: "
                    f"fast={left} reference={right} ({length})"
                )
                break
        else:
            mismatches.append(f"trace length differs: {length}")
    if fleet_lanes > 0:
        from repro.core.fleet import verify_fleet_parity

        factories = None
        if traffic_factory is not None:
            factories = [
                (lambda: traffic_factory(config))
            ] * fleet_lanes
        mismatches.extend(
            verify_fleet_parity(
                config,
                schedule=schedule,
                load=load,
                seed=seed,
                measure_cycles=measure_cycles,
                warmup_cycles=warmup_cycles,
                lanes=fleet_lanes,
                drain=drain,
                traffic_factories=factories,
            )
        )
    return mismatches
