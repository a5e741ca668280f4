"""Cycle-driven simulation engine.

``SwitchModel`` is the interface every switch implementation in this
repository satisfies (2D Swizzle-Switch, 3D folded switch, Hi-Rise).  The
``Simulation`` class couples a traffic source to a switch model and drives
the canonical loop:

    for each cycle:
        generate packets          (traffic.columns_for_cycle -> srcs, dsts)
        enqueue at input ports    (switch.inject_columns)
        advance the switch        (switch.step -> ejected flits)
        record statistics

Statistics are accumulated only after an optional warm-up period, which is
the standard methodology for measuring saturation throughput and latency.
"""

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.network.flit import Flit
from repro.network.packet import Packet, PacketFactory

#: Consecutive no-progress drain cycles tolerated before the drain loop
#: declares the switch wedged and raises.  Read at call time so tests can
#: lower it to exercise the failure path.
DRAIN_IDLE_LIMIT = 100_000

#: Default cap on the number of per-packet latency samples retained in
#: ``SimulationResult.packet_latencies``.  Aggregate statistics
#: (``avg_latency_cycles`` and friends) always use exact streaming sums;
#: the sample list exists for distribution plots and exact-trace tests,
#: and decimates deterministically once it outgrows this bound.
DEFAULT_LATENCY_SAMPLE_LIMIT = 1 << 20


class TrafficSource(Protocol):
    """Anything that can generate packets for a given cycle, as columns.

    ``columns_for_cycle(cycle) -> (srcs, dsts)`` gives the cycle's
    injections as two parallel lists of ports, and ``factory`` (a
    :class:`~repro.network.packet.PacketFactory`) numbers them and sets
    their length: the engine claims ``len(srcs)`` consecutive ids with
    ``factory.reserve`` and hands the columns to
    :meth:`SwitchModel.inject_columns`, so no
    :class:`~repro.network.packet.Packet` is built.  Every generator in
    :mod:`repro.traffic` has both (its ``packets_for_cycle`` wraps the
    columns through ``factory.create``, giving the same packets), and
    both engines — :class:`Simulation` and the batched
    :class:`repro.core.fleet.FleetSimulation` — refuse a source without
    them.
    """

    factory: PacketFactory

    def columns_for_cycle(self, cycle: int) -> Tuple[List[int], List[int]]:
        """``(srcs, dsts)`` of the packets generated during ``cycle``."""
        ...


class SwitchModel(ABC):
    """Common interface of all cycle-accurate switch models."""

    num_ports: int

    @abstractmethod
    def inject(self, packet: Packet) -> None:
        """Hand a generated packet to the source queue of its input port."""

    def inject_columns(
        self,
        srcs: Sequence[int],
        dsts: Sequence[int],
        first: int,
        cycle: int,
        num_flits: int,
    ) -> None:
        """Inject one cycle's packets given as columns.

        Packet ``i`` goes from ``srcs[i]`` to ``dsts[i]`` with id
        ``first + i``, ``num_flits`` flits and creation cycle ``cycle``.
        The caller hands over fresh lists and does not mutate them
        afterwards (a traced switch keeps references until its tracer
        drains).  This default builds each :class:`Packet` and calls
        :meth:`inject`; the cycle kernels queue the columns directly.
        """
        inject = self.inject
        for offset, (src, dst) in enumerate(zip(srcs, dsts)):
            inject(Packet(first + offset, src, dst, num_flits, cycle))

    @abstractmethod
    def step(self, cycle: int) -> List[Flit]:
        """Advance one cycle; return the flits ejected at outputs."""

    @abstractmethod
    def occupancy(self) -> int:
        """Total flits currently inside the switch (buffers + source queues)."""


@dataclass
class SimulationResult:
    """Aggregate results of one simulation run.

    Attributes:
        cycles: Number of measured cycles (after warm-up).
        packets_injected: Packets generated during the measured window.
        packets_ejected: Packets fully delivered during the measured window.
        flits_ejected: Flits delivered during the measured window.
        packet_latencies: Per-packet latency samples in cycles (generation
            to tail ejection) for packets that completed in the measured
            window.  Bounded: once the list exceeds
            ``latency_sample_limit`` it is deterministically decimated
            (every other sample kept, sampling stride doubled), so memory
            stays O(limit) on arbitrarily long runs.  Aggregate statistics
            do **not** depend on this list — they come from the exact
            streaming fields below.
        latency_count: Exact number of delivered packets recorded.
        latency_sum: Exact sum of all delivered-packet latencies.
        latency_sumsq: Exact sum of squared latencies (for the variance).
        latency_sample_limit: Sample-list bound (``None`` = unbounded).
        per_input_ejected: Delivered packet count by source port.
        per_input_latency_sum: Sum of delivered packet latencies by source.
        per_output_ejected: Delivered packet count by destination port.
    """

    cycles: int = 0
    packets_injected: int = 0
    packets_ejected: int = 0
    flits_ejected: int = 0
    packet_latencies: List[int] = field(default_factory=list)
    latency_count: int = 0
    latency_sum: int = 0
    latency_sumsq: int = 0
    latency_sample_limit: Optional[int] = DEFAULT_LATENCY_SAMPLE_LIMIT
    per_input_ejected: Dict[int, int] = field(default_factory=dict)
    per_input_latency_sum: Dict[int, int] = field(default_factory=dict)
    per_output_ejected: Dict[int, int] = field(default_factory=dict)
    # Current sampling stride for packet_latencies (1 = keep everything).
    _sample_stride: int = field(default=1, repr=False)

    def record_latency(self, latency: int) -> None:
        """Record one delivered packet's latency.

        Streaming aggregates are always exact; the sample list keeps
        every ``_sample_stride``-th packet and halves itself (doubling
        the stride) whenever it outgrows ``latency_sample_limit``.
        """
        index = self.latency_count
        self.latency_count = index + 1
        self.latency_sum += latency
        self.latency_sumsq += latency * latency
        if index % self._sample_stride == 0:
            samples = self.packet_latencies
            samples.append(latency)
            limit = self.latency_sample_limit
            if limit is not None and len(samples) > limit:
                samples[:] = samples[::2]
                self._sample_stride *= 2

    @property
    def avg_latency_cycles(self) -> float:
        """Mean packet latency in cycles over the measured window (exact)."""
        if self.latency_count:
            return self.latency_sum / self.latency_count
        # Results assembled by hand (tests, analysis helpers) may fill the
        # sample list without going through record_latency.
        if not self.packet_latencies:
            return float("nan")
        return sum(self.packet_latencies) / len(self.packet_latencies)

    @property
    def latency_variance_cycles(self) -> float:
        """Population variance of packet latency over the window (exact)."""
        if not self.latency_count:
            return float("nan")
        mean = self.latency_sum / self.latency_count
        return self.latency_sumsq / self.latency_count - mean * mean

    @property
    def throughput_packets_per_cycle(self) -> float:
        """Aggregate accepted throughput in packets per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.packets_ejected / self.cycles

    @property
    def throughput_flits_per_cycle(self) -> float:
        """Aggregate accepted throughput in flits per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.flits_ejected / self.cycles

    def per_input_throughput(self, num_ports: int) -> List[float]:
        """Delivered packets per cycle for each input port."""
        if self.cycles == 0:
            return [0.0] * num_ports
        return [
            self.per_input_ejected.get(port, 0) / self.cycles
            for port in range(num_ports)
        ]

    def per_input_avg_latency(self, num_ports: int) -> List[float]:
        """Mean delivered-packet latency (cycles) for each input port."""
        result = []
        for port in range(num_ports):
            count = self.per_input_ejected.get(port, 0)
            if count == 0:
                result.append(float("nan"))
            else:
                result.append(self.per_input_latency_sum[port] / count)
        return result

    def to_stats(self, registry, prefix: str = "sim",
                 num_ports: Optional[int] = None) -> None:
        """Export this result onto a :class:`repro.obs.StatsRegistry`.

        Scalars for the window counters, a latency distribution folded in
        from the exact streaming moments, throughput formulas, and —
        when a port count is known or inferable — per-input/per-output
        delivered-packet vectors.
        """
        registry.scalar(f"{prefix}.cycles", "measured cycles").set(self.cycles)
        registry.scalar(
            f"{prefix}.packets_injected", "packets generated in the window"
        ).set(self.packets_injected)
        registry.scalar(
            f"{prefix}.packets_ejected", "packets delivered in the window"
        ).set(self.packets_ejected)
        registry.scalar(
            f"{prefix}.flits_ejected", "flits delivered in the window"
        ).set(self.flits_ejected)
        latency = registry.distribution(
            f"{prefix}.latency", "packet latency (cycles)"
        )
        if self.latency_count:
            samples = self.packet_latencies
            latency.merge_moments(
                self.latency_count, self.latency_sum, self.latency_sumsq,
                min(samples) if samples else None,
                max(samples) if samples else None,
            )
        registry.formula(
            f"{prefix}.throughput_packets_per_cycle",
            lambda reg: (
                reg.get(f"{prefix}.packets_ejected")
                / reg.get(f"{prefix}.cycles")
                if reg.get(f"{prefix}.cycles") else 0.0
            ),
            "accepted throughput (packets/cycle)",
        )
        registry.formula(
            f"{prefix}.throughput_flits_per_cycle",
            lambda reg: (
                reg.get(f"{prefix}.flits_ejected")
                / reg.get(f"{prefix}.cycles")
                if reg.get(f"{prefix}.cycles") else 0.0
            ),
            "accepted throughput (flits/cycle)",
        )
        if num_ports is None:
            observed = list(self.per_input_ejected) + list(self.per_output_ejected)
            num_ports = max(observed) + 1 if observed else 0
        if num_ports:
            registry.vector(
                f"{prefix}.per_input_ejected", num_ports,
                "delivered packets by source port",
            ).load(self.per_input_ejected.get(p, 0) for p in range(num_ports))
            registry.vector(
                f"{prefix}.per_output_ejected", num_ports,
                "delivered packets by destination port",
            ).load(self.per_output_ejected.get(p, 0) for p in range(num_ports))


class Simulation:
    """Couples a traffic source to a switch model and runs the cycle loop."""

    def __init__(
        self,
        switch: SwitchModel,
        traffic: TrafficSource,
        warmup_cycles: int = 0,
        latency_sample_limit: Optional[int] = DEFAULT_LATENCY_SAMPLE_LIMIT,
    ) -> None:
        if warmup_cycles < 0:
            raise ValueError("warm-up must be non-negative")
        if latency_sample_limit is not None and latency_sample_limit < 1:
            raise ValueError("latency sample limit must be >= 1 or None")
        if not (hasattr(traffic, "columns_for_cycle")
                and hasattr(traffic, "factory")):
            raise TypeError(
                f"the engine needs a column traffic source "
                f"(columns_for_cycle and a PacketFactory factory); "
                f"{type(traffic).__name__} has not"
            )
        self.switch = switch
        self.traffic = traffic
        # Perf counters attached to the switch also time generation
        # (the "traffic" phase), apart from the switch's own inject.
        self._perf = getattr(switch, "_perf", None)
        self.warmup_cycles = warmup_cycles
        self.latency_sample_limit = latency_sample_limit
        self._cycle = 0
        # Tail flits observed before the measurement window opened; their
        # packets must not be counted even if observed again (they cannot
        # be), but packets created during warm-up that finish during the
        # window are counted: the window measures delivered traffic.

    @property
    def cycle(self) -> int:
        """The next cycle to be simulated."""
        return self._cycle

    def run(self, measure_cycles: int, drain: bool = False) -> SimulationResult:
        """Run warm-up plus ``measure_cycles`` measured cycles.

        Args:
            measure_cycles: Number of cycles in the measurement window.
            drain: If True, after the measurement window keep cycling
                (without injecting) until the switch is empty, still
                recording deliveries.  Useful for closed-form workloads
                where every generated packet must be accounted for.

        Returns:
            The accumulated :class:`SimulationResult`.

        Raises:
            RuntimeError: If, while draining, the switch makes no progress
                for ``DRAIN_IDLE_LIMIT`` consecutive cycles (a wedged
                switch model would otherwise spin silently forever).
        """
        result = SimulationResult(latency_sample_limit=self.latency_sample_limit)
        end_warmup = self._cycle + self.warmup_cycles
        end_measure = end_warmup + measure_cycles

        while self._cycle < end_measure:
            measuring = self._cycle >= end_warmup
            self._tick(result, measuring, inject=True)
        if drain:
            idle_cycles = 0
            while self.switch.occupancy() > 0:
                if idle_cycles >= DRAIN_IDLE_LIMIT:
                    # DrainStallError subclasses RuntimeError, so
                    # existing except/raises sites keep working, while
                    # repro check classifies the stall as a structured
                    # violation instead of crashing the fuzz loop.
                    from repro.check.invariants import DrainStallError

                    message, snapshot = self._drain_stall_message(idle_cycles)
                    raise DrainStallError(
                        message,
                        cycle=self._cycle,
                        idle_cycles=idle_cycles,
                        occupancy=self.switch.occupancy(),
                        snapshot=snapshot,
                    )
                before = self.switch.occupancy()
                self._tick(result, measuring=True, inject=False)
                idle_cycles = idle_cycles + 1 if self.switch.occupancy() == before else 0
        return result

    def _drain_stall_message(self, idle_cycles: int):
        """Telemetry message + snapshot for the drain-stall error.

        Embeds the machine-readable :func:`repro.obs.telemetry_snapshot`
        (per-port occupancy, busy resources with owner and last-grant
        cycle, owned outputs, and — when fault injection is in play —
        the live fault state: failed channels, stuck inputs, pending
        schedule events) and, when the switch is traced, records a
        ``drain_stall`` event so the stall is visible on the timeline.
        A drain stalled by an unrepaired partition is therefore
        diagnosable straight from the error message.
        """
        # Lazy import: the engine stays importable without the obs
        # package in the picture for every hot-loop user.
        from repro.obs.snapshot import render_snapshot, telemetry_snapshot
        from repro.obs.trace import DRAIN_STALL

        switch = self.switch
        occupancy = switch.occupancy()
        tracer = getattr(switch, "_tracer", None)
        if tracer is not None:
            tracer.emit(DRAIN_STALL, idle_cycles, occupancy)
        snapshot = telemetry_snapshot(switch, max_ports=8)
        message = (
            f"drain made no progress for {idle_cycles} consecutive cycles "
            f"at cycle {self._cycle}: {occupancy} flits still "
            f"inside the switch; telemetry: {render_snapshot(snapshot)}"
        )
        return message, snapshot

    def _tick(self, result: SimulationResult, measuring: bool, inject: bool) -> None:
        cycle = self._cycle
        if inject:
            traffic = self.traffic
            perf = self._perf
            if perf is None:
                srcs, dsts = traffic.columns_for_cycle(cycle)
            else:
                start = time.perf_counter_ns()
                srcs, dsts = traffic.columns_for_cycle(cycle)
                perf.add("traffic", time.perf_counter_ns() - start,
                         len(srcs))
            if srcs:
                count = len(srcs)
                factory = traffic.factory
                self.switch.inject_columns(
                    srcs, dsts, factory.reserve(count), cycle,
                    factory.num_flits,
                )
                if measuring:
                    result.packets_injected += count
        ejected = self.switch.step(cycle)
        if measuring:
            result.cycles += 1
            result.flits_ejected += len(ejected)
            for flit in ejected:
                if flit.seq == flit.num_flits - 1:  # tail
                    result.packets_ejected += 1
                    latency = cycle - flit.created_cycle
                    result.record_latency(latency)
                    result.per_input_ejected[flit.src] = (
                        result.per_input_ejected.get(flit.src, 0) + 1
                    )
                    result.per_input_latency_sum[flit.src] = (
                        result.per_input_latency_sum.get(flit.src, 0) + latency
                    )
                    result.per_output_ejected[flit.dst] = (
                        result.per_output_ejected.get(flit.dst, 0) + 1
                    )
        self._cycle += 1
