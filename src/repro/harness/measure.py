"""One measured single-switch run, and its fleet-aware scalar form.

:class:`SimulationMeasurement` is the one place a measured
single-switch :class:`~repro.network.engine.Simulation` is built: a
config, a :class:`~repro.traffic.TrafficSpec`, a load and a window.
:meth:`SimulationMeasurement.run` returns the run's
:class:`~repro.network.engine.SimulationResult`; calling the
measurement reduces that result to one scalar, which is the harness
task model — ``measurement(seed=..., **parameters) -> float`` — so it
parallelises over worker processes like any other measurement.
:func:`saturation_throughput` is the paper's overdriven saturation
point on the same path.

A measurement can also describe each task as a
:class:`~repro.core.fleet.LanePlan`, which lets the executors in
:mod:`repro.harness.parallel` batch groups of compatible tasks (same
config and simulation windows, different seeds/faults) through one
fleet kernel at close to one-run cost.  The fleet path is an
*optimisation, never a semantic change*: lane results are bit-identical
to scalar runs, and any task the fleet cannot take — unsupported
config, a tracer factory that is not fleet-capable, or
``invariants=True`` — simply runs on the scalar kernel.  Fleet-capable
tracer factories (those advertising ``fleet_capable = True``, like
:class:`repro.obs.tracebin.BinaryTracerFactory`) ride the fleet
natively: the batched kernel emits binary per-lane event streams that
are bit-identical to what the scalar tracer would have recorded.
"""

from dataclasses import replace
from functools import partial
from typing import Dict, Optional

from repro.network.engine import (
    DEFAULT_LATENCY_SAMPLE_LIMIT,
    Simulation,
    SimulationResult,
)
from repro.traffic.spec import TrafficSpec

#: Metrics a SimulationMeasurement can reduce a SimulationResult to.
METRICS = (
    "throughput",
    "avg_latency",
    "p99_latency",
    "packets_ejected",
)


class SimulationMeasurement:
    """One simulation run (or its scalar reduction), as a picklable callable.

    Args:
        config: Base :class:`~repro.core.config.HiRiseConfig`.  Sweep
            parameters may override any config field by name (via
            ``dataclasses.replace``) and ``load`` directly.
        traffic: The :class:`~repro.traffic.TrafficSpec` every run
            builds its source from (uniform random by default).
        metric: One of :data:`METRICS`.
        load: Offered load in packets/input/cycle.
        warmup_cycles / measure_cycles / drain: Simulation window.
        faults: Optional :class:`~repro.faults.FaultSchedule` shared by
            every run (each run gets a private cursor).
        traffic_seed: Normally ``None`` — each task's traffic is seeded
            by the task seed, which is what makes replications
            independent.  Pinning a value here makes *every* task
            identical; :func:`repro.harness.parallel.replicate`
            detects and dedupes such degenerate batches with a warning.
        tracer_factory: ``callable() -> tracer`` attached to the scalar
            switch.  Factories advertising ``fleet_capable = True``
            (binary columnar tracers) keep the fleet path — the batched
            kernel emits the same event streams natively; any other
            tracer forces the scalar path.
        invariants: Attach a fresh
            :class:`repro.check.invariants.InvariantChecker` per run
            (scalar path only, like ``tracer_factory``).
        perf_factory: ``callable() -> PerfCounters`` attached to each
            run through the ``perf=`` hook.  Fleet-capable factories
            (:class:`repro.obs.perf.PerfCountersFactory`) ride the
            fleet — one counters object profiles the whole batch; a
            factory without ``fleet_capable`` forces the scalar path
            with an explicit ``RuntimeWarning`` naming it.

    After a scalar run, :attr:`checker` holds that run's invariant
    checker (``None`` without ``invariants``).
    """

    def __init__(
        self,
        config,
        traffic: TrafficSpec = TrafficSpec(),
        metric: str = "throughput",
        load: float = 0.9,
        warmup_cycles: int = 40,
        measure_cycles: int = 300,
        drain: bool = False,
        faults=None,
        traffic_seed: Optional[int] = None,
        tracer_factory=None,
        invariants: bool = False,
        latency_sample_limit: Optional[int] = DEFAULT_LATENCY_SAMPLE_LIMIT,
        perf_factory=None,
    ) -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r} (one of {METRICS})")
        self.config = config
        self.traffic = traffic
        self.metric = metric
        self.load = load
        self.warmup_cycles = warmup_cycles
        self.measure_cycles = measure_cycles
        self.drain = drain
        self.faults = faults
        self.traffic_seed = traffic_seed
        self.tracer_factory = tracer_factory
        self.invariants = invariants
        self.latency_sample_limit = latency_sample_limit
        self.perf_factory = perf_factory
        self.checker = None

    # ------------------------------------------------------------------
    # Task resolution
    # ------------------------------------------------------------------
    def _resolve(self, seed: int, overrides: Dict[str, object]):
        """Fold sweep parameters into (config, load, traffic seed)."""
        load = self.load
        config = self.config
        config_overrides = {}
        for name, value in overrides.items():
            if name == "load":
                load = float(value)
            else:
                config_overrides[name] = value
        if config_overrides:
            config = replace(config, **config_overrides)
        traffic_seed = (
            self.traffic_seed if self.traffic_seed is not None else seed
        )
        return config, load, traffic_seed

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------
    def run(self, seed: int = 0, **overrides) -> SimulationResult:
        """Run this task on the scalar kernel and return its result.

        Builds the switch :func:`repro.switches.make_switch` makes for
        the resolved config, with this measurement's attachments, and a
        fresh traffic source seeded by the task seed (or the pinned
        ``traffic_seed``).
        """
        config, load, traffic_seed = self._resolve(seed, overrides)
        from repro.switches import make_switch

        tracer = (
            self.tracer_factory() if self.tracer_factory is not None
            else None
        )
        checker = None
        if self.invariants:
            from repro.check.matching import checker_for

            checker = checker_for(config)
        self.checker = checker
        perf = (
            self.perf_factory() if self.perf_factory is not None else None
        )
        switch = make_switch(
            config, tracer=tracer, faults=self.faults, invariants=checker,
            perf=perf,
        )
        traffic = self.traffic.build(config.radix, load, traffic_seed)
        simulation = Simulation(
            switch, traffic,
            warmup_cycles=self.warmup_cycles,
            latency_sample_limit=self.latency_sample_limit,
        )
        return simulation.run(self.measure_cycles, drain=self.drain)

    def __call__(self, seed: int = 0, **overrides) -> float:
        config = self._resolve(seed, overrides)[0]
        return self.value_from_result(self.run(seed, **overrides), config)

    # ------------------------------------------------------------------
    # Fleet path
    # ------------------------------------------------------------------
    def fleet_plan(self, seed: int = 0, **overrides):
        """This task as a LanePlan, or ``None`` if it must run scalar.

        ``None`` means: the config is outside fleet support, or the
        measurement carries per-run attachments the batched kernel
        cannot host (an invariant checker, or a tracer factory without
        ``fleet_capable = True``).  Fleet-capable
        tracer factories are carried on the plan — the fleet kernel
        emits each lane's binary event stream natively.
        """
        if self.invariants:
            return None
        factory = self.tracer_factory
        if factory is not None and not getattr(
            factory, "fleet_capable", False
        ):
            return None
        perf_factory = self.perf_factory
        if perf_factory is not None and not getattr(
            perf_factory, "fleet_capable", False
        ):
            # Perf attachments must never *silently* force the scalar
            # path — fleet dispatch is a 5x-class optimisation, and a
            # profiling hook quietly disabling it would poison the very
            # numbers it exists to collect.
            import warnings

            name = (
                getattr(perf_factory, "__name__", None)
                or type(perf_factory).__name__
            )
            warnings.warn(
                f"perf attachment {name} is not fleet-capable "
                "(no fleet_capable=True marker): falling back to the "
                "scalar kernel; use repro.obs.perf.PerfCountersFactory "
                "to profile fleet dispatches natively",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        from repro.core.fleet import LanePlan, fleet_supports

        config, load, traffic_seed = self._resolve(seed, overrides)
        if not fleet_supports(config):
            return None
        return LanePlan(
            config=config,
            traffic_factory=partial(
                self.traffic.build, config.radix, load, traffic_seed
            ),
            faults=self.faults,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            drain=self.drain,
            latency_sample_limit=self.latency_sample_limit,
            tracer_factory=factory,
            perf_factory=perf_factory,
        )

    def task_fingerprint(self, seed: int = 0, **overrides) -> Dict:
        """JSON-able identity of this task's simulation.

        Equal identities mean bit-identical results, which lets
        :func:`repro.harness.parallel.task_fingerprint` dedupe and
        checkpoint.  The traffic seed stands in for the task seed (a
        pinned one makes every task identical).  Observers — the tracer
        and perf factories and the invariant checker — are left out:
        they never change a value.  Uniform traffic is identified by
        ``"traffic": "uniform"`` and its packet length alone; other
        patterns name themselves and, when adversarial, their demands.
        """
        from repro.obs.perf import config_fingerprint

        config, load, traffic_seed = self._resolve(seed, overrides)
        identity = {
            "config": config_fingerprint(config),
            "traffic": self.traffic.pattern,
            "load": float(load),
            "packet_flits": self.traffic.packet_flits,
            "traffic_seed": traffic_seed,
            "faults": (
                self.faults.to_records() if self.faults is not None
                else None
            ),
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "drain": self.drain,
            "latency_sample_limit": self.latency_sample_limit,
            "metric": self.metric,
        }
        if self.traffic.demands is not None:
            identity["demands"] = [list(pair) for pair in self.traffic.demands]
        return identity

    # ------------------------------------------------------------------
    # Metric extraction (shared by both paths)
    # ------------------------------------------------------------------
    def value_from_result(self, result, config=None) -> float:
        """Reduce a :class:`SimulationResult` to this metric's scalar.

        ``config`` is the task's *resolved* config (sweep overrides may
        change ``radix``); defaults to the base config.
        """
        if self.metric == "throughput":
            ports = (config or self.config).radix
            if result.cycles == 0:
                return 0.0
            return result.flits_ejected / (result.cycles * ports)
        if self.metric == "avg_latency":
            if result.latency_count == 0:
                return 0.0
            return result.latency_sum / result.latency_count
        if self.metric == "p99_latency":
            samples = sorted(result.packet_latencies)
            if not samples:
                return 0.0
            rank = max(0, int(0.99 * (len(samples) - 1)))
            return float(samples[rank])
        if self.metric == "packets_ejected":
            return float(result.packets_ejected)
        raise ValueError(f"unknown metric {self.metric!r}")


def saturation_throughput(
    config,
    traffic: TrafficSpec = TrafficSpec(),
    overdrive_load: float = 1.0,
    seed: int = 0,
    warmup_cycles: int = 1000,
    measure_cycles: int = 4000,
) -> float:
    """Delivered packets/cycle with every input overdriven.

    Saturation throughput is the accepted-rate plateau when offered load
    exceeds what the switch can carry; overdriving at ``overdrive_load``
    (default: a packet per input per cycle) measures the plateau directly.
    """
    measurement = SimulationMeasurement(
        config, traffic=traffic, load=overdrive_load,
        warmup_cycles=warmup_cycles, measure_cycles=measure_cycles,
    )
    return measurement.run(seed).throughput_packets_per_cycle
