"""Deterministic differential fuzzing over config × traffic × faults.

The golden-equivalence suite pins the fast kernel to the frozen
reference on hand-picked configurations; the fuzzer explores the space
*between* those pins.  :func:`generate_cases` expands one integer seed
into a reproducible list of :class:`CaseSpec`\\ s — random small
:class:`~repro.core.config.HiRiseConfig` geometries, traffic mixes
(uniform / hotspot / bursty / adversarial / permutation), and
:meth:`~repro.faults.FaultSchedule.random` overlays — and
:func:`run_case` runs each through :func:`repro.faults.verify_parity`
with both kernels under an :class:`~repro.check.invariants.InvariantChecker`.
A quarter of the cases run an iSLIP or MWM scheduler instead: the VOQ
crossbar has one kernel, so :func:`run_voq_case` runs it under the
:class:`~repro.check.matching.MatchingInvariantChecker` on every cycle.
:func:`run_case` classifies the result as ``ok``, ``mismatch`` (kernels
diverged), ``violation`` (an invariant or drain stall fired), or
``error`` (an unclassified crash).  :func:`run_fuzz` shrinks every failure with
:func:`repro.check.minimize.minimize_case` and writes a replayable
``repro.check/v1`` JSON file per failure.

Everything here is deterministic: the same seed always yields the same
case list, and a :class:`CaseSpec` round-trips losslessly through JSON
(fault schedules are materialised into explicit event records at
generation time so the minimizer can drop individual events).
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.check.invariants import InvariantViolation

__all__ = [
    "ALLOCATIONS",
    "ARBITRATIONS",
    "CaseOutcome",
    "CaseSpec",
    "FuzzFailure",
    "FuzzReport",
    "TRAFFIC_KINDS",
    "VOQ_ARBITRATIONS",
    "generate_cases",
    "run_case",
    "run_fuzz",
    "run_voq_case",
]

#: Traffic generators the fuzzer draws from (Section V patterns).
TRAFFIC_KINDS = (
    "uniform", "hotspot", "bursty", "adversarial", "permutation",
)
#: Channel-allocation policies (Section III-A).
ALLOCATIONS = ("input_binned", "output_binned", "priority")
#: Inter-layer arbitration schemes (Sections III-B and VII).
HIRISE_ARBITRATIONS = ("l2l_lrg", "wlrg", "clrg", "l2l_rr", "age")
#: The iterative VOQ schedulers the paper argues against (iSLIP, MWM).
VOQ_ARBITRATIONS = ("islip", "mwm")
#: Every scheme a generated case may carry.
ARBITRATIONS = HIRISE_ARBITRATIONS + VOQ_ARBITRATIONS
#: Share of generated cases that run a VOQ scheduler instead.
VOQ_SHARE = 0.25

#: Permutation patterns (all fuzzed radices are powers of two: layers
#: ∈ {2, 4} × ports-per-layer ∈ {2, 4, 8}).
_PERMUTATION_PATTERNS = (
    "transpose", "bit_complement", "bit_reverse", "shuffle",
)


@dataclass
class CaseSpec:
    """One fully-specified differential fuzz case (JSON round-trippable).

    Traffic parameters are stored *relative* to the geometry where
    possible (the hotspot output is always ``radix - 1``, adversarial
    demands are re-derived from the config), so the minimizer can
    shrink ``radix``/``layers`` without invalidating the traffic.
    """

    case_id: str
    radix: int
    layers: int
    channel_multiplicity: int
    allocation: str
    arbitration: str
    num_classes: int
    traffic: str
    load: float
    traffic_seed: int
    traffic_params: Dict[str, object] = field(default_factory=dict)
    warmup_cycles: int = 20
    measure_cycles: int = 120
    drain: bool = False
    fault_events: List[Dict[str, object]] = field(default_factory=list)
    islip_iterations: int = 1

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def build_config(self):
        """The :class:`~repro.core.config.HiRiseConfig` this case runs."""
        from repro.core.config import (
            AllocationPolicy,
            ArbitrationScheme,
            HiRiseConfig,
        )

        return HiRiseConfig(
            radix=self.radix,
            layers=self.layers,
            channel_multiplicity=self.channel_multiplicity,
            allocation=AllocationPolicy(self.allocation),
            arbitration=ArbitrationScheme(self.arbitration),
            num_classes=self.num_classes,
            islip_iterations=self.islip_iterations,
        )

    def build_schedule(self):
        """The case's :class:`~repro.faults.FaultSchedule`, or None."""
        if not self.fault_events:
            return None
        from repro.faults import FaultSchedule

        return FaultSchedule.from_records(self.fault_events)

    def build_traffic(self, config):
        """Fresh traffic source for one kernel run (sources hold RNGs)."""
        from repro.traffic import (
            AdversarialTraffic,
            BurstyTraffic,
            HotspotTraffic,
            PermutationTraffic,
            UniformRandomTraffic,
            binning_adversarial,
            interlayer_worstcase,
        )

        kind = self.traffic
        params = self.traffic_params
        if kind == "uniform":
            return UniformRandomTraffic(
                config.radix, self.load, seed=self.traffic_seed
            )
        if kind == "hotspot":
            return HotspotTraffic(
                config.radix, self.load,
                hotspot_output=config.radix - 1,
                seed=self.traffic_seed,
                background_load=float(params.get("background_load", 0.0)),
            )
        if kind == "bursty":
            return BurstyTraffic(
                config.radix, self.load,
                burst_length=float(params.get("burst_length", 4.0)),
                seed=self.traffic_seed,
            )
        if kind == "adversarial":
            if params.get("demands", "interlayer") == "binning":
                demands = binning_adversarial(config)
            else:
                demands = interlayer_worstcase(config)
            return AdversarialTraffic(
                config.radix, self.load, demands, seed=self.traffic_seed
            )
        if kind == "permutation":
            return PermutationTraffic(
                config.radix, self.load,
                pattern=str(params.get("pattern", "transpose")),
                seed=self.traffic_seed,
            )
        raise ValueError(f"unknown traffic kind {kind!r}")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record; inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "CaseSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"unknown CaseSpec fields: {sorted(unknown)}")
        return cls(**record)


@dataclass
class CaseOutcome:
    """Classification of one differential run."""

    status: str  # ok | mismatch | violation | error
    detail: str = ""
    mismatches: List[str] = field(default_factory=list)
    violation: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record for embedding in repro files."""
        return dataclasses.asdict(self)


@dataclass
class FuzzFailure:
    """One failing case: the original spec, its shrunk form, outcome."""

    original: CaseSpec
    minimized: CaseSpec
    outcome: CaseOutcome
    shrink_history: List[str] = field(default_factory=list)
    repro_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Summary of one :func:`run_fuzz` campaign."""

    seed: int
    cases_run: int
    ok: int
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures


def generate_cases(
    seed: int, count: int, max_radix: int = 16
) -> List[CaseSpec]:
    """Expand ``seed`` into ``count`` deterministic fuzz cases.

    Geometry is kept small (``radix <= max_radix``) so a campaign of
    dozens of cases runs in seconds; drain cases never carry faults (an
    unrepaired stuck input or partition legitimately never drains, which
    would misclassify healthy kernels as stalled).

    About :data:`VOQ_SHARE` of the cases become iSLIP (1-4 iterations)
    or MWM cases.  That choice comes from a second stream seeded from
    ``seed``, so every other draw of a case is the one it had before
    VOQ cases existed.  A VOQ case's faults are stuck inputs only: the
    VOQ fabric is flat and has no channel to fail.
    """
    import random

    if count < 0:
        raise ValueError("case count must be >= 0")
    if max_radix < 4:
        raise ValueError("max radix must be >= 4 (two ports on two layers)")
    rng = random.Random(seed)
    voq_rng = random.Random(f"{seed}:voq")
    cases: List[CaseSpec] = []
    for index in range(count):
        layer_options = [l for l in (1, 2, 4) if 2 * l <= max_radix]
        layers = rng.choice(layer_options)
        ppl_options = [p for p in (2, 4, 8) if layers * p <= max_radix]
        ports_per_layer = rng.choice(ppl_options)
        radix = layers * ports_per_layer
        multiplicity = rng.choice(
            [c for c in (1, 2) if c <= ports_per_layer]
        )
        allocation = rng.choice(ALLOCATIONS)
        arbitration = rng.choice(HIRISE_ARBITRATIONS)
        iterations = 1
        if voq_rng.random() < VOQ_SHARE:
            arbitration = voq_rng.choice(VOQ_ARBITRATIONS)
            if arbitration == "islip":
                iterations = voq_rng.randint(1, 4)
        num_classes = rng.choice((2, 3, 4))
        kind = rng.choice(TRAFFIC_KINDS)
        load = round(rng.uniform(0.1, 0.9), 2)
        params: Dict[str, object] = {}
        if kind == "bursty":
            params["burst_length"] = rng.choice((2.0, 4.0, 8.0))
        elif kind == "adversarial":
            params["demands"] = rng.choice(("interlayer", "binning"))
        elif kind == "permutation":
            params["pattern"] = rng.choice(_PERMUTATION_PATTERNS)
        elif kind == "hotspot":
            params["background_load"] = rng.choice((0.0, 0.05))
        warmup = rng.choice((0, 10, 20, 40))
        measure = rng.choice((80, 120, 200))
        drain = rng.random() < 0.3
        case = CaseSpec(
            case_id=f"fuzz-{seed}-{index:03d}",
            radix=radix,
            layers=layers,
            channel_multiplicity=multiplicity,
            allocation=allocation,
            arbitration=arbitration,
            num_classes=num_classes,
            traffic=kind,
            load=load,
            traffic_seed=rng.randrange(1 << 20),
            traffic_params=params,
            warmup_cycles=warmup,
            measure_cycles=measure,
            drain=drain,
            islip_iterations=iterations,
        )
        if not drain and rng.random() < 0.5:
            from repro.faults import FaultSchedule

            geometry = case.build_config()
            if geometry.uses_voq:
                # One layer has no channels: only inputs can stick.
                geometry = dataclasses.replace(geometry, layers=1)
            schedule = FaultSchedule.random(
                geometry,
                seed=rng.randrange(1 << 30),
                horizon=max(warmup + measure, 1),
                faults=rng.randrange(1, 4),
                mean_downtime=20,
                permanent_fraction=0.25,
                include_inputs=True,
                include_clrg=(arbitration == "clrg"),
            )
            case.fault_events = schedule.to_records()
        cases.append(case)
    return cases


def run_case(
    case: CaseSpec, invariants: bool = True, fleet_lanes: int = 0
) -> CaseOutcome:
    """Differentially run one case; classify the result.

    Runs fast vs reference through :func:`repro.faults.verify_parity`
    (results *and* full trace streams), each kernel under its own
    invariant checker when ``invariants`` is set.

    With ``fleet_lanes > 0`` the case is additionally run through the
    batched fleet kernel (:mod:`repro.core.fleet`) with that many lanes
    sharing the case's config, and every lane's result is compared
    field-by-field against a scalar run of the same lane.  Lane
    divergences arrive as ordinary ``"fleet lane i: ..."`` mismatch
    strings, so they classify, minimize, and persist exactly like
    fast-vs-reference mismatches.

    A VOQ case runs through :func:`run_voq_case` instead: with no second
    kernel and no fleet lanes, it is ``ok`` unless a check raises.
    """
    from repro.faults import verify_parity

    try:
        config = case.build_config()
        if config.uses_voq:
            run_voq_case(case, invariants=invariants)
            return CaseOutcome(status="ok")
        mismatches = verify_parity(
            config,
            case.build_schedule(),
            load=case.load,
            seed=case.traffic_seed,
            measure_cycles=case.measure_cycles,
            warmup_cycles=case.warmup_cycles,
            traffic_factory=case.build_traffic,
            invariants=invariants,
            drain=case.drain,
            fleet_lanes=fleet_lanes,
        )
    except InvariantViolation as violation:
        return CaseOutcome(
            status="violation",
            detail=str(violation).split("; telemetry:")[0],
            violation=violation.to_dict(),
        )
    except Exception as error:  # config/traffic/kernel crash
        return CaseOutcome(
            status="error", detail=f"{type(error).__name__}: {error}"
        )
    if mismatches:
        return CaseOutcome(
            status="mismatch",
            detail=mismatches[0],
            mismatches=list(mismatches),
        )
    return CaseOutcome(status="ok")


def run_voq_case(case: CaseSpec, invariants: bool = True, tracer=None):
    """Run a VOQ case on :class:`~repro.switches.VOQSwitch` (observed by
    ``tracer``, checked every cycle when ``invariants``) and return its
    :class:`~repro.network.engine.SimulationResult`; a wedged drain
    raises :class:`~repro.check.invariants.DrainStallError`."""
    from repro.check.matching import MatchingInvariantChecker
    from repro.network.engine import Simulation
    from repro.switches import VOQSwitch

    config = case.build_config()
    switch = VOQSwitch(
        config,
        tracer=tracer,
        faults=case.build_schedule(),
        invariants=MatchingInvariantChecker() if invariants else None,
    )
    simulation = Simulation(
        switch, case.build_traffic(config), warmup_cycles=case.warmup_cycles
    )
    return simulation.run(measure_cycles=case.measure_cycles,
                          drain=case.drain)


def run_fuzz(
    seed: int,
    cases: int,
    max_radix: int = 16,
    out_dir: Optional[str] = None,
    invariants: bool = True,
    minimize: bool = True,
    log: Optional[Callable[[str], None]] = None,
    fleet_lanes: int = 0,
) -> FuzzReport:
    """Run a seeded fuzz campaign; shrink and persist every failure.

    Failures are minimized while preserving their *classification*
    (``still_fails`` = same outcome status) and written to ``out_dir``
    as ``repro.check/v1`` JSON files named after the shrunk case.

    ``fleet_lanes > 0`` adds a fleet-vs-scalar lane-parity check to
    every case (see :func:`run_case`); the lane count is recorded in
    each repro file so ``repro check --replay`` re-runs the failure
    under the same fleet configuration.
    """
    from repro.check.minimize import minimize_case
    from repro.check.reprofile import save_repro

    report = FuzzReport(seed=seed, cases_run=0, ok=0)
    for spec in generate_cases(seed, cases, max_radix):
        outcome = run_case(spec, invariants=invariants,
                           fleet_lanes=fleet_lanes)
        report.cases_run += 1
        if log is not None:
            log(f"{spec.case_id}: {outcome.status}"
                + (f" ({outcome.detail})" if outcome.status != "ok" else ""))
        if outcome.status == "ok":
            report.ok += 1
            continue

        minimized, history = spec, []
        final_outcome = outcome
        if minimize:
            def still_fails(candidate: CaseSpec) -> bool:
                return (
                    run_case(candidate, invariants=invariants,
                             fleet_lanes=fleet_lanes).status
                    == outcome.status
                )

            minimized, history = minimize_case(spec, still_fails)
            final_outcome = run_case(minimized, invariants=invariants,
                                     fleet_lanes=fleet_lanes)
            if log is not None and history:
                log(f"{spec.case_id}: shrunk via {len(history)} steps "
                    f"to {minimized.case_id}")

        repro_path = None
        if out_dir is not None:
            import os

            os.makedirs(out_dir, exist_ok=True)
            repro_path = os.path.join(
                out_dir, f"{minimized.case_id}.json"
            )
            save_repro(
                repro_path, minimized, final_outcome,
                minimized=bool(history), history=history,
                fleet_lanes=fleet_lanes,
            )
            if log is not None:
                log(f"{spec.case_id}: repro written to {repro_path}")
        report.failures.append(FuzzFailure(
            original=spec,
            minimized=minimized,
            outcome=final_outcome,
            shrink_history=history,
            repro_path=repro_path,
        ))
    return report
