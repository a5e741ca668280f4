"""Self-profiling performance counters and the cross-run perf ledger.

Two observability layers for the simulator's *own* speed:

**Phase-level counters** — :class:`PerfCounters` attaches to any kernel
(fast, reference, or fleet) through the opt-in ``perf=`` hook, wired
like ``tracer=``/``invariants=``: the unattached hot path pays one
``is None`` branch, and attached runs are bit-identical to unattached
(the counters only read the monotonic clock, never simulation state).
Wall-time and op counts are attributed to the kernel phases (transmit /
refill / arbitrate / commit / inject / trace-drain) by *sampling*: one
cycle in every ``stride`` is timed phase-by-phase, the rest run the
kernel's ordinary untimed step, so the counters-on overhead stays a few
percent at the default stride.  The simulation loops add two phases
timed on every cycle: ``traffic`` (generating the cycle's injections, in
:class:`~repro.network.engine.Simulation` and the fleet's
``FleetSimulation``) and, in the fleet, ``pack`` (flattening the lanes'
columns into one batched injection).  Results export onto a
:class:`~repro.obs.stats.StatsRegistry` (:meth:`PerfCounters.to_stats`)
and from there to Prometheus text.

**Cross-run ledger** — an append-only JSONL history (``repro.perf/v1``)
so benchmark results accumulate across runs instead of overwriting a
single snapshot.  Every line is self-contained (format tag, timestamp,
config fingerprint, workload, host info, metrics), appends are a single
``write`` + flush, and readers skip torn trailing lines, so concurrent
or crashed writers cannot poison the history.  Entries are keyed by the
order-normalised :func:`config_fingerprint` (two configs that differ
only in ``failed_channels`` ordering fingerprint identically, because
``HiRiseConfig`` normalises at construction) plus a workload label.
:func:`compare_perf` is direction-aware: throughput metrics regress
when they *drop*, overhead fractions when they *rise*, and metrics with
no known direction are ignored rather than misjudged.
"""

import hashlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Format tag stamped on (and required of) every ledger line.
LEDGER_FORMAT = "repro.perf/v1"

#: Default sampling stride: time one cycle in every 16.
DEFAULT_STRIDE = 16

#: Canonical phase order for reports (phases actually observed may be a
#: subset: e.g. the reference kernel never drains a binary trace).
PHASES = (
    "traffic",
    "pack",
    "inject",
    "transmit",
    "refill",
    "arbitrate",
    "commit",
    "trace_drain",
    "step",
)


class PerfCounters:
    """Phase-attributed wall-time and op counts for one kernel run.

    The kernel calls :meth:`add` only on *sampled* cycles (every
    ``stride``-th), so totals are estimates of the sampled share, not of
    the whole run; :meth:`phase_fractions` is the meaningful output —
    the relative split of a cycle's wall-time across phases.  Traffic,
    pack, inject and trace-drain are timed on every call (they happen
    outside the kernel's cycle step or rarely enough not to matter).

    Attributes:
        stride: Sampling stride (1 = time every cycle).
        time_ns: Accumulated nanoseconds per phase.
        ops: Accumulated op counts per phase (flits transmitted, grants
            committed, packets injected, ... — phase-dependent).
        cycles_total: Cycles stepped while attached.
        cycles_sampled: Cycles that were phase-timed.
        kernel: Class name of the kernel bound to (set by :meth:`bind`).
        lanes: Batched lane count (1 for the scalar kernels).
    """

    __slots__ = (
        "stride",
        "time_ns",
        "ops",
        "cycles_total",
        "cycles_sampled",
        "kernel",
        "lanes",
    )

    def __init__(self, stride: int = DEFAULT_STRIDE) -> None:
        if stride < 1:
            raise ValueError("perf sampling stride must be >= 1")
        self.stride = int(stride)
        self.time_ns: Dict[str, int] = {}
        self.ops: Dict[str, int] = {}
        self.cycles_total = 0
        self.cycles_sampled = 0
        self.kernel: Optional[str] = None
        self.lanes = 1

    def bind(self, kernel: object) -> None:
        """Record which kernel these counters are attached to."""
        self.kernel = type(kernel).__name__
        self.lanes = int(getattr(kernel, "num_lanes", 1))

    def add(self, phase: str, elapsed_ns: int, ops: int = 0) -> None:
        """Fold one timed phase execution into the counters."""
        self.time_ns[phase] = self.time_ns.get(phase, 0) + elapsed_ns
        if ops:
            self.ops[phase] = self.ops.get(phase, 0) + ops

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def sampled_ns(self) -> int:
        """Total nanoseconds attributed across all phases."""
        return sum(self.time_ns.values())

    def phase_fractions(self) -> Dict[str, float]:
        """Each phase's share of the attributed wall-time (sums to 1)."""
        total = self.sampled_ns
        if not total:
            return {}
        return {
            phase: self.time_ns[phase] / total
            for phase in self._ordered_phases()
        }

    def _ordered_phases(self) -> List[str]:
        known = [phase for phase in PHASES if phase in self.time_ns]
        extra = sorted(set(self.time_ns) - set(PHASES))
        return known + extra

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the counters."""
        return {
            "kernel": self.kernel,
            "lanes": self.lanes,
            "stride": self.stride,
            "cycles_total": self.cycles_total,
            "cycles_sampled": self.cycles_sampled,
            "time_ns": {p: self.time_ns[p] for p in self._ordered_phases()},
            "ops": dict(self.ops),
            "phase_fractions": self.phase_fractions(),
        }

    def to_stats(self, registry, prefix: str = "perf") -> None:
        """Export onto a :class:`~repro.obs.stats.StatsRegistry`."""
        registry.scalar(
            f"{prefix}.stride", "perf sampling stride (cycles)", self.stride
        )
        registry.scalar(
            f"{prefix}.lanes", "batched lanes profiled", self.lanes
        )
        registry.scalar(
            f"{prefix}.cycles_total", "cycles stepped while attached",
            self.cycles_total,
        )
        registry.scalar(
            f"{prefix}.cycles_sampled", "cycles phase-timed",
            self.cycles_sampled,
        )
        fractions = self.phase_fractions()
        for phase in self._ordered_phases():
            registry.scalar(
                f"{prefix}.{phase}.time_ns",
                f"sampled wall-time in {phase} (ns)",
                self.time_ns[phase],
            )
            registry.scalar(
                f"{prefix}.{phase}.ops",
                f"op count attributed to {phase}",
                self.ops.get(phase, 0),
            )
            registry.scalar(
                f"{prefix}.{phase}.frac",
                f"{phase} share of attributed wall-time",
                fractions.get(phase, 0.0),
            )


class PerfCountersFactory:
    """Picklable per-task :class:`PerfCounters` factory for sweeps.

    Mirrors ``BinaryTracerFactory``: carrying a factory (rather than a
    live counters object) through ``SimulationMeasurement`` keeps tasks
    picklable for process pools, and ``fleet_capable`` lets the factory
    ride a ``LanePlan`` through the batched fleet kernel instead of
    forcing a scalar fallback.
    """

    fleet_capable = True

    def __init__(self, stride: int = DEFAULT_STRIDE) -> None:
        if stride < 1:
            raise ValueError("perf sampling stride must be >= 1")
        self.stride = int(stride)

    def __call__(self) -> PerfCounters:
        return PerfCounters(stride=self.stride)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is PerfCountersFactory and other.stride == self.stride
        )

    def __hash__(self) -> int:
        return hash((PerfCountersFactory, self.stride))

    def __repr__(self) -> str:
        return f"PerfCountersFactory(stride={self.stride})"


# ----------------------------------------------------------------------
# Config fingerprint and host identity
# ----------------------------------------------------------------------
def config_fingerprint(config) -> str:
    """Order-normalised fingerprint of a :class:`HiRiseConfig`.

    Hashes :func:`repro.core.config.config_canonical`, the canonical
    JSON of every config field.  Field normalisation (sorted
    ``failed_channels``, enum coercion) already happened in
    ``HiRiseConfig.__post_init__``, so two equal configs — however their
    inputs were ordered — fingerprint identically.
    """
    from repro.core.config import config_canonical

    digest = hashlib.sha256(json.dumps(
        config_canonical(config), sort_keys=True, separators=(",", ":"),
    ).encode())
    return digest.hexdigest()[:16]


def host_info() -> Dict[str, object]:
    """Coarse host identity recorded with every ledger entry."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# The ledger (repro.perf/v1 JSONL)
# ----------------------------------------------------------------------
def make_ledger_entry(
    config,
    workload: str,
    metrics: Dict[str, float],
    host: Optional[Dict[str, object]] = None,
    recorded: Optional[str] = None,
) -> Dict[str, object]:
    """Build one self-contained ``repro.perf/v1`` ledger line."""
    if not workload:
        raise ValueError("a ledger entry needs a non-empty workload label")
    return {
        "format": LEDGER_FORMAT,
        "recorded": recorded or time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
        "fingerprint": config_fingerprint(config),
        "workload": workload,
        "host": dict(host) if host is not None else host_info(),
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }


def append_ledger_entry(path, entry: Dict[str, object]) -> None:
    """Append one entry to the ledger (single write + flush)."""
    if entry.get("format") != LEDGER_FORMAT:
        raise ValueError(
            f"refusing to append non-{LEDGER_FORMAT} entry "
            f"(format={entry.get('format')!r})"
        )
    from repro.util.jsonl import append_jsonl

    append_jsonl(path, entry)


def read_ledger(path) -> List[Dict[str, object]]:
    """Read every well-formed entry from a ledger file.

    Torn or garbled lines (a crashed writer's partial append) are
    skipped by the shared tolerant reader (:mod:`repro.util.jsonl`); a
    line that decodes cleanly but is not a ``repro.perf/v1`` entry
    raises ``ValueError`` — that is a wrong-file mistake, not
    corruption, and silently skipping it would hide it.
    Missing files read as an empty history.
    """
    from repro.util.jsonl import read_jsonl

    entries: List[Dict[str, object]] = []
    for entry in read_jsonl(path, missing_ok=True):
        if not isinstance(entry, dict):
            continue
        if entry.get("format") != LEDGER_FORMAT:
            raise ValueError(
                f"{path}: not a {LEDGER_FORMAT} ledger "
                f"(found format={entry.get('format')!r})"
            )
        entries.append(entry)
    return entries


def filter_entries(
    entries: List[Dict[str, object]],
    fingerprint: Optional[str] = None,
    workload: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Entries matching a config fingerprint and/or workload label."""
    matched = entries
    if fingerprint is not None:
        matched = [e for e in matched if e.get("fingerprint") == fingerprint]
    if workload is not None:
        matched = [e for e in matched if e.get("workload") == workload]
    return matched


# ----------------------------------------------------------------------
# Direction-aware comparison
# ----------------------------------------------------------------------
#: +1 = higher is better, -1 = lower is better.  Metrics not listed here
#: fall back to a suffix heuristic; metrics with no inferable direction
#: are informational and never judged.
METRIC_DIRECTIONS: Dict[str, int] = {
    "cycles_per_sec": 1,
    "normalized": 1,
    "aggregate_lane_cycles_per_sec": 1,
    "fleet_speedup": 1,
    "perf_on_overhead_frac": -1,
    "tracebin_on_overhead_frac": -1,
    "calibration_ops_per_sec": 0,
}


def metric_direction(name: str) -> int:
    """Direction of a metric: +1 higher-better, -1 lower-better, 0 skip."""
    if name in METRIC_DIRECTIONS:
        return METRIC_DIRECTIONS[name]
    if name.endswith(("overhead_frac", "_overhead", "_seconds", "_ns")):
        return -1
    if name.endswith(("per_sec", "per_s", "_speedup")) or name == "normalized":
        return 1
    return 0


@dataclass(frozen=True)
class PerfRegression:
    """One metric that moved the wrong way past tolerance."""

    metric: str
    current: float
    baseline: float
    change_frac: float
    direction: str  # "higher_is_better" | "lower_is_better"

    def __str__(self) -> str:
        arrow = "dropped" if self.direction == "higher_is_better" else "rose"
        return (
            f"{self.metric} {arrow} {abs(self.change_frac):.1%}: "
            f"{self.baseline:.6g} -> {self.current:.6g}"
        )


def compare_perf(
    current: Dict[str, object],
    baseline: Dict[str, object],
    rel_tol: float = 0.2,
) -> List[PerfRegression]:
    """Direction-aware regression check between two ledger entries.

    Only metrics present in *both* entries are compared, each according
    to its direction: throughput-like metrics regress when they drop by
    more than ``rel_tol`` (relative), overhead-like metrics when they
    rise by more, and direction-less metrics are skipped.  Entries with
    different config fingerprints refuse to compare — a cross-config
    comparison is meaningless, not merely a regression.
    """
    if rel_tol < 0:
        raise ValueError("rel_tol must be non-negative")
    fp_current = current.get("fingerprint")
    fp_baseline = baseline.get("fingerprint")
    if fp_current != fp_baseline:
        raise ValueError(
            "refusing to compare across configs: fingerprint "
            f"{fp_current!r} (current) != {fp_baseline!r} (baseline)"
        )
    current_metrics = current.get("metrics", {})
    baseline_metrics = baseline.get("metrics", {})
    regressions: List[PerfRegression] = []
    for name in sorted(set(current_metrics) & set(baseline_metrics)):
        direction = metric_direction(name)
        if direction == 0:
            continue
        now = current_metrics[name]
        then = baseline_metrics[name]
        if not _comparable(now) or not _comparable(then):
            continue
        scale = max(abs(then), 1e-12)
        change = (now - then) / scale
        if direction > 0 and change < -rel_tol:
            regressions.append(PerfRegression(
                metric=name, current=now, baseline=then,
                change_frac=change, direction="higher_is_better",
            ))
        elif direction < 0 and change > rel_tol:
            regressions.append(PerfRegression(
                metric=name, current=now, baseline=then,
                change_frac=change, direction="lower_is_better",
            ))
    return regressions


def _comparable(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


# ----------------------------------------------------------------------
# Micro benchmark (the `repro perf --record` workload)
# ----------------------------------------------------------------------
def _calibration_ops_per_sec(iterations: int = 400_000) -> float:
    """Fixed busy-loop rate, for normalising across hosts."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i) % 1_000_003
    elapsed = time.perf_counter() - start
    return iterations / elapsed if elapsed > 0 else float("inf")


def run_micro_benchmark(
    config,
    cycles: int = 2000,
    trials: int = 2,
    load: float = 1.0,
    traffic_seed: int = 7,
    perf: Optional[PerfCounters] = None,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Time a short saturation run of ``config``'s switch model.

    The switch comes from :func:`repro.switches.make_switch`: the fast
    Hi-Rise kernel, or the VOQ switch for iSLIP and MWM.

    Pre-stages uniform-random traffic (so RNG cost stays outside the
    timed region, mirroring ``scripts/bench_kernel.py``), runs
    ``trials`` identical trials with GC paused, and keeps the best.
    Returns ``(metrics, details)``: ``metrics`` is ledger-ready
    (cycles/sec plus the calibration-normalised score), ``details``
    carries run parameters for reporting.
    """
    import gc

    from repro.switches import make_switch
    from repro.traffic import UniformRandomTraffic

    if cycles < 1 or trials < 1:
        raise ValueError("cycles and trials must be >= 1")

    calibration = _calibration_ops_per_sec()
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(trials):
            # Fresh traffic per trial: packets are mutable once injected.
            traffic = UniformRandomTraffic(
                config.radix, load=load, seed=traffic_seed
            )
            staged = [
                list(traffic.packets_for_cycle(cycle))
                for cycle in range(cycles)
            ]
            switch = make_switch(config, perf=perf)
            # VOQ switches take packets one at a time.
            inject_many = getattr(switch, "inject_many", None) or (
                lambda packets, inject=switch.inject: [
                    inject(packet) for packet in packets
                ]
            )
            step = switch.step
            start = time.perf_counter()
            for cycle in range(cycles):
                inject_many(staged[cycle])
                step(cycle)
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()

    cycles_per_sec = cycles / best if best > 0 else float("inf")
    metrics = {
        "cycles_per_sec": cycles_per_sec,
        "normalized": cycles_per_sec / calibration,
        "calibration_ops_per_sec": calibration,
    }
    details = {
        "cycles": cycles,
        "trials": trials,
        "load": load,
        "traffic_seed": traffic_seed,
        "best_wall_s": best,
    }
    return metrics, details
