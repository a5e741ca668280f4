"""Scheduler-zoo comparison: CLRG vs LRG vs iSLIP(k) vs MWM.

Answers the question the paper could not ask (it had no iterative
scheduler to compare against): how does single-cycle CLRG arbitration
stack up against VOQ + iSLIP with 1..k iterations and against the
maximum-weight-matching oracle, on throughput, tail latency, and Jain
fairness, across the synthetic traffic zoo?

Every cell of the comparison matrix is one seeded
:meth:`repro.harness.measure.SimulationMeasurement.run` of the switch
:func:`repro.switches.make_switch` builds for that scheduler's config —
the Hi-Rise fast kernel for the paper's schemes, the VOQ fabric for
iSLIP/MWM — with the matching invariant checker attached
(:func:`repro.check.checker_for`), so every reported number comes from
a legality-verified run.  The result dict carries the stable
``repro.schedulers/v1`` schema consumed by ``repro compare-schedulers``,
``scripts/scheduler_matrix.py``, and the CI ``scheduler-smoke`` gate.
"""

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.core.config import HiRiseConfig
from repro.harness.measure import SimulationMeasurement, saturation_throughput
from repro.metrics.fairness import jain_index
from repro.metrics.stats import LatencyStats
from repro.traffic.spec import TrafficSpec

SCHEDULERS_SCHEMA = "repro.schedulers/v1"

#: Scheduler name -> config overrides, in canonical display order.
#: ``clrg`` is the paper's contribution; ``l2l_lrg`` its unfair
#: baseline; the iSLIP family and MWM are the iterative side.
SCHEDULER_SPECS: Dict[str, Dict[str, object]] = {
    "clrg": {"arbitration": "clrg"},
    "l2l_lrg": {"arbitration": "l2l_lrg"},
    "islip1": {"arbitration": "islip", "islip_iterations": 1},
    "islip2": {"arbitration": "islip", "islip_iterations": 2},
    "islip4": {"arbitration": "islip", "islip_iterations": 4},
    "mwm": {"arbitration": "mwm"},
}

DEFAULT_SCHEDULERS = tuple(SCHEDULER_SPECS)
DEFAULT_TRAFFIC = ("uniform", "hotspot", "transpose")

__all__ = [
    "SCHEDULERS_SCHEMA",
    "SCHEDULER_SPECS",
    "DEFAULT_SCHEDULERS",
    "DEFAULT_TRAFFIC",
    "compare_schedulers",
    "render_markdown",
    "validate_comparison",
]


def _config_for(base: HiRiseConfig, scheduler: str) -> HiRiseConfig:
    try:
        overrides = SCHEDULER_SPECS[scheduler]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; "
            f"choose from {', '.join(SCHEDULER_SPECS)}"
        ) from None
    return replace(base, **overrides)


def _run_cell(
    config: HiRiseConfig,
    traffic: TrafficSpec,
    load: float,
    seed: int,
    warmup_cycles: int,
    measure_cycles: int,
    invariants: bool,
) -> Dict[str, object]:
    measurement = SimulationMeasurement(
        config, traffic=traffic, load=load,
        warmup_cycles=warmup_cycles, measure_cycles=measure_cycles,
        invariants=invariants, latency_sample_limit=None,
    )
    result = measurement.run(seed)
    checker = measurement.checker
    radix = config.radix
    per_input = [
        result.per_input_ejected.get(port, 0) for port in range(radix)
    ]
    served = [count for count in per_input if count > 0]
    latency = (
        LatencyStats.from_samples(result.packet_latencies)
        if result.packet_latencies else None
    )
    return {
        "throughput_packets_per_cycle": result.throughput_packets_per_cycle,
        "throughput_flits_per_cycle": result.throughput_flits_per_cycle,
        "packets_ejected": result.packets_ejected,
        "avg_latency_cycles": (
            latency.mean if latency is not None else None
        ),
        "p99_latency_cycles": (
            latency.p99 if latency is not None else None
        ),
        "jain": jain_index(served) if served else None,
        "per_input_ejected": per_input,
        "invariant_cycles_checked": (
            checker.cycles_checked if checker is not None else 0
        ),
        "invariant_violations": 0,  # a violation raises before this
    }


def compare_schedulers(
    radix: int = 16,
    layers: int = 2,
    channels: int = 2,
    load: float = 0.3,
    packet_flits: int = 4,
    seed: int = 1,
    warmup_cycles: int = 300,
    measure_cycles: int = 2000,
    schedulers: Optional[Sequence[str]] = None,
    traffic: Optional[Sequence[str]] = None,
    invariants: bool = True,
    saturation: bool = True,
    saturation_pattern: str = "uniform",
) -> Dict[str, object]:
    """Run the scheduler x traffic comparison matrix.

    Returns a ``repro.schedulers/v1`` dict: per-pattern tables of
    throughput / latency / Jain per scheduler, plus an overdriven
    saturation-throughput comparison on ``saturation_pattern``.  Every
    table cell ran with matching/structural invariants attached unless
    ``invariants=False`` (a violation raises, so a returned table
    proves zero violations).

    ``load`` is in packets/input/cycle, so the defaults (``load=0.3``,
    ``packet_flits=4``) offer 1.2 flits/input/cycle against a capacity
    of 1: every per-pattern cell runs past saturation, not only the
    saturation section, and its latencies grow with the measurement
    window (they measure source-queue growth).  Pass
    ``load < 1 / packet_flits`` to compare schedulers below saturation.
    """
    names = list(schedulers) if schedulers is not None else list(
        DEFAULT_SCHEDULERS
    )
    patterns = list(traffic) if traffic is not None else list(
        DEFAULT_TRAFFIC
    )
    base = HiRiseConfig(
        radix=radix, layers=layers, channel_multiplicity=channels
    )
    configs = {name: _config_for(base, name) for name in names}

    matrix: Dict[str, Dict[str, Dict[str, object]]] = {}
    for pattern in patterns:
        spec = TrafficSpec(pattern, packet_flits)
        matrix[pattern] = {
            name: _run_cell(
                configs[name], spec, load, seed, warmup_cycles,
                measure_cycles, invariants,
            )
            for name in names
        }

    saturation_row: Dict[str, float] = {}
    if saturation:
        spec = TrafficSpec(saturation_pattern, packet_flits)
        for name in names:
            saturation_row[name] = saturation_throughput(
                configs[name], spec, seed=seed,
                warmup_cycles=warmup_cycles, measure_cycles=measure_cycles,
            )

    return {
        "schema": SCHEDULERS_SCHEMA,
        "radix": radix,
        "layers": layers,
        "channels": channels,
        "load": load,
        "packet_flits": packet_flits,
        "seed": seed,
        "warmup_cycles": warmup_cycles,
        "measure_cycles": measure_cycles,
        "invariants": bool(invariants),
        "schedulers": names,
        "traffic": patterns,
        "matrix": matrix,
        "saturation": {
            "pattern": saturation_pattern if saturation else None,
            "overdrive_load": 1.0 if saturation else None,
            "throughput_packets_per_cycle": saturation_row,
        },
    }


#: Required top-level fields of a ``repro.schedulers/v1`` dict.
_REQUIRED_FIELDS = (
    "radix", "load", "seed", "schedulers", "traffic", "matrix",
    "saturation",
)

#: Required fields of every matrix cell.
_CELL_FIELDS = (
    "throughput_packets_per_cycle", "avg_latency_cycles",
    "p99_latency_cycles", "jain", "invariant_violations",
)


def validate_comparison(comparison: Dict[str, object]) -> Dict[str, object]:
    """Validate a comparison dict against the v1 schema.

    Returns the dict unchanged for chaining.

    Raises:
        ValueError: On a wrong schema tag, missing field, or a matrix
            inconsistent with the declared scheduler/traffic lists.
    """
    if not isinstance(comparison, dict):
        raise ValueError("comparison must be an object")
    schema = comparison.get("schema")
    if schema != SCHEDULERS_SCHEMA:
        raise ValueError(
            f"unsupported schema: {schema!r} (want {SCHEDULERS_SCHEMA!r})"
        )
    for field in _REQUIRED_FIELDS:
        if field not in comparison:
            raise ValueError(f"comparison missing field {field!r}")
    names = comparison["schedulers"]
    patterns = comparison["traffic"]
    matrix = comparison["matrix"]
    if not isinstance(matrix, dict):
        raise ValueError("matrix must be an object")
    for pattern in patterns:
        row = matrix.get(pattern)
        if not isinstance(row, dict):
            raise ValueError(f"matrix missing traffic row {pattern!r}")
        for name in names:
            cell = row.get(name)
            if not isinstance(cell, dict):
                raise ValueError(
                    f"matrix[{pattern!r}] missing scheduler {name!r}"
                )
            for field in _CELL_FIELDS:
                if field not in cell:
                    raise ValueError(
                        f"matrix[{pattern!r}][{name!r}] missing {field!r}"
                    )
    saturation = comparison["saturation"]
    if not isinstance(saturation, dict) or (
        "throughput_packets_per_cycle" not in saturation
    ):
        raise ValueError("saturation section malformed")
    return comparison


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def render_markdown(comparison: Dict[str, object]) -> str:
    """Render a comparison dict as the markdown report the CLI prints."""
    names: List[str] = list(comparison["schedulers"])
    lines: List[str] = []
    lines.append("# Scheduler comparison")
    lines.append("")
    lines.append(
        f"radix {comparison['radix']}, load {comparison['load']}, "
        f"{comparison['measure_cycles']} measured cycles, "
        f"seed {comparison['seed']}, invariants "
        f"{'on' if comparison.get('invariants') else 'off'}"
    )
    for pattern in comparison["traffic"]:
        row = comparison["matrix"][pattern]
        lines.append("")
        lines.append(f"## {pattern}")
        lines.append("")
        lines.append(
            "| scheduler | throughput (pkt/cyc) | avg latency (cyc) "
            "| p99 latency (cyc) | Jain |"
        )
        lines.append("|---|---|---|---|---|")
        for name in names:
            cell = row[name]
            lines.append(
                f"| {name} "
                f"| {_fmt(cell['throughput_packets_per_cycle'])} "
                f"| {_fmt(cell['avg_latency_cycles'], 1)} "
                f"| {_fmt(cell['p99_latency_cycles'], 1)} "
                f"| {_fmt(cell['jain'])} |"
            )
    saturation = comparison.get("saturation") or {}
    rates = saturation.get("throughput_packets_per_cycle") or {}
    if rates:
        lines.append("")
        lines.append(
            f"## saturation ({saturation.get('pattern')}, overdriven)"
        )
        lines.append("")
        lines.append("| scheduler | saturation throughput (pkt/cyc) |")
        lines.append("|---|---|")
        for name in names:
            if name in rates:
                lines.append(f"| {name} | {_fmt(rates[name])} |")
    lines.append("")
    return "\n".join(lines)
