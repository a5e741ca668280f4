"""Observability: cycle-level tracing, stats registry, run telemetry.

Three layers, all opt-in and all zero-cost when unused:

* :mod:`repro.obs.trace` — the cycle-level event schema (kinds,
  payload fields, validators), the shared :func:`resource_label`, and
  the Chrome ``trace_event`` export.
* :mod:`repro.obs.tracebin` — :class:`BinaryTracer`, the capture
  buffer a switch built with ``tracer=`` records its arbitration and
  datapath events into (int32/int64 columns, stride-doubling
  decimation, ``repro.trace_bin/v1`` files), its picklable
  :class:`BinaryTracerFactory`, and :class:`FleetTracer`, the
  multi-lane buffer the batched fleet kernel emits into natively.
  :class:`TraceColumns` is the one form a trace is read, filtered,
  summarised and exported in (:func:`read_trace` reads a JSONL or
  binary file), and JSONL and Chrome timelines are export views of it.
* :mod:`repro.obs.stats` — a gem5-style :class:`StatsRegistry` of
  hierarchically named scalar/vector/distribution/formula statistics
  that simulation results, probes, and the many-core trackers export
  onto (``.to_stats(registry)``).
* :mod:`repro.obs.telemetry` — :class:`SweepTelemetry` heartbeats for
  ``run_sweep``/``replicate`` workers (progress, wall-clock, cycles/s,
  fleet lane occupancy, executor failure counts).
* :mod:`repro.obs.perf` — :class:`PerfCounters` phase-level
  self-profiling for all three kernels (``perf=`` hook, sampled
  monotonic timing), plus the append-only ``repro.perf/v1`` cross-run
  ledger and :func:`compare_perf` direction-aware regression checks.
* :mod:`repro.obs.snapshot` — point-in-time occupancy/ownership
  snapshots (embedded in drain-stall errors).
* :mod:`repro.obs.analyze` — single-pass, bounded-memory
  :class:`TraceAnalyzer` reducing trace columns into audited
  :class:`AuditReport` fairness/starvation/utilization reports, plus
  baseline diffing (:func:`compare_audits`).
"""

from repro.obs.analyze import (
    AUDIT_SCHEMA,
    Anomaly,
    AuditRegression,
    AuditReport,
    Epoch,
    TraceAnalyzer,
    analyze_columns,
    analyze_jsonl,
    analyze_records,
    analyze_tracebin,
    analyze_tracer,
    compare_audits,
    iter_jsonl,
    validate_audit_summary,
)
from repro.obs.perf import (
    LEDGER_FORMAT,
    PerfCounters,
    PerfCountersFactory,
    PerfRegression,
    append_ledger_entry,
    compare_perf,
    config_fingerprint,
    filter_entries,
    host_info,
    make_ledger_entry,
    read_ledger,
    run_micro_benchmark,
)
from repro.obs.snapshot import render_snapshot, telemetry_snapshot
from repro.obs.stats import (
    PROMETHEUS_CONTENT_TYPE,
    DistributionStat,
    FormulaStat,
    ScalarStat,
    Stat,
    StatsRegistry,
    VectorStat,
    escape_label_value,
    render_prometheus,
    sanitize_metric_name,
    validate_prometheus,
)
from repro.obs.telemetry import TELEMETRY_FORMAT, Heartbeat, SweepTelemetry
from repro.obs.trace import (
    EVENT_FIELDS,
    EVENT_NAMES,
    iter_chrome_events,
    resource_label,
    validate_chrome,
    validate_chrome_path,
    validate_jsonl_path,
    validate_records,
    write_chrome_stream,
)
from repro.obs.tracebin import (
    BinaryTracer,
    BinaryTracerFactory,
    BinaryTraceWriter,
    FleetTracer,
    TraceColumns,
    read_trace,
    read_tracebin,
    sniff_tracebin,
)

__all__ = [
    "AUDIT_SCHEMA",
    "Anomaly",
    "AuditRegression",
    "AuditReport",
    "DistributionStat",
    "Epoch",
    "TraceAnalyzer",
    "analyze_columns",
    "analyze_jsonl",
    "analyze_records",
    "analyze_tracebin",
    "analyze_tracer",
    "compare_audits",
    "iter_jsonl",
    "resource_label",
    "validate_audit_summary",
    "BinaryTraceWriter",
    "BinaryTracer",
    "BinaryTracerFactory",
    "EVENT_FIELDS",
    "EVENT_NAMES",
    "FleetTracer",
    "FormulaStat",
    "Heartbeat",
    "LEDGER_FORMAT",
    "PROMETHEUS_CONTENT_TYPE",
    "PerfCounters",
    "PerfCountersFactory",
    "PerfRegression",
    "ScalarStat",
    "Stat",
    "StatsRegistry",
    "SweepTelemetry",
    "TELEMETRY_FORMAT",
    "TraceColumns",
    "VectorStat",
    "append_ledger_entry",
    "compare_perf",
    "config_fingerprint",
    "escape_label_value",
    "filter_entries",
    "host_info",
    "iter_chrome_events",
    "make_ledger_entry",
    "read_ledger",
    "read_trace",
    "read_tracebin",
    "render_prometheus",
    "render_snapshot",
    "run_micro_benchmark",
    "sanitize_metric_name",
    "sniff_tracebin",
    "telemetry_snapshot",
    "validate_chrome",
    "validate_chrome_path",
    "validate_jsonl_path",
    "validate_prometheus",
    "validate_records",
    "write_chrome_stream",
]
