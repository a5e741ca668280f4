"""Experiment harness: regenerates every table and figure of the paper.

``tables`` produces Tables I, IV, V and VI; ``figures`` produces the data
series of Figs 9(a)-(c), 10, 11(a)-(c) and 12; ``report`` renders either
as aligned text with paper-vs-measured columns.  All entry points accept
quality parameters (simulated cycles, warm-up) so the benchmark suite can
run them at reduced cost while scripts reproduce the full-quality runs.
"""

from repro.harness.tables import (
    CostRow,
    SpeedupRow,
    table1,
    table4,
    table5,
    table6,
)
from repro.harness.figures import (
    fig9a_frequency_vs_radix,
    fig9b_frequency_vs_layers,
    fig9c_energy_vs_radix,
    fig10_latency_vs_load,
    fig11a_hotspot_latency,
    fig11b_arbitration_throughput,
    fig11c_adversarial_throughput,
    fig12_tsv_pitch,
)
from repro.harness.report import (
    render_audit_markdown,
    render_degradation_markdown,
    render_series,
    render_table,
)
from repro.harness.export import export_rows_csv, export_series_csv
from repro.harness.measure import METRICS, SimulationMeasurement
from repro.harness.parallel import ResiliencePolicy, TaskFailure, replicate
from repro.harness.schedulers import (
    SCHEDULER_SPECS,
    SCHEDULERS_SCHEMA,
    compare_schedulers,
    render_markdown as render_scheduler_markdown,
    validate_comparison,
)
from repro.harness.sweep import (
    SweepPoint,
    parameter_grid,
    render_sweep,
    run_sweep,
    to_series,
)

__all__ = [
    "CostRow",
    "SpeedupRow",
    "table1",
    "table4",
    "table5",
    "table6",
    "fig9a_frequency_vs_radix",
    "fig9b_frequency_vs_layers",
    "fig9c_energy_vs_radix",
    "fig10_latency_vs_load",
    "fig11a_hotspot_latency",
    "fig11b_arbitration_throughput",
    "fig11c_adversarial_throughput",
    "fig12_tsv_pitch",
    "render_audit_markdown",
    "render_degradation_markdown",
    "render_series",
    "render_table",
    "export_rows_csv",
    "export_series_csv",
    "METRICS",
    "ResiliencePolicy",
    "SimulationMeasurement",
    "TaskFailure",
    "replicate",
    "SCHEDULERS_SCHEMA",
    "SCHEDULER_SPECS",
    "compare_schedulers",
    "render_scheduler_markdown",
    "validate_comparison",
    "SweepPoint",
    "parameter_grid",
    "render_sweep",
    "run_sweep",
    "to_series",
]
