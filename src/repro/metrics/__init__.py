"""Statistics: latency distributions, fairness indices, confidence intervals.

The saturation-throughput point lives with the measurement path, as
:func:`repro.harness.measure.saturation_throughput`.
"""

from repro.metrics.stats import LatencyStats, summarize
from repro.metrics.fairness import fairness_summary, jain_index, max_min_ratio
from repro.metrics.probe import ProbedSwitch
from repro.metrics.confidence import (
    ConfidenceInterval,
    batch_means,
    replicate,
    t_interval,
)

__all__ = [
    "ProbedSwitch",
    "ConfidenceInterval",
    "batch_means",
    "replicate",
    "t_interval",
    "LatencyStats",
    "summarize",
    "fairness_summary",
    "jain_index",
    "max_min_ratio",
]
