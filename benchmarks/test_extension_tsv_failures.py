"""Extension: graceful degradation under TSV bundle failures.

3D integration's dominant manufacturing risk is TSV yield; a failed bundle
takes a whole layer-to-layer channel with it.  This extension disables
channels (the rerouting logic rebinds affected flows to the next healthy
channel toward the same layer) and measures the saturation-throughput
degradation curve under uniform random traffic, for both the binned and
priority allocation policies.
"""

import pytest

from conftest import emit, run_once
from repro.core import HiRiseConfig
from repro.harness.measure import saturation_throughput

# Progressive failure sets: kill channel 0 of more and more layer pairs.
FAILURE_STAGES = {
    0: (),
    1: ((0, 1, 0),),
    3: ((0, 1, 0), (0, 2, 0), (0, 3, 0)),
    6: ((0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)),
    12: tuple(
        (src, dst, 0)
        for src in range(4)
        for dst in range(4)
        if src != dst
    ),
}


def measure(allocation, failed):
    config = HiRiseConfig(allocation=allocation, failed_channels=failed)
    return saturation_throughput(
        config, seed=7, warmup_cycles=300, measure_cycles=1500,
    )


def test_tsv_failure_degradation(benchmark):
    def experiment():
        return {
            allocation: {
                count: measure(allocation, failed)
                for count, failed in FAILURE_STAGES.items()
            }
            for allocation in ("input_binned", "priority")
        }

    results = run_once(benchmark, experiment)
    lines = ["TSV failure degradation (saturation packets/cycle, UR)"]
    for allocation, curve in results.items():
        lines.append(
            f"  {allocation:<13} "
            + "  ".join(f"{k}fail:{v:.2f}" for k, v in curve.items())
        )
    emit("\n".join(lines))

    for allocation, curve in results.items():
        healthy = curve[0]
        # Monotone-ish degradation, but graceful: losing 12 of the 48
        # channels (25%) costs well under 25% of throughput because the
        # survivors absorb rerouted flows.
        assert curve[1] <= healthy * 1.02, allocation
        assert curve[12] < healthy, allocation
        assert curve[12] > 0.72 * healthy, allocation

    # Priority allocation degrades no worse than static binning: it
    # spreads rerouted load over all healthy channels by construction.
    binned_loss = 1 - results["input_binned"][12] / results["input_binned"][0]
    priority_loss = 1 - results["priority"][12] / results["priority"][0]
    assert priority_loss <= binned_loss + 0.05
