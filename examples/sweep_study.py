#!/usr/bin/env python3
"""A custom study with the sweep API: radix scaling of delivered Tbps.

Demonstrates `repro.harness.sweep`: define one measurement, cross a
parameter grid (radix x design), replicate over seeds for confidence
intervals, and render/export the result — the workflow for studies beyond
the paper's own tables and figures.

Run:  python examples/sweep_study.py
"""

from repro.core import HiRiseConfig
from repro.harness import (
    parameter_grid,
    render_sweep,
    run_sweep,
    saturation_throughput,
    to_series,
)
from repro.harness.export import export_series_csv
from repro.physical import cost_of


def delivered_tbps(seed, radix, design):
    """Saturation throughput in Tbps at the design's modelled clock."""
    if design == "2d":
        # The flat crossbar is the one-layer Hi-Rise switch.
        config = HiRiseConfig(radix=radix, layers=1, channel_multiplicity=1)
        cost = cost_of("2d", radix=radix)
    else:
        config = HiRiseConfig(radix=radix, layers=4, channel_multiplicity=4)
        cost = cost_of(config)
    flits = saturation_throughput(
        config, seed=seed, warmup_cycles=250, measure_cycles=1200,
    ) * 4
    return cost.throughput_tbps(flits)


def main() -> None:
    grid = parameter_grid(radix=[16, 32, 64], design=["2d", "hirise"])
    points = run_sweep(delivered_tbps, grid, replications=3)
    print(render_sweep(points, "Delivered Tbps vs radix (3 seeds, 95% CI)"))

    series = to_series(points, x="radix", series_by="design")
    path = export_series_csv(series, "sweep_tbps_vs_radix.csv",
                             ["radix", "tbps"])
    print(f"\nwrote {path}")

    by_key = {
        (p.parameters["radix"], p.parameters["design"]): p.value
        for p in points
    }
    print("\nCrossover story: at radix 16 the 2D switch delivers "
          f"{by_key[(16, '2d')]:.1f} vs Hi-Rise {by_key[(16, 'hirise')]:.1f} "
          "Tbps; by radix 64 Hi-Rise leads "
          f"{by_key[(64, 'hirise')]:.1f} to {by_key[(64, '2d')]:.1f}.")


if __name__ == "__main__":
    main()
