#!/usr/bin/env python3
"""Design-space exploration: radix, layers and channel multiplicity.

Replays the Section VI-A methodology: sweep the physical design space
with the calibrated cost model, measure saturation throughput with the
cycle simulator for the radix-64 candidates, and pick the configuration
the paper picks — the 4-channel, 4-layer switch.

Run:  python examples/design_space_exploration.py
"""

from repro.core import HiRiseConfig
from repro.harness import saturation_throughput
from repro.physical import cost_of, frequency_ghz
from repro.physical.geometry import flat2d_geometry, hirise_sweep_geometry


def sweep_layers() -> None:
    print("Frequency vs stacked layers (radix 64, 4 channels):")
    best = None
    for layers in range(2, 8):
        freq = frequency_ghz(hirise_sweep_geometry(64, layers, 4))
        marker = ""
        if best is None or freq > best[1]:
            best = (layers, freq)
        print(f"  {layers} layers : {freq:.2f} GHz")
    print(f"  -> optimum at {best[0]} layers (paper: 4, optimum range 3-5)\n")


def sweep_radix() -> None:
    print("Frequency vs radix (4 layers, 4 channels) against 2D:")
    for radix in (16, 32, 48, 64, 96, 128):
        flat = frequency_ghz(flat2d_geometry(radix))
        hirise = frequency_ghz(hirise_sweep_geometry(radix, 4, 4))
        winner = "3D" if hirise > flat else "2D"
        print(f"  radix {radix:3d} : 2D {flat:.2f} GHz | 3D {hirise:.2f} GHz"
              f"  -> {winner}")
    print("  (2D wins below ~radix 32-48; the gap widens beyond)\n")


def sweep_channels() -> None:
    print("Channel multiplicity at radix 64, 4 layers "
          "(cost model + cycle simulation):")
    rows = []
    for channels in (1, 2, 4):
        config = HiRiseConfig(channel_multiplicity=channels,
                              arbitration="l2l_lrg")
        cost = cost_of(config)
        flits = saturation_throughput(
            config, seed=3, warmup_cycles=300, measure_cycles=1500,
        ) * 4
        tbps = cost.throughput_tbps(flits)
        rows.append((channels, cost, tbps))
        print(f"  c={channels}: {cost.area_mm2:.3f} mm^2, "
              f"{cost.frequency_ghz:.2f} GHz, {cost.energy_pj:.0f} pJ, "
              f"{tbps:5.2f} Tbps, {cost.tsv_count} TSVs")
    flat_cost = cost_of("2d")
    print(f"  2D : {flat_cost.area_mm2:.3f} mm^2, "
          f"{flat_cost.frequency_ghz:.2f} GHz, {flat_cost.energy_pj:.0f} pJ")
    best = max(rows, key=lambda row: row[2])
    print(f"  -> highest-throughput configuration: {best[0]}-channel "
          f"(the paper's choice)")


def main() -> None:
    sweep_layers()
    sweep_radix()
    sweep_channels()


if __name__ == "__main__":
    main()
