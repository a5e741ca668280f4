#!/usr/bin/env python3
"""Quickstart: build a Hi-Rise switch, drive traffic, read the cost model.

Builds the paper's headline configuration — a 64-radix, 4-layer,
4-channel Hi-Rise switch with CLRG arbitration — runs uniform random
traffic through the cycle-accurate model, and reports latency, saturation
throughput and the calibrated 32 nm implementation cost.

Run:  python examples/quickstart.py
"""

from repro import HiRiseConfig, HiRiseSwitch, Simulation
from repro.harness import saturation_throughput
from repro.metrics import summarize
from repro.physical import cost_of
from repro.traffic import UniformRandomTraffic


def main() -> None:
    config = HiRiseConfig()  # 64-radix, 4 layers, 4 channels, CLRG
    print(f"Hi-Rise configuration: {config.configuration_string()}")
    print(f"  local switch  : {config.local_switch_shape[0]}x"
          f"{config.local_switch_shape[1]} per layer")
    print(f"  inter-layer   : {config.subblocks_per_layer} sub-blocks of "
          f"{config.subblock_inputs}x1 per layer")

    # --- implementation cost (calibrated 32 nm model) ------------------
    cost = cost_of(config)
    print("\nImplementation cost (32 nm, 128-bit):")
    print(f"  area      : {cost.area_mm2:.3f} mm^2")
    print(f"  frequency : {cost.frequency_ghz:.2f} GHz")
    print(f"  energy    : {cost.energy_pj:.1f} pJ/transaction")
    print(f"  TSVs      : {cost.tsv_count}")

    # --- cycle-accurate simulation at a moderate load -------------------
    switch = HiRiseSwitch(config)
    traffic = UniformRandomTraffic(config.radix, load=0.08, seed=1)
    simulation = Simulation(switch, traffic, warmup_cycles=500)
    result = simulation.run(measure_cycles=4000)
    stats = summarize(result)
    print("\nUniform random traffic at 0.08 packets/input/cycle:")
    print(f"  delivered : {result.packets_ejected} packets")
    print(f"  latency   : mean {stats.mean:.1f} cycles "
          f"({stats.mean / cost.frequency_ghz:.2f} ns), p99 {stats.p99:.0f}")

    # --- saturation throughput ------------------------------------------
    flits = saturation_throughput(
        config, seed=2, warmup_cycles=500, measure_cycles=2500,
    ) * 4
    tbps = cost.throughput_tbps(flits)
    print("\nSaturation throughput (uniform random):")
    print(f"  {flits:.1f} flits/cycle = {tbps:.2f} Tbps "
          f"(paper: 10.65 Tbps)")


if __name__ == "__main__":
    main()
