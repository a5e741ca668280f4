#!/usr/bin/env python3
"""QoS extension: bandwidth differentiation between tenant classes.

Extends CLRG with per-input service weights (the Swizzle-Switch lineage's
QoS direction, DAC 2012): each win charges an input 1/weight, so the
sustainable share of any contested output is proportional to its weight.
The scenario: a 64-port Hi-Rise switch shared by a *foreground* tenant
(16 inputs, weight 3) and a *background* tenant (48 inputs, weight 1),
every input flooding the same storage port.

Run:  python examples/qos_tenants.py
"""

from repro.core import HiRiseConfig
from repro.harness import SimulationMeasurement
from repro.traffic import TrafficSpec

STORAGE_PORT = 63                     # hotspot traffic's output: radix - 1
FOREGROUND = list(range(0, 16))       # layer 1: the latency-critical tenant


def run(weights):
    config = HiRiseConfig(
        arbitration="clrg",
        qos_weights=weights,
        num_classes=8 if weights else 3,
    )
    result = SimulationMeasurement(
        config, traffic=TrafficSpec("hotspot"),
        load=0.02,  # well above the hotspot's fair share
        warmup_cycles=1500, measure_cycles=15000,
    ).run(seed=3)
    shares = result.per_input_throughput(64)
    fg = sum(shares[i] for i in FOREGROUND)
    bg = sum(shares[i] for i in range(64) if i not in FOREGROUND)
    return fg, bg


def main() -> None:
    print("All 64 inputs flooding one storage port (output 63).\n")

    fg, bg = run(weights=None)
    print("Plain CLRG (fair):")
    print(f"  foreground tenant (16 inputs): {fg:.4f} packets/cycle "
          f"({fg / (fg + bg):.0%} of the port)")
    print(f"  background tenant (48 inputs): {bg:.4f} packets/cycle\n")

    weights = tuple(3.0 if i in FOREGROUND else 1.0 for i in range(64))
    fg, bg = run(weights=weights)
    print("QoS CLRG (foreground weight 3, background weight 1):")
    print(f"  foreground tenant (16 inputs): {fg:.4f} packets/cycle "
          f"({fg / (fg + bg):.0%} of the port)")
    print(f"  background tenant (48 inputs): {bg:.4f} packets/cycle")
    print("\nWith 16x3 : 48x1 weighting the foreground's fair share is "
          f"{16 * 3 / (16 * 3 + 48):.0%} — the switch enforces it.")


if __name__ == "__main__":
    main()
