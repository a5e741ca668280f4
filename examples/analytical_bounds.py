#!/usr/bin/env python3
"""Analytical capacity bounds versus the cycle simulator.

The fixed routing of binned channel allocation makes throughput bounds
exact closed forms: a demand matrix is deliverable iff no input, output,
or layer-to-layer channel is loaded past 1/(flits+1) packets per cycle.
This example computes the bound for the paper's key traffic patterns,
simulates each, and reports how close the switch gets — showing where the
bound binds (single-resource contention: tight) and where two-phase
matching costs extra (uniform random: ~75-90% of bound).

Run:  python examples/analytical_bounds.py
"""

from repro.analysis import bottleneck, throughput_bound
from repro.core import HiRiseConfig
from repro.harness import saturation_throughput
from repro.traffic import TrafficSpec
from repro.traffic.adversarial import interlayer_worstcase, paper_adversarial_demands


def uniform_demands(config, rate=1.0):
    n = config.radix
    return {
        (s, d): rate / (n - 1) for s in range(n) for d in range(n) if s != d
    }


def report(name, config, demands, traffic, seed):
    bound = throughput_bound(config, demands)
    worst = bottleneck(config, demands)
    measured = saturation_throughput(
        config, traffic, seed=seed, warmup_cycles=400, measure_cycles=2000,
    )
    print(f"{name:<28} bound {bound:6.2f}  measured {measured:6.2f} "
          f"({measured / bound:5.1%})  bottleneck: {worst.resource}")


def main() -> None:
    print("Analytical bound vs simulation (packets/cycle, 4-flit packets)\n")

    for channels in (1, 4):
        config = HiRiseConfig(channel_multiplicity=channels)
        report(
            f"uniform random, c={channels}",
            config,
            uniform_demands(config),
            TrafficSpec(),
            seed=7,
        )

    config = HiRiseConfig()
    report(
        "hotspot (all -> o/p 63)",
        config,
        {(src, 63): 1.0 for src in range(64)},
        TrafficSpec("hotspot"),
        seed=5,
    )

    flows = paper_adversarial_demands()
    report(
        "Sec III-B adversarial",
        config,
        {pair: 1.0 for pair in flows.items()},
        TrafficSpec("adversarial", demands=flows),
        seed=5,
    )

    worstcase = interlayer_worstcase(config)
    report(
        "Sec VI-B pathological",
        config,
        {pair: 1.0 for pair in worstcase.items()},
        TrafficSpec("adversarial", demands=worstcase),
        seed=5,
    )

    print("\nSingle-resource contention saturates the bound; distributed")
    print("patterns leave a matching-efficiency gap — the same structure")
    print("the paper's Table IV / Section VI-B numbers exhibit.")


if __name__ == "__main__":
    main()
