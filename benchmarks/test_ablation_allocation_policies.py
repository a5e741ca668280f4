"""Ablation: L2LC channel allocation policies (Section III-A).

The paper describes three rules for mapping inputs onto the ``c`` channels
toward a destination layer — input binned (implemented in its cross-point
design), output binned, and priority based — and argues that fixed binning
"may lead to under utilization of the critical vertical L2LCs under
certain adversarial traffic" while the priority mux "incurs higher delay
because arbitration across L2LCs is now serialized".

This ablation measures both halves of that trade-off:

* on the binning-adversarial pattern (channel sharers targeting distinct
  remote outputs) the priority policy recovers the throughput that fixed
  binning serialises away (higher vertical-channel utilization, measured
  with the probe);
* the physical model charges the priority mux a clock penalty, so under
  uniform random traffic — where binning is not a bottleneck — the binned
  policies win in delivered Tbps.
"""

import pytest

from conftest import emit, run_once
from repro.core import HiRiseConfig, HiRiseSwitch
from repro.harness.measure import SimulationMeasurement
from repro.metrics import ProbedSwitch
from repro.network.engine import Simulation
from repro.physical import cost_of
from repro.traffic import AdversarialTraffic
from repro.traffic.adversarial import binning_adversarial

POLICIES = ("input_binned", "output_binned", "priority")


def config_for(policy):
    return HiRiseConfig(allocation=policy, arbitration="clrg")


def adversarial_point(policy):
    config = config_for(policy)
    demands = binning_adversarial(
        HiRiseConfig(allocation="input_binned", arbitration="clrg")
    )
    probe = ProbedSwitch(HiRiseSwitch(config))
    result = Simulation(
        probe, AdversarialTraffic(64, 0.9, demands, seed=3),
        warmup_cycles=500,
    ).run(3000)
    return (
        result.throughput_packets_per_cycle,
        probe.mean_channel_utilization(),
    )


def uniform_tbps(policy):
    config = config_for(policy)
    result = SimulationMeasurement(
        config, load=0.99, warmup_cycles=400, measure_cycles=2000,
    ).run(seed=7)
    flits = result.throughput_flits_per_cycle
    return cost_of(config).throughput_tbps(flits)


def test_allocation_policy_ablation(benchmark):
    def experiment():
        return {
            policy: {
                "adversarial": adversarial_point(policy),
                "uniform_tbps": uniform_tbps(policy),
            }
            for policy in POLICIES
        }

    results = run_once(benchmark, experiment)
    lines = ["Channel-allocation policy ablation"]
    for policy, data in results.items():
        packets, utilization = data["adversarial"]
        lines.append(
            f"  {policy:<14} adversarial {packets:5.2f} pkts/cyc "
            f"(L2LC util {utilization:.2f})  UR {data['uniform_tbps']:.2f} Tbps"
        )
    emit("\n".join(lines))

    adv = {p: results[p]["adversarial"][0] for p in POLICIES}
    util = {p: results[p]["adversarial"][1] for p in POLICIES}
    tbps = {p: results[p]["uniform_tbps"] for p in POLICIES}

    # On binning-adversarial traffic the priority mux recovers throughput
    # and drives the vertical channels harder than input binning.
    assert adv["priority"] > 1.5 * adv["input_binned"]
    assert util["priority"] > util["input_binned"]

    # Under uniform random traffic the fixed-binned policies deliver more
    # Tbps: the serialized priority mux costs clock rate.
    assert tbps["input_binned"] > tbps["priority"]
    assert cost_of(config_for("priority")).frequency_ghz < cost_of(
        config_for("input_binned")
    ).frequency_ghz

    # Input and output binning are interchangeable on symmetric traffic.
    assert tbps["output_binned"] == pytest.approx(
        tbps["input_binned"], rel=0.08
    )
