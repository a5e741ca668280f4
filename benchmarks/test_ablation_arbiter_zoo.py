"""Ablation: the full arbitration-scheme zoo on the adversarial pattern.

Section VII positions CLRG against the related work: "a single iteration
of iSLIP is similar to the baseline L-2-L LRG we discussed before and does
not solve the fairness issues", while age-based (OCF-style) arbitration is
fair but "requires a prohibitively expensive comparison".  This ablation
runs every implemented inter-layer scheme on the Section III-B adversarial
pattern and checks that ordering: RR composes as unfairly as L-2-L LRG;
WLRG, CLRG and AGE all reach the flat-LRG fair share.
"""

import pytest

from conftest import emit, run_once
from repro.core import HiRiseConfig
from repro.harness.measure import SimulationMeasurement
from repro.metrics import jain_index
from repro.traffic import TrafficSpec
from repro.traffic.adversarial import paper_adversarial_demands

SCHEMES = ("l2l_lrg", "l2l_rr", "wlrg", "clrg", "age")
DEMANDS = paper_adversarial_demands()


def shares_for(scheme):
    config = HiRiseConfig(arbitration=scheme)
    result = SimulationMeasurement(
        config, traffic=TrafficSpec("adversarial", demands=DEMANDS),
        load=0.5, warmup_cycles=1200, measure_cycles=10000,
    ).run(seed=5)
    per_input = result.per_input_throughput(64)
    return {src: per_input[src] for src in sorted(DEMANDS)}


def test_arbiter_zoo_fairness(benchmark):
    results = run_once(
        benchmark, lambda: {scheme: shares_for(scheme) for scheme in SCHEMES}
    )
    lines = ["Arbitration-scheme zoo (adversarial pattern, pkts/cycle)"]
    for scheme, shares in results.items():
        jain = jain_index(list(shares.values()))
        lines.append(
            f"  {scheme:<8} Jain {jain:.4f}  "
            + "  ".join(f"i{s}:{v:.4f}" for s, v in shares.items())
        )
    emit("\n".join(lines))

    jains = {
        scheme: jain_index(list(shares.values()))
        for scheme, shares in results.items()
    }

    # Rotating-pointer (iSLIP-like) composition inherits the baseline's
    # unfairness: the lone layer-2 input still gets ~4x each sharer.
    for scheme in ("l2l_lrg", "l2l_rr"):
        shares = results[scheme]
        shared_mean = sum(shares[s] for s in (3, 7, 11, 15)) / 4
        assert shares[20] > 3 * shared_mean, scheme
        assert jains[scheme] < 0.85, scheme

    # The fair schemes all reach near-perfect Jain fairness.
    for scheme in ("wlrg", "clrg", "age"):
        assert jains[scheme] > 0.98, scheme

    # CLRG matches the hardware-infeasible ideals within noise.
    assert jains["clrg"] == pytest.approx(jains["age"], abs=0.02)
    assert jains["clrg"] == pytest.approx(jains["wlrg"], abs=0.02)
