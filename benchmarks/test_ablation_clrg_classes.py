"""Ablation: how many CLRG priority classes are enough?

Section III-B.4: "The number of classes (counter length) required is a
heuristic that needs to be tuned"; Section IV-B: "We find empirically that
three classes provide reasonable fairness for a 64-radix Hi-Rise switch."

This ablation sweeps the class count on the adversarial pattern (where
fairness is measured as each requestor's share of the contested output)
and confirms the paper's choice: two classes already fix most of the
baseline's unfairness, three are essentially as fair as the age-based
ideal, and more classes add nothing.
"""

import pytest

from conftest import emit, run_once
from repro.core import HiRiseConfig
from repro.harness.measure import SimulationMeasurement
from repro.metrics import jain_index
from repro.traffic import TrafficSpec
from repro.traffic.adversarial import paper_adversarial_demands

DEMANDS = paper_adversarial_demands()


def fairness_of(config):
    result = SimulationMeasurement(
        config, traffic=TrafficSpec("adversarial", demands=DEMANDS),
        load=0.5, warmup_cycles=1200, measure_cycles=10000,
    ).run(seed=5)
    per_input = result.per_input_throughput(64)
    shares = [per_input[src] for src in sorted(DEMANDS)]
    return jain_index(shares), sum(shares)


def test_clrg_class_count_ablation(benchmark):
    def experiment():
        results = {}
        results["l2l_lrg (baseline)"] = fairness_of(
            HiRiseConfig(arbitration="l2l_lrg")
        )
        for classes in (2, 3, 4, 8):
            results[f"clrg {classes} classes"] = fairness_of(
                HiRiseConfig(arbitration="clrg", num_classes=classes)
            )
        results["age (ideal)"] = fairness_of(HiRiseConfig(arbitration="age"))
        return results

    results = run_once(benchmark, experiment)
    lines = ["CLRG class-count ablation (adversarial pattern)"]
    for name, (jain, total) in results.items():
        lines.append(f"  {name:<20} Jain {jain:.4f}  total {total:.4f} pkts/cyc")
    emit("\n".join(lines))

    baseline_jain = results["l2l_lrg (baseline)"][0]
    ideal_jain = results["age (ideal)"][0]

    # The baseline is visibly unfair; the age-based ideal is near perfect.
    assert baseline_jain < 0.85
    assert ideal_jain > 0.98

    # Three classes (the paper's choice) reach near-ideal fairness...
    assert results["clrg 3 classes"][0] > 0.98

    # ...and adding more classes does not buy measurable fairness.
    assert results["clrg 8 classes"][0] == pytest.approx(
        results["clrg 3 classes"][0], abs=0.02
    )

    # Even two classes repair most of the baseline's bias.
    assert results["clrg 2 classes"][0] > baseline_jain + 0.1

    # Fairness does not cost aggregate throughput (the output is the
    # bottleneck either way).
    totals = [total for _, total in results.values()]
    assert max(totals) - min(totals) < 0.15 * max(totals)
