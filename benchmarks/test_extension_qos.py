"""Extension: QoS bandwidth differentiation via weighted class counters.

The Swizzle-Switch family supports quality-of-service arbitration (DAC'12,
reference [15]); this extension folds QoS into CLRG by charging each win
``1/weight`` instead of 1, keeping the cross-point structure unchanged.
The benchmark gives four contending inputs weights 4:2:1:1 on a contested
output and checks that delivered bandwidth follows the weights while
aggregate throughput is unaffected.
"""

import pytest

from conftest import emit, run_once
from repro.core import HiRiseConfig
from repro.harness.measure import SimulationMeasurement
from repro.traffic import TrafficSpec

# Contenders on three different layers plus one local, all -> output 60.
CONTENDERS = {0: 60, 16: 60, 32: 60, 48: 60}
WEIGHTS = {0: 4.0, 16: 2.0, 32: 1.0, 48: 1.0}


def run_system(qos: bool):
    weights = [1.0] * 64
    if qos:
        for src, weight in WEIGHTS.items():
            weights[src] = weight
    config = HiRiseConfig(
        arbitration="clrg",
        qos_weights=tuple(weights) if qos else None,
        num_classes=8 if qos else 3,
    )
    result = SimulationMeasurement(
        config, traffic=TrafficSpec("adversarial", demands=CONTENDERS),
        load=0.9, warmup_cycles=1000, measure_cycles=10000,
    ).run(seed=4)
    per_input = result.per_input_throughput(64)
    return {src: per_input[src] for src in sorted(CONTENDERS)}


def test_qos_weighted_shares(benchmark):
    results = run_once(
        benchmark, lambda: {"plain": run_system(False), "qos": run_system(True)}
    )
    lines = ["QoS extension: per-input share of the contested output"]
    for mode, shares in results.items():
        lines.append(
            f"  {mode:<6} "
            + "  ".join(f"i{s}:{v:.4f}" for s, v in shares.items())
        )
    emit("\n".join(lines))

    plain = results["plain"]
    qos = results["qos"]

    # Plain CLRG: equal shares.
    mean = sum(plain.values()) / 4
    for share in plain.values():
        assert share == pytest.approx(mean, rel=0.1)

    # QoS: shares proportional to 4:2:1:1.
    assert qos[0] / qos[32] == pytest.approx(4.0, rel=0.15)
    assert qos[16] / qos[32] == pytest.approx(2.0, rel=0.15)
    assert qos[32] == pytest.approx(qos[48], rel=0.1)

    # Differentiation does not cost aggregate bandwidth.
    assert sum(qos.values()) == pytest.approx(sum(plain.values()), rel=0.1)
