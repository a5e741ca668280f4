"""Section VI-B corner case: inter-layer-only pathological traffic.

"The worst case scenario is, all the four inputs using the same L2LC,
request for different outputs on another layer.  In this corner case, the
throughput of the 3D switch can get limited up to 1/4th of the flat 2D
switch" — and no arbitration scheme helps, because the bottleneck is the
dedicated channel's bandwidth, not fairness.
"""

import pytest

from conftest import emit, run_once
from repro.core import HiRiseConfig
from repro.harness.measure import saturation_throughput
from repro.traffic import TrafficSpec, interlayer_worstcase


def measure(config, demands):
    return saturation_throughput(
        config,
        TrafficSpec("adversarial", demands=demands),
        overdrive_load=0.99,
        seed=3,
        warmup_cycles=400,
        measure_cycles=2000,
    )


def test_pathological_interlayer_corner(benchmark):
    def experiment():
        results = {}
        config = HiRiseConfig(arbitration="clrg")
        demands = interlayer_worstcase(config)
        results["2D"] = measure(
            HiRiseConfig(radix=64, layers=1, channel_multiplicity=1), demands
        )
        for arbitration in ("l2l_lrg", "clrg"):
            results[arbitration] = measure(
                HiRiseConfig(arbitration=arbitration), demands
            )
        return results

    results = run_once(benchmark, experiment)
    emit(
        "Pathological inter-layer-only traffic (packets/cycle):\n  "
        + "  ".join(f"{k}: {v:.3f}" for k, v in results.items())
    )

    # The 3D switch collapses toward the channel bound: 4 channels per
    # layer-pair serve 16 inputs' distinct-output demand -> about 1/4 of
    # the 2D switch's delivered rate.
    for scheme in ("l2l_lrg", "clrg"):
        ratio = results[scheme] / results["2D"]
        assert 0.15 < ratio < 0.45, (scheme, ratio)

    # Arbitration schemes cannot fix a bandwidth bottleneck: L-2-L LRG
    # and CLRG deliver the same throughput here.
    assert results["clrg"] == pytest.approx(results["l2l_lrg"], rel=0.10)
