"""Tests of the analytical capacity bounds, validated against simulation."""

import pytest

from repro.analysis import bottleneck, resource_loads, throughput_bound
from repro.analysis.capacity import service_capacity
from repro.core import HiRiseConfig
from repro.harness.measure import saturation_throughput
from repro.traffic import TrafficSpec
from repro.traffic.adversarial import interlayer_worstcase


def uniform_demands(config, rate):
    """Uniform random traffic's expected demand matrix."""
    n = config.radix
    per_pair = rate / (n - 1)
    return {
        (src, dst): per_pair
        for src in range(n)
        for dst in range(n)
        if src != dst
    }


class TestServiceCapacity:
    def test_paper_packet_length(self):
        assert service_capacity(4) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            service_capacity(0)


class TestResourceLoads:
    def test_single_flow_loads_three_resources(self):
        config = HiRiseConfig(channel_multiplicity=1)
        loads = resource_loads(config, {(0, 63): 0.1})
        resources = {entry.resource for entry in loads}
        assert ("input", 0) in resources
        assert ("output", 63) in resources
        assert ("ch", 0, 3, 0) in resources

    def test_same_layer_flow_has_no_channel(self):
        config = HiRiseConfig()
        loads = resource_loads(config, {(0, 9): 0.1})
        assert not any(e.resource[0] == "ch" for e in loads)

    def test_priority_policy_pools_channels(self):
        config = HiRiseConfig(allocation="priority")
        loads = resource_loads(config, {(0, 63): 0.1})
        pooled = [e for e in loads if e.resource[0] == "pair"]
        assert len(pooled) == 1
        assert pooled[0].capacity == pytest.approx(4 * 0.2)

    def test_validation(self):
        config = HiRiseConfig()
        with pytest.raises(ValueError):
            resource_loads(config, {(0, 64): 0.1})
        with pytest.raises(ValueError):
            resource_loads(config, {(0, 1): -0.1})
        with pytest.raises(ValueError):
            bottleneck(config, {})


class TestBoundsExplainThePaper:
    def test_hotspot_bound_is_output_capacity(self):
        """All inputs on one output: the bound is 0.2 packets/cycle."""
        config = HiRiseConfig()
        demands = {(src, 63): 1.0 for src in range(64)}
        assert throughput_bound(config, demands) == pytest.approx(0.2)
        assert bottleneck(config, demands).resource == ("output", 63)

    def test_one_channel_uniform_bottleneck_is_the_channel(self):
        """c=1: each L2LC carries 16 inputs' remote traffic — the paper's
        explanation of the 1-channel configuration's early saturation."""
        config = HiRiseConfig(channel_multiplicity=1)
        demands = uniform_demands(config, rate=1.0)
        worst = bottleneck(config, demands)
        assert worst.resource[0] == "ch"

    def test_four_channels_balance_channel_and_output_capacity(self):
        """c=4 is the balanced design point: the channel bound sits within
        2% of the output bound under uniform traffic — which is why the
        paper stops at 4 channels (more would buy nothing)."""
        config = HiRiseConfig(channel_multiplicity=4)
        demands = uniform_demands(config, rate=1.0)
        channel_util = max(
            e.utilisation for e in resource_loads(config, demands)
            if e.resource[0] == "ch"
        )
        output_util = max(
            e.utilisation for e in resource_loads(config, demands)
            if e.resource[0] == "output"
        )
        assert channel_util == pytest.approx(output_util, rel=0.02)

    def test_bound_grows_with_channel_multiplicity_until_balanced(self):
        config1 = HiRiseConfig(channel_multiplicity=1)
        config2 = HiRiseConfig(channel_multiplicity=2)
        config4 = HiRiseConfig(channel_multiplicity=4)
        bounds = [
            throughput_bound(config, uniform_demands(config, 1.0))
            for config in (config1, config2, config4)
        ]
        assert bounds[0] < bounds[1] < bounds[2]
        # c=4's bound approaches the output-capacity ceiling (12.8).
        assert bounds[2] == pytest.approx(64 * 0.2, rel=0.03)

    def test_pathological_bound_matches_section6b(self):
        """Inter-layer-only worst case: c packets/(flits+1) per layer pair
        -> 16 channels x 0.2 = 3.2 packets/cycle for the 4-channel switch
        ~ 1/4 of the 2D switch's ~12.8 packets/cycle output bound."""
        config = HiRiseConfig()
        demands = {
            pair: 1.0 for pair in interlayer_worstcase(config).items()
        }
        bound = throughput_bound(config, demands)
        assert bound == pytest.approx(16 * 0.2, rel=1e-6)


class TestBoundsDominateSimulation:
    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_uniform_saturation_below_bound(self, channels):
        config = HiRiseConfig(channel_multiplicity=channels)
        demands = uniform_demands(config, rate=1.0)
        bound = throughput_bound(config, demands)
        simulated = saturation_throughput(
            config, seed=7, warmup_cycles=300, measure_cycles=1200,
        )
        assert simulated <= bound * 1.02
        # The simulator reaches a solid fraction of the analytical bound
        # (the gap is two-phase matching inefficiency).
        assert simulated >= 0.55 * bound

    def test_adversarial_bound_tight(self):
        """Fixed single-output contention: simulation reaches ~the bound
        (no matching losses when one output serialises everything)."""
        config = HiRiseConfig()
        flows = {3: 63, 7: 63, 11: 63, 15: 63, 20: 63}
        demands = {(src, dst): 1.0 for src, dst in flows.items()}
        bound = throughput_bound(config, demands)
        simulated = saturation_throughput(
            config, TrafficSpec("adversarial", demands=flows), seed=5,
            warmup_cycles=400, measure_cycles=2000,
        )
        assert simulated == pytest.approx(bound, rel=0.05)
