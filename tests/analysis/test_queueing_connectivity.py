"""Tests of queueing estimates and graph connectivity proofs."""

import pytest

from repro.analysis import (
    build_resource_graph,
    is_fully_connected,
    md1_wait_cycles,
    output_latency_estimate,
    reachable_outputs,
    service_cycles,
    zero_load_latency_cycles,
)
from repro.core import HiRiseConfig, HiRiseSwitch
from repro.harness.measure import SimulationMeasurement
from repro.traffic import TraceTraffic, TrafficSpec


class TestQueueingFormulas:
    def test_service_and_zero_load(self):
        assert service_cycles(4) == 5
        assert zero_load_latency_cycles(4) == 4

    def test_md1_grows_toward_saturation(self):
        waits = [md1_wait_cycles(load) for load in (0.05, 0.10, 0.15, 0.19)]
        assert waits == sorted(waits)
        assert waits[-1] > 5 * waits[0]

    def test_md1_rejects_saturation(self):
        with pytest.raises(ValueError):
            md1_wait_cycles(0.2)  # rho = 1 at 4-flit packets
        with pytest.raises(ValueError):
            md1_wait_cycles(-0.1)

    def test_zero_load_matches_simulator_exactly(self):
        switch = HiRiseSwitch(HiRiseConfig())
        trace = TraceTraffic([(0, 0, 63)], packet_flits=4)
        from repro.network.engine import Simulation

        result = Simulation(switch, trace).run(30, drain=True)
        assert result.packet_latencies == [zero_load_latency_cycles(4)]

    def test_md1_predicts_hotspot_latency_scale(self):
        """At 80% hotspot load the M/D/1 estimate lands within ~35% of
        the simulated 2D mean (arrivals are near-Poisson, service is
        deterministic — the residual gap is the 64-source correlation)."""
        load = 0.8 * 0.2
        estimate = output_latency_estimate(load)
        result = SimulationMeasurement(
            HiRiseConfig(radix=64, layers=1, channel_multiplicity=1),
            traffic=TrafficSpec("hotspot"), load=load / 64,
            warmup_cycles=2000, measure_cycles=15000,
        ).run(seed=5)
        assert result.avg_latency_cycles == pytest.approx(estimate, rel=0.35)


class TestConnectivityGraph:
    @pytest.mark.parametrize(
        "allocation", ["input_binned", "output_binned", "priority"]
    )
    def test_full_connectivity_all_policies(self, allocation):
        config = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2,
                              allocation=allocation)
        assert is_fully_connected(config)

    def test_connectivity_preserved_under_failures(self):
        config = HiRiseConfig(
            radix=16, layers=4, channel_multiplicity=2,
            failed_channels=((0, 1, 0), (2, 3, 1), (1, 0, 1)),
        )
        assert is_fully_connected(config)

    def test_reachable_outputs_is_everything(self):
        config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=1)
        assert reachable_outputs(config, 0) == set(range(8))

    def test_failed_channel_absent_from_graph(self):
        config = HiRiseConfig(
            radix=16, layers=4, channel_multiplicity=2,
            failed_channels=((0, 3, 0),),
        )
        graph = build_resource_graph(config)
        assert ("ch", 0, 3, 0) not in graph
        assert ("ch", 0, 3, 1) in graph

    def test_graph_structure_counts(self):
        """c=1, L=4, N=64: 64 inputs, 64 outputs, 64 intermediate outputs
        and 12 channels."""
        config = HiRiseConfig(channel_multiplicity=1)
        graph = build_resource_graph(config)
        kinds = {}
        for node in graph.nodes:
            kinds[node[0]] = kinds.get(node[0], 0) + 1
        assert kinds["in"] == 64
        assert kinds["out"] == 64
        assert kinds["int"] == 64
        assert kinds["ch"] == 12

    def test_port_range_checked(self):
        with pytest.raises(ValueError):
            reachable_outputs(HiRiseConfig(), 64)
