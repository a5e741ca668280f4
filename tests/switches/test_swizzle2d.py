"""Functional tests of the 2D Swizzle-Switch (one-layer Hi-Rise) model."""

import pytest

from repro.network.engine import Simulation
from repro.switches import SwizzleSwitch2D
from repro.traffic import TraceTraffic, UniformRandomTraffic


def test_rejects_tiny_radix():
    with pytest.raises(ValueError):
        SwizzleSwitch2D(1)


def test_single_packet_latency():
    switch = SwizzleSwitch2D(8)
    result = Simulation(switch, TraceTraffic([(0, 0, 5)])).run(20, drain=True)
    assert result.packets_ejected == 1
    assert result.packet_latencies == [4]


def test_full_connectivity():
    switch = SwizzleSwitch2D(8)
    events = []
    cycle = 0
    for src in range(8):
        for dst in range(8):
            if src != dst:
                events.append((cycle, src, dst))
                cycle += 8
    result = Simulation(switch, TraceTraffic(events, packet_flits=2)).run(
        cycle + 30, drain=True
    )
    assert result.packets_ejected == 56


def test_output_contention_serialises():
    """Two packets to one output: second waits for release + arb cycle."""
    switch = SwizzleSwitch2D(8)
    result = Simulation(
        switch, TraceTraffic([(0, 0, 5), (0, 1, 5)], packet_flits=4)
    ).run(40, drain=True)
    assert result.packets_ejected == 2
    # First: granted cycle 0, tail at cycle 4. Second: arbitration blocked
    # until cycle 5 (release cycle cools), tail at cycle 9.
    assert sorted(result.packet_latencies) == [4, 9]


def test_grant_safety_invariants():
    switch = SwizzleSwitch2D(16)
    traffic = UniformRandomTraffic(16, load=0.6, seed=9)
    for cycle in range(300):
        for packet in traffic.packets_for_cycle(cycle):
            switch.inject(packet)
        switch.step(cycle)
        owners = [o for o in switch.output_owner if o is not None]
        assert len(owners) == len(set(owners))
        assert len(switch.connections) == len(owners)
        for output, owner in enumerate(switch.output_owner):
            if owner is not None:
                assert switch.connections[owner][1] == output


def test_flit_conservation():
    switch = SwizzleSwitch2D(16)
    traffic = UniformRandomTraffic(16, load=0.15, seed=4)
    result = Simulation(switch, traffic).run(500, drain=True)
    assert result.packets_ejected == result.packets_injected


def test_lrg_fairness_under_hotspot():
    """Flat LRG shares a hotspot output almost evenly across inputs."""
    from repro.metrics import jain_index
    from repro.traffic import HotspotTraffic

    switch = SwizzleSwitch2D(16)
    traffic = HotspotTraffic(16, load=0.9, hotspot_output=7, seed=3)
    sim = Simulation(switch, traffic, warmup_cycles=300)
    result = sim.run(4000)
    throughput = result.per_input_throughput(16)
    assert jain_index(throughput) > 0.99


def test_saturation_close_to_paper_anchor():
    """Uniform random saturation: paper implies ~0.667 flits/cycle/port
    at radix 64 (9.24 Tbps / 128 bit / 64 ports / 1.69 GHz)."""
    switch = SwizzleSwitch2D(64)
    traffic = UniformRandomTraffic(64, load=0.99, seed=7)
    sim = Simulation(switch, traffic, warmup_cycles=300)
    result = sim.run(1200)
    per_port = result.throughput_flits_per_cycle / 64
    assert 0.667 * 0.9 <= per_port <= 0.667 * 1.1
