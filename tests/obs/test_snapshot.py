"""Tests of point-in-time switch telemetry snapshots."""

import json

from repro.core import HiRiseConfig, HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.network.engine import Simulation, SwitchModel
from repro.network.port import InputPort
from repro.obs import render_snapshot, telemetry_snapshot
from repro.traffic import TraceTraffic, UniformRandomTraffic


def load_up(switch, cycles=60, load=0.9, seed=3):
    traffic = UniformRandomTraffic(switch.num_ports, load=load, seed=seed)
    simulation = Simulation(switch, traffic, warmup_cycles=0)
    simulation.run(measure_cycles=cycles, drain=False)
    return switch


class PlainSwitch(SwitchModel):
    """Input ports and nothing else: no path state to report."""

    def __init__(self, radix):
        self.num_ports = radix
        self.ports = [InputPort(port) for port in range(radix)]

    def inject(self, packet):
        self.ports[packet.src].enqueue_packet(packet)

    def step(self, cycle):
        return []

    def occupancy(self):
        return sum(port.total_occupancy() for port in self.ports)


class TestSnapshotContents:
    def test_fast_kernel_names_busy_resources(self):
        config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=1)
        switch = load_up(HiRiseSwitch(config))
        snapshot = telemetry_snapshot(switch)
        assert snapshot["occupancy"] == switch.occupancy()
        assert snapshot["occupied_ports"] == len(snapshot["ports"])
        for entry in snapshot["busy_resources"]:
            # Flat integer rids resolve to human-readable tuple keys.
            assert entry["resource"][0] in ("int", "ch")
            assert entry["granted_cycle"] >= 0
        for entry in snapshot["ports"]:
            assert entry["flits"] > 0

    def test_reference_kernel_reports_tuple_keys(self):
        config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=1)
        switch = load_up(ReferenceHiRiseSwitch(config))
        snapshot = telemetry_snapshot(switch)
        for entry in snapshot["busy_resources"]:
            assert entry["resource"][0] in ("int", "ch")

    def test_plain_switch_reports_occupancy_only(self):
        switch = PlainSwitch(4)
        switch.inject(TraceTraffic([(0, 1, 2)], packet_flits=3)
                      .factory.create(1, 2, 0))
        snapshot = telemetry_snapshot(switch)
        assert snapshot["occupancy"] == 3
        assert snapshot["ports"] == [{"port": 1, "flits": 3}]
        assert "busy_resources" not in snapshot

    def test_max_ports_caps_listing_not_count(self):
        config = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)
        switch = load_up(HiRiseSwitch(config), load=1.0)
        full = telemetry_snapshot(switch)
        capped = telemetry_snapshot(switch, max_ports=2)
        assert capped["occupied_ports"] == full["occupied_ports"]
        assert len(capped["ports"]) <= 2
        assert capped["ports"] == full["ports"][:len(capped["ports"])]

    def test_rendered_snapshot_is_compact_json(self):
        switch = load_up(
            HiRiseSwitch(HiRiseConfig(radix=8, layers=2,
                                      channel_multiplicity=1))
        )
        rendered = render_snapshot(telemetry_snapshot(switch))
        assert "\n" not in rendered and ": " not in rendered
        assert json.loads(rendered)["occupancy"] == switch.occupancy()
