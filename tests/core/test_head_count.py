"""The per-port head count that lets phase 1 skip idle inputs.

``InputPort._heads`` counts the VCs whose front flit is a head.  Phase 1
skips a port whose count is 0 without scanning its VCs, so a count that
drifts low would silently drop requests.  These tests recount every port
after every step and compare, across every Hi-Rise scheme and allocation,
the plain, traced, perf-sampled and invariant-checked step paths, both
kernels, scripted channel and stuck-input faults, and the 1-flit and
4-flit packets the many-core system sends.
"""

import pytest

from repro.check import InvariantChecker
from repro.core.config import (
    VOQ_SCHEMES,
    AllocationPolicy,
    ArbitrationScheme,
    HiRiseConfig,
)
from repro.core.hirise import HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.faults import (
    FaultSchedule,
    fail_channel,
    fail_input,
    repair_channel,
    repair_input,
)
from repro.manycore import MIXES, ManyCoreSystem, SystemConfig
from repro.manycore.workloads import mix_core_assignment
from repro.obs.perf import PerfCounters
from repro.obs.tracebin import BinaryTracer
from repro.switches import SwizzleSwitch2D
from repro.traffic import UniformRandomTraffic

HIRISE_SCHEMES = [s for s in ArbitrationScheme if s not in VOQ_SCHEMES]

OBSERVERS = {
    "plain": lambda: {},
    "traced": lambda: {"tracer": BinaryTracer()},
    # Stride 3 mixes sampled (timed) and unsampled (untimed) cycles.
    "perf": lambda: {"perf": PerfCounters(stride=3)},
    "invariants": lambda: {"invariants": InvariantChecker()},
}

SCHEDULE = FaultSchedule([
    fail_channel(30, 0, 1, 0),
    fail_channel(40, 0, 1, 1),
    fail_input(50, 3),
    fail_input(55, 9),
    repair_channel(90, 0, 1, 0),
    repair_input(100, 3),
    repair_channel(110, 0, 1, 1),
    repair_input(120, 9),
])


def recount(port) -> int:
    return sum(1 for vc in port.vcs if vc._fifo and vc._fifo[0].seq == 0)


def assert_counts(switch, cycle):
    for port in switch.ports:
        assert port._heads == recount(port), (
            f"cycle {cycle}: port {port.port_id} counts {port._heads} heads"
        )


def drive(switch, load, packet_flits, cycles=150, seed=5):
    traffic = UniformRandomTraffic(
        switch.num_ports, load=load, packet_flits=packet_flits, seed=seed,
    )
    for cycle in range(cycles):
        for packet in traffic.packets_for_cycle(cycle):
            switch.inject(packet)
        switch.step(cycle)
        assert_counts(switch, cycle)
    # Drain: the count must return to 0 as the last heads leave.
    cycle = cycles
    while switch.occupancy():
        switch.step(cycle)
        assert_counts(switch, cycle)
        cycle += 1
        assert cycle < cycles + 2000, "switch failed to drain"
    assert all(port._heads == 0 for port in switch.ports)


@pytest.mark.parametrize("packet_flits", [1, 4])
@pytest.mark.parametrize("observer", list(OBSERVERS))
@pytest.mark.parametrize("allocation", list(AllocationPolicy),
                         ids=lambda a: a.value)
@pytest.mark.parametrize("scheme", HIRISE_SCHEMES, ids=lambda s: s.value)
def test_count_matches_vc_fronts(scheme, allocation, observer, packet_flits):
    config = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2,
                          arbitration=scheme, allocation=allocation)
    switch = HiRiseSwitch(config, **OBSERVERS[observer]())
    drive(switch, load=0.6, packet_flits=packet_flits)


@pytest.mark.parametrize("kernel", [HiRiseSwitch, ReferenceHiRiseSwitch],
                         ids=["fast", "reference"])
@pytest.mark.parametrize("observer", ["plain", "traced", "perf"])
@pytest.mark.parametrize("packet_flits", [1, 4])
def test_count_survives_faults(kernel, observer, packet_flits):
    config = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)
    switch = kernel(config, faults=SCHEDULE, **OBSERVERS[observer]())
    drive(switch, load=0.5, packet_flits=packet_flits)


def test_one_layer_switch():
    drive(SwizzleSwitch2D(16), load=0.7, packet_flits=4)


def test_many_core_system_mixed_packet_sizes():
    """Requests are 1 flit and replies 4 flits over one switch."""
    config = SystemConfig(seed=3, writeback_fraction=0.2)
    profiles = mix_core_assignment(MIXES[6], config.num_cores, seed=3)
    system = ManyCoreSystem(
        HiRiseSwitch(HiRiseConfig()), 2.2, profiles, config,
    )
    for _ in range(200):
        system.step()
        assert_counts(system.switch, system.cycle)
