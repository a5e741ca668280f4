"""Unit tests of the batched structure-of-arrays fleet kernel.

The fleet kernel advances B switch instances per vectorized numpy op;
its contract is that every lane is **bit-identical** to a scalar
:class:`HiRiseSwitch` run with the same traffic source and fault
schedule.  These tests cover the kernel-level machinery (injection
batching, ring growth, overflow guards, plan grouping); the full
scheme × allocation × fault matrix lives in
``test_golden_equivalence.py``.
"""

import numpy as np
import pytest

from repro.core.config import (
    AllocationPolicy,
    ArbitrationScheme,
    HiRiseConfig,
)
from repro.core.fleet import (
    FleetKernel,
    FleetSimulation,
    LanePlan,
    fleet_supports,
    plans_compatible,
    run_fleet_plans,
    verify_fleet_parity,
)
from repro.core.hirise import HiRiseSwitch
from repro.faults import FaultSchedule, fail_channel, repair_channel
from repro.network.engine import Simulation
from repro.traffic import UniformRandomTraffic

CONFIG = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)


def make_traffic(seed, load=0.8):
    return UniformRandomTraffic(CONFIG.radix, load=load, seed=seed)


def scalar_run(config, traffic, faults=None, warmup=20, measure=120,
               drain=True):
    switch = HiRiseSwitch(config, faults=faults)
    simulation = Simulation(switch, traffic, warmup_cycles=warmup)
    return simulation.run(measure, drain=drain)


def assert_identical(reference, lane):
    assert lane.cycles == reference.cycles
    assert lane.packets_injected == reference.packets_injected
    assert lane.packets_ejected == reference.packets_ejected
    assert lane.flits_ejected == reference.flits_ejected
    assert lane.packet_latencies == reference.packet_latencies
    assert lane.per_input_ejected == reference.per_input_ejected
    assert lane.per_input_latency_sum == reference.per_input_latency_sum
    assert lane.per_output_ejected == reference.per_output_ejected


def test_fleet_supports_everything_but_qos():
    assert fleet_supports(CONFIG)
    qos = HiRiseConfig(
        radix=8, layers=2, channel_multiplicity=2,
        arbitration=ArbitrationScheme.CLRG,
        qos_weights=tuple(1.0 + i for i in range(8)),
    )
    assert not fleet_supports(qos)
    with pytest.raises(ValueError):
        FleetKernel(qos, 2)


def test_kernel_rejects_empty_fleet():
    with pytest.raises(ValueError):
        FleetKernel(CONFIG, 0)


def test_lanes_bit_identical_to_scalar_runs():
    seeds = (3, 17, 99)
    fleet = FleetSimulation(
        CONFIG, [make_traffic(seed) for seed in seeds], warmup_cycles=20
    )
    lanes = fleet.run(120, drain=True)
    for seed, lane in zip(seeds, lanes):
        assert_identical(scalar_run(CONFIG, make_traffic(seed)), lane)


def test_per_lane_fault_schedules_stay_isolated():
    schedule = FaultSchedule([
        fail_channel(30, 0, 1, 0),
        repair_channel(80, 0, 1, 0),
    ])
    seeds = (5, 5, 12)
    faults = [None, schedule, None]
    fleet = FleetSimulation(
        CONFIG, [make_traffic(seed) for seed in seeds],
        faults=faults, warmup_cycles=20,
    )
    lanes = fleet.run(120, drain=True)
    for seed, lane_faults, lane in zip(seeds, faults, lanes):
        assert_identical(
            scalar_run(CONFIG, make_traffic(seed), faults=lane_faults),
            lane,
        )
    # Lanes 0 and 1 share a traffic seed but differ in faults, which
    # must show up in the results (the schedule really was delivered to
    # exactly one lane).
    assert lanes[0].packet_latencies != lanes[1].packet_latencies


def test_inject_cycle_accepts_unsorted_and_duplicate_rows():
    # One batched call with shuffled rows (including two packets for the
    # same (lane, input) queue) must leave the kernel in the same state
    # as sorted single-row calls in queue order.
    batched = FleetKernel(CONFIG, 2)
    sequential = FleetKernel(CONFIG, 2)
    rows = [
        # lane, src, dst, created, flits, pid  (queue order per (lane, src))
        (0, 1, 2, 0, 4, 10),
        (0, 1, 5, 0, 2, 11),
        (1, 1, 3, 0, 1, 12),
        (0, 7, 0, 0, 3, 13),
    ]
    shuffled = [rows[2], rows[0], rows[3], rows[1]]
    columns = list(zip(*shuffled))
    batched.inject_cycle(*(np.array(column) for column in columns))
    for lane, src, dst, created, flits, pid in rows:
        sequential.inject_cycle(
            np.array([lane]), np.array([src]), np.array([dst]),
            np.array([created]), np.array([flits]), np.array([pid]),
        )
    assert np.array_equal(batched._q_len_f, sequential._q_len_f)
    assert np.array_equal(batched._pending_f, sequential._pending_f)
    assert np.array_equal(batched._q, sequential._q)
    assert np.array_equal(batched._front, sequential._front)
    assert np.array_equal(batched.lane_occupancy, sequential.lane_occupancy)


def test_inject_cycle_validates_ports_and_widths():
    kernel = FleetKernel(CONFIG, 1)
    with pytest.raises(ValueError):
        kernel.inject_cycle(
            np.array([0]), np.array([CONFIG.radix]), np.array([0]),
            np.array([0]), np.array([1]), np.array([0]),
        )
    # int32 ring records: wider payloads must refuse loudly, not wrap.
    with pytest.raises(OverflowError):
        kernel.inject_cycle(
            np.array([0]), np.array([0]), np.array([1]),
            np.array([0]), np.array([1 << 31]), np.array([0]),
        )


def test_ring_growth_preserves_queue_contents():
    kernel = FleetKernel(CONFIG, 1)
    initial_cap = kernel._q_cap
    packets = initial_cap * 2 + 5
    for pid in range(packets):
        kernel.inject_cycle(
            np.array([0]), np.array([2]), np.array([4]),
            np.array([pid]), np.array([1]), np.array([pid]),
        )
    assert kernel._q_cap > initial_cap
    assert kernel._q_len_f[2] == packets
    assert kernel._pending_f[2] == packets
    # FIFO order survived both doublings: created stamps are 0..packets-1
    # starting at the (unmoved) head slot.
    head = int(kernel._q_head_f[2])
    stored = np.take(
        kernel._q[0, 2, :, 2],
        (head + np.arange(packets)) % kernel._q_cap,
    )
    assert np.array_equal(stored, np.arange(packets))


def test_run_fleet_plans_matches_scalar_and_rejects_mixed():
    plans = [
        LanePlan(
            config=CONFIG,
            traffic_factory=lambda seed=seed: make_traffic(seed),
            faults=None,
            warmup_cycles=20,
            measure_cycles=100,
            drain=True,
        )
        for seed in (1, 2)
    ]
    results = run_fleet_plans(plans)
    assert_identical(scalar_run(CONFIG, make_traffic(1), measure=100),
                     results[0])
    assert run_fleet_plans([]) == []
    other = LanePlan(
        config=CONFIG, traffic_factory=lambda: make_traffic(3),
        faults=None, warmup_cycles=20, measure_cycles=200, drain=True,
    )
    assert not plans_compatible(plans[0], other)
    with pytest.raises(ValueError):
        run_fleet_plans([plans[0], other])


def test_verify_fleet_parity_clean_and_reports_lane():
    assert verify_fleet_parity(
        CONFIG, lanes=3, measure_cycles=100, warmup_cycles=20, seed=7,
    ) == []


def test_latency_sample_limit_matches_scalar_decimation():
    limit = 8
    fleet = FleetSimulation(
        CONFIG, [make_traffic(31)], warmup_cycles=20,
        latency_sample_limit=limit,
    )
    lane = fleet.run(120, drain=True)[0]
    switch = HiRiseSwitch(CONFIG)
    scalar = Simulation(
        switch, make_traffic(31), warmup_cycles=20,
        latency_sample_limit=limit,
    ).run(120, drain=True)
    assert lane.packet_latencies == scalar.packet_latencies
    assert len(lane.packet_latencies) <= limit
    assert lane.latency_sum == scalar.latency_sum
    assert lane.latency_count == scalar.latency_count
