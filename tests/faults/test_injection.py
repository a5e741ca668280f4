"""Behavioural tests of dynamic fault injection inside the kernels.

Masking, quiescing, repair re-arming, stuck inputs, CLRG corruption,
partitions, live fault-state introspection, and the degradation
measurement built on top — on both the fast and reference kernels where
the behaviour is kernel-visible (the golden parity suite already pins
them bit-identical to each other).
"""

import pytest

from repro.core.config import ArbitrationScheme, HiRiseConfig
from repro.core.fleet import FleetKernel
from repro.core.hirise import HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.faults import (
    DegradationReport,
    FaultSchedule,
    apply_fault_events,
    corrupt_clrg,
    describe_fault_state,
    fail_channel,
    fail_input,
    measure_degradation,
    reachable_fraction,
    repair_channel,
    repair_input,
    verify_parity,
)
from repro.network.engine import Simulation
from repro.obs.snapshot import telemetry_snapshot
from repro.obs.tracebin import BinaryTracer
from repro.switches.voq import VOQSwitch
from repro.traffic import UniformRandomTraffic

KERNELS = {"fast": HiRiseSwitch, "reference": ReferenceHiRiseSwitch}


def make_config(**overrides):
    settings = dict(radix=8, layers=2, channel_multiplicity=2)
    settings.update(overrides)
    return HiRiseConfig(**settings)


def run_traced(switch_class, schedule, cycles=200, load=0.8, seed=3,
               config=None):
    tracer = BinaryTracer()
    switch = switch_class(config or make_config(), faults=schedule,
                          tracer=tracer)
    traffic = UniformRandomTraffic(switch.config.radix, load=load, seed=seed)
    result = Simulation(switch, traffic, warmup_cycles=0).run(cycles)
    return switch, tracer, result


@pytest.mark.parametrize("kernel", sorted(KERNELS), ids=sorted(KERNELS))
class TestChannelFaults:
    def test_failed_channel_masked_from_new_grants(self, kernel):
        config = make_config()
        dead_rid = config.channel_resource_id(0, 1, 0)
        schedule = FaultSchedule([
            fail_channel(50, 0, 1, 0), repair_channel(150, 0, 1, 0),
        ])
        _switch, tracer, _result = run_traced(KERNELS[kernel], schedule)
        granted = [
            (record["cycle"], record["resource"])
            for record in tracer.records()
            if record.get("event") == "p2_grant"
            and record["resource"] == dead_rid
        ]
        # The quiescing owner may finish streaming, but no *new* grant
        # lands on the dead channel while it is down.
        assert all(
            cycle < 50 or cycle >= 150 for cycle, _resource in granted
        ), granted

    def test_fault_events_appear_in_trace(self, kernel):
        config = make_config()
        schedule = FaultSchedule([
            fail_channel(40, 0, 1, 1), repair_channel(90, 0, 1, 1),
        ])
        _switch, tracer, _result = run_traced(KERNELS[kernel], schedule)
        faults = [
            record for record in tracer.records()
            if record.get("event") in ("fault_inject", "fault_repair")
        ]
        assert [
            (record["event"], record["cycle"], record["target"])
            for record in faults
        ] == [
            ("fault_inject", 40, config.channel_resource_id(0, 1, 1)),
            ("fault_repair", 90, config.channel_resource_id(0, 1, 1)),
        ]

    def test_in_flight_packet_quiesces_without_flit_loss(self, kernel):
        # Every injected packet is eventually delivered despite the
        # mid-run failure window: the owner finishes streaming and
        # queued traffic reroutes or waits for the repair.
        schedule = FaultSchedule([
            fail_channel(50, 0, 1, 0), fail_channel(50, 0, 1, 1),
            repair_channel(120, 0, 1, 0), repair_channel(120, 0, 1, 1),
        ])
        config = make_config()
        switch = KERNELS[kernel](config, faults=schedule)
        traffic = UniformRandomTraffic(config.radix, load=0.7, seed=5)
        result = Simulation(switch, traffic, warmup_cycles=0).run(
            200, drain=True
        )
        assert result.flits_ejected > 0
        assert switch.occupancy() == 0

    def test_repair_rearms_channel(self, kernel):
        config = make_config()
        rid = config.channel_resource_id(0, 1, 0)
        schedule = FaultSchedule([
            fail_channel(20, 0, 1, 0), repair_channel(60, 0, 1, 0),
        ])
        _switch, tracer, _result = run_traced(
            KERNELS[kernel], schedule, cycles=300, load=1.0
        )
        assert any(
            record.get("event") == "p2_grant"
            and record["resource"] == rid and record["cycle"] >= 60
            for record in tracer.records()
        )

    def test_out_of_range_channel_rejected(self, kernel):
        config = make_config()
        switch = KERNELS[kernel](config)
        with pytest.raises(ValueError, match="out of range"):
            apply_fault_events(switch, [fail_channel(0, 0, 1, 9)])


@pytest.mark.parametrize("kernel", sorted(KERNELS), ids=sorted(KERNELS))
class TestStuckInputs:
    def test_stuck_input_stops_winning_but_keeps_queueing(self, kernel):
        schedule = FaultSchedule([fail_input(50, 2)])
        switch, tracer, _result = run_traced(
            KERNELS[kernel], schedule, cycles=200, load=1.0
        )
        # No phase-2 win for the stuck input once its active packet (if
        # any) has quiesced; allow a short tail for the quiesce.
        wins = [
            record["cycle"] for record in tracer.records()
            if record.get("event") == "p2_grant" and record["input"] == 2
        ]
        assert all(cycle < 80 for cycle in wins)
        # The source queue keeps accumulating.
        assert switch.ports[2].total_occupancy() > 0
        assert 2 in switch.stuck_inputs

    def test_repair_resumes_service(self, kernel):
        schedule = FaultSchedule([fail_input(40, 1), repair_input(120, 1)])
        _switch, tracer, _result = run_traced(
            KERNELS[kernel], schedule, cycles=300, load=1.0
        )
        assert any(
            record.get("event") == "p2_grant"
            and record["input"] == 1 and record["cycle"] >= 120
            for record in tracer.records()
        )


class TestClrgCorruption:
    def test_corruption_overwrites_counter_bank(self):
        config = make_config(arbitration=ArbitrationScheme.CLRG)
        switch = HiRiseSwitch(config)
        counters = switch.subblock_arbiters[3].counters
        apply_fault_events(switch, [corrupt_clrg(0, 3, 999)])
        assert counters._counts == [counters.max_count] * counters.num_inputs
        apply_fault_events(switch, [corrupt_clrg(0, 3, 1, port=2)])
        assert counters._counts[2] == 1

    def test_corruption_is_noop_for_non_clrg_schemes(self):
        config = make_config(arbitration=ArbitrationScheme.L2L_LRG)
        switch = HiRiseSwitch(config)
        apply_fault_events(switch, [corrupt_clrg(0, 3, 2)])  # must not raise

    def test_corruption_perturbs_yet_preserves_parity(self):
        config = make_config(arbitration=ArbitrationScheme.CLRG)
        schedule = FaultSchedule([corrupt_clrg(60, 1, 3)])
        assert verify_parity(config, schedule, load=0.9, seed=2,
                             measure_cycles=150, warmup_cycles=20) == []


class TestPartition:
    def test_full_partition_starves_cross_layer_traffic(self):
        config = make_config()
        schedule = FaultSchedule([
            fail_channel(0, 0, 1, 0), fail_channel(0, 0, 1, 1),
        ])
        switch = HiRiseSwitch(config, faults=schedule)
        traffic = UniformRandomTraffic(config.radix, load=0.6, seed=7)
        result = Simulation(switch, traffic, warmup_cycles=0).run(300)
        ejections = result.per_output_ejected
        lower = sum(ejections.get(port, 0) for port in range(4))
        upper = sum(ejections.get(port, 0) for port in range(4, 8))
        # Layer-1 outputs only see same-layer traffic; layer-0 outputs
        # see both directions (1 -> 0 channels are healthy).
        assert lower > upper > 0

    def test_reachable_fraction_reflects_partition(self):
        config = make_config()
        assert reachable_fraction(config, frozenset()) == 1.0
        partitioned = reachable_fraction(
            config, frozenset({(0, 1, 0), (0, 1, 1)})
        )
        # Layer-0 inputs reach only their own layer: 4 of 8 outputs for
        # half the inputs -> 0.75 overall.
        assert partitioned == pytest.approx(0.75)


class TestIdempotenceAndIntrospection:
    def test_redundant_events_are_silent_noops(self):
        config = make_config()
        tracer = BinaryTracer()
        switch = HiRiseSwitch(config, tracer=tracer)
        apply_fault_events(switch, [fail_channel(0, 0, 1, 0)])
        before = len(tracer.events)
        apply_fault_events(switch, [fail_channel(0, 0, 1, 0)])
        apply_fault_events(switch, [repair_input(0, 5)])
        assert len(tracer.events) == before
        assert switch.failed_channels == {(0, 1, 0)}

    def test_describe_fault_state(self):
        config = make_config()
        schedule = FaultSchedule([
            fail_channel(0, 0, 1, 0), fail_input(0, 3),
            repair_channel(500, 0, 1, 0),
        ])
        switch = HiRiseSwitch(config, faults=schedule)
        switch.step(0)
        state = describe_fault_state(switch)
        assert state["failed_channels"] == [[0, 1, 0]]
        assert state["stuck_inputs"] == [3]
        assert state["applied_events"] == 2
        assert state["pending_events"] == 1

    def test_snapshot_includes_faults_only_when_active(self):
        config = make_config()
        healthy = HiRiseSwitch(config)
        assert "faults" not in telemetry_snapshot(healthy)
        faulted = HiRiseSwitch(config, faults=FaultSchedule([
            fail_channel(0, 1, 0, 1),
        ]))
        faulted.step(0)
        snapshot = telemetry_snapshot(faulted)
        assert snapshot["faults"]["failed_channels"] == [[1, 0, 1]]


class TestDegradationMeasurement:
    def test_phases_follow_the_schedule(self):
        config = make_config()
        schedule = FaultSchedule([
            fail_channel(80, 0, 1, 0), repair_channel(160, 0, 1, 0),
        ])
        report = measure_degradation(
            config, schedule, load=0.8, seed=1,
            measure_cycles=300, warmup_cycles=50,
        )
        assert isinstance(report, DegradationReport)
        assert [phase.failed_channels for phase in report.phases] == [0, 1, 0]
        assert report.phases[0].end_cycle == 80
        assert report.phases[1].start_cycle == 80
        assert all(
            phase.reachable_fraction == 1.0 for phase in report.phases
        )
        assert report.total_cycles == 300
        payload = report.to_dict()
        assert payload["schedule_events"] == 2
        assert len(payload["phases"]) == 3

    def test_partition_phase_reports_reduced_reachability(self):
        config = make_config()
        schedule = FaultSchedule([
            fail_channel(100, 0, 1, 0), fail_channel(100, 0, 1, 1),
        ])
        report = measure_degradation(
            config, schedule, load=0.6, seed=2,
            measure_cycles=200, warmup_cycles=40,
        )
        assert report.phases[-1].reachable_fraction == pytest.approx(0.75)

    def test_kernels_agree_on_degradation(self):
        config = make_config()
        schedule = FaultSchedule([fail_channel(60, 1, 0, 0)])
        fast = measure_degradation(
            config, schedule, load=0.7, seed=3,
            measure_cycles=150, warmup_cycles=20, kernel="fast",
        )
        reference = measure_degradation(
            config, schedule, load=0.7, seed=3,
            measure_cycles=150, warmup_cycles=20, kernel="reference",
        )
        assert fast.to_dict()["phases"] == reference.to_dict()["phases"]

    def test_verify_parity_reports_mismatches_as_strings(self):
        config = make_config()
        schedule = FaultSchedule.random(config, seed=9, horizon=150, faults=3)
        mismatches = verify_parity(
            config, schedule, load=0.8, seed=4,
            measure_cycles=150, warmup_cycles=20,
        )
        assert mismatches == []


# ----------------------------------------------------------------------
# One index range check for every kernel
# ----------------------------------------------------------------------
def _scalar_stepper(switch_class, **overrides):
    def run(event):
        config = HiRiseConfig(
            radix=16, layers=4, channel_multiplicity=2, **overrides
        )
        switch_class(config, faults=FaultSchedule([event])).step(0)
    return run


def _fleet_stepper(event):
    config = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)
    FleetKernel(config, 2, faults=[None, FaultSchedule([event])]).step(0)


RANGE_KERNELS = {
    "fast": _scalar_stepper(HiRiseSwitch),
    "reference": _scalar_stepper(ReferenceHiRiseSwitch),
    "voq": _scalar_stepper(VOQSwitch, arbitration="islip"),
    "fleet": _fleet_stepper,
}

# Each of these used to be accepted by some kernel: a negative channel
# or port wrapped to the last index in the fleet, the scalar kernels
# ignored a repair of a port they never saw stuck, and the fleet raised
# IndexError on a port beyond the radix.
OUT_OF_RANGE_EVENTS = {
    "negative-channel": fail_channel(0, 0, 1, -1),
    "negative-repair-port": repair_input(0, -1),
    "repair-port-beyond-radix": repair_input(0, 99),
    "clrg-port-beyond-radix": corrupt_clrg(0, 3, 1, port=99),
}


@pytest.mark.parametrize(
    "event", list(OUT_OF_RANGE_EVENTS.values()), ids=list(OUT_OF_RANGE_EVENTS)
)
@pytest.mark.parametrize("kernel", sorted(RANGE_KERNELS))
def test_out_of_range_event_raises_in_every_kernel(kernel, event):
    with pytest.raises(ValueError, match="out of range"):
        RANGE_KERNELS[kernel](event)


@pytest.mark.parametrize("kernel", sorted(RANGE_KERNELS))
def test_in_range_events_do_not_raise(kernel):
    # Repairs of a healthy channel or port stay silent no-ops, and an
    # in-range CLRG corruption applies (a no-op under the VOQ scheme).
    for event in (
        repair_channel(0, 0, 1, 1), repair_input(0, 15),
        corrupt_clrg(0, 3, 1, port=15),
    ):
        RANGE_KERNELS[kernel](event)
