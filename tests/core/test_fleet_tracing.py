"""Native binary tracing in the fleet kernel.

The fleet kernel emits into a shared :class:`FleetTracer` with a
per-lane column; every test here pins the traced fleet against the
scalar fast kernel — per-lane event streams equal to a scalar
:class:`BinaryTracer` capture, results bit-identical whether traced or
not, and decimation marching in lock-step on both sides.
"""

import pytest

from repro.core.config import HiRiseConfig
from repro.core.fleet import (
    FleetSimulation,
    LanePlan,
    run_fleet_plans,
    verify_fleet_parity,
)
from repro.faults import FaultSchedule, fail_channel, fail_input, \
    repair_channel, repair_input
from repro.obs.tracebin import (
    BinaryTracer,
    BinaryTracerFactory,
    FleetTracer,
    read_tracebin,
)
from repro.traffic.uniform import UniformRandomTraffic


def small_config(**overrides):
    settings = dict(radix=16, layers=4, channel_multiplicity=2)
    settings.update(overrides)
    return HiRiseConfig(**settings)


def make_plans(config, lanes=3, seed=0, load=0.6, faults=None,
               tracer_factory=None, drain=False):
    def factory(lane_seed):
        return lambda: UniformRandomTraffic(
            config.radix, load, seed=lane_seed
        )

    return [
        LanePlan(
            config=config,
            traffic_factory=factory(seed + lane),
            faults=faults,
            warmup_cycles=10,
            measure_cycles=60,
            drain=drain,
            tracer_factory=tracer_factory,
        )
        for lane in range(lanes)
    ]


RESULT_FIELDS = (
    "packets_injected", "packets_ejected", "flits_ejected", "cycles",
    "packet_latencies", "per_input_ejected", "per_input_latency_sum",
    "per_output_ejected",
)


@pytest.mark.parametrize(
    "scheme", ["l2l_lrg", "l2l_rr", "wlrg", "clrg", "age"]
)
@pytest.mark.parametrize(
    "policy", ["input_binned", "output_binned", "priority"]
)
def test_traced_parity_across_schemes(scheme, policy):
    config = small_config(arbitration=scheme, allocation=policy)
    assert verify_fleet_parity(
        config, load=0.7, measure_cycles=60, warmup_cycles=10,
        lanes=3, trace=True,
    ) == []


@pytest.mark.parametrize("drain", [False, True])
def test_traced_parity_with_faults(drain):
    schedule = FaultSchedule([
        fail_channel(5, 0, 1, 0),
        fail_input(9, 3),
        repair_channel(20, 0, 1, 0),
        repair_input(25, 3),
    ])
    assert verify_fleet_parity(
        small_config(), schedule=schedule, load=0.7,
        measure_cycles=60, warmup_cycles=10, lanes=3, drain=drain,
        trace=True,
    ) == []


def test_decimation_lockstep_with_scalar():
    # Bounded lane capacity decimates the fleet capture exactly like the
    # scalar tracer decimates its own: same stride, same surviving rows.
    config = small_config()
    plans = make_plans(config, lanes=2)
    fleet_tracer = FleetTracer(len(plans), capacity=64)
    run_fleet_plans(plans, tracer=fleet_tracer)
    for lane, plan in enumerate(plans):
        scalar = BinaryTracer(capacity=64)
        from repro.core.hirise import HiRiseSwitch
        from repro.network.engine import Simulation

        switch = HiRiseSwitch(config, tracer=scalar, faults=plan.faults)
        sim = Simulation(switch, plan.traffic_factory(),
                         warmup_cycles=plan.warmup_cycles)
        sim.run(plan.measure_cycles, drain=plan.drain)
        lane_view = fleet_tracer.lane_tracer(lane)
        assert scalar.stride > 1
        assert lane_view.stride == scalar.stride
        assert lane_view.events == scalar.events


def test_traced_fleet_results_equal_untraced():
    config = small_config()
    untraced = run_fleet_plans(make_plans(config))
    tracer = FleetTracer(3, capacity=None)
    traced = run_fleet_plans(make_plans(config), tracer=tracer)
    assert len(tracer) > 0
    for plain, observed in zip(untraced, traced):
        for name in RESULT_FIELDS:
            assert getattr(plain, name) == getattr(observed, name)


def test_plan_tracer_factory_auto_creates_fleet_tracer():
    # Plans carrying a fleet-capable factory run traced natively (the
    # tracer is internal and dropped with the simulation); results stay
    # bit-identical to the untraced fleet.
    config = small_config()
    factory = BinaryTracerFactory(capacity=None)
    assert factory.fleet_capable
    traced = run_fleet_plans(make_plans(config, tracer_factory=factory))
    untraced = run_fleet_plans(make_plans(config))
    for plain, observed in zip(untraced, traced):
        for name in RESULT_FIELDS:
            assert getattr(plain, name) == getattr(observed, name)


def test_fleet_save_read_lane_round_trip(tmp_path):
    config = small_config()
    plans = make_plans(config, lanes=3)
    tracer = FleetTracer(len(plans), capacity=None)
    run_fleet_plans(plans, tracer=tracer)
    path = tmp_path / "fleet.tracebin"
    tracer.save(path)
    columns = read_tracebin(path)
    assert columns.lane is not None
    assert columns.lanes() == [0, 1, 2]
    assert len(columns) == len(tracer)
    for lane in columns.lanes():
        lane_view = columns.for_lane(lane)
        assert lane_view.lane is None
        assert list(lane_view.iter_events()) == \
            fleet_tracer_events(tracer, lane)


def fleet_tracer_events(tracer, lane):
    return tracer.lane_tracer(lane).events


def test_attach_tracer_lane_count_mismatch():
    config = small_config()
    traffic = [
        UniformRandomTraffic(config.radix, 0.5, seed=s) for s in range(2)
    ]
    sim = FleetSimulation(config, traffic, [None, None])
    with pytest.raises(ValueError, match="lanes"):
        sim.kernel.attach_tracer(FleetTracer(5))


def test_fleet_tracer_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FleetTracer(0)
    with pytest.raises(ValueError):
        FleetTracer(2, capacity=0)
