"""Fleet batching inside the harness executors is a pure optimisation.

``SimulationMeasurement`` describes its tasks as fleet lane plans; the
dispatchers in :mod:`repro.harness.parallel` batch compatible plans
through one fleet kernel.  Every test here asserts *bit-identical
results* against the scalar path — across sweeps, replications, worker
pools, checkpoint/resume, and the forced-scalar fallbacks (tracer or
invariant attachments).
"""

import warnings

import pytest

from repro.core.config import HiRiseConfig
from repro.harness.measure import METRICS, SimulationMeasurement
from repro.harness.parallel import _fleet_prepass, replicate
from repro.harness.sweep import parameter_grid, run_sweep
from repro.traffic import TrafficSpec

CONFIG = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
GRID = parameter_grid(load=[0.4, 0.8])


def make_measurement(**overrides):
    settings = dict(
        config=CONFIG, metric="throughput",
        warmup_cycles=10, measure_cycles=60,
    )
    settings.update(overrides)
    return SimulationMeasurement(**settings)


def forced_scalar(measurement):
    """The same measurement with the fleet path disabled.

    A ``tracer_factory`` returning ``None`` attaches nothing to the
    switch (identical semantics) but marks the measurement un-batchable,
    so every task takes the scalar kernel.
    """
    clone = make_measurement(
        metric=measurement.metric, traffic=measurement.traffic,
        tracer_factory=lambda: None,
    )
    assert clone.fleet_plan(seed=0) is None
    return clone


@pytest.mark.parametrize("traffic", [
    TrafficSpec("hotspot"),
    TrafficSpec("adversarial", demands={1: 7, 3: 7, 4: 2, 6: 0}),
], ids=["hotspot", "adversarial"])
def test_spec_sweep_values_equal_scalar_runs(traffic):
    # Non-uniform specs batch too: every task rides one fleet, and each
    # value equals the task's own scalar run.
    measurement = make_measurement(traffic=traffic)
    tasks = [
        (measurement, {"load": load}, seed)
        for load in (0.4, 0.8) for seed in range(3)
    ]
    values, _walls, lanes = _fleet_prepass(tasks)
    assert lanes == [len(tasks)] * len(tasks)
    assert values == [
        measurement(seed=seed, **parameters)
        for _, parameters, seed in tasks
    ]
    points = run_sweep(measurement, GRID, replications=3, workers=1)
    scalar = run_sweep(forced_scalar(measurement), GRID, replications=3,
                       workers=1)
    assert [p.value for p in points] == [p.value for p in scalar]


@pytest.mark.parametrize("metric", METRICS)
def test_sweep_values_identical_to_scalar_path(metric):
    measurement = make_measurement(metric=metric)
    assert measurement.fleet_plan(seed=0) is not None
    fleet_points = run_sweep(measurement, GRID, replications=3)
    scalar_points = run_sweep(forced_scalar(measurement), GRID,
                              replications=3)
    assert [p.value for p in fleet_points] == [
        p.value for p in scalar_points
    ]
    assert [p.interval.half_width for p in fleet_points] == [
        p.interval.half_width for p in scalar_points
    ]


def test_sweep_config_overrides_split_fleets():
    # Different radix per grid point -> incompatible plans -> separate
    # fleet groups; values still match the scalar path exactly.
    measurement = make_measurement()
    grid = parameter_grid(radix=[8, 16], load=[0.6])
    fleet_points = run_sweep(measurement, grid, replications=2)
    scalar_points = run_sweep(forced_scalar(measurement), grid,
                              replications=2)
    assert [p.value for p in fleet_points] == [
        p.value for p in scalar_points
    ]


def test_replicate_identical_to_scalar_path():
    measurement = make_measurement()
    fleet = replicate(measurement, num_replications=4, base_seed=3)
    scalar = replicate(forced_scalar(measurement), num_replications=4,
                       base_seed=3)
    assert fleet == scalar


def test_replicate_workers_identical_to_serial():
    measurement = make_measurement()
    serial = replicate(measurement, num_replications=4)
    pooled = replicate(measurement, num_replications=4, workers=2)
    assert pooled == serial


def test_replicate_dedupes_pinned_traffic_seed():
    # A pinned traffic seed makes every replication the same simulation;
    # the dispatcher must warn and run the simulation once.
    measurement = make_measurement(traffic_seed=7)
    with pytest.warns(RuntimeWarning, match="fingerprint"):
        interval = replicate(measurement, num_replications=5)
    assert interval.half_width == 0.0
    assert interval.observations == 5
    assert interval.mean == measurement(seed=0)


def test_binary_tracer_factory_keeps_fleet_path():
    # A fleet-capable tracer factory no longer forces scalar fallback:
    # the plan carries it, the fleet runs traced natively, and every
    # value stays bit-identical to the scalar traced path.
    from repro.obs.tracebin import BinaryTracerFactory

    from repro.obs.tracebin import BinaryTracer

    traced = make_measurement(tracer_factory=BinaryTracerFactory())
    assert traced.fleet_plan(seed=0) is not None
    assert traced.fleet_plan(seed=0).tracer_factory == \
        BinaryTracerFactory()

    # The scalar control attaches the same tracer type through a factory
    # that lacks the ``fleet_capable`` marker, so it takes the scalar
    # kernel with a real BinaryTracer bound to every run.
    scalar_traced = make_measurement(
        tracer_factory=lambda: BinaryTracer()
    )
    assert scalar_traced.fleet_plan(seed=0) is None
    fleet_points = run_sweep(traced, GRID, replications=3)
    scalar_points = run_sweep(scalar_traced, GRID, replications=3)
    assert [p.value for p in fleet_points] == [
        p.value for p in scalar_points
    ]


def test_perf_counters_factory_keeps_fleet_path():
    # A fleet-capable perf factory must not force scalar fallback: the
    # plan carries it, one counters object profiles the whole batch,
    # and every value stays bit-identical to the unprofiled path.
    from repro.obs.perf import PerfCountersFactory

    profiled = make_measurement(perf_factory=PerfCountersFactory())
    plan = profiled.fleet_plan(seed=0)
    assert plan is not None
    assert plan.perf_factory == PerfCountersFactory()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no fallback warning may fire
        fleet_points = run_sweep(profiled, GRID, replications=3)
    baseline = run_sweep(make_measurement(), GRID, replications=3)
    assert [p.value for p in fleet_points] == [
        p.value for p in baseline
    ]


def test_non_fleet_capable_perf_factory_warns_and_runs_scalar():
    # A perf attachment without the fleet_capable marker must not
    # *silently* disable fleet batching — the fallback is explicit, and
    # the scalar run still produces identical values.
    from repro.obs.perf import PerfCounters

    def bare_factory():
        return PerfCounters()

    profiled = make_measurement(perf_factory=bare_factory)
    with pytest.warns(RuntimeWarning, match="bare_factory"):
        assert profiled.fleet_plan(seed=0) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        points = run_sweep(profiled, GRID, replications=2)
    baseline = run_sweep(make_measurement(), GRID, replications=2)
    assert [p.value for p in points] == [p.value for p in baseline]


def test_invariants_attachment_forces_scalar_but_same_values():
    checked = make_measurement(invariants=True)
    assert checked.fleet_plan(seed=0) is None
    plain = make_measurement()
    points = run_sweep(checked, GRID, replications=2)
    baseline = run_sweep(plain, GRID, replications=2)
    assert [p.value for p in points] == [p.value for p in baseline]


def test_checkpoint_resume_bit_identical(tmp_path):
    measurement = make_measurement()
    store = tmp_path / "sweep"
    first = run_sweep(measurement, GRID, replications=3, checkpoint=store)
    recorded = {entry.name: entry.read_bytes() for entry in store.iterdir()}
    assert len(recorded) == len(GRID) * 3  # one cache entry per task
    # Resume from a complete checkpoint: no task re-runs (no entry is
    # rewritten), the points are reconstructed bit-identically.
    resumed = run_sweep(measurement, GRID, replications=3, checkpoint=store)
    assert [p.value for p in resumed] == [p.value for p in first]
    assert {
        entry.name: entry.read_bytes() for entry in store.iterdir()
    } == recorded
    # And both equal the plain un-checkpointed sweep.
    plain = run_sweep(measurement, GRID, replications=3)
    assert [p.value for p in plain] == [p.value for p in first]


def test_telemetry_heartbeats_cover_fleet_tasks():
    obs = pytest.importorskip("repro.obs")
    telemetry = obs.SweepTelemetry()
    measurement = make_measurement()
    points = run_sweep(measurement, GRID, replications=2,
                       telemetry=telemetry)
    baseline = run_sweep(measurement, GRID, replications=2)
    assert [p.value for p in points] == [p.value for p in baseline]
    # One heartbeat per (point, replication) task, fleet-batched or not.
    assert len(telemetry.heartbeats) == len(GRID) * 2
