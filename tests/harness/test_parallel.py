"""Tests of the process-parallel sweep/replication executor.

The CI container may expose a single CPU, so these tests assert
*determinism* — ``workers=N`` must reproduce the serial results exactly —
rather than wall-clock speedup.
"""

import functools
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.harness
from repro.core.config import HiRiseConfig
from repro.faults import FaultSchedule, fail_channel
from repro.harness import parallel, sweep
from repro.harness.measure import SimulationMeasurement
from repro.harness.parallel import (
    ResiliencePolicy,
    TaskFailure,
    task_fingerprint,
)
from repro.harness.sweep import parameter_grid, run_sweep
from repro.metrics.confidence import replicate, t_interval
from repro.network.engine import Simulation
from repro.service.cache import ResultCache
from repro.switches import SwizzleSwitch2D
from repro.traffic import TrafficSpec, UniformRandomTraffic


def throughput_measurement(seed, radix=8, load=0.6):
    """Module-level measurement (picklable) used by the parallel tests."""
    switch = SwizzleSwitch2D(radix)
    traffic = UniformRandomTraffic(radix, load=load, seed=seed)
    result = Simulation(switch, traffic, warmup_cycles=20).run(80)
    return result.throughput_packets_per_cycle


def seed_polynomial(seed):
    """Cheap deterministic stand-in experiment."""
    return seed * seed + 0.5 * seed + 1.0


#: Seeds :func:`counted_polynomial` ran in this process, in call order.
CALLS = []


def counted_polynomial(seed):
    """seed_polynomial that logs every in-process run in CALLS."""
    CALLS.append(seed)
    return seed_polynomial(seed)


def crash_once_measurement(seed, token=None):
    """Kill the whole worker process the first time a seed runs.

    A token file marks "this seed already crashed once", so the retry
    succeeds — modelling a transient worker crash (OOM kill, segfault).
    """
    marker = f"{token}.{seed}"
    if token is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(1)
    return seed_polynomial(seed)


def hang_once_measurement(seed, token=None):
    """Hang far past any test timeout the first time a seed runs.

    The marker is written *before* sleeping so the retry (in a rebuilt
    pool) takes the fast path.
    """
    marker = f"{token}.{seed}"
    if token is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        time.sleep(60)
    return seed_polynomial(seed)


def raise_once_measurement(seed, token=None):
    """Raise (in-process) the first time a seed runs; succeed after."""
    marker = f"{token}.{seed}"
    if token is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise RuntimeError("transient instrument fault")
    return seed_polynomial(seed)


def always_fail_measurement(seed):
    raise RuntimeError("instrument fault")


def crash_always_measurement(seed):
    """Kill the worker on every attempt (a deterministic crasher)."""
    os._exit(1)


def value_error_measurement(seed):
    """Module-level (so picklable) measurement that always raises."""
    raise ValueError("bad parameter")


class TestParallelSweep:
    # References come from direct measurement calls: every run_sweep,
    # serial or parallel, goes through the same executor, so comparing
    # two sweeps with each other would prove nothing.
    def test_parallel_sweep_matches_serial(self):
        grid = parameter_grid(radix=[4, 8], load=[0.3, 0.9])
        expected = [throughput_measurement(seed=3, **point) for point in grid]
        for workers in (1, 4):
            points = run_sweep(
                throughput_measurement, grid, base_seed=3, workers=workers
            )
            assert [p.value for p in points] == expected
            assert [p.parameters for p in points] == grid

    def test_parallel_sweep_with_replications_matches_serial(self):
        grid = parameter_grid(radix=[4], load=[0.5, 0.8])
        expected = [
            t_interval([
                throughput_measurement(seed=seed, **point)
                for seed in range(3)
            ])
            for point in grid
        ]
        for workers in (1, 2):
            points = run_sweep(
                throughput_measurement, grid, replications=3,
                workers=workers,
            )
            for point, interval in zip(points, expected):
                assert point.value == interval.mean
                assert point.interval.mean == interval.mean
                assert point.interval.half_width == interval.half_width

    def test_unpicklable_measurement_falls_back_to_serial(self):
        grid = parameter_grid(radix=[4, 8])
        # A lambda cannot be pickled into worker processes; the executor
        # must fall back to the serial path and still return results.
        points = run_sweep(
            lambda seed, radix: float(radix + seed), grid, workers=4
        )
        assert [p.value for p in points] == [4.0, 8.0]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_sweep(throughput_measurement, [{}], workers=0)

    def test_measurement_errors_propagate(self):
        def boom(seed):
            raise RuntimeError("measurement failed")

        with pytest.raises(RuntimeError, match="measurement failed"):
            run_sweep(boom, [{}, {}], workers=2)


class TestSingleAttemptContract:
    """With no resilience keyword each task gets exactly one attempt."""

    def test_pool_task_error_propagates_unwrapped(self):
        # A module-level measurement really runs in the pool (a local
        # function would only reach the serial fallback).
        with pytest.raises(ValueError, match="bad parameter"):
            run_sweep(value_error_measurement, [{}, {}], workers=2)

    def test_worker_crash_raises_broken_pool(self):
        # The crash is not rerun in the caller: a deterministic crasher
        # would take the test process down with it.
        with pytest.raises(BrokenProcessPool):
            run_sweep(crash_always_measurement, [{}, {}], workers=2)

    def test_one_run_sweep(self):
        assert sweep.run_sweep is parallel.run_sweep
        assert repro.harness.run_sweep is parallel.run_sweep


class TestParallelReplicate:
    def test_workers_reproduce_serial_interval(self):
        serial = replicate(seed_polynomial, num_replications=6, base_seed=2)
        fanned = replicate(
            seed_polynomial, num_replications=6, base_seed=2, workers=3
        )
        assert fanned.mean == serial.mean
        assert fanned.half_width == serial.half_width
        assert fanned.observations == serial.observations

    def test_parallel_module_replicate(self):
        interval = parallel.replicate(
            throughput_measurement,
            parameters={"radix": 4, "load": 0.5},
            num_replications=3,
            workers=2,
        )
        serial = replicate(
            lambda seed: throughput_measurement(seed, radix=4, load=0.5),
            num_replications=3,
        )
        assert interval.mean == serial.mean
        assert interval.half_width == serial.half_width

    def test_too_few_replications_rejected(self):
        with pytest.raises(ValueError):
            parallel.replicate(seed_polynomial, num_replications=1)


class TestResiliencePolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ResiliencePolicy(task_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            ResiliencePolicy(backoff_base=-0.1)

    def test_resilient_sweep_matches_serial_when_nothing_fails(self):
        grid = parameter_grid(radix=[4, 8], load=[0.3, 0.9])
        serial = run_sweep(throughput_measurement, grid, base_seed=3)
        supervised = run_sweep(
            throughput_measurement, grid, base_seed=3, workers=2,
            max_retries=2,
        )
        assert [p.value for p in supervised] == [p.value for p in serial]
        assert [p.parameters for p in supervised] == [
            p.parameters for p in serial
        ]

    def test_resilient_serial_path_retries_too(self, tmp_path):
        # workers=1 exercises the in-process fallback: no preemptible
        # timeouts, but retries still apply.  (The measurement must
        # *raise*, not crash — serial runs share the parent process.)
        token = str(tmp_path / "flaky")
        grid = [{"token": token}]
        points = run_sweep(
            raise_once_measurement, grid, replications=3, base_seed=0,
            workers=1, max_retries=1, backoff_base=0.0,
        )
        expected = replicate(seed_polynomial, num_replications=3, base_seed=0)
        assert points[0].interval.mean == expected.mean
        assert all(os.path.exists(f"{token}.{seed}") for seed in range(3))

    def test_worker_crash_is_retried_to_success(self, tmp_path):
        token = str(tmp_path / "crash")
        grid = parameter_grid(token=[token])
        # A pool break fails *every* in-flight future and the scheduler
        # charges one of them (it cannot tell which task killed the
        # worker), so an innocent sibling may be charged once per crash
        # round: with 4 real crashes the budget must cover innocent
        # charges on top of each task's own crash.
        points = run_sweep(
            crash_once_measurement, grid, replications=4, base_seed=0,
            workers=2, max_retries=4, backoff_base=0.0,
        )
        expected = replicate(seed_polynomial, num_replications=4, base_seed=0)
        assert points[0].interval.mean == expected.mean
        assert points[0].interval.half_width == expected.half_width
        # Every seed crashed exactly once before succeeding.
        assert all(
            os.path.exists(f"{token}.{seed}") for seed in range(4)
        )

    def test_hung_task_times_out_and_retries(self, tmp_path):
        token = str(tmp_path / "hang")
        grid = parameter_grid(token=[token])
        start = time.monotonic()
        points = run_sweep(
            hang_once_measurement, grid, replications=2, base_seed=0,
            workers=2, task_timeout=1.0, max_retries=2, backoff_base=0.0,
        )
        elapsed = time.monotonic() - start
        expected = replicate(seed_polynomial, num_replications=2, base_seed=0)
        assert points[0].interval.mean == expected.mean
        assert elapsed < 30.0  # far below the 60 s hang

    def test_exhausted_retries_raise_task_failure(self):
        with pytest.raises(TaskFailure) as excinfo:
            run_sweep(
                always_fail_measurement, [{}], workers=2,
                max_retries=1, backoff_base=0.0,
            )
        failure = excinfo.value
        assert failure.attempts == 2
        assert "instrument fault" in str(failure)
        assert isinstance(failure.cause, RuntimeError)


class TestBackoffJitter:
    def test_rejects_out_of_range_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            ResiliencePolicy(backoff_jitter=1.5)
        with pytest.raises(ValueError, match="jitter"):
            ResiliencePolicy(backoff_jitter=-0.1)

    def test_deterministic_for_same_seed_key_attempt(self):
        policy = ResiliencePolicy(backoff_base=0.5, jitter_seed=7)
        assert policy.backoff_delay(2, key="fp") == \
            policy.backoff_delay(2, key="fp")
        clone = ResiliencePolicy(backoff_base=0.5, jitter_seed=7)
        assert clone.backoff_delay(2, key="fp") == \
            policy.backoff_delay(2, key="fp")

    def test_delay_stays_within_jitter_band(self):
        policy = ResiliencePolicy(
            backoff_base=0.2, backoff_cap=5.0, backoff_jitter=0.5
        )
        for attempt in range(1, 6):
            ceiling = min(0.2 * 2 ** (attempt - 1), 5.0)
            for key in ("a", "b", 3):
                delay = policy.backoff_delay(attempt, key=key)
                assert ceiling * 0.5 <= delay <= ceiling

    def test_distinct_keys_desynchronise(self):
        # The retry-storm fix: tasks failed by the same crash must not
        # retry in lockstep.
        policy = ResiliencePolicy(backoff_base=1.0)
        delays = {
            policy.backoff_delay(1, key=f"fp-{n}") for n in range(8)
        }
        assert len(delays) == 8

    def test_zero_jitter_is_pure_exponential(self):
        policy = ResiliencePolicy(backoff_base=0.1, backoff_jitter=0.0)
        assert [policy.backoff_delay(a) for a in (1, 2, 3)] == \
            [0.1, 0.2, 0.4]

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            ResiliencePolicy().backoff_delay(0)

    def test_jittered_retries_pin_serial_identical_results(self, tmp_path):
        # Jitter shifts the *sleep schedule* only; values stay
        # bit-identical to the serial, failure-free path.
        token = str(tmp_path / "flaky")
        grid = [{"token": token}]
        points = run_sweep(
            raise_once_measurement, grid, replications=3, base_seed=0,
            workers=2, max_retries=2, backoff_base=0.01,
        )
        expected = replicate(seed_polynomial, num_replications=3,
                             base_seed=0)
        assert points[0].interval.mean == expected.mean
        assert points[0].interval.half_width == expected.half_width


class TestBreakerHook:
    class _Recorder:
        """Minimal breaker duck-type that logs every executor call."""

        def __init__(self, open_after=None):
            self.crashes = []
            self.successes = []
            self.open_after = open_after

        def record_crash(self, key):
            self.crashes.append(key)
            return (
                self.open_after is not None
                and self.crashes.count(key) >= self.open_after
            )

        def record_success(self, key):
            self.successes.append(key)

        def is_open(self, key):
            return (
                self.open_after is not None
                and self.crashes.count(key) >= self.open_after
            )

    def test_successes_reach_the_breaker_keyed_by_breaker_keys(self):
        breaker = self._Recorder()
        tasks = [(seed_polynomial, {}, seed) for seed in range(3)]
        values = parallel._execute_tasks(
            tasks, workers=1,
            policy=ResiliencePolicy(
                breaker=breaker, breaker_keys=("x", "y", "z"),
            ),
        )
        assert values == [seed_polynomial(seed) for seed in range(3)]
        assert sorted(breaker.successes) == ["x", "y", "z"]
        assert breaker.crashes == []

    def test_crashes_reach_the_breaker(self, tmp_path):
        token = str(tmp_path / "crash")
        breaker = self._Recorder()
        tasks = [(crash_once_measurement, {"token": token}, 0)]
        parallel._execute_tasks(
            tasks, workers=2,
            policy=ResiliencePolicy(
                max_retries=3, backoff_base=0.0,
                breaker=breaker, breaker_keys=("the-fp",),
            ),
        )
        assert breaker.crashes == ["the-fp"]
        assert breaker.successes == ["the-fp"]

    def test_open_breaker_fails_fast_despite_retry_budget(self, tmp_path):
        breaker = self._Recorder(open_after=2)
        tasks = [(crash_always_measurement, {}, 0)]
        with pytest.raises(TaskFailure) as excinfo:
            parallel._execute_tasks(
                tasks, workers=2,
                policy=ResiliencePolicy(
                    max_retries=50, backoff_base=0.0,
                    breaker=breaker, breaker_keys=("the-fp",),
                ),
            )
        # Opened at the second crash: far below the 51-attempt budget.
        assert excinfo.value.attempts == 2
        assert breaker.crashes == ["the-fp", "the-fp"]

    def test_plain_failures_do_not_count_as_crashes(self):
        breaker = self._Recorder(open_after=1)
        tasks = [(always_fail_measurement, {}, 0)]
        with pytest.raises(TaskFailure) as excinfo:
            parallel._execute_tasks(
                tasks, workers=2,
                policy=ResiliencePolicy(
                    max_retries=2, backoff_base=0.0,
                    breaker=breaker, breaker_keys=("the-fp",),
                ),
            )
        # The retry budget, not the breaker, ended this task: raising
        # an exception is not killing a worker.
        assert excinfo.value.attempts == 3
        assert breaker.crashes == []


class TestTaskFingerprint:
    def test_module_level_function_keys_on_parameters_and_seed(self):
        fp = task_fingerprint(
            (throughput_measurement, {"radix": 4, "load": 0.5}, 1)
        )
        assert len(fp) == 64
        assert fp == task_fingerprint(
            (throughput_measurement, {"load": 0.5, "radix": 4}, 1)
        )
        assert fp != task_fingerprint(
            (throughput_measurement, {"radix": 4, "load": 0.5}, 2)
        )
        assert fp != task_fingerprint(
            (throughput_measurement, {"radix": 8, "load": 0.5}, 1)
        )
        assert fp != task_fingerprint(
            (seed_polynomial, {"radix": 4, "load": 0.5}, 1)
        )

    def test_no_stable_identity_is_none(self):
        def closure(seed):
            return float(seed)

        class Bare:
            def __call__(self, seed):
                return float(seed)

        for measurement in (
            lambda seed: float(seed),
            closure,
            functools.partial(throughput_measurement, radix=4),
            Bare(),
        ):
            assert task_fingerprint((measurement, {}, 0)) is None
        # Parameters with no JSON form have no canonical identity either.
        assert task_fingerprint((seed_polynomial, {"x": object()}, 0)) is None

    def test_simulation_identity_ignores_observers(self):
        from repro.obs.perf import PerfCountersFactory

        config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
        plain = SimulationMeasurement(config)
        observed = SimulationMeasurement(
            config, invariants=True, perf_factory=PerfCountersFactory(),
        )
        assert task_fingerprint((plain, {"load": 0.5}, 3)) == (
            task_fingerprint((observed, {"load": 0.5}, 3))
        )

    def test_uniform_identity_is_stable(self):
        # Recorded before traffic became a TrafficSpec: checkpoints
        # written then still serve uniform tasks.
        measurement = SimulationMeasurement(
            HiRiseConfig(radix=16, layers=2, channel_multiplicity=2),
            warmup_cycles=20, measure_cycles=80,
        )
        assert task_fingerprint((measurement, {"load": 0.3}, 5)) == (
            "40054d4ede8200a11ff7dd55670f0046a5c3aa1397bed57684cc6d2d824b9a76"
        )

    def test_simulation_identity_covers_what_changes_a_value(self):
        config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
        faults = FaultSchedule([fail_channel(5, 0, 1, 0)])
        base = task_fingerprint((SimulationMeasurement(config), {}, 3))
        variants = [
            (SimulationMeasurement(config), {}, 4),
            (SimulationMeasurement(config), {"load": 0.5}, 3),
            (SimulationMeasurement(config), {"channel_multiplicity": 1}, 3),
            (SimulationMeasurement(config, metric="avg_latency"), {}, 3),
            (SimulationMeasurement(config, measure_cycles=301), {}, 3),
            (SimulationMeasurement(config, drain=True), {}, 3),
            (SimulationMeasurement(config, faults=faults), {}, 3),
            (SimulationMeasurement(config, traffic=TrafficSpec("hotspot")),
             {}, 3),
            (SimulationMeasurement(config, traffic=TrafficSpec(
                packet_flits=2)), {}, 3),
            (SimulationMeasurement(config, traffic=TrafficSpec(
                "adversarial", demands={1: 7})), {}, 3),
            (SimulationMeasurement(config, traffic=TrafficSpec(
                "adversarial", demands={2: 7})), {}, 3),
        ]
        fingerprints = {task_fingerprint(task) for task in variants}
        assert base not in fingerprints
        assert len(fingerprints) == len(variants)
        # The default spec is the uniform traffic of every earlier task.
        assert base == task_fingerprint((SimulationMeasurement(
            config, traffic=TrafficSpec("uniform", 4)), {}, 3))
        # A pinned traffic seed makes the task seed irrelevant.
        pinned = SimulationMeasurement(config, traffic_seed=7)
        assert task_fingerprint((pinned, {}, 0)) == (
            task_fingerprint((pinned, {}, 1))
        )


class TestCheckpointResume:
    """A checkpoint is a ResultCache directory keyed by task fingerprint."""

    @staticmethod
    def entries(path):
        return {entry.name: entry.read_bytes() for entry in path.iterdir()}

    def test_checkpoint_written_and_resumed(self, tmp_path):
        path = tmp_path / "sweep"
        grid = parameter_grid(radix=[4, 8])
        first = run_sweep(
            throughput_measurement, grid, base_seed=1, workers=2,
            checkpoint=path,
        )
        store = ResultCache(path)
        fingerprints = [
            task_fingerprint((throughput_measurement, point, 1))
            for point in grid
        ]
        assert store.fingerprints() == sorted(fingerprints)
        assert [store.get(fp)["value"] for fp in fingerprints] == [
            p.value for p in first
        ]
        # Resuming serves every task from the store: no entry is
        # rewritten (a recomputation would store a fresh wall time).
        written = self.entries(path)
        resumed = run_sweep(
            throughput_measurement, grid, base_seed=1, workers=2,
            checkpoint=path,
        )
        assert [p.value for p in resumed] == [p.value for p in first]
        assert self.entries(path) == written

    def test_partial_checkpoint_resumes_remaining_tasks(self, tmp_path):
        path = tmp_path / "partial"
        tasks = [(seed_polynomial, {}, seed) for seed in range(4)]
        store = ResultCache(path)
        for seed in (0, 2):
            store.put(task_fingerprint(tasks[seed]), {
                "value": seed_polynomial(seed), "wall_s": 0.0,
            })
        values = parallel._execute_tasks(
            tasks, workers=2, policy=ResiliencePolicy(checkpoint=path),
        )
        assert values == [seed_polynomial(seed) for seed in range(4)]
        assert store.fingerprints() == sorted(
            task_fingerprint(task) for task in tasks
        )

    def test_different_task_list_reuses_shared_tasks(self, tmp_path):
        path = tmp_path / "shared"
        run_sweep(
            counted_polynomial, [{}], replications=2, base_seed=0,
            checkpoint=path,
        )
        CALLS.clear()
        points = run_sweep(
            counted_polynomial, [{}], replications=3, base_seed=1,
            checkpoint=path,
        )
        assert CALLS == [2, 3]  # seed 1 came from the first sweep
        expected = t_interval([seed_polynomial(seed) for seed in (1, 2, 3)])
        assert points[0].value == expected.mean
        assert points[0].interval.half_width == expected.half_width

    def test_measurements_never_share_entries(self, tmp_path):
        # Two SimulationMeasurements differ only in their attributes; a
        # store keyed on the callable's name alone served the first
        # sweep's throughputs as the second sweep's latencies.
        path = tmp_path / "mixed"
        grid = parameter_grid(load=[0.3, 0.6])
        windows = dict(warmup_cycles=10, measure_cycles=50)
        first = SimulationMeasurement(
            HiRiseConfig(radix=16, layers=4, channel_multiplicity=4),
            metric="throughput", **windows,
        )
        second = SimulationMeasurement(
            HiRiseConfig(radix=16, layers=4, channel_multiplicity=1),
            metric="avg_latency", **windows,
        )
        run_sweep(first, grid, checkpoint=path)
        points = run_sweep(second, grid, checkpoint=path)
        assert [p.value for p in points] == [
            second(seed=0, **point) for point in grid
        ]

    def test_unidentifiable_task_refused_up_front(self, tmp_path):
        path = tmp_path / "refused"
        ran = []

        def closure(seed):
            ran.append(seed)
            return float(seed)

        with pytest.raises(ValueError, match="no stable identity"):
            run_sweep(closure, [{}], checkpoint=path)
        assert ran == [] and not path.exists()

    def test_wrong_format_rejected(self, tmp_path):
        # A file where the store directory belongs (say, a JSONL journal
        # from an older release) is refused and left untouched.
        path = tmp_path / "alien.jsonl"
        path.write_text('{"format": "other/v1"}\n')
        with pytest.raises(NotADirectoryError):
            run_sweep(seed_polynomial, [{}], checkpoint=path)
        assert path.read_text() == '{"format": "other/v1"}\n'

    def test_replicate_supports_resilience_keywords(self, tmp_path):
        path = tmp_path / "replicate"
        supervised = parallel.replicate(
            seed_polynomial, num_replications=4, base_seed=2,
            workers=2, max_retries=1, checkpoint=path,
        )
        plain = replicate(seed_polynomial, num_replications=4, base_seed=2)
        assert supervised.mean == plain.mean
        assert supervised.half_width == plain.half_width
        assert len(ResultCache(path).fingerprints()) == 4


class TestCheckpointCorruption:
    """Every damaged entry is quarantined and only its task recomputed."""

    TASKS = [(counted_polynomial, {}, seed) for seed in range(3)]
    EXPECTED = [seed_polynomial(seed) for seed in range(3)]

    def checkpoint(self, path):
        CALLS.clear()
        return parallel._execute_tasks(
            self.TASKS, 1, ResiliencePolicy(checkpoint=path),
        )

    @pytest.fixture
    def store(self, tmp_path):
        path = tmp_path / "store"
        assert self.checkpoint(path) == self.EXPECTED
        victim = path / task_fingerprint(self.TASKS[1])
        return path, victim, victim.read_bytes()

    def resume_with(self, path, victim, damaged):
        victim.write_bytes(damaged)
        for name in ResultCache(path).quarantined():
            (path / name).unlink()
        assert self.checkpoint(path) == self.EXPECTED, damaged
        assert CALLS == [1], damaged
        assert ResultCache(path).quarantined() == [
            f"{victim.name}.corrupt-0"
        ], damaged

    def test_truncated_entry_recomputed_at_every_offset(self, store):
        path, victim, pristine = store
        for offset in range(len(pristine)):
            self.resume_with(path, victim, pristine[:offset])

    @pytest.mark.parametrize("field", [
        b'"format":"', b'"fingerprint":"', b'"sha256":"', b'"value":',
    ], ids=["format", "fingerprint", "sha256", "payload"])
    def test_bit_flip_recomputed_in_every_field(self, store, field):
        # "value" lives inside the payload; its first digit is flipped.
        path, victim, pristine = store
        position = pristine.index(field) + len(field)
        for bit in range(8):
            damaged = bytearray(pristine)
            damaged[position] ^= 1 << bit
            self.resume_with(path, victim, bytes(damaged))
