"""Job specs: normalization, fingerprints, and pure execution."""

import pytest

from repro.service.cache import ResultCache
from repro.service.jobs import (
    execute_job_task,
    job_fingerprint,
    normalize_spec,
    run_job,
)


class TestNormalize:
    def test_defaults_are_filled(self):
        spec = normalize_spec({"kind": "simulate"})
        assert spec["traffic"] == "uniform"
        assert spec["load"] == 0.3
        assert spec["cycles"] == 300

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            normalize_spec({"kind": "teleport"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            normalize_spec({"kind": "simulate", "laod": 0.5})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError):
            normalize_spec({"kind": "simulate",
                            "config": {"radixx": 16}})

    def test_ill_typed_value_rejected(self):
        with pytest.raises(ValueError):
            normalize_spec({"kind": "simulate", "cycles": "many"})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            normalize_spec(["kind", "simulate"])


class TestFingerprint:
    def test_defaults_and_explicit_agree(self):
        assert job_fingerprint({"kind": "simulate"}) == job_fingerprint({
            "kind": "simulate", "traffic": "uniform", "load": 0.3,
            "seed": 1, "cycles": 300, "warmup": 40, "drain": False,
        })

    def test_different_work_differs(self):
        base = job_fingerprint({"kind": "simulate"})
        assert job_fingerprint({"kind": "simulate", "load": 0.4}) != base
        assert job_fingerprint({"kind": "audit"}) != base

    def test_config_order_normalized(self):
        # failed_channels in any order address the same cache entry
        # (inherited from config_fingerprint's normalisation).
        channels_one = {"failed_channels": [[0, 1, 0], [2, 3, 1]]}
        channels_two = {"failed_channels": [[2, 3, 1], [0, 1, 0]]}
        assert job_fingerprint(
            {"kind": "simulate", "config": channels_one}
        ) == job_fingerprint(
            {"kind": "simulate", "config": channels_two}
        )

    def test_islip_iterations_is_a_spec_field(self):
        islip = {"arbitration": "islip", "radix": 16, "layers": 1,
                 "channel_multiplicity": 1}
        one = {"kind": "simulate", "config": {**islip, "islip_iterations": 1}}
        four = {"kind": "simulate", "config": {**islip, "islip_iterations": 4}}
        assert normalize_spec(four)["config"]["islip_iterations"] == 4
        assert job_fingerprint(one) != job_fingerprint(four)
        assert job_fingerprint(one) == job_fingerprint(
            {"kind": "simulate", "config": islip}
        )

    def test_is_a_sha256_hexdigest(self):
        fingerprint = job_fingerprint({"kind": "chaos"})
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")


class TestRunJob:
    def test_chaos_is_pure_without_chaos_dir(self):
        spec = {"kind": "chaos", "mode": "crash_always", "seed": 2}
        payload = run_job(spec)  # inert: drills need a chaos_dir
        assert payload == {"kind": "chaos", "mode": "crash_always",
                           "seed": 2, "value": 6.0}

    def test_simulate_deterministic(self):
        spec = {"kind": "simulate", "load": 0.2, "cycles": 40,
                "warmup": 5}
        assert run_job(spec) == run_job(spec)

    def test_sweep_payload_shape(self):
        spec = {"kind": "sweep", "loads": [0.1, 0.2], "cycles": 30,
                "warmup": 5, "replications": 2}
        payload = run_job(spec)
        assert payload["kind"] == "sweep"
        assert [point["load"] for point in payload["points"]] == [0.1, 0.2]
        assert all("half_width" in point for point in payload["points"])

    def test_fuzz_payload_shape(self):
        payload = run_job({"kind": "fuzz", "cases": 2, "max_radix": 8})
        assert payload["kind"] == "fuzz"
        assert payload["cases_run"] == 2

    def test_audit_payload_shape(self):
        payload = run_job({"kind": "audit", "cycles": 40, "warmup": 5})
        assert payload["kind"] == "audit"
        assert "summary" in payload


class TestVOQJobs:
    """VOQ schemes run through the same switch factory as every job."""

    CONFIG = {"radix": 8, "layers": 2, "channel_multiplicity": 2}

    @pytest.mark.parametrize("scheme", ["islip", "mwm"])
    @pytest.mark.parametrize("traffic", ["uniform", "hotspot"])
    def test_simulate_equals_a_direct_measurement(self, scheme, traffic):
        from repro.harness.measure import SimulationMeasurement
        from repro.service.jobs import build_config
        from repro.traffic import TrafficSpec

        fields = dict(self.CONFIG, arbitration=scheme)
        payload = run_job({
            "kind": "simulate", "config": fields, "traffic": traffic,
            "load": 0.2, "seed": 3, "warmup": 10, "cycles": 80,
        })
        result = SimulationMeasurement(
            build_config(fields), traffic=TrafficSpec(traffic), load=0.2,
            warmup_cycles=10, measure_cycles=80,
        ).run(3)
        assert payload["packets_ejected"] == result.packets_ejected > 0
        assert payload["flits_ejected"] == result.flits_ejected
        assert payload["throughput_packets_per_cycle"] == (
            result.throughput_packets_per_cycle
        )
        assert payload["avg_latency_cycles"] == (
            result.latency_sum / result.latency_count
        )

    @pytest.mark.parametrize("scheme", ["islip", "mwm"])
    def test_audit_summarises_a_voq_trace(self, scheme):
        from repro.obs import validate_audit_summary

        payload = run_job({
            "kind": "audit", "config": dict(self.CONFIG, arbitration=scheme),
            "cycles": 80, "warmup": 10, "window": 16,
        })
        summary = payload["summary"]
        assert validate_audit_summary(summary) == summary
        assert summary["meta"]["arbitration"] == scheme
        assert summary["trace"]["counts_by_kind"]["sched_grant"] > 0


class TestExecuteJobTask:
    def test_writes_the_cache_entry(self, tmp_path):
        import json

        spec = {"kind": "chaos", "seed": 4}
        fingerprint = job_fingerprint(spec)
        value = execute_job_task(
            spec_json=json.dumps(spec), cache_root=str(tmp_path)
        )
        assert value == 1.0
        cached = ResultCache(tmp_path).get(fingerprint)
        assert cached == run_job(spec)
