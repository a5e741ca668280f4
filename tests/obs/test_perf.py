"""Tests of the self-profiling counters and the cross-run perf ledger."""

import json
import pickle

import pytest

from repro.core.config import HiRiseConfig
from repro.obs.perf import (
    DEFAULT_STRIDE,
    LEDGER_FORMAT,
    PerfCounters,
    PerfCountersFactory,
    append_ledger_entry,
    compare_perf,
    config_fingerprint,
    filter_entries,
    host_info,
    make_ledger_entry,
    metric_direction,
    read_ledger,
    run_micro_benchmark,
)

CONFIG = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)


def entry_with(metrics, config=CONFIG, workload="w"):
    return make_ledger_entry(config, workload, metrics)


class TestPerfCounters:
    def test_add_accumulates_time_and_ops(self):
        perf = PerfCounters(stride=4)
        perf.add("transmit", 100, ops=3)
        perf.add("transmit", 50)
        perf.add("arbitrate", 150, ops=2)
        assert perf.time_ns == {"transmit": 150, "arbitrate": 150}
        assert perf.ops == {"transmit": 3, "arbitrate": 2}
        assert perf.sampled_ns == 300
        fractions = perf.phase_fractions()
        assert fractions["transmit"] == pytest.approx(0.5)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_sampled_phases_scale_to_the_whole_run(self):
        # inject is timed on all 160 cycles, refill on the 10 sampled
        # ones: refill's 100 ns stand for 1600 ns of the run.
        perf = PerfCounters(stride=16)
        perf.cycles_total = 160
        perf.cycles_sampled = 10
        perf.add("inject", 100)
        perf.add("refill", 100)
        fractions = perf.phase_fractions()
        assert fractions["inject"] == pytest.approx(100 / 1700)
        assert fractions["refill"] == pytest.approx(1600 / 1700)

    def test_phase_order_is_canonical_then_extras(self):
        perf = PerfCounters()
        perf.add("zzz_custom", 1)
        perf.add("arbitrate", 1)
        perf.add("inject", 1)
        assert list(perf.phase_fractions()) == [
            "inject", "arbitrate", "zzz_custom"
        ]

    def test_empty_counters_have_no_fractions(self):
        assert PerfCounters().phase_fractions() == {}

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            PerfCounters(stride=0)
        with pytest.raises(ValueError):
            PerfCountersFactory(stride=-1)

    def test_bind_records_kernel_identity(self):
        class FakeFleet:
            num_lanes = 8

        perf = PerfCounters()
        perf.bind(FakeFleet())
        assert perf.kernel == "FakeFleet"
        assert perf.lanes == 8

    def test_summary_is_json_serialisable(self):
        perf = PerfCounters(stride=2)
        perf.add("transmit", 10, ops=1)
        perf.cycles_total = 8
        perf.cycles_sampled = 4
        summary = json.loads(json.dumps(perf.summary()))
        assert summary["stride"] == 2
        assert summary["cycles_sampled"] == 4
        assert summary["time_ns"] == {"transmit": 10}

    def test_to_stats_exports_per_phase_scalars(self):
        from repro.obs import StatsRegistry, validate_prometheus

        perf = PerfCounters(stride=3)
        perf.add("transmit", 75, ops=5)
        perf.add("arbitrate", 25)
        registry = StatsRegistry()
        perf.to_stats(registry)
        assert registry.get("perf.stride") == 3
        assert registry.get("perf.transmit.time_ns") == 75
        assert registry.get("perf.transmit.ops") == 5
        assert registry.get("perf.transmit.frac") == pytest.approx(0.75)
        assert registry.get("perf.arbitrate.ops") == 0
        assert validate_prometheus(registry.to_prometheus()) > 0

    def test_factory_eq_hash_and_pickle(self):
        factory = PerfCountersFactory(stride=8)
        assert factory == PerfCountersFactory(stride=8)
        assert factory != PerfCountersFactory(stride=4)
        assert hash(factory) == hash(PerfCountersFactory(stride=8))
        assert factory.fleet_capable is True
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        assert clone().stride == 8


class TestConfigFingerprint:
    def test_equal_configs_fingerprint_identically(self):
        assert config_fingerprint(CONFIG) == config_fingerprint(
            HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
        )

    def test_failed_channel_order_is_normalised(self):
        first = HiRiseConfig(
            radix=8, layers=2, channel_multiplicity=2,
            failed_channels=[(0, 1, 0), (1, 0, 1)],
        )
        second = HiRiseConfig(
            radix=8, layers=2, channel_multiplicity=2,
            failed_channels=[(1, 0, 1), (0, 1, 0)],
        )
        assert config_fingerprint(first) == config_fingerprint(second)

    def test_architectural_changes_change_the_fingerprint(self):
        other = HiRiseConfig(radix=16, layers=2, channel_multiplicity=2)
        assert config_fingerprint(CONFIG) != config_fingerprint(other)

    def test_islip_iterations_change_the_fingerprint(self):
        # iSLIP-1 and iSLIP-4 are different schedulers with different
        # results; one fingerprint for both would mix their ledgers.
        islip = dict(radix=16, layers=1, channel_multiplicity=1,
                     arbitration="islip")
        assert config_fingerprint(
            HiRiseConfig(islip_iterations=1, **islip)
        ) != config_fingerprint(HiRiseConfig(islip_iterations=4, **islip))

    def test_every_config_field_is_canonical(self):
        # A field missing from the canonical form would let two
        # different configs share a fingerprint.
        from dataclasses import fields, replace

        from repro.core.config import config_canonical
        from repro.network.port import PortConfig
        from repro.service.jobs import build_config

        names = {field.name for field in fields(HiRiseConfig)}
        assert set(config_canonical(CONFIG)) == names
        variants = {
            "radix": 16,
            "layers": 1,
            "channel_multiplicity": 1,
            "allocation": "priority",
            "arbitration": "age",
            "num_classes": 4,
            "islip_iterations": 2,
            "port_config": PortConfig(num_vcs=2),
            "qos_weights": tuple(1.0 + i for i in range(8)),
            "failed_channels": ((0, 1, 0),),
        }
        assert set(variants) == names
        seen = {config_fingerprint(CONFIG)}
        for name, value in variants.items():
            other = replace(CONFIG, **{name: value})
            seen.add(config_fingerprint(other))
            assert build_config(config_canonical(other)) == other, name
        assert len(seen) == 1 + len(variants)

    def test_host_info_is_json_serialisable(self):
        info = json.loads(json.dumps(host_info()))
        assert "platform" in info and "python" in info


class TestLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        first = entry_with({"cycles_per_sec": 100.0})
        second = entry_with({"cycles_per_sec": 120.0})
        append_ledger_entry(path, first)
        append_ledger_entry(path, second)
        entries = read_ledger(path)
        assert entries == [first, second]
        assert all(e["format"] == LEDGER_FORMAT for e in entries)

    def test_missing_file_reads_as_empty_history(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == []

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        entry = entry_with({"cycles_per_sec": 100.0})
        append_ledger_entry(path, entry)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"format": "repro.perf/v1", "metr')  # crash mid-append
        assert read_ledger(path) == [entry]

    def test_wrong_format_line_raises(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "repro.telemetry/v1"}\n')
        with pytest.raises(ValueError, match="not a repro.perf/v1"):
            read_ledger(path)

    def test_append_refuses_foreign_entries(self, tmp_path):
        with pytest.raises(ValueError, match="refusing to append"):
            append_ledger_entry(tmp_path / "x.jsonl", {"format": "nope"})

    def test_entry_requires_workload_label(self):
        with pytest.raises(ValueError, match="workload"):
            make_ledger_entry(CONFIG, "", {"cycles_per_sec": 1.0})

    def test_filter_by_fingerprint_and_workload(self):
        other_config = HiRiseConfig(radix=16, layers=2,
                                    channel_multiplicity=2)
        entries = [
            entry_with({"a": 1.0}, workload="w1"),
            entry_with({"a": 2.0}, workload="w2"),
            entry_with({"a": 3.0}, config=other_config, workload="w1"),
        ]
        fp = config_fingerprint(CONFIG)
        assert filter_entries(entries, fp) == entries[:2]
        assert filter_entries(entries, fp, "w1") == entries[:1]
        assert filter_entries(entries, workload="w1") == [
            entries[0], entries[2]
        ]


class TestComparePerf:
    def test_throughput_drop_is_a_regression(self):
        regressions = compare_perf(
            entry_with({"cycles_per_sec": 50.0}),
            entry_with({"cycles_per_sec": 100.0}),
            rel_tol=0.2,
        )
        assert len(regressions) == 1
        assert regressions[0].metric == "cycles_per_sec"
        assert "dropped" in str(regressions[0])

    def test_throughput_rise_is_not_a_regression(self):
        assert compare_perf(
            entry_with({"cycles_per_sec": 200.0}),
            entry_with({"cycles_per_sec": 100.0}),
        ) == []

    def test_within_tolerance_passes(self):
        assert compare_perf(
            entry_with({"cycles_per_sec": 90.0}),
            entry_with({"cycles_per_sec": 100.0}),
            rel_tol=0.2,
        ) == []

    def test_overhead_rise_is_a_regression(self):
        regressions = compare_perf(
            entry_with({"perf_on_overhead_frac": 0.10}),
            entry_with({"perf_on_overhead_frac": 0.02}),
            rel_tol=0.5,
        )
        assert len(regressions) == 1
        assert "rose" in str(regressions[0])

    def test_directionless_metrics_are_skipped(self):
        assert metric_direction("calibration_ops_per_sec") == 0
        assert metric_direction("some_unknown_count") == 0
        assert compare_perf(
            entry_with({"calibration_ops_per_sec": 1.0}),
            entry_with({"calibration_ops_per_sec": 100.0}),
        ) == []

    def test_suffix_heuristic_directions(self):
        assert metric_direction("aggregate_lane_cycles_per_sec") == 1
        assert metric_direction("fleet_speedup") == 1
        assert metric_direction("drain_seconds") == -1
        assert metric_direction("custom_overhead_frac") == -1

    def test_fingerprint_mismatch_refuses(self):
        other = HiRiseConfig(radix=16, layers=2, channel_multiplicity=2)
        with pytest.raises(ValueError, match="refusing to compare"):
            compare_perf(
                entry_with({"cycles_per_sec": 1.0}),
                entry_with({"cycles_per_sec": 1.0}, config=other),
            )

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_perf(entry_with({}), entry_with({}), rel_tol=-0.1)

    def test_non_finite_values_are_skipped(self):
        assert compare_perf(
            entry_with({"cycles_per_sec": float("nan")}),
            entry_with({"cycles_per_sec": 100.0}),
        ) == []


class TestTrafficPhase:
    """Generation is its own phase, apart from packing and injection."""

    def test_scalar_simulation_times_generation(self):
        from repro.core.hirise import HiRiseSwitch
        from repro.network.engine import Simulation
        from repro.traffic import UniformRandomTraffic

        perf = PerfCounters(stride=4)
        switch = HiRiseSwitch(CONFIG, perf=perf)
        traffic = UniformRandomTraffic(CONFIG.radix, 0.5, seed=3)
        result = Simulation(switch, traffic).run(60)
        assert perf.time_ns["traffic"] > 0
        assert perf.ops["traffic"] == result.packets_injected
        assert perf.ops["inject"] == result.packets_injected
        assert "pack" not in perf.time_ns

    def test_unattached_simulation_keeps_no_counters(self):
        from repro.core.hirise import HiRiseSwitch
        from repro.network.engine import Simulation
        from repro.traffic import UniformRandomTraffic

        simulation = Simulation(
            HiRiseSwitch(CONFIG),
            UniformRandomTraffic(CONFIG.radix, 0.5, seed=3),
        )
        assert simulation._perf is None

    def test_fleet_separates_generation_from_packing(self):
        from repro.core.fleet import FleetSimulation
        from repro.traffic import UniformRandomTraffic

        perf = PerfCounters(stride=4)
        fleet = FleetSimulation(
            CONFIG,
            [UniformRandomTraffic(CONFIG.radix, 0.5, seed=s)
             for s in range(3)],
            perf=perf,
        )
        results = fleet.run(60)
        injected = sum(result.packets_injected for result in results)
        assert perf.ops["traffic"] == injected
        assert perf.time_ns["traffic"] > 0
        assert perf.time_ns["pack"] > 0
        assert perf.ops["inject"] == injected
        assert list(perf.phase_fractions())[:3] == [
            "traffic", "pack", "inject"
        ]


class TestMicroBenchmark:
    def test_smoke_returns_ledger_ready_metrics(self):
        metrics, details = run_micro_benchmark(CONFIG, cycles=40, trials=1)
        assert metrics["cycles_per_sec"] > 0
        assert metrics["normalized"] > 0
        assert metrics["calibration_ops_per_sec"] > 0
        assert details["cycles"] == 40
        entry = make_ledger_entry(CONFIG, "test", metrics)
        assert entry["fingerprint"] == config_fingerprint(CONFIG)

    def test_profiled_run_populates_phase_counters(self):
        perf = PerfCounters(stride=4)
        run_micro_benchmark(CONFIG, cycles=40, trials=1, perf=perf)
        assert perf.cycles_total == 40
        assert perf.cycles_sampled == 10
        assert {"transmit", "refill", "arbitrate", "commit"} <= set(
            perf.time_ns
        )
        assert perf.time_ns.get("inject", 0) > 0

    @pytest.mark.parametrize("scheme", ["islip", "mwm"])
    def test_voq_cycle_splits_into_phases(self, scheme):
        voq = HiRiseConfig(radix=8, layers=1, channel_multiplicity=1,
                           arbitration=scheme)
        perf = PerfCounters(stride=4)
        run_micro_benchmark(voq, cycles=40, trials=1, perf=perf)
        assert perf.kernel == "VOQSwitch"
        assert perf.cycles_sampled == 10
        assert set(perf.time_ns) == {
            "inject", "transmit", "refill", "arbitrate"
        }
        assert perf.ops["transmit"] > 0
        assert perf.ops["arbitrate"] > 0

    @pytest.mark.parametrize("scheme", ["islip", "mwm"])
    def test_voq_run_with_perf_is_bit_identical(self, scheme):
        from repro.network.engine import Simulation
        from repro.obs.tracebin import BinaryTracer
        from repro.switches import make_switch
        from repro.traffic import UniformRandomTraffic

        voq = HiRiseConfig(radix=8, layers=1, channel_multiplicity=1,
                           arbitration=scheme)
        hooks = [
            {},
            {"perf": PerfCounters(stride=1)},
            {"perf": PerfCounters(stride=3)},
            {"perf": PerfCounters(stride=2), "tracer": BinaryTracer()},
        ]
        results = [
            Simulation(
                make_switch(voq, **hook),
                UniformRandomTraffic(8, load=0.8, seed=3),
                warmup_cycles=20,
            ).run(200)
            for hook in hooks
        ]
        assert all(result == results[0] for result in results[1:])

    @pytest.mark.parametrize("scheme", ["islip", "mwm"])
    def test_voq_books_injection_as_inject(self, scheme):
        """Like a Hi-Rise row, a VOQ row times injection as ``inject``
        (every call, counted in packets); the run stays bit-identical."""
        from repro.network.engine import Simulation
        from repro.switches import make_switch
        from repro.traffic import UniformRandomTraffic

        voq = HiRiseConfig(radix=8, layers=1, channel_multiplicity=1,
                           arbitration=scheme)

        def run(perf):
            return Simulation(
                make_switch(voq, perf=perf),
                UniformRandomTraffic(8, load=0.6, seed=4),
            ).run(120)

        perf = PerfCounters(stride=4)
        assert run(perf) == run(None)
        assert perf.time_ns["inject"] > 0
        assert perf.ops["inject"] == perf.ops["traffic"] > 0
        assert list(perf.phase_fractions())[:3] == [
            "traffic", "inject", "transmit"
        ]

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            run_micro_benchmark(CONFIG, cycles=0)
        with pytest.raises(ValueError):
            run_micro_benchmark(CONFIG, trials=0)


class TestPerfCli:
    """Exit-code contract of ``python -m repro perf``."""

    ARGS = ["--radix", "8", "--layers", "2", "--channels", "2",
            "--cycles", "40", "--trials", "1"]

    def run_cli(self, *extra):
        from repro.__main__ import main

        return main(["perf", *self.ARGS, *extra])

    def test_record_then_self_comparison_exits_zero(self, tmp_path, capsys):
        ledger = str(tmp_path / "perf.jsonl")
        assert self.run_cli("--record", "--ledger", ledger) == 0
        assert self.run_cli(
            "--record", "--ledger", ledger, "--against", ledger,
            "--rel-tol", "0.9",
        ) == 0
        assert len(read_ledger(ledger)) == 2
        out = capsys.readouterr().out
        assert "no perf regressions" in out

    def test_synthetic_regression_exits_one(self, tmp_path, capsys):
        ledger = str(tmp_path / "perf.jsonl")
        assert self.run_cli("--record", "--ledger", ledger) == 0
        entries = read_ledger(ledger)
        degraded = json.loads(json.dumps(entries[-1]))
        degraded["metrics"]["cycles_per_sec"] /= 100
        degraded["metrics"]["normalized"] /= 100
        append_ledger_entry(ledger, degraded)
        assert self.run_cli(
            "--ledger", ledger, "--against", ledger, "--rel-tol", "0.5",
        ) == 1
        assert "regression" in capsys.readouterr().err

    def test_missing_history_exits_two(self, tmp_path, capsys):
        assert self.run_cli(
            "--ledger", str(tmp_path / "absent.jsonl")
        ) == 2
        assert "no entries" in capsys.readouterr().err

    def test_no_record_and_no_ledger_exits_two(self):
        assert self.run_cli() == 2

    def test_records_an_islip_row(self, tmp_path, capsys):
        # VOQ schemes run on the switch make_switch builds for them.
        ledger = str(tmp_path / "perf.jsonl")
        islip = ["--radix", "16", "--layers", "1", "--channels", "1",
                 "--arbitration", "islip", "--cycles", "40", "--trials", "1"]
        from repro.__main__ import main

        assert main(["perf", *islip, "--islip-iterations", "1",
                     "--record", "--ledger", ledger]) == 0
        (entry,) = read_ledger(ledger)
        assert entry["fingerprint"] == config_fingerprint(HiRiseConfig(
            radix=16, layers=1, channel_multiplicity=1, arbitration="islip",
        ))
        assert entry["metrics"]["cycles_per_sec"] > 0
        capsys.readouterr()
        # iSLIP-4 is a different config: iSLIP-1's row is not its history.
        assert main(["perf", *islip, "--islip-iterations", "4",
                     "--ledger", ledger, "--history"]) == 2
        assert "no entries" in capsys.readouterr().err

    def test_islip_phase_table_lists_inject(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main([
            "perf", "--radix", "16", "--layers", "1", "--channels", "1",
            "--arbitration", "islip", "--islip-iterations", "1",
            "--cycles", "40", "--trials", "1", "--record", "--phases",
            "--ledger", str(tmp_path / "perf.jsonl"),
        ]) == 0
        rows = capsys.readouterr().out.split("phase breakdown", 1)[1]
        phases = [line.split()[0] for line in rows.splitlines()[1:]]
        assert phases == ["inject", "transmit", "refill", "arbitrate"]

    def test_history_and_phases_render(self, tmp_path, capsys):
        ledger = str(tmp_path / "perf.jsonl")
        assert self.run_cli("--record", "--ledger", ledger) == 0
        capsys.readouterr()
        assert self.run_cli(
            "--ledger", ledger, "--history", "5", "--phases",
            "--stride", "4",
        ) == 0
        out = capsys.readouterr().out
        assert "history (1 of 1" in out
        assert "phase breakdown" in out
        assert "arbitrate" in out
