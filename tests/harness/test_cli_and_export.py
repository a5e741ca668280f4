"""Tests of the CLI entry point and CSV export."""

import csv

import pytest

from repro.__main__ import build_parser, main
from repro.harness.export import export_rows_csv, export_series_csv
from repro.harness.tables import CostRow, SpeedupRow


class TestExportSeries:
    def test_long_format(self, tmp_path):
        series = {"A": [(1, 2.0), (3, 4.0)], "B": [(5, 6.0)]}
        path = export_series_csv(series, tmp_path / "out.csv", ["x", "y"])
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["series", "x", "y"]
        assert rows[1] == ["A", "1", "2.0"]
        assert rows[3] == ["B", "5", "6.0"]

    def test_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_series_csv({"A": [(1, 2, 3)]}, tmp_path / "x.csv", ["x", "y"])

    def test_creates_parent_directories(self, tmp_path):
        path = export_series_csv({"A": [(1, 1)]},
                                 tmp_path / "deep" / "dir" / "x.csv",
                                 ["x", "y"])
        assert path.exists()


class TestExportRows:
    def test_cost_rows(self, tmp_path):
        row = CostRow(
            design="X", configuration="c", area_mm2=1.0, frequency_ghz=2.0,
            energy_pj=3.0, throughput_tbps=4.0, tsv_count=5,
        )
        path = export_rows_csv([row], tmp_path / "rows.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert "design" in rows[0] and "paper_area_mm2" in rows[0]
        assert rows[1][0] == "X"

    def test_speedup_rows(self, tmp_path):
        row = SpeedupRow(mix="Mix1", avg_mpki=15.0, speedup=1.02,
                         paper_avg_mpki=15.0, paper_speedup=1.02)
        path = export_rows_csv([row], tmp_path / "s.csv")
        assert path.exists()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_rows_csv([], tmp_path / "empty.csv")


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cost_command(self, capsys):
        assert main(["cost", "--design", "hirise"]) == 0
        out = capsys.readouterr().out
        assert "mm^2" in out and "GHz" in out and "6144" in out

    def test_cost_2d(self, capsys):
        assert main(["cost", "--design", "2d"]) == 0
        assert "0.672" in capsys.readouterr().out

    def test_simulate_command(self, capsys):
        code = main([
            "simulate", "--radix", "8", "--layers", "2", "--channels", "1",
            "--cycles", "300", "--warmup", "50", "--load", "0.05",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered" in out

    def test_simulate_hotspot_2d(self, capsys):
        code = main([
            "simulate", "--design", "2d", "--radix", "8",
            "--traffic", "hotspot", "--cycles", "300", "--warmup", "50",
            "--load", "0.02",
        ])
        assert code == 0
        assert "hotspot" in capsys.readouterr().out

    def test_figure_12_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fig12.csv"
        assert main(["figure", "12", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "Fig 12" in capsys.readouterr().out

    def test_figure_9a(self, capsys):
        assert main(["figure", "9a"]) == 0
        assert "3D 4-Channel" in capsys.readouterr().out

    def test_invalid_choices_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "7"])
        with pytest.raises(SystemExit):
            main(["figure", "13"])

    def test_trace_command_exports_validated_traces(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        code = main([
            "trace", "--radix", "16", "--layers", "4", "--channels", "2",
            "--traffic", "hotspot", "--load", "0.6", "--cycles", "400",
            "--warmup", "0", "--drain",
            "--jsonl", str(jsonl), "--chrome", str(chrome), "--validate",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "traced 400 cycles" in out
        assert "p2_grant" in out
        assert "CLRG halvings" in out
        assert jsonl.exists() and chrome.exists()

    def test_trace_reference_kernel(self, capsys):
        code = main([
            "trace", "--kernel", "reference", "--radix", "8",
            "--layers", "2", "--channels", "1",
            "--cycles", "150", "--warmup", "0", "--load", "0.3",
        ])
        assert code == 0
        assert "events" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag", [
        (["trace", "--kernel", "reference"], "--kernel reference"),
        (["faults", "--kernel", "reference", "--generate", "1",
          "--include-inputs"], "--kernel reference"),
        (["faults", "--parity", "--generate", "1", "--include-inputs"],
         "--parity"),
    ], ids=["trace-reference", "faults-reference", "faults-parity"])
    @pytest.mark.parametrize("scheme", ["islip", "mwm"])
    def test_reference_kernel_refuses_voq_schemes(
        self, command, flag, scheme, capsys
    ):
        code = main([
            *command, "--arbitration", scheme, "--radix", "8",
            "--layers", "2", "--channels", "2", "--cycles", "40",
            "--warmup", "0",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "no VOQ twin" in captured.err
        assert f"--arbitration {scheme}" in captured.err
        assert flag in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("scheduler", [
        ["--arbitration", "islip", "--islip-iterations", "4"],
        ["--arbitration", "mwm"],
    ], ids=["islip4", "mwm"])
    def test_trace_voq_scheduler(self, scheduler, capsys, tmp_path):
        # VOQ schemes trace the VOQ crossbar, byte for byte the capture
        # of a VOQSwitch run by hand.
        from repro.core.config import HiRiseConfig
        from repro.network.engine import Simulation
        from repro.obs.tracebin import BinaryTracer
        from repro.switches import VOQSwitch
        from repro.traffic import UniformRandomTraffic

        path = tmp_path / "cli.tracebin"
        code = main([
            "trace", *scheduler, "--radix", "16", "--layers", "1",
            "--channels", "1", "--cycles", "200", "--warmup", "20",
            "--load", "0.3", "--binary", str(path),
        ])
        assert code == 0
        assert "sched_grant" in capsys.readouterr().out
        config = HiRiseConfig(
            radix=16, layers=1, channel_multiplicity=1,
            arbitration=scheduler[1],
            islip_iterations=int(scheduler[-1]) if len(scheduler) > 2 else 1,
        )
        tracer = BinaryTracer()
        Simulation(
            VOQSwitch(config, tracer=tracer),
            UniformRandomTraffic(16, 0.3, seed=1), warmup_cycles=20,
        ).run(200)
        tracer.save(str(tmp_path / "api.tracebin"))
        assert path.read_bytes() == (tmp_path / "api.tracebin").read_bytes()

    @pytest.mark.parametrize("command", [
        ["trace", "--cycles", "150", "--warmup", "0", "--load", "0.3",
         "--validate", "--jsonl", "{tmp}/flat.jsonl"],
        ["faults", "--generate", "3", "--include-inputs", "--cycles", "150",
         "--warmup", "0", "--load", "0.3", "--parity"],
        ["perf", "--record", "--cycles", "40", "--trials", "1"],
    ], ids=["trace", "faults", "perf"])
    def test_flat_design_commands(self, command, capsys, tmp_path):
        """The 2D baseline is the one-layer Hi-Rise switch, so tracing,
        fault injection and perf counters all run on it."""
        command = [arg.format(tmp=tmp_path) for arg in command]
        assert main([*command, "--design", "2d", "--radix", "8"]) == 0
        assert capsys.readouterr().err == ""

    def test_stats_command_dumps_registry(self, capsys):
        code = main([
            "stats", "--radix", "8", "--layers", "2", "--channels", "1",
            "--cycles", "300", "--warmup", "50", "--load", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Begin Simulation Statistics" in out
        assert "sim.latency.mean" in out
        assert "switch.cycles_observed" in out

    def test_stats_json_mode(self, capsys):
        import json

        code = main([
            "stats", "--radix", "8", "--layers", "2", "--channels", "1",
            "--cycles", "200", "--warmup", "0", "--load", "0.1", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sim.cycles"] == 200
        assert "sim.latency" in payload


@pytest.fixture(scope="module")
def hotspot_jsonl(tmp_path_factory):
    """One traced hotspot run exported to JSONL, shared by audit tests."""
    path = tmp_path_factory.mktemp("audit") / "trace.jsonl"
    code = main([
        "trace", "--radix", "16", "--layers", "4", "--channels", "2",
        "--traffic", "hotspot", "--load", "0.08", "--cycles", "1500",
        "--warmup", "100", "--jsonl", str(path),
    ])
    assert code == 0
    return path


class TestTraceInspection:
    def test_summary_mode_on_a_live_run(self, capsys):
        code = main([
            "trace", "--radix", "8", "--layers", "2", "--channels", "1",
            "--cycles", "200", "--warmup", "0", "--load", "0.2",
            "--summary",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-resource totals" in out
        assert "per-port totals" in out

    def test_inspect_summary_of_existing_jsonl(self, capsys, hotspot_jsonl):
        code = main([
            "trace", "--inspect", str(hotspot_jsonl), "--summary",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "events" in out and "p2_grant" in out
        assert "int L" in out  # labelled resources

    def test_inspect_kind_filter_streams_matching_records(
        self, capsys, hotspot_jsonl
    ):
        import json

        code = main([
            "trace", "--inspect", str(hotspot_jsonl),
            "--kind", "clrg_halve",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "meta"
        assert records[1:]
        assert all(r["event"] == "clrg_halve" for r in records[1:])

    def test_inspect_port_filter_writes_filtered_jsonl(
        self, capsys, hotspot_jsonl, tmp_path
    ):
        import json

        out_path = tmp_path / "filtered.jsonl"
        code = main([
            "trace", "--inspect", str(hotspot_jsonl),
            "--kind", "p2_grant", "--port", "2",
            "--jsonl", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "meta"
        assert all(
            2 in (r.get("input"), r.get("output")) for r in records[1:]
        )

    def test_inspect_rejects_unknown_kind(self, capsys, hotspot_jsonl):
        code = main([
            "trace", "--inspect", str(hotspot_jsonl), "--kind", "bogus",
        ])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_inspect_missing_file(self, capsys, tmp_path):
        code = main([
            "trace", "--inspect", str(tmp_path / "no.jsonl"), "--summary",
        ])
        assert code == 2


@pytest.fixture(scope="module")
def hotspot_pair(tmp_path_factory):
    """One traced hotspot run saved as both .tracebin and JSONL."""
    root = tmp_path_factory.mktemp("pair")
    binary, jsonl = root / "t.tracebin", root / "t.jsonl"
    code = main([
        "trace", "--radix", "16", "--layers", "4", "--channels", "2",
        "--traffic", "hotspot", "--load", "0.08", "--cycles", "600",
        "--warmup", "100", "--binary", str(binary), "--jsonl", str(jsonl),
    ])
    assert code == 0
    return binary, jsonl


class TestInspectBothFormats:
    def test_bare_inspect_prints_only_records(self, capsys, hotspot_pair):
        binary, jsonl = hotspot_pair
        assert main(["trace", "--inspect", str(binary)]) == 0
        captured = capsys.readouterr()
        assert captured.out == jsonl.read_text()
        assert "loaded" in captured.err

    def test_summaries_of_both_formats_agree(self, capsys, hotspot_pair):
        outputs = []
        for path in hotspot_pair:
            assert main(["trace", "--inspect", str(path), "--summary"]) == 0
            outputs.append([
                line for line in capsys.readouterr().out.splitlines()
                if "rate:" not in line
            ])
        assert outputs[0] == outputs[1]
        assert "per-resource totals (grants / busy cycles):" in outputs[0]

    def test_kind_and_port_filters_on_a_binary_trace(
        self, capsys, hotspot_pair
    ):
        import json

        binary, _ = hotspot_pair
        code = main(["trace", "--inspect", str(binary),
                     "--kind", "p2_grant", "--port", "2"])
        assert code == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert records[0]["event"] == "meta"
        assert records[0]["events"] == len(records) - 1 > 0
        assert all(
            r["event"] == "p2_grant" and 2 in (r["input"], r["output"])
            for r in records[1:]
        )

    def test_filtered_jsonl_is_a_valid_export(self, capsys, hotspot_pair,
                                              tmp_path):
        import json

        from repro.obs import validate_jsonl_path

        binary, jsonl = hotspot_pair
        out = tmp_path / "grants.jsonl"
        code = main(["trace", "--inspect", str(binary),
                     "--kind", "p2_grant", "--jsonl", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert validate_jsonl_path(out) == len(lines)
        whole = jsonl.read_text().splitlines()
        assert lines[1:] == [
            line for line in whole[1:]
            if json.loads(line)["event"] == "p2_grant"
        ]
        meta = json.loads(lines[0])
        assert meta["events"] == len(lines) - 1
        assert meta == dict(json.loads(whole[0]), events=len(lines) - 1)

    def test_lane_of_a_fleet_trace(self, capsys, tmp_path):
        import json

        from repro.core.config import HiRiseConfig
        from repro.core.fleet import LanePlan, run_fleet_plans
        from repro.obs import FleetTracer
        from repro.traffic import UniformRandomTraffic

        config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=1)
        plans = [
            LanePlan(config=config,
                     traffic_factory=lambda seed=seed: UniformRandomTraffic(
                         8, 0.4, seed=seed),
                     warmup_cycles=0, measure_cycles=40)
            for seed in range(2)
        ]
        tracer = FleetTracer(len(plans), capacity=None)
        run_fleet_plans(plans, tracer=tracer)
        path = tmp_path / "fleet.tracebin"
        tracer.save(path)
        assert main(["trace", "--inspect", str(path)]) == 2
        assert "--lane" in capsys.readouterr().err
        out = tmp_path / "lane1.jsonl"
        assert main(["trace", "--inspect", str(path), "--lane", "1",
                     "--jsonl", str(out)]) == 0
        expected = tmp_path / "expected.jsonl"
        tracer.lane_tracer(1).write_jsonl(expected)
        assert out.read_text() == expected.read_text()
        assert json.loads(out.read_text().splitlines()[0])["events"] > 0

    def test_lane_of_a_scalar_trace_is_refused(self, capsys, hotspot_pair):
        binary, _ = hotspot_pair
        assert main(["trace", "--inspect", str(binary), "--lane", "0"]) == 2
        assert "fleet" in capsys.readouterr().err


class TestAuditCli:
    def test_audit_emits_validated_json_and_markdown(
        self, capsys, hotspot_jsonl, tmp_path
    ):
        import json

        from repro.obs import validate_audit_summary

        json_path = tmp_path / "audit.json"
        md_path = tmp_path / "audit.md"
        code = main([
            "audit", str(hotspot_jsonl),
            "--json", str(json_path), "--markdown", str(md_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fairness" in out and "Jain" in out
        summary = validate_audit_summary(json.loads(json_path.read_text()))
        assert summary["clrg"]["halvings"] > 0
        markdown = md_path.read_text()
        assert "# Switch trace audit" in markdown
        assert "## Fairness" in markdown

    def test_audit_stats_mode(self, capsys, hotspot_jsonl):
        code = main(["audit", str(hotspot_jsonl), "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "audit.fairness.jain" in out

    def test_audit_against_itself_passes(
        self, capsys, hotspot_jsonl, tmp_path
    ):
        json_path = tmp_path / "baseline.json"
        assert main([
            "audit", str(hotspot_jsonl), "--json", str(json_path),
        ]) == 0
        capsys.readouterr()
        code = main([
            "audit", str(hotspot_jsonl), "--against", str(json_path),
        ])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_audit_against_exits_nonzero_on_injected_regression(
        self, capsys, hotspot_jsonl, tmp_path
    ):
        import json

        json_path = tmp_path / "current.json"
        assert main([
            "audit", str(hotspot_jsonl), "--json", str(json_path),
        ]) == 0
        capsys.readouterr()
        # Forge a baseline that claims a much fairer, faster run.
        baseline = json.loads(json_path.read_text())
        baseline["fairness"]["jain"] = 1.0
        baseline["traffic"]["throughput_flits_per_cycle"] *= 2.0
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(baseline))
        code = main([
            "audit", str(hotspot_jsonl), "--against", str(forged),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "regression" in err
        assert "throughput" in err

    def test_audit_rejects_invalid_baseline(
        self, capsys, hotspot_jsonl, tmp_path
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"wrong\"}")
        code = main([
            "audit", str(hotspot_jsonl), "--against", str(bad),
        ])
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_audit_missing_trace(self, capsys, tmp_path):
        assert main(["audit", str(tmp_path / "no.jsonl")]) == 2
