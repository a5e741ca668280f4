"""Tests of the text report renderer."""

from repro.harness.report import (
    render_audit_markdown,
    render_series,
    render_table,
)
from repro.harness.tables import CostRow, SpeedupRow


def cost_row(**overrides):
    base = dict(
        design="3D 4-Channel", configuration="[(16x28), 16.(13x1)]x4",
        area_mm2=0.454, frequency_ghz=2.19, energy_pj=44.1,
        throughput_tbps=10.4, tsv_count=6144,
        paper_area_mm2=0.451, paper_frequency_ghz=2.2,
        paper_energy_pj=44.0, paper_throughput_tbps=10.65,
        paper_tsv_count=6144,
    )
    base.update(overrides)
    return CostRow(**base)


class TestRenderTable:
    def test_cost_rows_show_measured_and_paper(self):
        text = render_table([cost_row()], "Table V")
        assert "Table V" in text
        assert "0.454" in text and "0.451" in text
        assert "6144" in text
        assert "parentheses" in text

    def test_missing_paper_values_render_dash(self):
        row = cost_row(
            paper_area_mm2=None, paper_frequency_ghz=None,
            paper_energy_pj=None, paper_throughput_tbps=None,
            paper_tsv_count=None,
        )
        text = render_table([row], "T")
        assert "( -)" in text or "(    -)" in text or "-" in text

    def test_speedup_rows(self):
        rows = [
            SpeedupRow(mix="Mix8", avg_mpki=76.0, speedup=1.19,
                       paper_avg_mpki=76.0, paper_speedup=1.15),
        ]
        text = render_table(rows, "Table VI")
        assert "Mix8" in text and "1.19" in text and "1.15" in text

    def test_mixed_precision_formatting(self):
        text = render_table([cost_row(area_mm2=0.6718234)], "T")
        assert "0.672" in text  # 3 significant digits


class TestRenderSeries:
    def test_multiple_series_blocks(self):
        series = {"A": [(1, 2.0)], "B": [(3, 4.0), (5, 6.0)]}
        text = render_series(series, "Fig X", ["x", "y"])
        assert "[A]" in text and "[B]" in text
        assert text.count("\n[") == 2

    def test_wide_points(self):
        series = {"S": [(0.05, 2.9, 3.1)]}
        text = render_series(series, "Fig 10", ["load", "lat", "acc"])
        assert "0.05" in text and "2.9" in text and "3.1" in text


class TestRenderAuditMarkdown:
    def test_real_summary_renders_every_section(self):
        from repro.core.config import HiRiseConfig
        from repro.core.hirise import HiRiseSwitch
        from repro.network.engine import Simulation
        from repro.obs import BinaryTracer, analyze_tracer
        from repro.traffic import HotspotTraffic

        tracer = BinaryTracer(capacity=None)
        switch = HiRiseSwitch(
            HiRiseConfig(radix=16, layers=4, channel_multiplicity=2),
            tracer=tracer,
        )
        Simulation(
            switch, HotspotTraffic(16, load=0.5, hotspot_output=3, seed=2),
            warmup_cycles=0,
        ).run(measure_cycles=600)
        text = render_audit_markdown(analyze_tracer(tracer).summary())
        for heading in (
            "# Switch trace audit", "## Trace", "## Traffic",
            "## Fairness", "## Starvation", "## CLRG dynamics",
            "## Utilization", "## Anomalies",
        ):
            assert heading in text
        assert "arbitration=clrg" in text
        assert "Jain index" in text
        # Resource rows are labelled, not raw ids.
        assert "int L" in text or "ch L" in text

    def test_none_values_render_as_dashes(self):
        summary = {
            "schema": "repro.audit/v1",
            "meta": {},
            "trace": {"events": 0, "cycles": 0, "dropped": 0},
            "traffic": {},
            "service": {},
            "fairness": {"jain": None, "max_min": None},
            "starvation": {"max_gap_input": None},
            "clrg": {"halvings": 0},
            "utilization": {"busiest": []},
            "epochs": {},
            "anomalies": {"count": 0, "items": []},
        }
        text = render_audit_markdown(summary)
        assert "—" in text
        assert "No resource-hold events" in text
        assert "None flagged." in text

    def test_regression_section(self):
        summary = {
            "schema": "repro.audit/v1", "meta": {}, "trace": {},
            "traffic": {}, "service": {}, "fairness": {},
            "starvation": {}, "clrg": {}, "utilization": {},
            "epochs": {}, "anomalies": {"count": 0, "items": []},
        }
        clean = render_audit_markdown(summary, regressions=[])
        assert "No regressions" in clean
        flagged = render_audit_markdown(
            summary, regressions=["fairness.jain: 0.5 vs baseline 0.99"]
        )
        assert "## Baseline comparison" in flagged
        assert "1 regression(s)" in flagged
        assert "fairness.jain" in flagged
