"""Tests of the scheduler-zoo comparison harness and VOQ sweep routing."""

import hashlib
import json

import pytest

from repro.core.config import HiRiseConfig
from repro.harness.measure import SimulationMeasurement
from repro.harness.schedulers import (
    SCHEDULER_SPECS,
    SCHEDULERS_SCHEMA,
    compare_schedulers,
    render_markdown,
    validate_comparison,
)
from repro.harness.sweep import parameter_grid, run_sweep
from repro.traffic import TrafficSpec


@pytest.fixture(scope="module")
def comparison():
    return compare_schedulers(
        radix=8, layers=2, channels=2, load=0.3, seed=1,
        warmup_cycles=40, measure_cycles=200,
        schedulers=("clrg", "islip1", "islip2", "mwm"),
        traffic=("uniform", "transpose"),
    )


class TestCompareSchedulers:
    def test_schema_validates_and_is_strict_json(self, comparison):
        validate_comparison(comparison)
        assert comparison["schema"] == SCHEDULERS_SCHEMA
        assert json.loads(json.dumps(comparison)) == comparison

    def test_matrix_covers_every_cell_with_invariants(self, comparison):
        for pattern in comparison["traffic"]:
            for name in comparison["schedulers"]:
                cell = comparison["matrix"][pattern][name]
                assert cell["invariant_cycles_checked"] > 0
                assert cell["invariant_violations"] == 0
                assert cell["throughput_packets_per_cycle"] >= 0.0

    def test_saturation_section_present(self, comparison):
        rates = comparison["saturation"]["throughput_packets_per_cycle"]
        assert set(rates) == set(comparison["schedulers"])
        assert all(rate > 0.0 for rate in rates.values())

    def test_markdown_renders_one_table_per_pattern(self, comparison):
        markdown = render_markdown(comparison)
        for pattern in comparison["traffic"]:
            assert f"## {pattern}" in markdown
        for name in comparison["schedulers"]:
            assert f"| {name} " in markdown
        assert "## saturation" in markdown

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            compare_schedulers(
                radix=8, measure_cycles=10, schedulers=("nope",),
            )

    def test_validation_rejects_mutations(self, comparison):
        broken = dict(comparison, schema="repro.schedulers/v0")
        with pytest.raises(ValueError, match="schema"):
            validate_comparison(broken)
        missing = {
            key: value for key, value in comparison.items()
            if key != "saturation"
        }
        with pytest.raises(ValueError, match="saturation"):
            validate_comparison(missing)

    def test_every_spec_names_a_buildable_config(self):
        from dataclasses import replace

        base = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
        for overrides in SCHEDULER_SPECS.values():
            replace(base, **overrides)

    def test_traffic_zoo_names_resolve(self):
        for pattern in ("uniform", "hotspot", "bursty", "transpose",
                        "bit_complement", "bit_reverse", "shuffle"):
            source = TrafficSpec(pattern).build(8, 0.2, 1)
            assert sum(1 for _ in source.packets_for_cycle(0)) >= 0
        with pytest.raises(ValueError, match="unknown traffic"):
            compare_schedulers(radix=8, traffic=("nope",))


def comparison_digest(comparison):
    """sha256 of a comparison's simulated fields, floats at 12 digits."""

    def canonical(value):
        if isinstance(value, float):
            return float(f"{value:.12g}")
        if isinstance(value, dict):
            return {str(k): canonical(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [canonical(v) for v in value]
        return value

    blob = json.dumps(
        canonical(comparison), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class TestZooBitIdentity:
    """Pinned digests: any change to a matching, a pointer or a tie-break
    moves some cell's counts or latencies and so the digest."""

    def test_radix8_comparison_digest(self, comparison):
        assert comparison_digest(comparison) == (
            "f8e1dbc7e1f4085ab19f19bc7054783f1b667181f2a757e76f63f94bab49fdc4"
        )

    def test_radix16_mwm_islip4_hotspot_digest(self):
        comparison = compare_schedulers(
            radix=16, seed=1, warmup_cycles=40, measure_cycles=200,
            schedulers=("mwm", "islip4"), traffic=("hotspot",),
        )
        assert comparison_digest(comparison) == (
            "eea7a1e55b8ebc32bbc25bb4a698b4e458cffc9ba5a6b484de9fc0cfc664582e"
        )

    def test_radix32_clrg_islip1_mwm_digest(self):
        # At radix 32 most of an MWM cost matrix's columns are all zero,
        # the case the solver scans through one representative column.
        comparison = compare_schedulers(
            radix=32, seed=1, warmup_cycles=30, measure_cycles=150,
            schedulers=("clrg", "islip1", "mwm"),
            traffic=("uniform", "hotspot"),
        )
        assert comparison_digest(comparison) == (
            "75a62192979bbb18d465305c5eed8c7ce3d9907b7946d0c84c3b810cccc074fc"
        )


class TestVOQSweepRouting:
    def test_run_sweep_crosses_voq_and_paper_schemes(self):
        # The arbitration axis routes each point through make_switch:
        # VOQ schemes on the scalar VOQ kernel, CLRG on Hi-Rise.
        measurement = SimulationMeasurement(
            config=HiRiseConfig(
                radix=8, layers=2, channel_multiplicity=2,
            ),
            metric="throughput", load=0.9,
            warmup_cycles=10, measure_cycles=80,
        )
        points = run_sweep(
            measurement,
            parameter_grid(arbitration=["clrg", "islip", "mwm"]),
        )
        assert len(points) == 3
        assert all(point.value > 0.0 for point in points)

    def test_voq_points_replicate_deterministically(self):
        measurement = SimulationMeasurement(
            config=HiRiseConfig(
                radix=8, layers=2, channel_multiplicity=2,
                arbitration="islip", islip_iterations=2,
            ),
            metric="throughput", load=0.8,
            warmup_cycles=10, measure_cycles=60,
        )
        first = run_sweep(measurement, [{}], replications=3)
        second = run_sweep(measurement, [{}], replications=3)
        assert first[0].value == second[0].value
        assert first[0].interval == second[0].interval
