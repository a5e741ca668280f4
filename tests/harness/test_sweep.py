"""Tests of the generic sweep machinery."""

import pytest

from repro.harness.sweep import (
    SweepPoint,
    parameter_grid,
    render_sweep,
    run_sweep,
    to_json,
    to_series,
)


class TestParameterGrid:
    def test_cross_product(self):
        grid = parameter_grid(a=[1, 2], b=["x", "y"])
        assert len(grid) == 4
        assert {"a": 2, "b": "y"} in grid

    def test_empty(self):
        assert parameter_grid() == [{}]

    def test_single_axis(self):
        assert parameter_grid(k=[3]) == [{"k": 3}]


class TestRunSweep:
    def test_single_replication(self):
        points = run_sweep(
            lambda seed, a: a * 10 + seed,
            parameter_grid(a=[1, 2]),
            base_seed=0,
        )
        assert [p.value for p in points] == [10.0, 20.0]
        assert all(p.interval is None for p in points)

    def test_replicated_points_carry_intervals(self):
        points = run_sweep(
            lambda seed, a: a + seed * 0.01,
            parameter_grid(a=[5]),
            replications=4,
        )
        [point] = points
        assert point.interval is not None
        assert point.interval.observations == 4
        assert point.value == pytest.approx(5.015)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep(lambda seed: 0.0, [{}], replications=0)

    def test_end_to_end_with_simulator(self):
        """Sweep saturation throughput over channel multiplicity."""
        from repro.core import HiRiseConfig
        from repro.harness.measure import saturation_throughput

        def measure(seed, channels):
            config = HiRiseConfig(
                radix=16, layers=4, channel_multiplicity=channels
            )
            return saturation_throughput(
                config, seed=seed, warmup_cycles=150, measure_cycles=600,
            )

        points = run_sweep(measure, parameter_grid(channels=[1, 4]))
        by_channels = {p.parameters["channels"]: p.value for p in points}
        assert by_channels[4] > by_channels[1]


class TestRendering:
    def test_render_includes_parameters_and_values(self):
        points = [SweepPoint({"a": 1}, 3.5)]
        text = render_sweep(points, "T")
        assert "T" in text and "a" in text and "3.5" in text

    def test_render_empty(self):
        assert "(no points)" in render_sweep([], "T")

    def test_to_series_grouping(self):
        points = [
            SweepPoint({"x": 1, "kind": "a"}, 10.0),
            SweepPoint({"x": 2, "kind": "a"}, 20.0),
            SweepPoint({"x": 1, "kind": "b"}, 30.0),
        ]
        series = to_series(points, x="x", series_by="kind")
        assert series == {"a": [(1, 10.0), (2, 20.0)], "b": [(1, 30.0)]}
        flat = to_series(points, x="x")
        assert len(flat["sweep"]) == 3

    def test_to_json_round_trips(self):
        import json

        points = run_sweep(
            lambda seed, a: a + seed * 0.01,
            parameter_grid(a=[1, 2]),
            replications=3,
        )
        payload = json.loads(to_json(points, title="demo"))
        assert payload["title"] == "demo"
        assert [p["parameters"]["a"] for p in payload["points"]] == [1, 2]
        for rendered, point in zip(payload["points"], points):
            assert rendered["value"] == point.value
            assert rendered["interval"]["observations"] == 3
            assert rendered["interval"]["half_width"] == (
                point.interval.half_width
            )

    def test_to_json_without_intervals_or_title(self):
        import json

        points = [SweepPoint({"scheme": "clrg"}, 4.0)]
        payload = json.loads(to_json(points))
        assert "title" not in payload
        assert payload["points"] == [
            {"parameters": {"scheme": "clrg"}, "value": 4.0}
        ]
