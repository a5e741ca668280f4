"""Tests of statistics, fairness indices, and saturation measurements."""

import math

import pytest

from repro.core import HiRiseConfig
from repro.harness.measure import SimulationMeasurement, saturation_throughput
from repro.metrics import LatencyStats, jain_index, max_min_ratio

#: What ``SwizzleSwitch2D(16)`` simulates.
FLAT_16 = HiRiseConfig(radix=16, layers=1, channel_multiplicity=1)


class TestLatencyStats:
    def test_summary_values(self):
        stats = LatencyStats.from_samples(list(range(1, 101)))
        assert stats.count == 100
        assert stats.mean == pytest.approx(50.5)
        assert stats.p50 == 50
        assert stats.p95 == 95
        assert stats.p99 == 99
        assert stats.maximum == 100

    def test_single_sample(self):
        stats = LatencyStats.from_samples([7])
        assert stats.mean == stats.p50 == stats.p99 == stats.maximum == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LatencyStats.from_samples([])


class TestFairness:
    def test_jain_perfectly_fair(self):
        assert jain_index([3, 3, 3, 3]) == pytest.approx(1.0)

    def test_jain_maximally_unfair(self):
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_jain_all_zero_is_vacuously_fair(self):
        assert jain_index([0, 0]) == 1.0

    def test_jain_validation(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([-1, 2])

    def test_max_min_ratio(self):
        assert max_min_ratio([2, 4]) == 2.0
        assert max_min_ratio([5, 5]) == 1.0
        assert max_min_ratio([0, 0]) == 1.0
        assert math.isinf(max_min_ratio([0, 1]))


class TestSaturation:
    def test_accepted_tracks_offered_below_saturation(self):
        result = SimulationMeasurement(
            FLAT_16, load=0.05, warmup_cycles=200, measure_cycles=2000,
        ).run(seed=1)
        offered = 0.05 * 16
        assert result.throughput_packets_per_cycle == pytest.approx(
            offered, rel=0.1
        )

    def test_saturation_is_a_plateau(self):
        """Overdriving at 0.8 and 1.0 must deliver the same rate."""
        measurement = SimulationMeasurement(
            FLAT_16, warmup_cycles=300, measure_cycles=1500,
        )

        def measure(load):
            return measurement.run(2, load=load).throughput_packets_per_cycle

        assert measure(0.8) == pytest.approx(measure(1.0), rel=0.05)

    def test_saturation_throughput_reasonable(self):
        sat = saturation_throughput(
            FLAT_16, seed=3, warmup_cycles=300, measure_cycles=1500,
        )
        per_port_flits = sat * 4 / 16
        assert 0.5 < per_port_flits < 0.85

    def test_latency_vs_load_hockey_stick(self):
        measurement = SimulationMeasurement(
            FLAT_16, metric="avg_latency", warmup_cycles=200,
            measure_cycles=1500,
        )
        latencies = [
            measurement(seed=4, load=load) for load in (0.02, 0.08, 0.16)
        ]
        assert latencies[0] < latencies[1] < latencies[2]
        # Zero-load latency close to the 4-cycle packet serialisation.
        assert latencies[0] < 8
