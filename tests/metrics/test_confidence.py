"""Tests of the confidence-interval utilities."""

import math

import numpy as np
import pytest

from repro.metrics.confidence import (
    ConfidenceInterval,
    batch_means,
    replicate,
    t_interval,
)


class TestTInterval:
    def test_known_small_sample(self):
        ci = t_interval([1.0, 2.0, 3.0], confidence=0.95)
        assert ci.mean == pytest.approx(2.0)
        # s = 1, n = 3, t_{0.975,2} = 4.3027 -> half width 2.484.
        assert ci.half_width == pytest.approx(4.3027 / np.sqrt(3), rel=1e-3)
        assert ci.contains(2.0)
        assert not ci.contains(10.0)

    def test_zero_variance(self):
        ci = t_interval([5.0, 5.0, 5.0, 5.0])
        assert ci.half_width == 0.0
        assert ci.low == ci.high == 5.0

    def test_coverage_on_gaussian_data(self):
        """~95% of intervals from N(0,1) samples should contain 0."""
        rng = np.random.default_rng(3)
        hits = 0
        trials = 300
        for _ in range(trials):
            sample = rng.normal(0, 1, size=20)
            if t_interval(list(sample)).contains(0.0):
                hits += 1
        assert hits / trials == pytest.approx(0.95, abs=0.04)

    def test_validation(self):
        with pytest.raises(ValueError):
            t_interval([1.0])
        with pytest.raises(ValueError):
            t_interval([1.0, 2.0], confidence=1.0)

    def test_relative_half_width(self):
        ci = ConfidenceInterval(mean=10.0, half_width=1.0,
                                confidence=0.95, observations=5)
        assert ci.relative_half_width == pytest.approx(0.1)
        zero = ConfidenceInterval(mean=0.0, half_width=1.0,
                                  confidence=0.95, observations=5)
        assert zero.relative_half_width == float("inf")


class TestBatchMeans:
    def test_batches_reduce_to_t_interval_of_averages(self):
        samples = list(range(100))
        ci = batch_means(samples, num_batches=10)
        assert ci.observations == 10
        assert ci.mean == pytest.approx(49.5)

    def test_remainder_dropped(self):
        samples = [1.0] * 23
        ci = batch_means(samples, num_batches=5)
        assert ci.mean == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0], num_batches=1)
        with pytest.raises(ValueError):
            batch_means([1.0], num_batches=2)

    def test_on_simulation_latencies(self):
        """End-to-end: a CI over a real latency stream is tight and
        brackets the point estimate."""
        from repro.network.engine import Simulation
        from repro.switches import SwizzleSwitch2D
        from repro.traffic import UniformRandomTraffic

        switch = SwizzleSwitch2D(16)
        traffic = UniformRandomTraffic(16, 0.08, seed=4)
        result = Simulation(switch, traffic, warmup_cycles=300).run(3000)
        ci = batch_means(result.packet_latencies, num_batches=10)
        assert ci.contains(result.avg_latency_cycles)
        assert ci.relative_half_width < 0.15


class TestReplicate:
    def test_replications_use_distinct_seeds(self):
        seeds = []

        def experiment(seed):
            seeds.append(seed)
            return float(seed)

        ci = replicate(experiment, num_replications=4, base_seed=10)
        assert seeds == [10, 11, 12, 13]
        assert ci.mean == pytest.approx(11.5)

    def test_on_throughput_measurements(self):
        from repro.core import HiRiseConfig
        from repro.harness.measure import saturation_throughput

        def experiment(seed):
            return saturation_throughput(
                HiRiseConfig(radix=16, layers=1, channel_multiplicity=1),
                seed=seed, warmup_cycles=150, measure_cycles=800,
            )

        ci = replicate(experiment, num_replications=3)
        assert ci.relative_half_width < 0.1
        assert ci.mean > 1.0  # packets/cycle aggregate for radix 16


class TestCriticalValue:
    """``t_interval`` takes its critical value from ``scipy.special.stdtrit``
    rather than ``scipy.stats.t.ppf`` (which calls it) so that importing
    the package does not load ``scipy.stats``; the two must agree bit for
    bit."""

    CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999)

    def test_stdtrit_matches_t_ppf_exactly(self):
        from scipy import stats
        from scipy.special import stdtrit

        mismatches = [
            (df, confidence)
            for confidence in self.CONFIDENCES
            for df in range(1, 2001)
            if float(stdtrit(df, (1 + confidence) / 2))
            != float(stats.t.ppf((1 + confidence) / 2, df=df))
        ]
        assert mismatches == []

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_half_width_equals_the_t_ppf_formula(self, confidence):
        from scipy import stats

        samples = [1.0, 2.5, 2.0, 4.0, 3.5]
        n = len(samples)
        mean = sum(samples) / n
        variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
        critical = float(stats.t.ppf((1 + confidence) / 2, df=n - 1))
        expected = critical * math.sqrt(variance / n)
        assert t_interval(samples, confidence).half_width == expected
