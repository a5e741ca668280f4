"""Unit tests for the many-core building blocks (core, L2 bank, MC)."""

import numpy as np
import pytest

from repro.manycore.cache import L2Bank
from repro.manycore.core import CoreParams, SyntheticCore
from repro.manycore.memctrl import MemoryController
from repro.manycore.workloads import BenchmarkProfile


def make_core(l1_mpki=50.0, l2_mpki=20.0, seed=1, **params):
    profile = BenchmarkProfile("test", l1_mpki=l1_mpki, l2_mpki=l2_mpki)
    return SyntheticCore(0, profile, CoreParams(**params), np.random.default_rng(seed))


class TestSyntheticCore:
    def test_compute_bound_core_never_misses(self):
        core = make_core(l1_mpki=0.0, l2_mpki=0.0)
        misses = core.advance(10000.0)
        assert misses == 0
        assert core.retired_instructions == 10000.0

    def test_miss_rate_matches_profile(self):
        core = make_core(l1_mpki=20.0, l2_mpki=5.0)
        total_misses = 0
        for _ in range(2000):
            total_misses += core.advance(50.0)
            # Immediately satisfy misses so the window never binds.
            while core.outstanding:
                core.receive_reply()
        measured_mpki = total_misses / core.retired_instructions * 1000
        assert measured_mpki == pytest.approx(20.0, rel=0.1)

    def test_stall_when_window_full(self):
        core = make_core(l1_mpki=1000.0, miss_window=2, mshr_limit=4)
        core.advance(1000.0)
        assert core.outstanding == 2
        assert core.stalled
        before = core.retired_instructions
        assert core.advance(100.0) == 0
        assert core.retired_instructions == before

    def test_reply_unblocks(self):
        core = make_core(l1_mpki=1000.0, miss_window=2)
        core.advance(1000.0)
        assert core.stalled
        core.receive_reply()
        assert not core.stalled
        assert core.advance(1000.0) >= 1

    def test_reply_without_miss_raises(self):
        with pytest.raises(RuntimeError):
            make_core().receive_reply()

    def test_ipc_bounded_by_width(self):
        core = make_core(l1_mpki=0.0, l2_mpki=0.0, width=2, frequency_ghz=2.0)
        budget = core.instructions_per_network_cycle(0.5)
        assert budget == pytest.approx(2.0)  # 2-wide x 2 GHz x 0.5 ns
        core.advance(budget)
        assert core.ipc(0.5) == pytest.approx(2.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CoreParams(width=0)
        with pytest.raises(ValueError):
            CoreParams(miss_window=8, mshr_limit=4)
        with pytest.raises(ValueError):
            CoreParams(frequency_ghz=0.0)


class TestL2Bank:
    def bank(self, latency=6, mshrs=4, seed=1):
        return L2Bank(0, latency, mshrs, np.random.default_rng(seed))

    def test_fixed_latency_completion(self):
        bank = self.bank(latency=6)
        assert bank.accept(core_id=1, request_id=10, l2_miss_ratio=0.0, cycle=0)
        assert bank.completions(5) == []
        done = bank.completions(6)
        assert len(done) == 1
        request, hit = done[0]
        assert request.request_id == 10
        assert hit  # miss ratio 0 -> always hits

    def test_always_misses_with_ratio_one(self):
        bank = self.bank()
        bank.accept(1, 1, l2_miss_ratio=1.0, cycle=0)
        [(request, hit)] = bank.completions(100)
        assert not hit
        assert bank.misses == 1

    def test_hit_ratio_statistics(self):
        bank = self.bank(latency=1, mshrs=1000)
        for i in range(4000):
            bank.accept(0, i, l2_miss_ratio=0.3, cycle=0)
        bank.completions(10)
        miss_rate = bank.misses / (bank.hits + bank.misses)
        assert miss_rate == pytest.approx(0.3, abs=0.03)

    def test_mshr_limit_rejects(self):
        bank = self.bank(mshrs=2)
        assert bank.accept(0, 1, 0.0, 0)
        assert bank.accept(0, 2, 0.0, 0)
        assert not bank.accept(0, 3, 0.0, 0)
        assert bank.rejected == 1
        bank.completions(10)
        assert bank.accept(0, 3, 0.0, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            L2Bank(0, 0, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            L2Bank(0, 6, 0, np.random.default_rng(0))


class TestMemoryController:
    def test_latency(self):
        mc = MemoryController(0, access_latency_cycles=160, service_interval_cycles=2)
        mc.accept(core_id=3, request_id=9, cycle=0)
        completions = {}
        for cycle in range(0, 200):
            for request in mc.step(cycle):
                completions[request.request_id] = cycle
        assert completions == {9: 160}

    def test_bandwidth_spaces_service(self):
        mc = MemoryController(0, access_latency_cycles=10, service_interval_cycles=4)
        for i in range(3):
            mc.accept(0, i, cycle=0)
        # Service starts at 0, 4, 8 -> completions at 10, 14, 18.
        completions = {}
        for cycle in range(0, 25):
            for request in mc.step(cycle):
                completions[request.request_id] = cycle
        assert completions == {0: 10, 1: 14, 2: 18}

    def test_queue_limit(self):
        mc = MemoryController(0, 10, 1.0, queue_limit=2)
        assert mc.accept(0, 1, 0)
        assert mc.accept(0, 2, 0)
        assert not mc.accept(0, 3, 0)
        assert mc.rejected == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryController(0, 0, 1.0)
        with pytest.raises(ValueError):
            MemoryController(0, 10, 0.0)
