"""Regression: stuck-input faults freeze VOQ state under the schedulers.

A stuck input must stop *requesting*: its source queue backs up, its
VOQ occupancy freezes (no refill), and the scheduler never grants it —
schedulers must not chase the phantom weight of a port that cannot
transmit.  Scripted under the MWM oracle (the scheduler most attracted
to big backlogs) with the matching invariant checker attached, whose
grant-legality check raises if a stuck input is ever matched.
"""

from repro.check.matching import MatchingInvariantChecker
from repro.core.config import HiRiseConfig
from repro.faults import FaultSchedule, fail_input, repair_input
from repro.switches import make_switch
from repro.traffic import UniformRandomTraffic

STUCK_AT, REPAIRED_AT, HORIZON = 100, 300, 800
STUCK = 3


def run_stuck_mwm():
    config = HiRiseConfig(
        radix=8, layers=2, channel_multiplicity=2, arbitration="mwm",
    )
    schedule = FaultSchedule([
        fail_input(STUCK_AT, STUCK), repair_input(REPAIRED_AT, STUCK),
    ])
    checker = MatchingInvariantChecker()
    switch = make_switch(config, faults=schedule, invariants=checker)
    # Load 0.15 pkt/input/cyc = 0.6 flits/cyc: inside the
    # 1-flit/cycle refill bandwidth, so a healthy input's source
    # queue stays near-empty and the fault window shows up cleanly.
    traffic = UniformRandomTraffic(8, 0.15, seed=7)

    voq_levels = {}     # cycle -> stuck input's total VOQ occupancy
    backlog = {}        # cycle -> stuck input's source-queue depth
    granted_while_stuck = []
    window_tails = {i: 0 for i in range(8)}  # tails inside the fault
    stage = switch.stages[STUCK]
    for cycle in range(HORIZON):
        for packet in traffic.packets_for_cycle(cycle):
            switch.inject(packet)
        ejected = switch.step(cycle)
        in_window = STUCK_AT <= cycle < REPAIRED_AT
        for flit in ejected:
            if flit.is_tail and in_window:
                window_tails[flit.src] += 1
        voq_levels[cycle] = sum(map(len, stage.voqs.values()))
        backlog[cycle] = len(stage.source)
        if in_window and switch.grant_cycle.get(STUCK) == cycle:
            granted_while_stuck.append(cycle)
    return switch, checker, voq_levels, backlog, granted_while_stuck, (
        window_tails
    )


class TestStuckInputUnderMWM:
    def setup_method(self):
        (self.switch, self.checker, self.voq_levels, self.backlog,
         self.granted_while_stuck, self.tails) = run_stuck_mwm()

    def test_scheduler_never_grants_the_stuck_input(self):
        assert self.granted_while_stuck == []
        # The invariant checker's grant-legality check covered every
        # cycle (it would have raised on a stuck-input grant).
        assert self.checker.cycles_checked == HORIZON

    def test_voq_occupancy_freezes_once_the_connection_drains(self):
        # No refill while stuck: occupancy only falls (an established
        # connection may finish draining), then holds a frozen level
        # until the repair.
        window = [
            self.voq_levels[c] for c in range(STUCK_AT, REPAIRED_AT)
        ]
        assert all(b <= a for a, b in zip(window, window[1:]))
        settle = window[len(window) // 2:]
        assert len(set(settle)) == 1

    def test_source_queue_backs_up_and_drains_after_repair(self):
        assert self.backlog[REPAIRED_AT - 1] > self.backlog[STUCK_AT] + 5
        assert self.backlog[HORIZON - 1] < self.backlog[REPAIRED_AT - 1]

    def test_healthy_inputs_keep_their_service_during_the_fault(self):
        # Inside the fault window the stuck input delivers at most the
        # one packet its established connection was still draining,
        # while every healthy input keeps its normal service rate.
        healthy = [self.tails[i] for i in range(8) if i != STUCK]
        assert self.tails[STUCK] <= 1
        assert min(healthy) >= 10

    def test_stuck_input_resumes_after_repair(self):
        assert STUCK not in self.switch.stuck_inputs
        resumed = any(
            self.switch.grant_cycle.get(STUCK, -1) >= REPAIRED_AT
            for _ in (0,)
        )
        assert resumed
