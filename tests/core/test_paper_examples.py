"""Reproduce the paper's worked arbitration examples exactly.

Section III-B walks through a 1-channel, 4-layer, 64-radix configuration
where inputs {3, 7, 11, 15} on layer 1 and input {20} on layer 2 all
request output 63 on layer 4:

* Fig 4 (baseline L-2-L LRG): the connection pattern at output 63 is
  {15, 20, 11, 20, 7, 20, 3, 20, 15, 20, ...} — the lone layer-2 input
  receives half the bandwidth;
* Fig 5 (CLRG): the pattern is {20, 15, 11, 7, 3, 20, 15, 11, 7, 3, ...} —
  identical to a flat 2D switch with LRG.

The figures start from specific priority states, which these tests set
explicitly.  Packets are single-flit so the grant sequence equals the
ejected-source sequence.
"""

import pytest

from repro.arbitration.lrg import LRGArbiter
from repro.core import ArbitrationScheme, HiRiseConfig, HiRiseSwitch

from repro.switches import SwizzleSwitch2D
from repro.traffic import TraceTraffic

OUTPUT = 63
REQUESTORS = [3, 7, 11, 15, 20]


def backlog_trace(num_packets_per_input=12):
    """Every requestor pre-loads a backlog of single-flit packets to 63."""
    events = [
        (0, src, OUTPUT)
        for _ in range(num_packets_per_input)
        for src in REQUESTORS
    ]
    return TraceTraffic(events, packet_flits=1)


def local_layer1_order():
    """Fig 4/5 local-switch priority on layer 1: 15 > 11 > 7 > 3."""
    rest = [i for i in range(16) if i not in (15, 11, 7, 3)]
    return [15, 11, 7, 3] + rest


def build_switch(arbitration, interlayer_order):
    config = HiRiseConfig(
        radix=64,
        layers=4,
        channel_multiplicity=1,
        arbitration=arbitration,
    )
    switch = HiRiseSwitch(config)
    # Layer 1 (layer index 0) local arbiter for the L2LC to layer 4
    # (layer index 3), channel 0.
    switch.chan_arbiters[(0, 3, 0)] = LRGArbiter(
        16, initial_order=local_layer1_order()
    )
    # Sub-block slots at output 63 (c=1): slot 0 = C(1->4) ("C1,4"),
    # slot 1 = C(2->4), slot 2 = C(3->4), slot 3 = local.
    num_slots = config.subblock_inputs
    if arbitration is ArbitrationScheme.L2L_LRG:
        switch.subblock_arbiters[OUTPUT] = LRGArbiter(
            num_slots, initial_order=interlayer_order
        )
    else:
        arb = switch.subblock_arbiters[OUTPUT]
        arb.lrg = LRGArbiter(num_slots, initial_order=interlayer_order)
    return switch


def drive(switch, grants):
    """Inject the backlog and collect the first ``grants`` winners."""
    trace = backlog_trace()
    for packet in trace.packets_for_cycle(0):
        switch.inject(packet)
    winners = []
    cycle = 0
    while len(winners) < grants and cycle < 500:
        for flit in switch.step(cycle):
            winners.append(flit.src)
        cycle += 1
    return winners[:grants]


class TestFig4BaselineUnfairness:
    def test_l2l_lrg_connection_pattern(self):
        # Fig 4 initial inter-layer priority: Local > C3,4 > C1,4 > C2,4.
        switch = build_switch(
            ArbitrationScheme.L2L_LRG, interlayer_order=[3, 2, 0, 1]
        )
        winners = drive(switch, grants=10)
        assert winners == [15, 20, 11, 20, 7, 20, 3, 20, 15, 20]

    def test_input_20_gets_half_the_bandwidth(self):
        switch = build_switch(
            ArbitrationScheme.L2L_LRG, interlayer_order=[3, 2, 0, 1]
        )
        winners = drive(switch, grants=16)
        share_20 = winners.count(20) / len(winners)
        assert share_20 == pytest.approx(0.5)


class TestFig5CLRGFairness:
    def test_clrg_connection_pattern(self):
        # Fig 5 initial inter-layer priority: Local > C3,4 > C2,4 > C1,4.
        switch = build_switch(
            ArbitrationScheme.CLRG, interlayer_order=[3, 2, 1, 0]
        )
        winners = drive(switch, grants=11)
        assert winners == [20, 15, 11, 7, 3, 20, 15, 11, 7, 3, 20]

    def test_clrg_share_is_flat_fair(self):
        switch = build_switch(
            ArbitrationScheme.CLRG, interlayer_order=[3, 2, 1, 0]
        )
        winners = drive(switch, grants=20)
        for src in REQUESTORS:
            assert winners.count(src) == 4

    def test_matches_flat_2d_lrg_switch(self):
        """Section III-B.4: CLRG's pattern equals a flat 2D LRG switch."""
        switch = build_switch(
            ArbitrationScheme.CLRG, interlayer_order=[3, 2, 1, 0]
        )
        winners_3d = drive(switch, grants=10)

        flat = SwizzleSwitch2D(64)
        # Match the figure's initial state: 20 > 15 > 11 > 7 > 3.  The
        # flat crossbar is one layer, so the output's LRG vector is the
        # local arbiter of its intermediate output, over all 64 inputs.
        order = [20, 15, 11, 7, 3] + [
            i for i in range(64) if i not in (20, 15, 11, 7, 3)
        ]
        flat.int_arbiters[(0, OUTPUT)] = LRGArbiter(64, initial_order=order)
        winners_2d = drive(flat, grants=10)
        assert winners_2d == [20, 15, 11, 7, 3, 20, 15, 11, 7, 3]
        assert winners_3d == winners_2d
