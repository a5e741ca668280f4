"""Tests of the 3D folded switch baseline."""

import pytest

from repro.network.engine import Simulation
from repro.switches import FoldedSwitch3D, SwizzleSwitch2D
from repro.traffic import UniformRandomTraffic


class TestGeometry:
    def test_paper_configuration(self):
        """Table I: [16x64]x4 — folding spreads the ports over layers
        (see tests/physical/test_geometry.py), but the datapath stays
        one radix-64 matrix, so the cycle model is a single 64x64
        crossbar."""
        switch = FoldedSwitch3D(64, layers=4)
        assert switch.num_ports == 64
        assert switch.config.layers == 1
        assert switch.config.local_switch_shape == (64, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            FoldedSwitch3D(64, layers=1)
        with pytest.raises(ValueError):
            FoldedSwitch3D(63, layers=4)


class TestBehaviourMatches2D:
    def test_same_configuration_as_flat_switch(self):
        """Table I simulates the crossbar once for both rows, which
        holds because folding builds the flat switch's configuration."""
        assert FoldedSwitch3D(64, layers=4).config == SwizzleSwitch2D(64).config

    def test_cycle_identical_to_flat_switch(self):
        """Folding redistributes ports over layers without changing the
        datapath or arbitration, so the folded switch must be
        cycle-for-cycle identical to the 2D switch on the same traffic."""
        folded = FoldedSwitch3D(16, layers=4)
        flat = SwizzleSwitch2D(16)
        t1 = UniformRandomTraffic(16, load=0.4, seed=21)
        t2 = UniformRandomTraffic(16, load=0.4, seed=21)
        r_folded = Simulation(folded, t1, warmup_cycles=100).run(800)
        r_flat = Simulation(flat, t2, warmup_cycles=100).run(800)
        assert r_folded.packets_ejected == r_flat.packets_ejected
        assert r_folded.packet_latencies == r_flat.packet_latencies
