"""Tests of TrafficSpec: validation, value semantics, and what it builds."""

import pickle

import pytest

from repro.traffic import (
    AdversarialTraffic,
    BurstyTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TrafficSpec,
    UniformRandomTraffic,
)
from repro.traffic.spec import PATTERNS


def columns(source, cycles=40):
    return [
        tuple(map(list, source.columns_for_cycle(cycle)))
        for cycle in range(cycles)
    ]


class TestValidation:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            TrafficSpec("tornado")

    @pytest.mark.parametrize("demands", [None, {}, ()])
    def test_adversarial_needs_demands(self, demands):
        with pytest.raises(ValueError, match="needs demands"):
            TrafficSpec("adversarial", demands=demands)

    @pytest.mark.parametrize("pattern", [
        pattern for pattern in PATTERNS if pattern != "adversarial"
    ])
    def test_demands_rejected_on_other_patterns(self, pattern):
        with pytest.raises(ValueError, match="only to adversarial"):
            TrafficSpec(pattern, demands={0: 1})

    @pytest.mark.parametrize("flits", [0, -1])
    def test_packet_flits_below_one_rejected(self, flits):
        with pytest.raises(ValueError, match="packet_flits"):
            TrafficSpec(packet_flits=flits)

    def test_one_demand_per_source(self):
        with pytest.raises(ValueError, match="one demand"):
            TrafficSpec("adversarial", demands=[(1, 2), (1, 3)])


class TestValue:
    def test_demands_stored_as_sorted_pairs(self):
        spec = TrafficSpec("adversarial", demands={20: 63, 3: 63})
        assert spec.demands == ((3, 63), (20, 63))
        assert spec == TrafficSpec(
            "adversarial", demands=[(20, 63), (3, 63)]
        )

    def test_pickles_and_hashes(self):
        spec = TrafficSpec("adversarial", 2, {5: 1, 2: 7})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec)

    def test_build_is_fresh_each_call(self):
        spec = TrafficSpec()
        assert spec.build(8, 0.3, 1) is not spec.build(8, 0.3, 1)


class TestBuild:
    """Each pattern builds the source its hand-written call would."""

    @pytest.mark.parametrize("spec, direct", [
        (TrafficSpec(), UniformRandomTraffic(16, 0.3, 4, 5)),
        (TrafficSpec(packet_flits=2), UniformRandomTraffic(16, 0.3, 2, 5)),
        (TrafficSpec("hotspot"),
         HotspotTraffic(16, 0.3, hotspot_output=15, seed=5)),
        (TrafficSpec("bursty", 3),
         BurstyTraffic(16, 0.3, packet_flits=3, seed=5)),
        (TrafficSpec("bit_reverse"),
         PermutationTraffic(16, 0.3, pattern="bit_reverse", seed=5)),
        (TrafficSpec("adversarial", demands={3: 15, 9: 15}),
         AdversarialTraffic(16, 0.3, {3: 15, 9: 15}, seed=5)),
    ], ids=["uniform", "uniform-2", "hotspot", "bursty", "bit_reverse",
            "adversarial"])
    def test_same_stream_as_the_direct_source(self, spec, direct):
        built = spec.build(16, 0.3, 5)
        assert type(built) is type(direct)
        assert built.factory.num_flits == direct.factory.num_flits
        assert columns(built) == columns(direct)
