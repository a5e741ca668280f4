"""Parity of the fleet's lane scan with per-lane scalar draws.

:func:`repro.traffic.base.bernoulli_uniform_lanes` draws a block of
cycles of uniform traffic for every lane at once.  Each lane's columns,
and its stream afterwards, must equal what one
:meth:`~repro.traffic.base.DrawStream.bernoulli_uniform` call per cycle
gives on a twin stream: the same packets, and the same next draws.
When the scan declines a block it must leave every stream's future
draws unchanged, so the caller can draw that block lane by lane.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HiRiseConfig
from repro.core.fleet import FleetSimulation
from repro.core.hirise import HiRiseSwitch
from repro.network.engine import Simulation
from repro.traffic import HotspotTraffic, UniformRandomTraffic
from repro.traffic import base
from repro.traffic.base import DrawStream, bernoulli_uniform_lanes


def make_stream(seed, held_half, consumed, block):
    """A stream whose generator may hold a half and whose buffer is used.

    ``held_half`` makes a bounded draw on the generator first, so a
    32-bit half is buffered before the stream takes over; ``consumed``
    raw words are then read, leaving the word buffer partly used.
    """
    rng = np.random.default_rng(seed)
    if held_half:
        rng.integers(1000)
        assert rng.bit_generator.state["has_uint32"]
    stream = DrawStream(rng, block=block)
    for _ in range(consumed):
        stream.raw()
    return stream


def scalar_block(streams, ports, thresholds, span, exclude_self, cycles):
    """Per cycle, per lane: ``bernoulli_uniform`` columns."""
    return [
        [stream.bernoulli_uniform(ports, threshold, span, exclude_self)
         for stream, threshold in zip(streams, thresholds)]
        for _ in range(cycles)
    ]


def block_columns(drawn, num_lanes, cycles):
    """The scan's rows regrouped as per cycle, per lane columns."""
    bounds, lanes, srcs, dsts = drawn
    assert bounds.size == cycles + 1
    out = []
    for cycle in range(cycles):
        rows = slice(bounds[cycle], bounds[cycle + 1])
        lane_of = lanes[rows].tolist()
        assert lane_of == sorted(lane_of)
        per_lane = [([], []) for _ in range(num_lanes)]
        for lane, src, dst in zip(lane_of, srcs[rows].tolist(),
                                  dsts[rows].tolist()):
            per_lane[lane][0].append(src)
            per_lane[lane][1].append(dst)
        out.append(per_lane)
    return out


def next_draws(stream):
    """Draws that expose the buffered half and the buffered words."""
    return ([stream.uint32() for _ in range(2)]
            + [stream.raw() for _ in range(3)]
            + [stream.integers(1 << 40), stream.integers(7)])


def assert_block_parity(make, ports, loads, span, exclude_self, blocks):
    """Scan ``blocks`` on one set of streams, scalar-draw a twin set."""
    scanned = make()
    twins = make()
    thresholds = [DrawStream.threshold(load) for load in loads]
    declined = 0
    for cycles in blocks:
        expected = scalar_block(twins, ports, thresholds, span,
                                exclude_self, cycles)
        drawn = bernoulli_uniform_lanes(scanned, ports, thresholds, span,
                                        exclude_self, cycles)
        if drawn is None:
            declined += 1
            got = scalar_block(scanned, ports, thresholds, span,
                               exclude_self, cycles)
        else:
            got = block_columns(drawn, len(scanned), cycles)
        assert got == expected
    for lane, (stream, twin) in enumerate(zip(scanned, twins)):
        assert next_draws(stream) == next_draws(twin), lane
    return declined


LOADS = st.one_of(st.sampled_from([0.0, 1.0]),
                  st.floats(0.0, 1.0, allow_nan=False))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lane_scan_matches_per_lane_draws(data):
    num_lanes = data.draw(st.integers(1, 33), label="lanes")
    radix = data.draw(st.integers(2, 128), label="radix")
    exclude_self = data.draw(st.booleans(), label="exclude_self")
    subset = data.draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, radix - 1), unique=True, max_size=radix),
    ), label="active_inputs")
    ports = list(range(radix)) if subset is None else subset
    loads = data.draw(st.lists(LOADS, min_size=num_lanes,
                               max_size=num_lanes), label="loads")
    held = data.draw(st.lists(st.booleans(), min_size=num_lanes,
                              max_size=num_lanes), label="held_half")
    consumed = data.draw(st.lists(st.integers(0, 40), min_size=num_lanes,
                                  max_size=num_lanes), label="consumed")
    block = data.draw(st.integers(1, 64), label="stream_block")
    blocks = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=4),
                       label="blocks")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    span = radix - 1 if exclude_self else radix

    def make():
        return [make_stream(seed + lane, held[lane], consumed[lane], block)
                for lane in range(num_lanes)]

    declined = assert_block_parity(make, ports, loads, span, exclude_self,
                                   blocks)
    if span >= 2 and span & (span - 1) == 0:
        assert not declined  # a power-of-two span never rejects


def test_rejection_declines_and_leaves_streams_unchanged():
    # Span 2**31 + 1 rejects about half of all 32-bit halves, so a block
    # of always-passing tests is all but sure to hit a rejection.
    ports = [0, 5, 2 ** 31]

    def make():
        return [make_stream(9 + lane, lane == 1, 3 * lane, 16)
                for lane in range(3)]

    thresholds = [DrawStream.threshold(1.0)] * 3
    assert bernoulli_uniform_lanes(make(), ports, thresholds, 2 ** 31 + 1,
                                   True, 4) is None
    declined = assert_block_parity(make, ports, [1.0, 0.5, 1.0],
                                   2 ** 31 + 1, True, [4, 3, 5])
    assert declined == 3


def test_span_outside_the_half_path_declines_untouched():
    def make():
        return [make_stream(3, True, 2, 16)]

    assert assert_block_parity(make, [0, 1], [0.7], 1, True, [5]) == 1
    assert assert_block_parity(make, [0, 1], [0.7], 2 ** 32 + 3, False,
                               [5]) == 1


def test_lanes_short_of_the_estimate_are_topped_up(monkeypatch):
    # An estimate of one word per test leaves every passing lane short.
    monkeypatch.setattr(base, "_words_estimate", lambda tests, _: tests)

    def make():
        return [make_stream(21 + lane, lane == 2, lane, 16)
                for lane in range(4)]

    loads = [1.0, 0.0, 0.5, 0.999]
    assert assert_block_parity(make, list(range(40)), loads, 64, False,
                               [16, 16, 3]) == 0


# ---------------------------------------------------------------------------
# The fleet's block path
# ---------------------------------------------------------------------------
CONFIG = HiRiseConfig(radix=16, layers=2, channel_multiplicity=2)


def uniform_lanes():
    return [
        UniformRandomTraffic(16, 0.7, seed=11),
        UniformRandomTraffic(16, 1.0, seed=12),
        UniformRandomTraffic(16, 0.0, seed=13),
        UniformRandomTraffic(16, 0.35, seed=14),
    ]


@pytest.fixture
def scan_calls(monkeypatch):
    """Cycle counts of every lane scan the fleet makes."""
    calls = []
    real = base.bernoulli_uniform_lanes

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(base, "bernoulli_uniform_lanes", counted)
    return calls


def test_fleet_runs_twice_with_a_drain_like_scalar_runs(scan_calls):
    fleet = FleetSimulation(CONFIG, uniform_lanes(), warmup_cycles=5)
    first = fleet.run(37, drain=True)
    second = fleet.run(29)
    # Blocks stop at each run's last injecting cycle: the drain and the
    # second run's warm-up draw nothing ahead.
    assert sum(scan_calls) == (5 + 37) + (5 + 29)
    assert max(scan_calls) == 16
    for lane, traffic in enumerate(uniform_lanes()):
        scalar = Simulation(HiRiseSwitch(CONFIG), traffic, warmup_cycles=5)
        assert first[lane] == scalar.run(37, drain=True), lane
        assert second[lane] == scalar.run(29), lane
    assert first[1].packets_injected > 0


class Shifted(UniformRandomTraffic):
    """A uniform subclass with its own columns: the scan must not apply."""

    def columns_for_cycle(self, cycle):
        srcs, dsts = super().columns_for_cycle(cycle)
        return srcs, [(dst + 1) % self.num_ports for dst in dsts]


ODD_LANES = {
    "subclass": lambda: Shifted(16, 0.5, seed=3),
    "hotspot": lambda: HotspotTraffic(16, 0.3, hotspot_output=9, seed=4),
    "exclude-self": lambda: UniformRandomTraffic(16, 0.5, seed=5,
                                                 exclude_self=False),
    "active-inputs": lambda: UniformRandomTraffic(16, 0.5, seed=6,
                                                  active_inputs=[1, 4]),
}


@pytest.mark.parametrize("odd", sorted(ODD_LANES))
def test_fleet_scans_only_plain_uniform_lanes_of_one_shape(scan_calls, odd):
    def build():
        return uniform_lanes()[:2] + [ODD_LANES[odd]()]

    lanes = FleetSimulation(CONFIG, build(), warmup_cycles=3).run(40)
    assert not scan_calls
    for lane, traffic in enumerate(build()):
        scalar = Simulation(HiRiseSwitch(CONFIG), traffic,
                            warmup_cycles=3).run(40)
        assert lanes[lane] == scalar, lane


def test_fleet_lanes_with_different_loads_share_one_scan(scan_calls):
    def build():
        return [UniformRandomTraffic(16, load, seed=30 + lane,
                                     active_inputs=[0, 3, 7, 8, 15])
                for lane, load in enumerate((0.0, 0.2, 0.9, 1.0))]

    lanes = FleetSimulation(CONFIG, build()).run(50, drain=True)
    assert scan_calls == [16, 16, 16, 2]
    for traffic, result in zip(build(), lanes):
        scalar = Simulation(HiRiseSwitch(CONFIG), traffic).run(50, drain=True)
        assert result == scalar
