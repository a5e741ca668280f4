"""Parity of the block-drawn traffic stream with numpy's scalar draws.

The generators draw through :class:`repro.traffic.base.DrawStream`,
which replays ``Generator.random()`` and ``Generator.integers(k)`` from
raw PCG64 words.  The oracle below is the numpy-scalar generation loop
the generators used before (one ``rng.random()`` per input-cycle, one
``rng.integers()`` per drawn destination), kept here as the reference:
every generator must produce the oracle's ``(cycle, src, dst,
packet_id)`` stream exactly, and ``columns_for_cycle`` must agree with
``packets_for_cycle``.

The golden lists pin the first packets for two seeds.  If numpy ever
changes a ``Generator`` method's algorithm, the oracle test against the
golden list fails while the stream test still passes, which shows that
numpy moved rather than the stream.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HiRiseConfig
from repro.core.fleet import FleetSimulation
from repro.core.hirise import HiRiseSwitch
from repro.network.engine import Simulation
from repro.traffic import (
    AdversarialTraffic,
    BurstyTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TraceTraffic,
    UniformRandomTraffic,
)
from repro.traffic.base import DrawStream, SyntheticTraffic

CYCLES = 200


class FixedDestination(SyntheticTraffic):
    """Default hooks only: Bernoulli injection, no destination draws."""

    def __init__(self, num_ports, load, mapping, seed=1, active_inputs=None):
        super().__init__(num_ports, load, seed=seed,
                         active_inputs=active_inputs)
        self.mapping = mapping

    def destination(self, src):
        return self.mapping[src]


class DrawnDestination(SyntheticTraffic):
    """Default hooks with a drawing destination: draws interleave."""

    def destination(self, src):
        return self.uniform_destination(src, exclude_self=src % 2 == 0)


# ---------------------------------------------------------------------------
# The oracle: the numpy-scalar generation loop
# ---------------------------------------------------------------------------
def oracle_events(traffic, seed, cycles):
    """``(cycle, src, dst, packet_id)`` of the numpy-scalar loop.

    Reads only the generator's parameters; every draw is a numpy
    ``Generator`` scalar call in the order the per-port hooks make them.
    """
    rng = np.random.default_rng(seed)
    n = traffic.num_ports

    def uniform(src, exclude_self=True):
        if not exclude_self:
            return int(rng.integers(n))
        dst = int(rng.integers(n - 1))
        return dst if dst < src else dst + 1

    on = {src: False for src in traffic.active_inputs}
    burst_dst = {}

    def bursty_inject(src):
        if on[src] and rng.random() < traffic._p_end:
            on[src] = False
            burst_dst.pop(src, None)
        if not on[src] and rng.random() < traffic._p_start:
            on[src] = True
            if traffic.per_burst_destination:
                burst_dst[src] = uniform(src)
        return on[src]

    def destination(src):
        if isinstance(traffic, UniformRandomTraffic):
            return uniform(src, traffic.exclude_self)
        if isinstance(traffic, HotspotTraffic):
            return traffic.hotspot_output
        if isinstance(traffic, BurstyTraffic):
            if traffic.per_burst_destination and src in burst_dst:
                return burst_dst[src]
            return uniform(src)
        if isinstance(traffic, PermutationTraffic):
            dst = traffic._fn(src, n)
            return None if dst == src else dst
        if isinstance(traffic, AdversarialTraffic):
            return traffic.demands[src]
        if isinstance(traffic, FixedDestination):
            return traffic.mapping[src]
        if isinstance(traffic, DrawnDestination):
            return uniform(src, exclude_self=src % 2 == 0)
        raise TypeError(type(traffic).__name__)

    events = []
    for cycle in range(cycles):
        for src in traffic.active_inputs:
            if isinstance(traffic, BurstyTraffic):
                injects = bursty_inject(src)
            else:
                injects = rng.random() < traffic.load
            if not injects:
                continue
            dst = destination(src)
            if dst is not None:
                events.append((cycle, src, dst, len(events)))
        background = getattr(traffic, "background_load", 0.0)
        if background > 0.0:
            for src in traffic.active_inputs:
                if rng.random() < background:
                    dst = uniform(src)
                    if dst != traffic.hotspot_output:
                        events.append((cycle, src, dst, len(events)))
    return events


def packet_events(traffic, cycles):
    return [
        (cycle, p.src, p.dst, p.packet_id)
        for cycle in range(cycles)
        for p in traffic.packets_for_cycle(cycle)
    ]


def column_events(traffic, cycles):
    events = []
    for cycle in range(cycles):
        srcs, dsts = traffic.columns_for_cycle(cycle)
        assert len(srcs) == len(dsts)
        for src, dst in zip(srcs, dsts):
            events.append((cycle, src, dst, len(events)))
    return events


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
LOADS = st.one_of(
    st.sampled_from((0.0, 1.0, 0.5)),
    st.floats(min_value=0.0, max_value=1.0),
)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
#: Spans of 2**31 and above reject a large share of Lemire draws; past
#: 2**32 the bounded draw takes whole words.
WIDE_RADICES = st.sampled_from(
    (2 ** 31 + 1, 2 ** 31 + 12345, 3 * 2 ** 30, 2 ** 32, 2 ** 32 + 1,
     2 ** 32 + 2, 2 ** 40 + 3)
)


@st.composite
def active_subset(draw, radix):
    """None (every input) or a subset; always a small subset when wide."""
    if radix <= 4096 and draw(st.booleans()):
        return None
    return draw(st.lists(
        st.integers(min_value=0, max_value=radix - 1),
        min_size=1, max_size=6 if radix > 4096 else radix, unique=True,
    ))


@st.composite
def generators(draw):
    """``(factory, seed)``: ``factory()`` builds a fresh generator."""
    kind = draw(st.sampled_from((
        "uniform", "uniform_self", "hotspot", "bursty", "permutation",
        "adversarial", "fixed", "drawn",
    )))
    seed = draw(SEEDS)
    load = draw(LOADS)
    if kind == "permutation":
        radix = draw(st.sampled_from((2, 4, 8, 16, 32, 64, 128)))
    elif kind in ("uniform", "uniform_self", "hotspot", "bursty", "drawn"):
        radix = draw(st.one_of(
            st.integers(min_value=2, max_value=128), WIDE_RADICES,
        ))
    else:
        radix = draw(st.integers(min_value=2, max_value=128))
    active = draw(active_subset(radix))

    if kind == "uniform":
        return (lambda: UniformRandomTraffic(
            radix, load, seed=seed, active_inputs=active)), seed
    if kind == "uniform_self":
        return (lambda: UniformRandomTraffic(
            radix, load, seed=seed, active_inputs=active,
            exclude_self=False)), seed
    if kind == "hotspot":
        hotspot = draw(st.integers(min_value=0, max_value=min(radix, 128) - 1))
        background = draw(st.sampled_from((0.0, 0.0, 0.3, 1.0)))
        return (lambda: HotspotTraffic(
            radix, load, hotspot_output=hotspot, seed=seed,
            active_inputs=active, background_load=background)), seed
    if kind == "bursty":
        burst = draw(st.sampled_from((1.0, 2.5, 8.0)))
        if load >= 1.0:
            burst = 1.0
        per_burst = draw(st.booleans())
        return (lambda: BurstyTraffic(
            radix, load, burst_length=burst, seed=seed,
            active_inputs=active, per_burst_destination=per_burst)), seed
    if kind == "permutation":
        pattern = draw(st.sampled_from(
            ("transpose", "bit_complement", "bit_reverse", "shuffle")))
        return (lambda: PermutationTraffic(
            radix, load, pattern=pattern, seed=seed,
            active_inputs=active)), seed
    if kind == "adversarial":
        srcs = active or list(range(radix))
        demands = {src: draw(st.integers(min_value=0, max_value=radix - 1))
                   for src in srcs}
        return (lambda: AdversarialTraffic(
            radix, load, demands, seed=seed)), seed
    if kind == "fixed":
        mapping = {src: (src * 7 + 3) % radix for src in range(radix)}
        return (lambda: FixedDestination(
            radix, load, mapping, seed=seed, active_inputs=active)), seed
    return (lambda: DrawnDestination(
        radix, load, seed=seed, active_inputs=active)), seed


# ---------------------------------------------------------------------------
# Generator parity
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(spec=generators())
def test_every_generator_matches_the_numpy_scalar_oracle(spec):
    factory, seed = spec
    expected = oracle_events(factory(), seed, CYCLES)
    assert packet_events(factory(), CYCLES) == expected
    assert column_events(factory(), CYCLES) == expected


def test_wide_span_forces_lemire_rejections():
    # 2**32 mod span is 2**31 - 1: almost half of all draws reject.
    def make():
        return UniformRandomTraffic(
            2 ** 31 + 2, 1.0, seed=9, active_inputs=[0, 5, 2 ** 31]
        )

    expected = oracle_events(make(), 9, CYCLES)
    assert packet_events(make(), CYCLES) == expected
    assert len(expected) == 3 * CYCLES


def test_buffered_half_carries_across_cycles():
    # One active input at load 1: one packet per cycle, so every other
    # cycle's destination is the upper half left by the cycle before.
    def make():
        return UniformRandomTraffic(64, 1.0, seed=4, active_inputs=[7])

    traffic = make()
    traffic.columns_for_cycle(0)
    assert traffic.stream._upper is not None
    traffic.columns_for_cycle(1)
    assert traffic.stream._upper is None
    assert packet_events(make(), CYCLES) == oracle_events(make(), 4, CYCLES)


def test_generators_draw_only_through_the_stream():
    # A direct rng draw next to the stream's buffered block draws would
    # silently desynchronize both, so the package must contain none.
    import repro.traffic

    package = Path(repro.traffic.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "self.rng." in line
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# The stream against numpy, draw by draw
# ---------------------------------------------------------------------------
SPANS = (1, 2, 3, 63, 64, 127, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32,
         2 ** 32 + 1, 2 ** 40 + 3, 2 ** 63)


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    block=st.integers(min_value=1, max_value=9),
    ops=st.lists(
        st.one_of(st.just("random"), st.sampled_from(SPANS)),
        min_size=1, max_size=300,
    ),
)
def test_stream_replays_random_and_integers(seed, block, ops):
    rng = np.random.default_rng(seed)
    stream = DrawStream(np.random.default_rng(seed), block=block)
    for op in ops:
        if op == "random":
            assert stream.random() == rng.random()
        else:
            assert stream.integers(op) == int(rng.integers(op))


@settings(max_examples=100, deadline=None)
@given(
    seed=SEEDS,
    p=st.floats(min_value=-0.5, max_value=1.5),
    draws=st.integers(min_value=1, max_value=200),
)
def test_threshold_is_the_random_compare(seed, p, draws):
    rng = np.random.default_rng(seed)
    stream = DrawStream(np.random.default_rng(seed), block=7)
    threshold = DrawStream.threshold(p)
    for _ in range(draws):
        assert (stream.raw() < threshold) == (rng.random() < p)


@settings(max_examples=200, deadline=None)
@given(p=st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from((1.5 * 2 ** -53, 2 ** -60, 0.1, 1 - 2 ** -53)),
))
def test_threshold_holds_at_the_boundary_words(p):
    # Random words almost never land next to the bound; probe it
    # directly against the double numpy's random() builds from a word.
    threshold = DrawStream.threshold(p)
    for word in (threshold - 2049, threshold - 2048, threshold - 1,
                 threshold, threshold + 2047, threshold + 2048):
        if 0 <= word < 2 ** 64:
            assert (word < threshold) == ((word >> 11) * 2.0 ** -53 < p)


def test_stream_adopts_a_half_buffered_by_earlier_draws():
    rng = np.random.default_rng(21)
    shadow = np.random.default_rng(21)
    rng.integers(10)
    shadow.integers(10)
    stream = DrawStream(rng)
    for span in (10, 10, 1000, 7):
        assert stream.integers(span) == int(shadow.integers(span))


def test_bernoulli_uniform_matches_scalar_draws():
    local = random.Random(5)
    for trial in range(40):
        seed = local.randrange(2 ** 32)
        span = local.choice((1, 2, 5, 63, 2 ** 31 + 7, 2 ** 32, 2 ** 33))
        ports = local.sample(range(200), local.randrange(1, 60))
        exclude = local.random() < 0.5
        p = local.random()
        stream = DrawStream(np.random.default_rng(seed), block=3)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            srcs, dsts = stream.bernoulli_uniform(
                ports, DrawStream.threshold(p), span, exclude
            )
            expect = []
            for src in ports:
                if rng.random() < p:
                    dst = int(rng.integers(span))
                    if exclude and dst >= src:
                        dst += 1
                    expect.append((src, dst))
            assert list(zip(srcs, dsts)) == expect, trial


def test_stream_rejects_other_bit_generators():
    with pytest.raises(TypeError):
        DrawStream(np.random.Generator(np.random.MT19937(1)))
    with pytest.raises(ValueError):
        DrawStream(np.random.default_rng(1), block=0)


# ---------------------------------------------------------------------------
# Golden lists: the first packets for two seeds
# ---------------------------------------------------------------------------
def chunks(flat):
    return [tuple(flat[i:i + 4]) for i in range(0, len(flat), 4)]


#: UniformRandomTraffic(16, 0.4, seed=1): (cycle, src, dst, packet_id).
GOLDEN_UNIFORM_SEED_1 = chunks([
    0, 2, 13, 0, 0, 3, 15, 1, 0, 8, 13, 2, 0, 10, 12, 3,
    0, 12, 1, 4, 0, 13, 6, 5, 0, 15, 7, 6, 1, 1, 4, 7,
    1, 7, 11, 8, 1, 10, 2, 9, 1, 15, 10, 10, 2, 1, 8, 11,
    2, 5, 6, 12, 2, 9, 13, 13, 2, 13, 8, 14, 2, 14, 12, 15,
    2, 15, 3, 16, 3, 3, 13, 17, 3, 4, 13, 18, 3, 7, 10, 19,
    3, 8, 11, 20, 3, 11, 9, 21, 4, 0, 8, 22, 4, 5, 11, 23,
    4, 7, 14, 24, 4, 8, 13, 25, 4, 10, 2, 26, 4, 11, 5, 27,
    4, 13, 8, 28, 4, 14, 5, 29, 4, 15, 8, 30, 5, 0, 7, 31,
    5, 2, 0, 32, 5, 8, 11, 33, 5, 10, 12, 34, 5, 11, 15, 35,
    5, 12, 4, 36, 5, 13, 1, 37, 6, 0, 2, 38, 6, 7, 5, 39,
    6, 9, 2, 40, 6, 10, 1, 41, 6, 11, 2, 42, 6, 12, 4, 43,
    7, 6, 1, 44, 7, 7, 8, 45, 7, 8, 14, 46, 7, 10, 7, 47,
    7, 13, 1, 48, 7, 15, 14, 49,
])

#: HotspotTraffic(16, 0.2, hotspot_output=5, seed=2, background_load=0.25).
GOLDEN_HOTSPOT_SEED_2 = chunks([
    0, 3, 5, 0, 0, 6, 5, 1, 0, 7, 5, 2, 0, 11, 5, 3,
    0, 12, 15, 4, 1, 14, 5, 5, 1, 15, 5, 6, 1, 9, 3, 7,
    1, 10, 7, 8, 1, 12, 2, 9, 1, 13, 12, 10, 1, 14, 12, 11,
    2, 12, 5, 12, 2, 0, 1, 13, 2, 3, 13, 14, 2, 7, 0, 15,
    2, 11, 14, 16, 2, 12, 2, 17, 3, 3, 5, 18, 3, 7, 5, 19,
    3, 8, 5, 20, 3, 14, 5, 21, 3, 1, 2, 22, 3, 13, 3, 23,
    4, 1, 5, 24, 4, 4, 5, 25, 4, 5, 5, 26, 4, 12, 5, 27,
    4, 3, 11, 28, 4, 8, 7, 29, 4, 9, 14, 30, 5, 5, 5, 31,
    5, 12, 5, 32, 5, 13, 5, 33, 5, 14, 5, 34, 5, 1, 6, 35,
    5, 7, 10, 36, 5, 9, 1, 37, 5, 14, 15, 38, 6, 0, 5, 39,
    6, 2, 5, 40, 6, 11, 5, 41, 6, 14, 5, 42, 6, 15, 5, 43,
    6, 5, 8, 44, 6, 8, 1, 45, 6, 9, 0, 46, 6, 11, 2, 47,
    6, 12, 2, 48, 6, 15, 8, 49,
])


def golden_uniform():
    return UniformRandomTraffic(16, 0.4, seed=1)


def golden_hotspot():
    return HotspotTraffic(16, 0.2, hotspot_output=5, seed=2,
                          background_load=0.25)


GOLDEN = [
    (golden_uniform, 1, GOLDEN_UNIFORM_SEED_1),
    (golden_hotspot, 2, GOLDEN_HOTSPOT_SEED_2),
]


@pytest.mark.parametrize("factory, seed, golden", GOLDEN,
                         ids=["uniform-seed1", "hotspot-seed2"])
def test_stream_reproduces_the_golden_packets(factory, seed, golden):
    assert packet_events(factory(), 20)[:len(golden)] == golden


@pytest.mark.parametrize("factory, seed, golden", GOLDEN,
                         ids=["uniform-seed1", "hotspot-seed2"])
def test_numpy_oracle_reproduces_the_golden_packets(factory, seed, golden):
    # Fails alone (with the stream test passing) if numpy changed its
    # Generator.random()/integers() algorithms.
    assert oracle_events(factory(), seed, 20)[:len(golden)] == golden


# ---------------------------------------------------------------------------
# The fleet's column path
# ---------------------------------------------------------------------------
def fleet_sources():
    return [
        UniformRandomTraffic(16, 0.6, seed=3),
        HotspotTraffic(16, 0.3, hotspot_output=9, seed=4,
                       background_load=0.2),
        BurstyTraffic(16, 0.5, seed=5, per_burst_destination=False),
        PermutationTraffic(16, 0.7, pattern="shuffle", seed=6),
        # Two packets from one source in a cycle: the unsorted batch
        # takes the checked inject_cycle path instead of inject_packed.
        TraceTraffic([(c, 2, 7) for c in range(0, 150, 3)]
                     + [(c, 2, 11) for c in range(0, 150, 5)]),
    ]


def test_fleet_column_lanes_match_scalar_runs():
    config = HiRiseConfig(radix=16, layers=2, channel_multiplicity=2)
    fleet = FleetSimulation(config, fleet_sources(), warmup_cycles=10)
    for lane, result in enumerate(fleet.run(150)):
        scalar = Simulation(
            HiRiseSwitch(config), fleet_sources()[lane], warmup_cycles=10
        ).run(150)
        assert result == scalar, lane
        assert result.packets_injected > 0


def test_fleet_refuses_sources_without_columns():
    class PacketsOnly:
        def packets_for_cycle(self, cycle):
            return iter(())

    config = HiRiseConfig(radix=16, layers=2, channel_multiplicity=2)
    with pytest.raises(TypeError, match="PacketsOnly"):
        FleetSimulation(config, [PacketsOnly()])


def test_fleet_packet_ids_still_overflow_loudly():
    config = HiRiseConfig(radix=16, layers=2, channel_multiplicity=2)
    traffic = UniformRandomTraffic(16, 1.0, seed=1)
    traffic.factory.reserve(2 ** 31 - 3)
    with pytest.raises(OverflowError):
        FleetSimulation(config, [traffic]).run(4)
