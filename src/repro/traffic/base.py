"""Base class for synthetic traffic generators, and the draw stream.

:class:`DrawStream` replays numpy's ``Generator.random()`` and
``Generator.integers(k)`` bit for bit from raw PCG64 words pulled in
small blocks, so a generator pays a list index and an integer compare
per draw instead of a numpy scalar call.  The stream contract:

* a word is one raw 64-bit PCG64 output (``bit_generator.random_raw``);
* ``random()`` is the word's top 53 bits times ``2**-53``, so the
  Bernoulli test ``random() < p`` is the integer compare
  ``word < threshold(p)`` with ``threshold(p) = ceil(p * 2**53) << 11``;
* ``integers(k)`` for ``k <= 2**32`` takes 32-bit halves, the low half
  of a fresh word first with the upper half buffered for the next
  bounded draw (PCG64's ``next_uint32``), through Lemire's
  multiply-shift with rejection; wider spans use whole words the same
  way.

Traffic therefore depends only on the PCG64 raw stream, not on the
algorithms behind numpy's ``Generator`` methods;
``tests/traffic/test_stream_parity.py`` pins the two against each other.
"""

import math
from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.packet import Packet, PacketFactory

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
#: Widest span the 32-bit-half path serves (``integers(2**32)`` is a raw
#: ``next_uint32``, which the Lemire formula reproduces exactly).
_SPAN32 = 1 << 32

#: ``(srcs, dsts)``: one cycle's injections as parallel columns.
Columns = Tuple[List[int], List[int]]


class DrawStream:
    """Block-buffered raw PCG64 words replaying ``Generator`` draws.

    The stream owns its generator: it pulls words ahead of use, so any
    direct draw on ``rng`` afterwards would skip words the stream has
    buffered and desynchronize both.

    Args:
        rng: A ``numpy.random.Generator`` over :class:`numpy.random.PCG64`
            (what ``numpy.random.default_rng`` builds).
        block: Words pulled per refill; size it from the per-cycle need
            (every buffered word is a live Python int).
    """

    __slots__ = ("_bitgen", "_block", "_words", "_pos", "_upper")

    def __init__(self, rng: np.random.Generator, block: int = 64) -> None:
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(
                "DrawStream replays PCG64 draws; got "
                f"{type(bitgen).__name__}"
            )
        if block < 1:
            raise ValueError("block must be >= 1 word")
        state = bitgen.state
        self._bitgen = bitgen
        self._block = int(block)
        self._words: List[int] = []
        self._pos = 0
        # A half left over by a bounded draw already made on ``rng``.
        self._upper: Optional[int] = (
            state["uinteger"] if state["has_uint32"] else None
        )

    @staticmethod
    def threshold(p: float) -> int:
        """Word bound with ``word < threshold(p)`` iff ``random() < p``."""
        return math.ceil(p * 2.0 ** 53) << 11

    def _reserve(self, count: int) -> None:
        """Make at least ``count`` unconsumed words available."""
        words = self._words
        pos = self._pos
        if len(words) - pos < count:
            fresh = self._bitgen.random_raw(max(count, self._block)).tolist()
            self._words = words[pos:] + fresh
            self._pos = 0

    def raw(self) -> int:
        """The next raw 64-bit word."""
        pos = self._pos
        if pos == len(self._words):
            self._words = self._bitgen.random_raw(self._block).tolist()
            pos = 0
        self._pos = pos + 1
        return self._words[pos]

    def uint32(self) -> int:
        """PCG64's ``next_uint32``: a buffered upper half, else a fresh
        word's low half (its upper half is kept for the next call)."""
        upper = self._upper
        if upper is not None:
            self._upper = None
            return upper
        word = self.raw()
        self._upper = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """``Generator.random()``: a double in [0, 1)."""
        return (self.raw() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, k: int) -> int:
        """``Generator.integers(k)``: uniform in ``[0, k)``, ``k >= 1``."""
        if k < 1:
            raise ValueError("integers(k) needs k >= 1")
        if k == 1:
            return 0  # numpy draws nothing for an empty range
        if k <= _SPAN32:
            return self._lemire32(k, _SPAN32 % k)
        limit = (1 << 64) % k
        product = self.raw() * k
        while product & _MASK64 < limit:
            product = self.raw() * k
        return product >> 64

    def _lemire32(self, k: int, limit: int) -> int:
        product = self.uint32() * k
        while product & _MASK32 < limit:
            product = self.uint32() * k
        return product >> 32

    def bernoulli(self, ports: Sequence[int], threshold: int) -> List[int]:
        """The ports whose Bernoulli test passes: one word per port."""
        count = len(ports)
        self._reserve(count)
        pos = self._pos
        self._pos = pos + count
        return [
            port for port, word in zip(ports, self._words[pos:pos + count])
            if word < threshold
        ]

    def bernoulli_uniform(
        self,
        ports: Sequence[int],
        threshold: int,
        span: int,
        exclude_self: bool,
    ) -> Columns:
        """Per port a Bernoulli test, then on a pass ``integers(span)``.

        With ``exclude_self`` the draw skips the port itself (``span`` is
        then one less than the destination count).  Draw order and word
        use are those of the scalar loop
        ``if random() < p: integers(span)``; the common case runs inline
        over the buffered words.
        """
        srcs: List[int] = []
        dsts: List[int] = []
        if not 2 <= span <= _SPAN32:
            raw = self.raw
            integers = self.integers
            for src in ports:
                if raw() < threshold:
                    dst = integers(span)
                    srcs.append(src)
                    dsts.append(dst + 1 if exclude_self and dst >= src
                                else dst)
            return srcs, dsts
        limit = _SPAN32 % span
        # At most two words per port (inject test + fresh half) unless a
        # Lemire rejection draws more; the rejection path re-reserves.
        need = 2 * len(ports)
        self._reserve(need)
        words = self._words
        pos = self._pos
        upper = self._upper
        for src in ports:
            word = words[pos]
            pos += 1
            if word >= threshold:
                continue
            if upper is None:
                word = words[pos]
                pos += 1
                product = (word & _MASK32) * span
                upper = word >> 32
            else:
                product = upper * span
                upper = None
            if product & _MASK32 < limit:
                self._pos = pos
                self._upper = upper
                product = self._lemire32(span, limit) << 32
                self._reserve(need)
                words = self._words
                pos = self._pos
                upper = self._upper
            dst = product >> 32
            srcs.append(src)
            dsts.append(dst + 1 if exclude_self and dst >= src else dst)
        self._pos = pos
        self._upper = upper
        return srcs, dsts


# The lane scan's word automaton.  ``bernoulli_uniform`` reads each word
# in one of three states: 0 = inject test with no half buffered, 1 =
# inject test with a half buffered, 2 = destination word (its low half
# drawn, its upper half buffered).  A passing test moves 0 -> 2 and
# 1 -> 0, a failing one stays, and a destination word moves to 1.  A
# state map ``f`` is coded ``9 f(0) + 3 f(1) + f(2)``; the scan reads a
# lane's pass bits a byte (eight words) at a time.


def _byte_tables():
    """Per pass byte (bit ``j`` set: word ``j`` is below the threshold).

    Returns ``(byte_map, passing)``: ``byte_map[b]`` codes the state map
    of byte ``b``; ``passing[256 s + b]`` marks the words of ``b`` that
    are passing tests when the byte is entered in state ``s``.
    """
    state = np.repeat(np.arange(3), 256)
    byte = np.tile(np.arange(256), 3)
    passing = np.zeros(768, dtype=np.uint8)
    for bit in range(8):
        passed = ((byte >> bit) & 1 == 1) & (state < 2)
        passing |= passed.astype(np.uint8) << bit
        state = np.where(state == 2, 1,
                         np.where(passed, (2 - 2 * state), state))
    byte_map = 9 * state[:256] + 3 * state[256:512] + state[512:]
    return byte_map, passing


_BYTE_MAP, _BYTE_PASSING = _byte_tables()
_MAPS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
#: ``_COMPOSE[27 f + g]``: the map ``f`` then ``g``.
_COMPOSE = np.array([
    9 * g[f[0]] + 3 * g[f[1]] + g[f[2]] for f in _MAPS for g in _MAPS
])
#: ``_APPLY[3 f + s]``: ``f(s)``.
_APPLY = np.array([f[s] for f in _MAPS for s in range(3)])

#: ``(bounds, lanes, srcs, dsts)``: a block of cycles' injections over
#: every lane, rows ordered by cycle, then lane, then port; cycle ``c``
#: of the block owns rows ``bounds[c]:bounds[c + 1]``.
LaneColumns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _passing_tests(passed: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Flat positions of every lane's passing tests, lane-major.

    One prefix scan over the ``(lanes, words)`` pass bits: each byte's
    state map comes from a table, a Hillis-Steele scan composes the maps
    along the lane, and each byte's entry state picks its passing tests.
    ``start`` is each lane's entry state (1 iff a half is buffered).
    """
    width = passed.shape[1]
    bits = np.packbits(passed, axis=1, bitorder="little")
    total = _BYTE_MAP.take(bits)
    shift = 1
    while shift < total.shape[1]:
        head = total[:, :-shift] * 27
        total = total.copy()
        total[:, shift:] = _COMPOSE.take(head + total[:, shift:])
        shift *= 2
    entry = np.empty(bits.shape, dtype=np.intp)
    entry[:, 0] = start
    entry[:, 1:] = _APPLY.take(total[:, :-1] * 3 + start[:, None])
    passing = _BYTE_PASSING.take(entry * 256 + bits)
    return np.flatnonzero(np.unpackbits(
        passing, axis=1, count=width, bitorder="little").view(bool))


def _words_estimate(tests: int, threshold: int) -> int:
    """Words a lane likely needs for ``tests`` tests at ``threshold``.

    A word per test plus one per other pass (passes alternate between
    drawing a fresh word and using the buffered half), with a margin of
    four standard deviations, capped at two words per test.
    """
    extra = tests * threshold / 2.0 ** 65 + math.sqrt(tests)
    return min(2 * tests, tests + 2 + math.ceil(extra))


def bernoulli_uniform_lanes(
    streams: Sequence[DrawStream],
    ports: Sequence[int],
    thresholds: Sequence[int],
    span: int,
    exclude_self: bool,
    cycles: int,
) -> Optional[LaneColumns]:
    """``cycles`` cycles of :meth:`DrawStream.bernoulli_uniform` per lane.

    Lane ``i`` draws from ``streams[i]`` with ``thresholds[i]``; all
    lanes share ``ports``, ``span`` and ``exclude_self``.  Each lane's
    words (its buffered ones first, then ``random_raw`` blocks) are
    classified by the three-state word automaton in one prefix scan over
    the ``(lanes, words)`` block, so every lane's columns for every
    cycle come out of a few array ops, and each stream is left exactly
    as ``cycles`` scalar calls per lane would leave it.

    Returns None, with every stream's future draws unchanged, when the
    span is outside ``2..2**32`` or any destination in the block hits a
    Lemire rejection; the caller then draws those cycles per lane.
    """
    if not 2 <= span <= _SPAN32:
        return None
    num_lanes = len(streams)
    num_ports = len(ports)
    tests = num_ports * cycles
    if not tests:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(cycles + 1, dtype=np.int64), empty, empty, empty
    # Buffered words first; a lane that runs short of its estimate is
    # topped up to the bound of two words per test.
    ahead = [len(stream._words) - stream._pos for stream in streams]
    sizes = np.array([
        max(count, _words_estimate(tests, threshold))
        for count, threshold in zip(ahead, thresholds)
    ])
    words = np.zeros((num_lanes, int(sizes.max())), dtype=np.uint64)
    for lane, stream in enumerate(streams):
        count = ahead[lane]
        if count:
            words[lane, :count] = stream._words[stream._pos:]
        words[lane, count:sizes[lane]] = stream._bitgen.random_raw(
            sizes[lane] - count)
    start = np.array([stream._upper is not None for stream in streams],
                     dtype=np.int64)
    thresh = np.array([min(t, _MASK64) for t in thresholds], dtype=np.uint64)
    always = np.array([t > _MASK64 for t in thresholds])
    lane_ids = np.arange(num_lanes)
    while True:
        width = words.shape[1]
        passed = words < thresh[:, None]
        passed[always] = True
        pos = _passing_tests(passed, start)
        lane_of = pos // width
        # Passes alternate between taking a fresh word (whose next word
        # is a destination word, not a test) and the buffered half, so a
        # pass's rank in its lane gives its kind and its test index.
        first = np.searchsorted(lane_of, lane_ids)
        rank = np.arange(pos.size) - first[lane_of]
        entry = start[lane_of]
        index = pos - lane_of * width - ((rank + 1 - entry) >> 1)
        kept = np.bincount(lane_of[index < tests], minlength=num_lanes)
        used = tests + ((kept + 1 - start) >> 1)
        short = np.flatnonzero(used > sizes).tolist()
        if not short:
            break
        wider = np.zeros((num_lanes, max(width, 2 * tests)), dtype=np.uint64)
        wider[:, :width] = words
        words = wider
        for lane in short:
            words[lane, sizes[lane]:2 * tests] = (
                streams[lane]._bitgen.random_raw(2 * tests - sizes[lane]))
            sizes[lane] = 2 * tests
    keep = index < tests
    pos = pos[keep]
    lane_of = lane_of[keep]
    index = index[keep]
    fresh = ((rank[keep] + entry[keep]) & 1) == 0
    dest = np.zeros(pos.size, dtype=np.uint64)
    dest[fresh] = words.ravel()[pos[fresh] + 1]
    # A pass with a half buffered takes the upper half of the lane's
    # previous pass's destination word, or the half the stream held on
    # entry when it is the lane's first pass.
    upper = dest >> np.uint64(32)
    half = dest & np.uint64(_MASK32)
    held = np.flatnonzero(~fresh)
    half[held] = upper[held - 1]
    entry_upper = np.array([stream._upper or 0 for stream in streams],
                           dtype=np.uint64)
    first = np.cumsum(kept) - kept
    opens = np.flatnonzero((start == 1) & (kept > 0))
    half[first[opens]] = entry_upper[opens]
    product = half * np.uint64(span)
    limit = _SPAN32 % span
    if limit and ((product & np.uint64(_MASK32)) < np.uint64(limit)).any():
        for lane, stream in enumerate(streams):
            stream._words = words[lane, :sizes[lane]].tolist()
            stream._pos = 0
        return None
    dst = (product >> np.uint64(32)).astype(np.int64)
    cycle = index // num_ports
    order = np.argsort(cycle, kind="stable")
    lanes = lane_of[order]
    srcs = np.asarray(ports, dtype=np.int64)[(index - cycle * num_ports)[order]]
    dst = dst[order]
    if exclude_self:
        dst += dst >= srcs
    bounds = np.searchsorted(cycle[order], np.arange(cycles + 1))
    # Leave each stream as the scalar calls would: the unused words
    # buffered, and a half buffered iff the pass count flips the entry
    # state -- the upper half of the lane's last destination word.
    last = first + kept - 1
    for lane, stream in enumerate(streams):
        stream._words = words[lane, used[lane]:sizes[lane]].tolist()
        stream._pos = 0
        count = int(kept[lane])
        if (start[lane] + count) % 2 == 0:
            stream._upper = None
        elif count:
            stream._upper = int(upper[last[lane]])
    return bounds, lanes, srcs, dst


class SyntheticTraffic(ABC):
    """Bernoulli per-input injection with a pattern-specific destination.

    Each cycle, every *active* input generates a packet with probability
    ``load`` (packets/input/cycle); the destination comes from the
    subclass's :meth:`destination` hook.  All randomness flows through
    ``stream``, a :class:`DrawStream` over an explicitly seeded
    :class:`numpy.random.Generator`, so runs are reproducible.  ``rng``
    is owned by ``stream``: subclasses draw through ``self.stream``
    only, because the stream buffers words ahead of use and a direct
    ``rng`` draw would desynchronize it.

    :meth:`columns_for_cycle` is the one generation path;
    :meth:`packets_for_cycle` wraps its columns into packets.

    Args:
        num_ports: Switch radix.
        load: Injection probability per input per cycle, in [0, 1].
        packet_flits: Packet length (paper default: 4 flits).
        seed: RNG seed.
        active_inputs: Inputs that inject (default: all).
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        packet_flits: int = 4,
        seed: int = 1,
        active_inputs: Optional[List[int]] = None,
    ) -> None:
        if num_ports < 2:
            raise ValueError("need at least two ports")
        if not 0.0 <= load <= 1.0:
            raise ValueError("load must be in [0, 1] packets/input/cycle")
        self.num_ports = num_ports
        self.load = load
        self.factory = PacketFactory(packet_flits)
        if active_inputs is None:
            self.active_inputs = list(range(num_ports))
        else:
            for port in active_inputs:
                if not 0 <= port < num_ports:
                    raise ValueError(f"active input {port} out of range")
            self.active_inputs = list(active_inputs)
        self.rng = np.random.default_rng(seed)
        # Two words per input covers a Bernoulli test plus a bounded draw.
        self.stream = DrawStream(
            self.rng, block=max(16, 2 * len(self.active_inputs))
        )
        self._inject_threshold = DrawStream.threshold(load)

    @abstractmethod
    def destination(self, src: int) -> Optional[int]:
        """Destination for a packet from ``src`` (None suppresses it)."""

    def should_inject(self, src: int, cycle: int) -> bool:
        """Injection decision for ``src`` this cycle (Bernoulli by default)."""
        return self.stream.raw() < self._inject_threshold

    def columns_for_cycle(self, cycle: int) -> Columns:
        """``(srcs, dsts)`` of the packets generated during ``cycle``."""
        srcs: List[int] = []
        dsts: List[int] = []
        should_inject = self.should_inject
        destination = self.destination
        num_ports = self.num_ports
        for src in self.active_inputs:
            if not should_inject(src, cycle):
                continue
            dst = destination(src)
            if dst is None:
                continue
            if not 0 <= dst < num_ports:
                raise ValueError(f"destination {dst} out of range")
            srcs.append(src)
            dsts.append(dst)
        return srcs, dsts

    def packets_for_cycle(self, cycle: int) -> Iterator[Packet]:
        """Packets generated during ``cycle``, built from the columns."""
        srcs, dsts = self.columns_for_cycle(cycle)
        create = self.factory.create
        for src, dst in zip(srcs, dsts):
            yield create(src, dst, created_cycle=cycle)

    def uniform_destination(self, src: int, exclude_self: bool = True) -> int:
        """A uniformly random destination, excluding ``src`` by default."""
        if not exclude_self:
            return self.stream.integers(self.num_ports)
        dst = self.stream.integers(self.num_ports - 1)
        return dst if dst < src else dst + 1
