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
        """Packets generated during ``cycle`` (the TrafficSource protocol)."""
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
