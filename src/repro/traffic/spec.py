"""Traffic described by a value: a pattern name plus its parameters.

A :class:`TrafficSpec` is what a measurement, a sweep task, a service
job or a CLI command means by "this traffic".  It is frozen and
picklable, so it can cross process boundaries and ride on fleet lane
plans; :meth:`TrafficSpec.build` turns it into a fresh, seeded source
for one run (sources hold RNG state, so runs never share one).
"""

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from repro.traffic.adversarial import AdversarialTraffic
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.permutation import PATTERNS as PERMUTATIONS
from repro.traffic.permutation import PermutationTraffic
from repro.traffic.uniform import UniformRandomTraffic

#: Every pattern a spec can name, in display order.
PATTERNS = (
    "uniform", "hotspot", "bursty", "transpose", "bit_complement",
    "bit_reverse", "shuffle", "adversarial",
)

Demands = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class TrafficSpec:
    """A traffic pattern by name.

    Args:
        pattern: One of :data:`PATTERNS`.  ``hotspot`` sends every
            input to output ``radix - 1``; the permutation names follow
            :class:`~repro.traffic.PermutationTraffic`.
        packet_flits: Flits per generated packet.
        demands: The fixed ``(src, dst)`` pairs of the ``adversarial``
            pattern (required there, rejected elsewhere).  A mapping or
            any iterable of pairs is accepted and stored as sorted
            pairs, so equal demand sets give equal specs.
    """

    pattern: str = "uniform"
    packet_flits: int = 4
    demands: Optional[Union[Demands, Mapping[int, int]]] = None

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown traffic pattern {self.pattern!r} "
                f"(one of {', '.join(PATTERNS)})"
            )
        if self.packet_flits < 1:
            raise ValueError("packet_flits must be >= 1")
        if self.pattern != "adversarial":
            if self.demands is not None:
                raise ValueError(
                    f"demands apply only to adversarial traffic, "
                    f"not {self.pattern!r}"
                )
            return
        if not self.demands:
            raise ValueError("adversarial traffic needs demands")
        pairs = (
            self.demands.items() if isinstance(self.demands, Mapping)
            else self.demands
        )
        demands = tuple(sorted((int(src), int(dst)) for src, dst in pairs))
        if len({src for src, _ in demands}) != len(demands):
            raise ValueError("each source may have one demand only")
        object.__setattr__(self, "demands", demands)

    def build(self, radix: int, load: float, seed: int):
        """A fresh source of this traffic for a ``radix``-port switch.

        ``load`` is in packets/input/cycle; ``seed`` seeds the source's
        private stream.
        """
        pattern = self.pattern
        flits = self.packet_flits
        if pattern == "uniform":
            return UniformRandomTraffic(radix, load, flits, seed)
        if pattern == "hotspot":
            return HotspotTraffic(
                radix, load, hotspot_output=radix - 1,
                packet_flits=flits, seed=seed,
            )
        if pattern == "bursty":
            return BurstyTraffic(radix, load, packet_flits=flits, seed=seed)
        if pattern in PERMUTATIONS:
            return PermutationTraffic(
                radix, load, pattern=pattern, packet_flits=flits, seed=seed,
            )
        return AdversarialTraffic(
            radix, load, dict(self.demands), packet_flits=flits, seed=seed,
        )
