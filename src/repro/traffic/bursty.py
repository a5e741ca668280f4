"""Bursty traffic: a two-state (on/off) Markov-modulated injection process.

During an *on* burst an input injects every cycle; bursts and idle gaps
have geometrically distributed lengths chosen so the long-run injection
rate equals ``load``.  Destinations are uniform random per packet, or held
fixed for the duration of a burst (``per_burst_destination``) which models
streaming transfers and stresses the class counters' burst-forgiveness
(the halving rule exists so "bursty traffic [does not] penalize an input
for a long time after the burst", Section III-B.4).
"""

from typing import Dict, List, Optional

from repro.traffic.base import DrawStream, SyntheticTraffic


class BurstyTraffic(SyntheticTraffic):
    """On/off bursty injection with mean burst length ``burst_length``.

    Args:
        burst_length: Mean length of an *on* burst in packets (>= 1).
        per_burst_destination: Hold one destination for a whole burst.
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        burst_length: float = 8.0,
        packet_flits: int = 4,
        seed: int = 1,
        active_inputs: Optional[List[int]] = None,
        per_burst_destination: bool = True,
    ) -> None:
        super().__init__(num_ports, load, packet_flits, seed, active_inputs)
        if burst_length < 1.0:
            raise ValueError("mean burst length must be >= 1 packet")
        if load >= 1.0 and burst_length > 1.0:
            raise ValueError("load 1.0 leaves no room for off periods")
        self.burst_length = burst_length
        self.per_burst_destination = per_burst_destination
        self._on: Dict[int, bool] = {src: False for src in self.active_inputs}
        self._burst_dst: Dict[int, int] = {}
        # Transition probabilities: P(on -> off) = 1/burst_length; solve
        # P(off -> on) so the stationary on-fraction equals the load.
        self._p_end = 1.0 / burst_length
        if load > 0.0:
            off_fraction = 1.0 - load
            mean_off = off_fraction * burst_length / load
            self._p_start = 1.0 / mean_off if mean_off > 0 else 1.0
        else:
            self._p_start = 0.0
        self._end_threshold = DrawStream.threshold(self._p_end)
        self._start_threshold = DrawStream.threshold(self._p_start)

    def should_inject(self, src: int, cycle: int) -> bool:
        if self._on[src]:
            if self.stream.raw() < self._end_threshold:
                self._on[src] = False
                self._burst_dst.pop(src, None)
        if not self._on[src]:
            if self.stream.raw() < self._start_threshold:
                self._on[src] = True
                if self.per_burst_destination:
                    self._burst_dst[src] = self.uniform_destination(src)
        return self._on[src]

    def destination(self, src: int) -> int:
        if self.per_burst_destination and src in self._burst_dst:
            return self._burst_dst[src]
        return self.uniform_destination(src)
