"""Hotspot traffic: all inputs converge on one output.

This pattern exposes the fairness problem of the baseline layer-to-layer
LRG (Fig 11a): with every input requesting the same final output, the
output's sub-block sees one local intermediate slot carrying N/L
requestors against L2LC slots carrying N/(L*c) requestors each, so plain
slot-level LRG starves the hotspot layer's own inputs.
"""

from typing import List, Optional

from repro.traffic.base import Columns, DrawStream, SyntheticTraffic


class HotspotTraffic(SyntheticTraffic):
    """All active inputs send to ``hotspot_output``.

    Args:
        hotspot_output: The single congested destination (paper: output 63).
        background_load: Optional extra Bernoulli load per input spread
            uniformly over the other outputs (0 disables, the paper's
            Fig 11a experiment is pure hotspot).

    Columns come from whole-cycle stream draws (one Bernoulli word per
    input, then the background pass), not from per-port calls of the
    :meth:`should_inject` / :meth:`destination` hooks.
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        hotspot_output: int = 63,
        packet_flits: int = 4,
        seed: int = 1,
        active_inputs: Optional[List[int]] = None,
        background_load: float = 0.0,
    ) -> None:
        super().__init__(num_ports, load, packet_flits, seed, active_inputs)
        if not 0 <= hotspot_output < num_ports:
            raise ValueError(f"hotspot output {hotspot_output} out of range")
        if not 0.0 <= background_load <= 1.0:
            raise ValueError("background load must be in [0, 1]")
        self.hotspot_output = hotspot_output
        self.background_load = background_load
        self._background_threshold = DrawStream.threshold(background_load)

    def destination(self, src: int) -> Optional[int]:
        # Every input targets the hotspot, including the hotspot's own tile
        # (the paper's Fig 11a has all inputs 0..63 requesting output 63).
        return self.hotspot_output

    def columns_for_cycle(self, cycle: int) -> Columns:
        stream = self.stream
        srcs = stream.bernoulli(self.active_inputs, self._inject_threshold)
        dsts = [self.hotspot_output] * len(srcs)
        if self.background_load > 0.0:
            extra_srcs, extra_dsts = stream.bernoulli_uniform(
                self.active_inputs, self._background_threshold,
                self.num_ports - 1, exclude_self=True,
            )
            for src, dst in zip(extra_srcs, extra_dsts):
                if dst != self.hotspot_output:
                    srcs.append(src)
                    dsts.append(dst)
        return srcs, dsts
