"""Uniform random traffic — the paper's headline synthetic pattern."""

from typing import List, Optional

from repro.traffic.base import Columns, SyntheticTraffic


class UniformRandomTraffic(SyntheticTraffic):
    """Each injected packet picks a destination uniformly at random.

    Columns are drawn in one fused pass over the stream
    (:meth:`~repro.traffic.base.DrawStream.bernoulli_uniform`), in the
    draw order of the :meth:`should_inject` / :meth:`destination` hooks;
    those hooks are not called per port, so customise a pattern by
    subclassing :class:`SyntheticTraffic` instead.  A fleet whose lanes
    are all exactly this class draws them many cycles at a time across
    lanes (:func:`~repro.traffic.base.bernoulli_uniform_lanes`), with
    the same result.

    Args:
        exclude_self: Skip ``dst == src`` (a tile does not cross the switch
            to reach itself); enabled by default.
    """

    def __init__(
        self,
        num_ports: int,
        load: float,
        packet_flits: int = 4,
        seed: int = 1,
        active_inputs: Optional[List[int]] = None,
        exclude_self: bool = True,
    ) -> None:
        super().__init__(num_ports, load, packet_flits, seed, active_inputs)
        self.exclude_self = exclude_self

    def destination(self, src: int) -> int:
        return self.uniform_destination(src, exclude_self=self.exclude_self)

    def columns_for_cycle(self, cycle: int) -> Columns:
        span = self.num_ports - 1 if self.exclude_self else self.num_ports
        return self.stream.bernoulli_uniform(
            self.active_inputs, self._inject_threshold, span,
            self.exclude_self,
        )
