"""Synthetic trace-style core model.

Each core retires instructions at its pipeline width until it accumulates
too many outstanding memory misses (a small out-of-order window), drawing
the gaps between L1 misses from the benchmark profile's miss rate — a
geometric inter-miss distribution, i.e. the memoryless abstraction of a
Pin trace's miss stream.  Miss requests go to an address-interleaved
shared L2 bank; replies retire the miss and unblock the pipeline.

Time advances in *network cycles*: the system tells the core how many
instructions fit in one network cycle given the core clock (Table III:
2-way out-of-order at 2 GHz).
"""

from dataclasses import dataclass

import numpy as np

from repro.manycore.workloads import BenchmarkProfile


@dataclass(frozen=True)
class CoreParams:
    """Core pipeline parameters (Table III defaults).

    Attributes:
        frequency_ghz: Core clock.
        width: Issue/retire width (2-way out-of-order).
        miss_window: Outstanding L1 misses the core tolerates before the
            pipeline stalls — the core's effective memory-level
            parallelism.  Table III's "up to 16 outstanding requests per
            core" is the hard MSHR cap; the default window of 8 was tuned
            so the Table VI speedup band is reproduced (see EXPERIMENTS.md).
        mshr_limit: Hard cap on outstanding misses.
    """

    frequency_ghz: float = 2.0
    width: int = 2
    miss_window: int = 8
    mshr_limit: int = 16

    def __post_init__(self) -> None:
        if self.width < 1 or self.miss_window < 1:
            raise ValueError("width and miss window must be >= 1")
        if self.frequency_ghz <= 0:
            raise ValueError("core frequency must be positive")
        if self.mshr_limit < self.miss_window:
            raise ValueError("MSHR limit must cover the miss window")


class SyntheticCore:
    """One core executing a benchmark profile."""

    def __init__(
        self,
        core_id: int,
        profile: BenchmarkProfile,
        params: CoreParams,
        rng: np.random.Generator,
    ) -> None:
        self.core_id = core_id
        self.profile = profile
        self.params = params
        self.rng = rng
        self.retired_instructions = 0.0
        self.outstanding = 0
        self.misses_issued = 0
        self.replies_received = 0
        self._gap = self._draw_gap()

    def _draw_gap(self) -> float:
        """Instructions until the next L1 miss (geometric; inf if none).

        The rate is sampled at the current progress point, so phased
        profiles (time-varying MPKI) modulate the miss stream.
        """
        rate = self.profile.l1_mpki_at(self.retired_instructions) / 1000.0
        if rate <= 0.0:
            return float("inf")
        return float(self.rng.exponential(1.0 / rate))

    @property
    def stalled(self) -> bool:
        """True when the miss window is full and retirement is blocked."""
        return self.outstanding >= self.params.miss_window

    def instructions_per_network_cycle(self, network_cycle_ns: float) -> float:
        """Peak retirement budget for one network cycle."""
        return self.params.width * self.params.frequency_ghz * network_cycle_ns

    def advance(self, budget: float) -> int:
        """Retire up to ``budget`` instructions; return new misses issued.

        Retirement stops early when the miss window fills.  The caller is
        responsible for routing each issued miss to its L2 bank.
        """
        misses = 0
        while budget > 0.0 and not self.stalled:
            if self._gap > budget:
                self._gap -= budget
                self.retired_instructions += budget
                budget = 0.0
                if self._gap == float("inf"):
                    # A zero-rate (compute-only) phase: re-sample at the
                    # new progress point so the next phase's misses start.
                    self._gap = self._draw_gap()
            else:
                self.retired_instructions += self._gap
                budget -= self._gap
                # A compute-bound stretch (infinite gap) must re-sample
                # when a phased profile can turn memory-bound again.
                self._gap = self._draw_gap()
                if self.outstanding < self.params.mshr_limit:
                    self.outstanding += 1
                    self.misses_issued += 1
                    misses += 1
        return misses

    def receive_reply(self) -> None:
        """A miss reply returned: unblock one window slot.

        Raises:
            RuntimeError: If no miss was outstanding (protocol error).
        """
        if self.outstanding <= 0:
            raise RuntimeError(
                f"core {self.core_id} received a reply with no miss in flight"
            )
        self.outstanding -= 1
        self.replies_received += 1

    def ipc(self, elapsed_ns: float) -> float:
        """Retired instructions per core cycle over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        core_cycles = elapsed_ns * self.params.frequency_ghz
        return self.retired_instructions / core_cycles
