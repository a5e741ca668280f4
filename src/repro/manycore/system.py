"""The 64-core system: tiles, caches, memory controllers over one switch.

Structure follows Section VI-D: every tile holds a core, its private L1
and one bank of the address-interleaved shared L2; eight memory
controllers attach at evenly spread tiles; the interconnect fabric is a
single radix-64 switch — either the flat 2D Swizzle-Switch or Hi-Rise.

The system runs in the *network clock domain* (the switch's modelled
frequency).  Core progress, cache latencies and DRAM latency are converted
from nanoseconds, so comparing a 1.69 GHz 2D switch against a 2.2 GHz
Hi-Rise automatically credits the 3D switch's higher clock and lower
zero-load latency — exactly the comparison of Table VI.

Message flows (request ids match replies to cores):

* L1 miss at core c -> request (1 flit) to home bank h (uniform random
  home, the synthetic analogue of address interleaving); same-tile
  requests bypass the switch;
* L2 hit -> data reply (4 flits) h -> c;
* L2 miss -> request (1 flit) h -> its memory controller tile; after
  queued DRAM access, data reply (4 flits) mc -> c.

A cycle costs what its busy tiles need.  Every core shares one
``CoreParams``, so the retire budget per network cycle is a system
constant.  A core takes one of three paths:

* stalled (miss window full): skipped, as ``SyntheticCore.advance``
  would retire nothing;
* fast path, the next miss beyond this cycle's budget: the loop does
  ``gap -= budget; retired += budget`` inline, the same floating-point
  operations ``advance`` performs;
* scalar path, a miss within the budget or an infinite gap: the loop
  calls ``advance``, in ascending core id, so the per-core and system
  RNGs draw in the same order as a loop that called it for every core.

L2 banks whose in-flight head is not yet due (the FIFO is ordered by
ready cycle) and idle memory controllers are skipped likewise.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.manycore.cache import L2Bank
from repro.manycore.core import CoreParams, SyntheticCore
from repro.manycore.memctrl import MemoryController
from repro.manycore.stats import MemoryLatencyTracker
from repro.manycore.workloads import BenchmarkProfile, WorkloadMix, mix_core_assignment
from repro.network.engine import SwitchModel
from repro.network.packet import PacketFactory


@dataclass(frozen=True)
class SystemConfig:
    """System parameters (Table III defaults)."""

    num_cores: int = 64
    core: CoreParams = field(default_factory=CoreParams)
    l2_latency_ns: float = 3.0          # 6 cycles at the 2 GHz core clock
    l2_mshrs: int = 32
    dram_latency_ns: float = 80.0
    num_memory_controllers: int = 8
    mc_service_interval_ns: float = 1.0  # 64 B per ns (4 ch x 16 GB/s)
    request_flits: int = 1
    reply_flits: int = 4
    writeback_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.writeback_fraction <= 1.0:
            raise ValueError("writeback fraction must be in [0, 1]")


_INF = float("inf")

# Message kinds carried in head-flit payloads.
_REQ_L2 = 0
_REQ_MEM = 1
_REPLY = 2
_WRITEBACK = 3


class ManyCoreSystem:
    """A 64-core system simulated over a cycle-accurate switch model."""

    def __init__(
        self,
        switch: SwitchModel,
        switch_frequency_ghz: float,
        profiles: Sequence[BenchmarkProfile],
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.config = config or SystemConfig()
        cfg = self.config
        if switch.num_ports != cfg.num_cores:
            raise ValueError(
                f"switch radix {switch.num_ports} != {cfg.num_cores} cores"
            )
        if len(profiles) != cfg.num_cores:
            raise ValueError("need one benchmark profile per core")
        if switch_frequency_ghz <= 0:
            raise ValueError("switch frequency must be positive")
        self.switch = switch
        self.network_cycle_ns = 1.0 / switch_frequency_ghz
        self.rng = np.random.default_rng(cfg.seed)

        self.cores = [
            SyntheticCore(i, profiles[i], cfg.core,
                          np.random.default_rng(cfg.seed * 1000003 + i))
            for i in range(cfg.num_cores)
        ]
        l2_cycles = max(1, math.ceil(cfg.l2_latency_ns / self.network_cycle_ns))
        self.banks = [
            L2Bank(i, l2_cycles, cfg.l2_mshrs,
                   np.random.default_rng(cfg.seed * 2000003 + i))
            for i in range(cfg.num_cores)
        ]
        self._bank_inflight = [bank._inflight for bank in self.banks]
        # Every core shares cfg.core, so the per-cycle retire budget and
        # the miss window are system constants.
        self._budget = self.cores[0].instructions_per_network_cycle(
            self.network_cycle_ns
        )
        self._miss_window = cfg.core.miss_window
        dram_cycles = max(1, math.ceil(cfg.dram_latency_ns / self.network_cycle_ns))
        service = cfg.mc_service_interval_ns / self.network_cycle_ns
        self.mcs = [
            MemoryController(i, dram_cycles, service)
            for i in range(cfg.num_memory_controllers)
        ]
        stride = cfg.num_cores // cfg.num_memory_controllers
        self.mc_tiles = [i * stride for i in range(cfg.num_memory_controllers)]
        self._mc_of_bank = {
            bank: bank % cfg.num_memory_controllers
            for bank in range(cfg.num_cores)
        }

        self.packets = PacketFactory()
        self._next_request = 0
        self._request_core: Dict[int, int] = {}
        self._request_ratio: Dict[int, float] = {}
        # (delivery_cycle, dst_tile, message) for same-tile bypass traffic.
        self._local: List[Tuple[int, int, Tuple[int, int, int]]] = []
        # Messages rejected by a full MSHR/queue, retried each cycle.
        self._retry: List[Tuple[int, Tuple[int, int, int]]] = []
        # Payload of a packet's head, delivered when its tail ejects.
        self._payloads: Dict[int, Tuple[int, int, int]] = {}
        self.cycle = 0
        self.messages_sent = 0
        self.writebacks_sent = 0
        self.writebacks_received = 0
        # Per-request latency instrumentation (issue -> reply).
        self.memory_latency = MemoryLatencyTracker()

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _send(self, kind: int, src_tile: int, dst_tile: int,
              request_id: int, flits: int) -> None:
        message = (kind, request_id, dst_tile)
        self.messages_sent += 1
        if src_tile == dst_tile:
            self._local.append((self.cycle + 1, dst_tile, message))
            return
        packet = self.packets.create(
            src_tile, dst_tile, created_cycle=self.cycle,
            num_flits=flits, payload=message,
        )
        self.switch.inject(packet)

    def _deliver(self, dst_tile: int, message: Tuple[int, int, int]) -> None:
        kind, request_id, _ = message
        if kind == _REQ_L2:
            bank = self.banks[dst_tile]
            accepted = bank.accept(
                self._request_core[request_id],
                request_id,
                self._request_ratio[request_id],
                self.cycle,
            )
            if not accepted:
                self._retry.append((dst_tile, message))
        elif kind == _REQ_MEM:
            mc = self.mcs[self.mc_tiles.index(dst_tile)]
            if not mc.accept(self._request_core[request_id], request_id, self.cycle):
                self._retry.append((dst_tile, message))
        elif kind == _REPLY:
            core = self.cores[self._request_core.pop(request_id)]
            self._request_ratio.pop(request_id, None)
            self.memory_latency.replied(request_id, self.cycle)
            core.receive_reply()
        elif kind == _WRITEBACK:
            # Dirty-line eviction data arriving at its home bank: absorbed
            # without a reply (fire-and-forget; bandwidth is its cost).
            self.writebacks_received += 1
        else:
            raise ValueError(f"unknown message kind {kind}")

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole system (network, caches, MCs, cores) 1 cycle."""
        cycle = self.cycle
        # 1. Network delivers traffic.
        for flit in self.switch.step(cycle):
            if flit.is_head and flit.payload is not None:
                self._payloads[flit.packet_id] = flit.payload
            if flit.is_tail:
                message = self._payloads.pop(flit.packet_id)
                self._deliver(flit.dst, message)

        # 2. Same-tile bypass deliveries.
        if self._local:
            due = [entry for entry in self._local if entry[0] <= cycle]
            self._local = [entry for entry in self._local if entry[0] > cycle]
            for _, dst_tile, message in due:
                self._deliver(dst_tile, message)

        # 3. Retries of MSHR/queue-full rejections.
        if self._retry:
            retries, self._retry = self._retry, []
            for dst_tile, message in retries:
                self._deliver(dst_tile, message)

        # 4. L2 banks complete accesses.  A bank's in-flight FIFO is in
        # ready-cycle order, so a bank whose head is not due is skipped.
        for tile, inflight in enumerate(self._bank_inflight):
            if not inflight or inflight[0].ready_cycle > cycle:
                continue
            for request, hit in self.banks[tile].completions(cycle):
                core_tile = request.core_id
                if hit:
                    self._send(_REPLY, tile, core_tile, request.request_id,
                               self.config.reply_flits)
                else:
                    self.memory_latency.went_to_dram(request.request_id)
                    mc_tile = self.mc_tiles[self._mc_of_bank[tile]]
                    self._send(_REQ_MEM, tile, mc_tile, request.request_id,
                               self.config.request_flits)

        # 5. Memory controllers complete accesses (an idle one has none).
        for mc_index, mc in enumerate(self.mcs):
            if not mc._queue and not mc._inflight:
                continue
            mc_tile = self.mc_tiles[mc_index]
            for request in mc.step(cycle):
                self._send(_REPLY, mc_tile, request.core_id,
                           request.request_id, self.config.reply_flits)

        # 6. Cores retire instructions and issue new misses: stalled cores
        # are skipped, the fast path is inlined, and the scalar path
        # calls advance in core order (see the module docstring).
        budget = self._budget
        window = self._miss_window
        for core in self.cores:
            if core.outstanding >= window:
                continue
            gap = core._gap
            if budget < gap < _INF:
                core._gap = gap - budget
                core.retired_instructions += budget
                continue
            misses = core.advance(budget)
            for _ in range(misses):
                request_id = self._next_request
                self._next_request += 1
                self.memory_latency.issued(request_id, core.core_id, cycle)
                self._request_core[request_id] = core.core_id
                self._request_ratio[request_id] = core.profile.l2_ratio_at(
                    core.retired_instructions
                )
                home = int(self.rng.integers(self.config.num_cores))
                self._send(_REQ_L2, core.core_id, home, request_id,
                           self.config.request_flits)
                # A fraction of misses evict a dirty line: the victim's
                # data travels to its own (random) home as fire-and-forget
                # writeback traffic, loading the network without adding
                # core-visible latency.
                if (
                    self.config.writeback_fraction > 0.0
                    and self.rng.random() < self.config.writeback_fraction
                ):
                    victim_home = int(self.rng.integers(self.config.num_cores))
                    self.writebacks_sent += 1
                    self._send(_WRITEBACK, core.core_id, victim_home,
                               request_id, self.config.reply_flits)
        self.cycle += 1

    def run(self, network_cycles: int) -> "SystemResult":
        """Advance the whole system and summarise per-core progress."""
        start_cycle = self.cycle
        start_instructions = [core.retired_instructions for core in self.cores]
        for _ in range(network_cycles):
            self.step()
        elapsed_ns = (self.cycle - start_cycle) * self.network_cycle_ns
        retired = [
            core.retired_instructions - start
            for core, start in zip(self.cores, start_instructions)
        ]
        return SystemResult(
            elapsed_ns=elapsed_ns,
            retired_per_core=retired,
            core_frequency_ghz=self.config.core.frequency_ghz,
        )


@dataclass(frozen=True)
class SystemResult:
    """Progress of one system run."""

    elapsed_ns: float
    retired_per_core: List[float]
    core_frequency_ghz: float

    @property
    def total_instructions(self) -> float:
        return sum(self.retired_per_core)

    @property
    def system_ipc(self) -> float:
        """Aggregate instructions per core-clock cycle across all cores."""
        core_cycles = self.elapsed_ns * self.core_frequency_ghz
        return self.total_instructions / core_cycles

    def per_core_ipc(self) -> List[float]:
        """Retired instructions per core cycle, for each core."""
        core_cycles = self.elapsed_ns * self.core_frequency_ghz
        return [retired / core_cycles for retired in self.retired_per_core]


def system_speedup(
    mix: WorkloadMix,
    build_baseline,
    build_candidate,
    baseline_frequency_ghz: float,
    candidate_frequency_ghz: float,
    network_cycles_baseline: int = 20000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
) -> float:
    """Candidate-over-baseline system speedup for one workload mix.

    Both systems get identical core-to-benchmark assignments and identical
    RNG seeds; they run for the same *wall-clock time* (the candidate runs
    proportionally more network cycles at its higher clock), and speedup
    is the ratio of aggregate retired instructions.
    """
    cfg = config or SystemConfig(seed=seed)
    profiles = mix_core_assignment(mix, cfg.num_cores, seed=seed)
    baseline = ManyCoreSystem(
        build_baseline(), baseline_frequency_ghz, profiles, cfg
    )
    candidate = ManyCoreSystem(
        build_candidate(), candidate_frequency_ghz, profiles, cfg
    )
    wall_ns = network_cycles_baseline / baseline_frequency_ghz
    candidate_cycles = int(round(wall_ns * candidate_frequency_ghz))
    base_result = baseline.run(network_cycles_baseline)
    cand_result = candidate.run(candidate_cycles)
    return cand_result.total_instructions / base_result.total_instructions
