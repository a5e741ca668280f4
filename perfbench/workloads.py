"""The benchmark's four workloads.

Each workload is fixed work made from the seed.  ``setup`` imports the
layers it drives and builds what a user builds once (configs and their
lookup tables, the service); ``run_pass`` does the work once and returns
its simulated statistics with the host seconds the work took;
``check`` verifies the outputs of a pass against an independent path
(the reference kernel, the scalar kernel, direct job execution).
Checks run outside the timed region.

A size of ``tiny`` shrinks every window so the benchmark's own tests
can run each workload in seconds; the benchmark itself runs ``full``.
"""

import hashlib
import json
import math
import random
import shutil
import tempfile
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

#: Hi-Rise designs of Tables IV/V, as (channel multiplicity, arbitration).
PAPER_HIRISE = ((4, "l2l_lrg"), (2, "l2l_lrg"), (1, "l2l_lrg"), (4, "clrg"))

#: Result fields two kernels must agree on bit for bit.
RESULT_FIELDS = (
    "packets_injected", "packets_ejected", "flits_ejected", "cycles",
    "packet_latencies", "per_input_ejected", "per_input_latency_sum",
    "per_output_ejected",
)


@dataclass
class PassResult:
    """One pass of a workload: what it computed and what it cost."""

    stats: object
    seconds: float
    ops: int
    failed: int = 0
    extras: Dict[str, object] = field(default_factory=dict)


def digest(stats: object) -> str:
    """sha256 over simulated statistics (floats to 12 significant digits)."""

    def canonical(value):
        if isinstance(value, float):
            return float(f"{value:.12g}")
        if isinstance(value, dict):
            return {str(k): canonical(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [canonical(v) for v in value]
        return value

    blob = json.dumps(canonical(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _compare_results(label: str, a, b) -> List[str]:
    return [
        f"{label}: field {name} differs"
        for name in RESULT_FIELDS
        if getattr(a, name) != getattr(b, name)
    ]


class PaperTables:
    """Tables IV, V, VI and Fig 11(a) through :mod:`repro.harness`.

    ``table4``/``table5`` take no seed (they pin the traffic seed), so
    the seed drives Fig 11(a), Table VI and the sampled parity check.
    """

    name = "paper_tables"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.windows = (20, 60) if tiny else (40, 160)
        self.fig11_windows = (40, 120) if tiny else (100, 400)
        self.table6_cycles = 60 if tiny else 150
        self.tiny = tiny

    def setup(self) -> None:
        from repro.core import HiRiseConfig, HiRiseSwitch
        from repro.harness import figures, tables
        from repro.manycore import MIXES
        from repro.physical import cost_of
        from repro.switches import FoldedSwitch3D, SwizzleSwitch2D

        self.tables, self.figures = tables, figures
        self.mixes = list(MIXES[:2] if self.tiny else MIXES)
        self.configs = [
            HiRiseConfig(radix=64, layers=4, channel_multiplicity=channels,
                         arbitration=arbitration)
            for channels, arbitration in PAPER_HIRISE
        ]
        for config in self.configs:
            HiRiseSwitch(config)
            cost_of(config)
        SwizzleSwitch2D(64)
        FoldedSwitch3D(64, 4)

    def run_pass(self) -> PassResult:
        start = time.perf_counter()
        table4 = self.tables.table4(*self.windows)
        table5 = self.tables.table5(*self.windows)
        warmup, measure = self.fig11_windows
        fig11a = self.figures.fig11a_hotspot_latency(
            warmup_cycles=warmup, measure_cycles=measure, seed=self.seed
        )
        table6 = self.tables.table6(
            network_cycles_baseline=self.table6_cycles, seed=self.seed,
            mixes=self.mixes,
        )
        seconds = time.perf_counter() - start
        rows = [asdict(row) for row in table4 + table5]
        speedups = [asdict(row) for row in table6]
        tbps_err = max(
            abs(row["throughput_tbps"] - row["paper_throughput_tbps"])
            / row["paper_throughput_tbps"] * 100
            for row in rows if row["paper_throughput_tbps"]
        )
        speedup_err = max(
            abs(row["speedup"] - row["paper_speedup"])
            / row["paper_speedup"] * 100
            for row in speedups
        )
        return PassResult(
            stats={"cost_rows": rows, "fig11a": fig11a, "table6": speedups},
            seconds=seconds,
            ops=4,
            extras={"paper.tbps_err_pct": tbps_err,
                    "paper.speedup_err_pct": speedup_err},
        )

    def check(self, first: PassResult) -> List[str]:
        """One sampled Table IV/V Hi-Rise run, fast vs reference kernel."""
        from repro.core.hirise import HiRiseSwitch
        from repro.core.reference import ReferenceHiRiseSwitch
        from repro.network.engine import Simulation
        from repro.traffic import UniformRandomTraffic

        problems = []
        stats = first.stats
        numbers = [row["throughput_tbps"] for row in stats["cost_rows"]]
        numbers += [row["speedup"] for row in stats["table6"]]
        if not all(math.isfinite(x) and x > 0 for x in numbers):
            problems.append("paper_tables: non-positive table value")
        config = random.Random(self.seed).choice(self.configs)
        warmup, measure = self.windows
        results = []
        for kernel in (HiRiseSwitch, ReferenceHiRiseSwitch):
            simulation = Simulation(
                kernel(config),
                UniformRandomTraffic(64, 0.99, seed=self.seed),
                warmup_cycles=warmup,
            )
            results.append(simulation.run(measure))
        problems += _compare_results(
            f"fast vs reference {config.configuration_string()}", *results
        )
        return problems


class FleetSweep:
    """A load grid x seed replications sweep on the 64x4 c4 CLRG switch.

    Every task shares one config and window, so ``run_sweep`` batches
    all of them into one vectorized fleet run.
    """

    name = "fleet_sweep"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.loads = (0.3, 0.8) if tiny else (0.2, 0.4, 0.6, 0.8)
        self.replications = 2 if tiny else 8
        self.windows = (10, 30) if tiny else (40, 200)

    def setup(self) -> None:
        from repro.core import HiRiseConfig
        from repro.core.fleet import FleetKernel, fleet_supports
        from repro.harness import parallel
        from repro.harness.measure import SimulationMeasurement

        config = HiRiseConfig(radix=64, layers=4, channel_multiplicity=4,
                              arbitration="clrg")
        if not fleet_supports(config):
            raise RuntimeError("the fleet kernel needs numpy")
        warmup, measure = self.windows
        self.parallel = parallel
        self.measurement = SimulationMeasurement(
            config, metric="throughput", warmup_cycles=warmup,
            measure_cycles=measure,
        )
        self.grid = [{"load": load} for load in self.loads]
        FleetKernel(config, len(self.loads) * self.replications)

    def run_pass(self) -> PassResult:
        start = time.perf_counter()
        points = self.parallel.run_sweep(
            self.measurement, self.grid, replications=self.replications,
            base_seed=self.seed, workers=1,
        )
        seconds = time.perf_counter() - start
        stats = [
            [point.parameters["load"], point.value,
             point.interval.half_width]
            for point in points
        ]
        return PassResult(stats=stats, seconds=seconds,
                          ops=len(self.grid) * self.replications)

    def check(self, first: PassResult) -> List[str]:
        """One sampled load point, recomputed lane by lane on the scalar
        kernel, must equal the fleet's point exactly."""
        from repro.metrics.confidence import t_interval

        index = random.Random(self.seed).randrange(len(self.loads))
        load = self.loads[index]
        values = [
            self.measurement(seed=self.seed + replication, load=load)
            for replication in range(self.replications)
        ]
        interval = t_interval(values)
        _load, mean, half_width = first.stats[index]
        if (mean, half_width) != (interval.mean, interval.half_width):
            return [f"fleet vs scalar at load {load}: "
                    f"{(mean, half_width)} != "
                    f"{(interval.mean, interval.half_width)}"]
        return []


class SchedulerZoo:
    """``compare_schedulers`` at radix 16 and 32 with invariants on."""

    name = "scheduler_zoo"
    schedulers = ("clrg", "islip1", "islip4", "mwm")
    traffic = ("uniform", "hotspot")

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.radices = (16,) if tiny else (16, 32)
        self.windows = (10, 40) if tiny else (40, 160)

    def setup(self) -> None:
        from dataclasses import replace

        from repro.core import HiRiseConfig
        from repro.harness import schedulers
        from repro.switches import make_switch

        self.module = schedulers
        for radix in self.radices:
            base = HiRiseConfig(radix=radix, layers=2, channel_multiplicity=2)
            for name in self.schedulers:
                make_switch(replace(base, **schedulers.SCHEDULER_SPECS[name]))

    def run_pass(self) -> PassResult:
        warmup, measure = self.windows
        start = time.perf_counter()
        comparisons = [
            self.module.compare_schedulers(
                radix=radix, seed=self.seed, warmup_cycles=warmup,
                measure_cycles=measure, schedulers=self.schedulers,
                traffic=self.traffic,
            )
            for radix in self.radices
        ]
        seconds = time.perf_counter() - start
        cells = len(self.schedulers) * (len(self.traffic) + 1)
        return PassResult(stats=comparisons, seconds=seconds,
                          ops=cells * len(self.radices))

    def check(self, first: PassResult) -> List[str]:
        """Schema-valid, and every cell ran under matching invariants."""
        problems = []
        for comparison in first.stats:
            try:
                self.module.validate_comparison(comparison)
            except ValueError as error:
                problems.append(f"radix {comparison['radix']}: {error}")
            for pattern, row in comparison["matrix"].items():
                for name, cell in row.items():
                    if (cell["invariant_violations"]
                            or not cell["invariant_cycles_checked"]):
                        problems.append(
                            f"radix {comparison['radix']} {pattern}/{name}: "
                            "cell not invariant-checked"
                        )
        return problems


class ServiceCampaign:
    """A closed-loop job campaign against an in-process ``SweepService``.

    One client keeps :attr:`window` jobs outstanding: it submits until
    the window is full, then waits for the oldest job's result before
    submitting the next.  Each pass starts a fresh daemon (``workers=1``)
    on an empty state directory, runs the campaign cold (executor, cache
    writes, journal appends), then runs it again warm (cache reads).

    With one job outstanding the client, the connection handler and the
    dispatcher never compete for the interpreter lock, so a job's
    latency is its service time; a window of 4 spread the pass time
    across ten seeded runs by 0.136 (IQR over median) against 0.03-0.07
    for the other workloads.
    """

    name = "service_campaign"
    window = 1

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        rng = random.Random(seed)
        base = rng.randrange(1, 1_000_000)
        simulate, sweeps = (4, 1) if tiny else (24, 4)
        cycles = 40 if tiny else 200
        self.specs: List[Dict[str, object]] = []
        for index in range(simulate):
            self.specs.append({
                "kind": "simulate",
                "config": {"radix": 32, "layers": 4,
                           "channel_multiplicity": 2},
                "traffic": "hotspot" if index % 3 == 2 else "uniform",
                "load": round(rng.uniform(0.1, 0.5), 3),
                "seed": base + index,
                "warmup": 40,
                "cycles": cycles,
            })
        stride = max(1, simulate // sweeps)
        for index in range(sweeps):
            self.specs.insert(index * (stride + 1), {
                "kind": "sweep",
                "config": {"radix": 64, "layers": 4,
                           "channel_multiplicity": 4, "arbitration": "clrg"},
                "loads": [0.3, 0.6],
                "replications": 2,
                "base_seed": base + simulate + 2 * index,
                "warmup": 30,
                "cycles": cycles * 3 // 4,
            })

    def setup(self) -> None:
        from repro.service import ServiceClient, SweepService
        from repro.service.jobs import normalize_spec

        self.service_cls, self.client_cls = SweepService, ServiceClient
        for spec in self.specs:
            normalize_spec(spec)
        service, client = self._start()
        client.ping()
        self._stop(service)

    def _start(self):
        state = Path(tempfile.mkdtemp(prefix="service-", dir=self.scratch))
        service = self.service_cls(state, workers=1)
        service.start()
        host, port = service.address
        return service, self.client_cls(host, port, timeout=120.0)

    def _stop(self, service) -> None:
        service.stop()
        shutil.rmtree(service.state_dir, ignore_errors=True)

    def _campaign(self, client) -> Tuple[List[float], List[object], int]:
        latencies = [0.0] * len(self.specs)
        payloads: List[object] = [None] * len(self.specs)
        outstanding: deque = deque()
        failed = 0
        submitted = 0
        while submitted < len(self.specs) or outstanding:
            while submitted < len(self.specs) and len(outstanding) < self.window:
                sent = time.perf_counter()
                reply = client.submit(self.specs[submitted])
                outstanding.append((submitted, reply["job_id"], sent))
                submitted += 1
            index, job_id, sent = outstanding.popleft()
            reply = client.result(job_id=job_id, wait_s=60.0)
            latencies[index] = (time.perf_counter() - sent) * 1e3
            payloads[index] = reply.get("payload")
            if payloads[index] is None:
                failed += 1
        return latencies, payloads, failed

    def run_pass(self) -> PassResult:
        service, client = self._start()
        try:
            start = time.perf_counter()
            cold, cold_payloads, cold_failed = self._campaign(client)
            warm, warm_payloads, warm_failed = self._campaign(client)
            seconds = time.perf_counter() - start
            counters = service.metrics.snapshot()
        finally:
            self._stop(service)
        return PassResult(
            stats={"cold": cold_payloads, "warm": warm_payloads},
            seconds=seconds,
            ops=2 * len(self.specs),
            failed=cold_failed + warm_failed,
            extras={
                "cold_ms": cold, "warm_ms": warm,
                "cache_hits": counters.get("cache_hits", 0),
                "cache_misses": counters.get("cache_misses", 0),
                "overloaded": counters.get("rejected_overload", 0),
            },
        )

    def check(self, first: PassResult) -> List[str]:
        """Every payload, cold and warm, equals a direct ``run_job``."""
        from repro.service.jobs import run_job

        problems = []
        for index, spec in enumerate(self.specs):
            expected = json.loads(json.dumps(run_job(spec)))
            for phase in ("cold", "warm"):
                if first.stats[phase][index] != expected:
                    problems.append(
                        f"{phase} job {index} ({spec['kind']}) payload "
                        "differs from run_job"
                    )
        if first.extras["cache_hits"] < len(self.specs):
            problems.append("warm campaign missed the cache")
        return problems


def make(name: str, seed: int, tiny: bool, scratch: Path):
    """The workload called ``name``."""
    if name == ServiceCampaign.name:
        return ServiceCampaign(seed, tiny, scratch)
    for cls in (PaperTables, FleetSweep, SchedulerZoo):
        if cls.name == name:
            return cls(seed, tiny)
    raise KeyError(name)


NAMES = (PaperTables.name, FleetSweep.name, SchedulerZoo.name,
         ServiceCampaign.name)


def tail(samples: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples above it, nearest-rank.  Needs at least eleven samples."""
    ordered = sorted(samples)
    rank = len(ordered) - 11
    if rank < 0:
        raise ValueError("need at least eleven samples for a tail")
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]
