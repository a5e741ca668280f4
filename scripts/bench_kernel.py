#!/usr/bin/env python
"""Cycle-kernel throughput benchmark (simulated cycles per wall-clock second).

Measures the hot cycle loop of every switch model at saturation (uniform
random traffic, load 1.0) with traffic fully pre-staged outside the timed
region, so the numbers isolate the arbitrate/transmit kernel itself:

* the flat 2D Swizzle-Switch and the 3D folded switch baselines,
* Hi-Rise at 1, 2, and 4 channels (the headline 64-port, 4-layer config),
* optionally (``--reference``) the frozen seed kernel on the headline
  config, giving the like-for-like speedup of the fast-path kernel.

Raw cycles/s are machine-dependent, so every run also times a fixed
integer busy-loop (the *calibration score*) and reports each benchmark
normalised by it.  Each benchmark's trials are also bracketed by runs
of a frozen control workload (a small dict-heavy crossbar written in
this script, importing nothing from ``repro``), and the ratio of the
best trial to the best adjacent control run is reported as
``vs_control``.  ``--check`` compares both readings against the
committed ``BENCH_kernel.json`` and fails a benchmark only when its
normalised score *and* its control ratio both sit >30% below their
committed values: host contention that the integer loop cannot see
slows the control too, while a kernel regression moves both readings.
This is what the CI perf-smoke job runs (with ``--quick``).

Every run also measures the observability overhead on the headline
config: tracing **off** (the headline benchmark itself — the untraced
kernel carries only one ``tracer is None`` branch per cycle) and tracing
**on** with a full-fidelity ``BinaryTracer`` (interleaved on/off
pairs).  ``--check`` additionally
gates the tracing-off normalised score at <2% below the committed PR 1
fast-path baseline, so tracing support can never tax untraced runs, and
gates the binary tracing-on overhead at the 10% budget (a within-run
ratio, so machine-independent).  Every timed region runs with the
cyclic GC paused — a collection landing inside one side of an on/off
pair would otherwise dwarf the effects these gates measure.  The runtime invariant checker (``repro.check``) is
measured the same way: invariants-off is the headline benchmark itself
(covered by the same gate), and the invariants-on overhead is reported
alongside the tracing numbers.  The self-profiling counters
(``repro.obs.perf.PerfCounters``) get the same treatment: perf-off is
the headline benchmark (one ``perf is None`` branch, covered by the 2%
gate) and the perf-on overhead at the default sampling stride is gated
at 5%, again as a min-over-rounds within-run ratio.  ``--ledger FILE``
additionally appends the run's headline metrics to an append-only
``repro.perf/v1`` cross-run history (see ``python -m repro perf``).

With ``--fleet`` the batched structure-of-arrays fleet kernel
(:mod:`repro.core.fleet`) is benchmarked at B=32 lanes against the
scalar kernel on the same saturation config, writing ``BENCH_fleet.json``;
``--fleet --check`` gates the aggregate speedup at 5x (the within-run
ratio of adjacent trials, so the gate is machine-independent).  The
report also carries ``e2e_speedup``, the same ratio with traffic
generation inside the timed region (reported, not gated).

Usage:
    python scripts/bench_kernel.py                  # full run, write JSON
    python scripts/bench_kernel.py --quick --check  # CI regression gate
    python scripts/bench_kernel.py --fleet-only     # fleet vs scalar only
"""

import argparse
import contextlib
import gc
import json
import sys
import time
from collections import deque
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import HiRiseConfig  # noqa: E402
from repro.core.hirise import HiRiseSwitch  # noqa: E402
from repro.core.reference import ReferenceHiRiseSwitch  # noqa: E402
from repro.switches import FoldedSwitch3D, SwizzleSwitch2D  # noqa: E402
from repro.traffic.uniform import UniformRandomTraffic  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_FLEET_OUTPUT = REPO_ROOT / "BENCH_fleet.json"
RADIX = 64
LAYERS = 4
TRAFFIC_SEED = 7
REGRESSION_TOLERANCE = 0.30
#: Lanes in the fleet benchmark (B switch instances per numpy op).
FLEET_LANES = 32
#: Minimum aggregate-cycles/s advantage of the fleet kernel over the
#: scalar fast kernel at B=32, gated by ``--fleet --check`` in CI.  The
#: ratio is measured within one run (adjacent trials), so it is
#: machine-independent in a way absolute cycles/s are not.
FLEET_SPEEDUP_FLOOR = 5.0
#: First lane's traffic seed; lane ``i`` uses ``FLEET_SEED + i``.
FLEET_SEED = 100
#: Maximum tolerated tracing-off normalised shortfall vs the committed
#: PR 1 fast-path baseline (the zero-cost-when-disabled contract).
TRACING_OFF_TOLERANCE = 0.02
#: Maximum tolerated binary-tracing-on overhead at full fidelity
#: (``BinaryTracer(capacity=None)``) on the headline saturation
#: benchmark.  Measured as a within-run interleaved on/off ratio, so
#: the gate is machine-independent.
TRACEBIN_OVERHEAD_BUDGET = 0.10
#: Maximum tolerated overhead of attached :class:`repro.obs.perf.PerfCounters`
#: at the default sampling stride, measured the same interleaved way.
#: The perf-off path is the headline benchmark itself (one ``perf is
#: None`` branch) and is covered by the tracing-off gate.
PERF_OVERHEAD_BUDGET = 0.05
#: The fast-path kernel's committed normalised score on hirise_64x4_c4
#: as of the PR that introduced it (pre-observability), the reference
#: point for the tracing-off overhead gate.
PR1_COMMIT_NORMALIZED = 0.00031593481937207705
#: Control benchmarks from the same committed run: neither touches the
#: Hi-Rise kernel, so their normalised drift between that run and the
#: current one measures machine state (load, cache pressure), not
#: observability overhead.  The tracing-off gate divides the drift out.
PR1_COMMIT_CONTROLS = {
    "swizzle2d_64": 0.0002975547147511787,
    "folded3d_64x4": 0.0002712424950848571,
}

#: Cycles of the frozen control workload per control run (~0.2 s).
CONTROL_CYCLES = 4000
#: Ports of the frozen control workload.
CONTROL_PORTS = 64

#: Headline result recorded for posterity: the growth seed's kernel
#: (tuple-keyed dicts, nested closures, eager flit expansion all the way
#: down) measured 1471 cycles/s on the 64-port 4-layer 4-channel
#: saturation benchmark under this exact harness on the machine that
#: produced the committed BENCH_kernel.json.
SEED_COMMIT_CYCLES_PER_SEC = 1471.0


def make_benchmarks():
    """Name -> zero-argument switch factory, headline config last."""
    return {
        "swizzle2d_64": lambda: SwizzleSwitch2D(RADIX),
        "folded3d_64x4": lambda: FoldedSwitch3D(RADIX, LAYERS),
        "hirise_64x4_c1": lambda: HiRiseSwitch(
            HiRiseConfig(radix=RADIX, layers=LAYERS, channel_multiplicity=1)
        ),
        "hirise_64x4_c2": lambda: HiRiseSwitch(
            HiRiseConfig(radix=RADIX, layers=LAYERS, channel_multiplicity=2)
        ),
        "hirise_64x4_c4": lambda: HiRiseSwitch(
            HiRiseConfig(radix=RADIX, layers=LAYERS, channel_multiplicity=4)
        ),
    }


@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic collector around a timed region.

    Every timed region in this harness runs under this guard: a GC pass
    landing inside one side of an on/off comparison skews tight (2-10%)
    overhead gates by far more than the effect being measured.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def calibration_score(trials: int = 3) -> float:
    """Fixed integer busy-loop throughput (iterations per second).

    Used to normalise kernel throughput across machines: the regression
    gate compares cycles/s *per calibration unit*, so a slower CI runner
    does not read as a kernel regression.
    """
    iterations = 2_000_000
    best = 0.0
    for _ in range(trials):
        accumulator = 0
        with gc_paused():
            start = time.perf_counter()
            for i in range(iterations):
                accumulator += i & 7
            elapsed = time.perf_counter() - start
        best = max(best, iterations / elapsed)
    return best


def control_rate(cycles: int = CONTROL_CYCLES) -> float:
    """Cycles/s of a frozen, dict-heavy pure-Python crossbar.

    The control that the per-benchmark gate divides by.  It imports
    nothing from ``repro``, so no kernel change can move it, while host
    contention that the integer calibration loop does not feel (cache
    and memory pressure from a noisy neighbour) slows it the way it
    slows a kernel trial run next to it.  Do not edit it: committed
    ``vs_control`` ratios are only comparable against this exact code.
    """
    ports = CONTROL_PORTS
    state = 12345
    queues = [deque() for _ in range(ports)]
    pointers = [0] * ports
    busy = {}  # input -> (output, flits still to send)
    with gc_paused():
        start = time.perf_counter()
        for cycle in range(cycles):
            for port in range(ports):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                if len(queues[port]) < 8:
                    queues[port].append((state % ports, 4, cycle))
            for inp, (out, left) in list(busy.items()):
                if left == 1:
                    del busy[inp]
                else:
                    busy[inp] = (out, left - 1)
            taken = {out for out, _ in busy.values()}
            requests = {}
            for inp in range(ports):
                if inp in busy or not queues[inp]:
                    continue
                out = queues[inp][0][0]
                if out not in taken:
                    requests.setdefault(out, []).append(inp)
            for out, inputs in requests.items():
                pointer = pointers[out]
                winner = min(inputs, key=lambda i: (i - pointer) % ports)
                pointers[out] = (winner + 1) % ports
                busy[winner] = (out, queues[winner].popleft()[1])
        elapsed = time.perf_counter() - start
    return cycles / elapsed


def bench_switch(make_switch, cycles: int, trials: int) -> float:
    """Best-of-``trials`` simulated cycles per second at saturation.

    Traffic is generated and expanded into per-cycle packet lists before
    the clock starts; the timed region is injection + ``step`` only.
    """
    best = 0.0
    for _ in range(trials):
        switch = make_switch()
        traffic = UniformRandomTraffic(
            switch.num_ports, load=1.0, seed=TRAFFIC_SEED
        )
        staged = [
            list(traffic.packets_for_cycle(cycle)) for cycle in range(cycles)
        ]
        inject_many = getattr(switch, "inject_many", None)
        step = switch.step
        with gc_paused():
            start = time.perf_counter()
            if inject_many is not None:
                for cycle in range(cycles):
                    inject_many(staged[cycle])
                    step(cycle)
            else:
                inject = switch.inject
                for cycle in range(cycles):
                    for packet in staged[cycle]:
                        inject(packet)
                    step(cycle)
            elapsed = time.perf_counter() - start
        best = max(best, cycles / elapsed)
    return best


def bench_normalized(make_switch, cycles: int, trials: int):
    """Best-of-``trials`` throughput with a *per-trial* calibration.

    Each trial re-times the calibration busy-loop immediately before the
    kernel, so transient machine contention — which slows both by the
    same factor — cancels in the normalised ratio.  The 2% tracing gate
    needs this; a single start-of-run calibration cannot see contention
    that arrives minutes later, and on a shared machine that reads as a
    20%+ phantom regression.  Returns ``(cycles_per_sec, normalized)``
    from the trial with the best normalised score.
    """
    best_norm = 0.0
    best_rate = 0.0
    for _ in range(trials):
        calibration = calibration_score(trials=1)
        rate = bench_switch(make_switch, cycles, 1)
        normalized = rate / calibration
        if normalized > best_norm:
            best_norm, best_rate = normalized, rate
    return best_rate, best_norm


def bench_with_control(make_switch, cycles: int, trials: int):
    """Best-of-``trials`` cycles/s and its ratio to the adjacent control.

    Control runs bracket every trial (one before each, one after the
    last), so the control is timed in the same stretch of host time as
    the trials.  Both sides keep their best run, since interference can
    only slow a run.  Returns ``(cycles_per_sec, vs_control)``.
    """
    best_rate = 0.0
    best_control = control_rate()
    for _ in range(trials):
        best_rate = max(best_rate, bench_switch(make_switch, cycles, 1))
        best_control = max(best_control, control_rate())
    return best_rate, best_rate / best_control


def run_benchmarks(cycles: int, trials: int, include_reference: bool) -> dict:
    calibration = calibration_score()
    report = {
        "cycles": cycles,
        "trials": trials,
        "calibration_score": calibration,
        "benchmarks": {},
    }
    for name, factory in make_benchmarks().items():
        print(f"  {name} ...", end="", flush=True)
        rate, vs_control = bench_with_control(factory, cycles, trials)
        report["benchmarks"][name] = {
            "cycles_per_sec": round(rate, 1),
            "normalized": rate / calibration,
            "vs_control": round(vs_control, 4),
        }
        print(f" {rate:.0f} cycles/s")
    headline = report["benchmarks"]["hirise_64x4_c4"]["cycles_per_sec"]
    report["seed_commit_baseline"] = {
        "cycles_per_sec": SEED_COMMIT_CYCLES_PER_SEC,
        "speedup": round(headline / SEED_COMMIT_CYCLES_PER_SEC, 2),
        "note": (
            "seed kernel as committed (pre-refactor tree), same harness "
            "and machine as the committed benchmark numbers"
        ),
    }
    # Observability overhead on the headline config.  Tracing-off IS the
    # headline benchmark (an untraced switch carries the whole tracing
    # machinery dormant), re-measured with extra trials: the gate below
    # is a 2% bound, so the best-of estimator needs tighter convergence
    # than the 30% gate.
    tracing_trials = max(trials, 3)

    def untraced_factory():
        return HiRiseSwitch(
            HiRiseConfig(radix=RADIX, layers=LAYERS, channel_multiplicity=4)
        )

    gate_controls = {
        "swizzle2d_64": lambda: SwizzleSwitch2D(RADIX),
        "folded3d_64x4": lambda: FoldedSwitch3D(RADIX, LAYERS),
    }
    print("  hirise_64x4_c4 (untraced, gate) ...", end="", flush=True)
    off_rate = 0.0
    off_normalized = report["benchmarks"]["hirise_64x4_c4"]["normalized"]
    off_vs_controls = {name: 0.0 for name in gate_controls}
    for _ in range(tracing_trials):
        trial_calibration = calibration_score(trials=1)
        rate = bench_switch(untraced_factory, cycles, 1)
        off_rate = max(off_rate, rate)
        off_normalized = max(off_normalized, rate / trial_calibration)
        # Pair each gate trial with adjacent control-kernel runs: both
        # sides are dict-heavy Python switch kernels, so contention that
        # the integer busy-loop cannot see cancels in the ratio.
        for name, factory in gate_controls.items():
            control_rate = bench_switch(factory, cycles, 1)
            off_vs_controls[name] = max(
                off_vs_controls[name], rate / control_rate
            )
    print(f" {off_rate:.0f} cycles/s")
    report["tracing"] = {
        "off_cycles_per_sec": round(off_rate, 1),
        "off_normalized": off_normalized,
        "off_vs_controls": {
            name: round(ratio, 4)
            for name, ratio in off_vs_controls.items()
        },
        "pr1_committed_normalized": PR1_COMMIT_NORMALIZED,
        "off_vs_pr1_baseline": off_normalized / PR1_COMMIT_NORMALIZED,
    }

    # Binary columnar tracing (repro.obs.tracebin) on the headline
    # config at full fidelity (capacity=None, no decimation).  Off and
    # on trials interleave so machine contention hits both sides; the
    # within-run on/off ratio is what --check gates at the 10% budget.
    from repro.obs.tracebin import BinaryTracer

    bin_tracers = []

    def bin_traced_factory():
        tracer = BinaryTracer(capacity=None)
        # Keep only the most recent tracer (for events_per_trial):
        # each full-fidelity tracer pins the whole run's capture
        # (tens of MB), and letting a dozen accumulate skews the
        # allocator against later traced trials.
        bin_tracers[:] = [tracer]
        return HiRiseSwitch(
            HiRiseConfig(radix=RADIX, layers=LAYERS, channel_multiplicity=4),
            tracer=tracer,
        )

    # Overhead converges from above as runs lengthen (fixed
    # per-trial costs — allocator warm-up, first-touch growth of the
    # capture buffers — amortize away), so the gate measures at a
    # pinned floor of 6000 cycles even under --quick; shorter runs
    # overstate the steady-state capture cost.
    #
    # Shared/virtualised runners add a second distortion: bursts of
    # host contention that stretch whole stretches of wall-clock.
    # Interference can only *slow* a trial, so the measurement runs
    # several independent rounds of interleaved off/on pairs and
    # gates the cleanest round (minimum overhead across rounds) —
    # the same reasoning as timeit's min-of-repeats, applied to the
    # on/off ratio.  Every round is recorded in the report so a
    # noisy run is visible.
    bin_cycles = max(cycles, 6000)
    rounds, pairs_per_round = 4, max(trials, 3)
    print(f"  hirise_64x4_c4 (binary traced, {rounds} rounds x "
          f"{pairs_per_round} pairs x {bin_cycles} cycles) ...",
          end="", flush=True)
    round_overheads = []
    bin_off = bin_on = 0.0
    for _ in range(rounds):
        round_off = round_on = 0.0
        for _ in range(pairs_per_round):
            round_off = max(
                round_off,
                bench_switch(untraced_factory, bin_cycles, 1),
            )
            round_on = max(
                round_on,
                bench_switch(bin_traced_factory, bin_cycles, 1),
            )
        round_overheads.append(1.0 - round_on / round_off)
        if round_overheads[-1] == min(round_overheads):
            bin_off, bin_on = round_off, round_on
    bin_overhead = min(round_overheads)
    print(f" {bin_on:.0f} cycles/s (off {bin_off:.0f}, "
          f"overhead {bin_overhead:.1%}; rounds "
          f"{', '.join(f'{o:.1%}' for o in round_overheads)})")
    report["tracing_bin"] = {
        "off_cycles_per_sec": round(bin_off, 1),
        "on_cycles_per_sec": round(bin_on, 1),
        "on_overhead_frac": round(bin_overhead, 4),
        "round_overheads": [round(o, 4) for o in round_overheads],
        "overhead_budget": TRACEBIN_OVERHEAD_BUDGET,
        "events_per_trial": len(bin_tracers[-1]),
        "cycles": bin_cycles,
        "capacity": None,
        "note": (
            "full-fidelity BinaryTracer (capacity=None, stride 1) "
            "vs untraced, interleaved best-of pairs with the GC "
            "paused at a pinned >=6000-cycle floor; rounds repeat "
            "the measurement and the cleanest round (min overhead) "
            "is the --check gate — host interference only ever "
            "inflates a round"
        ),
    }

    # Self-profiling counters (repro.obs.perf) on the headline config at
    # the default sampling stride.  Same methodology as the binary-trace
    # gate: independent rounds of interleaved off/on pairs at a pinned
    # cycle floor with the GC paused, gating the cleanest round.
    from repro.obs.perf import DEFAULT_STRIDE, PerfCounters

    perf_holder = []

    def perf_factory():
        counters = PerfCounters(stride=DEFAULT_STRIDE)
        perf_holder[:] = [counters]
        return HiRiseSwitch(
            HiRiseConfig(radix=RADIX, layers=LAYERS, channel_multiplicity=4),
            perf=counters,
        )

    perf_cycles = max(cycles, 6000)
    perf_rounds, perf_pairs = 4, max(trials, 3)
    print(f"  hirise_64x4_c4 (perf counters, stride {DEFAULT_STRIDE}, "
          f"{perf_rounds} rounds x {perf_pairs} pairs x {perf_cycles} "
          f"cycles) ...", end="", flush=True)
    perf_round_overheads = []
    perf_off = perf_on = 0.0
    for _ in range(perf_rounds):
        round_off = round_on = 0.0
        for _ in range(perf_pairs):
            round_off = max(
                round_off, bench_switch(untraced_factory, perf_cycles, 1)
            )
            round_on = max(
                round_on, bench_switch(perf_factory, perf_cycles, 1)
            )
        perf_round_overheads.append(1.0 - round_on / round_off)
        if perf_round_overheads[-1] == min(perf_round_overheads):
            perf_off, perf_on = round_off, round_on
    perf_overhead = min(perf_round_overheads)
    counters = perf_holder[-1]
    print(f" {perf_on:.0f} cycles/s (off {perf_off:.0f}, "
          f"overhead {perf_overhead:.1%}; rounds "
          f"{', '.join(f'{o:.1%}' for o in perf_round_overheads)})")
    report["perf_counters"] = {
        "off_cycles_per_sec": round(perf_off, 1),
        "on_cycles_per_sec": round(perf_on, 1),
        "on_overhead_frac": round(perf_overhead, 4),
        "round_overheads": [round(o, 4) for o in perf_round_overheads],
        "overhead_budget": PERF_OVERHEAD_BUDGET,
        "stride": DEFAULT_STRIDE,
        "cycles": perf_cycles,
        "cycles_sampled": counters.cycles_sampled,
        "phase_fractions": {
            phase: round(frac, 4)
            for phase, frac in counters.phase_fractions().items()
        },
        "note": (
            "PerfCounters attached at the default stride vs unattached, "
            "interleaved best-of pairs with the GC paused at a pinned "
            ">=6000-cycle floor; the cleanest round (min overhead) is "
            "the --check gate.  The perf-off path is the headline "
            "benchmark and is covered by the tracing-off gate."
        ),
    }

    # Runtime invariant checking (repro.check) on the headline config.
    # Checking-off is, like tracing-off, the headline benchmark itself
    # (an unchecked switch carries only one ``invariants is None`` branch
    # per cycle) and is covered by the same 2% gate above; checking-on
    # re-runs the kernel with a full InvariantChecker verifying every
    # cycle, which is expected to be expensive — it is a debugging and
    # fuzzing mode, not a production path.
    from repro.check.invariants import InvariantChecker

    def checked_factory():
        return HiRiseSwitch(
            HiRiseConfig(radix=RADIX, layers=LAYERS, channel_multiplicity=4),
            invariants=InvariantChecker(),
        )

    print("  hirise_64x4_c4 (invariants on) ...", end="", flush=True)
    checked_rate, checked_normalized = bench_normalized(
        checked_factory, cycles, tracing_trials
    )
    print(f" {checked_rate:.0f} cycles/s")
    report["invariants"] = {
        "on_cycles_per_sec": round(checked_rate, 1),
        "on_normalized": checked_normalized,
        "on_overhead_frac": round(
            1.0 - checked_normalized / off_normalized, 4
        ),
        "note": (
            "invariants-off is the headline benchmark and is gated by "
            "the tracing-off control-drift budget; invariants-on is a "
            "fuzzing/debug mode and is reported, not gated"
        ),
    }

    if include_reference:
        print("  reference kernel (hirise_64x4_c4) ...", end="", flush=True)
        reference_rate = bench_switch(
            lambda: ReferenceHiRiseSwitch(
                HiRiseConfig(
                    radix=RADIX, layers=LAYERS, channel_multiplicity=4
                )
            ),
            cycles,
            trials,
        )
        print(f" {reference_rate:.0f} cycles/s")
        report["reference_kernel"] = {
            "cycles_per_sec": round(reference_rate, 1),
            "normalized": reference_rate / calibration,
            "speedup": round(headline / reference_rate, 2),
            "note": (
                "frozen seed arbitration kernel running on the optimised "
                "network layer (ports/flits), so this understates the "
                "end-to-end speedup over the seed commit"
            ),
        }
    return report


def stage_fleet_traffic(num_lanes: int, cycles: int):
    """Per-cycle packed record batches for every lane, built off the clock.

    Mirrors the scalar protocol, where fully-constructed ``Packet``
    objects are staged before the clock starts: here each lane's
    ``(srcs, dsts)`` columns are packed by the fleet's own
    :func:`~repro.core.fleet.pack_injections` into the kernel's
    ``inject_packed`` form (sorted queue ids + int32 ring records +
    per-lane flit totals), so the timed region isolates the batched
    inject + arbitrate kernel.
    """
    from repro.core.fleet import pack_injections

    traffics = [
        UniformRandomTraffic(RADIX, load=1.0, seed=FLEET_SEED + lane)
        for lane in range(num_lanes)
    ]
    factories = [traffic.factory for traffic in traffics]
    staged = []
    for cycle in range(cycles):
        batch = pack_injections(
            cycle,
            [traffic.columns_for_cycle(cycle) for traffic in traffics],
            factories, RADIX,
        )
        if batch is not None and batch.packed is None:
            raise AssertionError(
                "uniform traffic must inject at most one packet per "
                "source queue per cycle, in scan order"
            )
        staged.append(batch.packed if batch is not None else None)
    return staged


def fleet_e2e_rates(config, cycles: int):
    """Scalar and fleet lane-cycles/s with generation on the clock.

    Both sides run their simulation loop end to end (``Simulation`` on
    the scalar kernel, ``FleetSimulation`` over ``FLEET_LANES`` lanes),
    drawing uniform saturation traffic inside the timed region; only
    construction stays off the clock.
    """
    from repro.core.fleet import FleetSimulation
    from repro.network.engine import Simulation

    scalar = Simulation(
        HiRiseSwitch(config),
        UniformRandomTraffic(RADIX, load=1.0, seed=FLEET_SEED),
    )
    with gc_paused():
        start = time.perf_counter()
        scalar.run(cycles)
        scalar_s = time.perf_counter() - start
    fleet = FleetSimulation(config, [
        UniformRandomTraffic(RADIX, load=1.0, seed=FLEET_SEED + lane)
        for lane in range(FLEET_LANES)
    ])
    with gc_paused():
        start = time.perf_counter()
        fleet.run(cycles)
        fleet_s = time.perf_counter() - start
    return cycles / scalar_s, FLEET_LANES * cycles / fleet_s


def run_fleet_benchmark(cycles: int, trials: int) -> dict:
    """Fleet (B=32) vs scalar on the headline saturation config.

    Scalar and fleet trials interleave so transient machine contention
    hits both sides; the reported speedup is best-fleet over best-scalar
    in *aggregate* simulated lane-cycles per second.
    """
    from repro.core.fleet import FleetKernel

    config = HiRiseConfig(
        radix=RADIX, layers=LAYERS, channel_multiplicity=4
    )
    staged = stage_fleet_traffic(FLEET_LANES, cycles)
    calibration = calibration_score()

    def scalar_factory():
        return HiRiseSwitch(config)

    best_scalar = 0.0
    best_fleet = 0.0
    best_e2e_scalar = 0.0
    best_e2e_fleet = 0.0
    for _ in range(trials):
        e2e_scalar, e2e_fleet = fleet_e2e_rates(config, cycles)
        best_e2e_scalar = max(best_e2e_scalar, e2e_scalar)
        best_e2e_fleet = max(best_e2e_fleet, e2e_fleet)
        best_scalar = max(
            best_scalar, bench_switch(scalar_factory, cycles, 1)
        )
        kernel = FleetKernel(config, FLEET_LANES)
        inject_packed = kernel.inject_packed
        step = kernel.step
        with gc_paused():
            start = time.perf_counter()
            for cycle in range(cycles):
                batch = staged[cycle]
                if batch is not None:
                    inject_packed(*batch)
                step(cycle)
            elapsed = time.perf_counter() - start
        best_fleet = max(best_fleet, FLEET_LANES * cycles / elapsed)
    speedup = best_fleet / best_scalar
    return {
        "cycles": cycles,
        "trials": trials,
        "lanes": FLEET_LANES,
        "calibration_score": calibration,
        "scalar": {
            "cycles_per_sec": round(best_scalar, 1),
            "normalized": best_scalar / calibration,
        },
        "fleet": {
            "aggregate_lane_cycles_per_sec": round(best_fleet, 1),
            "us_per_fleet_cycle": round(
                1e6 * FLEET_LANES / best_fleet, 1
            ),
            "normalized": best_fleet / calibration,
        },
        "speedup": round(speedup, 2),
        "speedup_floor": FLEET_SPEEDUP_FLOOR,
        "e2e": {
            "scalar_cycles_per_sec": round(best_e2e_scalar, 1),
            "fleet_lane_cycles_per_sec": round(best_e2e_fleet, 1),
        },
        "e2e_speedup": round(best_e2e_fleet / best_e2e_scalar, 2),
        "note": (
            "speedup = aggregate fleet lane-cycles/s over scalar "
            "cycles/s, adjacent best-of trials on the 64-port 4-layer "
            "c=4 saturation benchmark with pre-staged traffic; "
            "e2e_speedup (reported, not gated) is the same ratio for "
            "Simulation vs FleetSimulation runs that generate their "
            "traffic inside the timed region"
        ),
    }


def check_fleet(report: dict, committed_path: Path) -> int:
    """Gate the measured fleet speedup at the floor.  0 = pass.

    The within-run speedup ratio is the gate; committed normalised
    scores are printed for drift visibility but not gated (the 30%
    kernel gate already covers absolute regressions on the scalar
    side, and the ratio covers the fleet side).
    """
    speedup = report["speedup"]
    status = "ok" if speedup >= FLEET_SPEEDUP_FLOOR else "REGRESSION"
    print(
        f"  fleet speedup at B={report['lanes']}: {speedup:.2f}x "
        f"(floor {FLEET_SPEEDUP_FLOOR:.1f}x, {status})"
    )
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
        print(
            f"  committed speedup {committed.get('speedup')}x, "
            f"fleet normalized {report['fleet']['normalized']:.3g} vs "
            f"committed {committed.get('fleet', {}).get('normalized', 0):.3g}"
        )
    if speedup < FLEET_SPEEDUP_FLOOR:
        print(
            f"fleet perf check FAILED: {speedup:.2f}x < "
            f"{FLEET_SPEEDUP_FLOOR:.1f}x floor"
        )
        return 1
    print("fleet perf check passed")
    return 0


def check_regression(report: dict, committed_path: Path) -> int:
    """Compare normalised scores against the committed report. 0 = pass."""
    if not committed_path.exists():
        print(f"no committed baseline at {committed_path}; nothing to check")
        return 0
    committed = json.loads(committed_path.read_text())
    failures = []
    for name, entry in committed.get("benchmarks", {}).items():
        current = report["benchmarks"].get(name)
        if current is None:
            failures.append(f"{name}: missing from current run")
            continue
        # Two readings, each against its committed value at the same
        # bound.  A kernel regression depresses both; contention the
        # calibration loop misses also slows the adjacent control, so
        # the benchmark fails only when both readings breach.  Without
        # a committed control ratio the raw reading decides alone.
        floor = entry["normalized"] * (1.0 - REGRESSION_TOLERANCE)
        breaches = [current["normalized"] < floor]
        detail = (
            f"normalized {current['normalized']:.3g} vs committed "
            f"{entry['normalized']:.3g}"
        )
        committed_ratio = entry.get("vs_control")
        ratio = current.get("vs_control")
        if committed_ratio is not None and ratio is not None:
            control_floor = committed_ratio * (1.0 - REGRESSION_TOLERANCE)
            breaches.append(ratio < control_floor)
            detail += (
                f", vs control {ratio:.3g} vs committed "
                f"{committed_ratio:.3g}"
            )
        regressed = all(breaches)
        status = "REGRESSION" if regressed else "ok"
        print(f"  {name}: {detail} ({status})")
        if regressed:
            failures.append(
                f"{name}: more than {REGRESSION_TOLERANCE:.0%} below the "
                f"committed run in every reading ({detail})"
            )
    tracing = report.get("tracing")
    if tracing is not None:
        # Calibration cancels CPU speed but the integer busy-loop cannot
        # see contention the way a dict-heavy kernel feels it, so the
        # gate also compares against control switch kernels measured
        # adjacent to the gate trials (ratio now vs ratio at the PR 1
        # commit).  A real tracing-off regression depresses EVERY view;
        # the gate fails only when the raw ratio and all control-relative
        # ratios fall below the floor.
        views = {"raw": tracing["off_vs_pr1_baseline"]}
        for name, committed_score in PR1_COMMIT_CONTROLS.items():
            observed = tracing.get("off_vs_controls", {}).get(name)
            if observed is None:
                continue
            views[f"vs {name}"] = (
                observed / (PR1_COMMIT_NORMALIZED / committed_score)
            )
        ratio = max(views.values())
        floor = 1.0 - TRACING_OFF_TOLERANCE
        status = "ok" if ratio >= floor else "REGRESSION"
        detail = ", ".join(
            f"{name} {value:.3f}x" for name, value in views.items()
        )
        print(
            f"  tracing-off vs PR 1 baseline: {ratio:.3f}x best view "
            f"({detail}; floor {floor:.2f}x, {status})"
        )
        if ratio < floor:
            failures.append(
                f"tracing-off is more than {TRACING_OFF_TOLERANCE:.0%} "
                f"below the PR 1 fast-path baseline in every view "
                f"({detail})"
            )
    tracing_bin = report.get("tracing_bin")
    if tracing_bin is not None and "on_overhead_frac" in tracing_bin:
        overhead = tracing_bin["on_overhead_frac"]
        status = (
            "ok" if overhead <= TRACEBIN_OVERHEAD_BUDGET else "REGRESSION"
        )
        print(
            f"  binary tracing-on overhead: {overhead:.1%} "
            f"(budget {TRACEBIN_OVERHEAD_BUDGET:.0%}, {status}; "
            f"{tracing_bin['events_per_trial']} events/trial at "
            f"full fidelity)"
        )
        if overhead > TRACEBIN_OVERHEAD_BUDGET:
            failures.append(
                f"binary tracing-on overhead {overhead:.1%} exceeds "
                f"the {TRACEBIN_OVERHEAD_BUDGET:.0%} budget"
            )
    perf_section = report.get("perf_counters")
    if perf_section is not None and "on_overhead_frac" in perf_section:
        overhead = perf_section["on_overhead_frac"]
        status = "ok" if overhead <= PERF_OVERHEAD_BUDGET else "REGRESSION"
        print(
            f"  perf-counters-on overhead: {overhead:.1%} "
            f"(budget {PERF_OVERHEAD_BUDGET:.0%}, {status}; "
            f"stride {perf_section['stride']}, "
            f"{perf_section['cycles_sampled']} cycles sampled)"
        )
        if overhead > PERF_OVERHEAD_BUDGET:
            failures.append(
                f"perf-counters-on overhead {overhead:.1%} exceeds "
                f"the {PERF_OVERHEAD_BUDGET:.0%} budget"
            )
    invariants = report.get("invariants")
    if invariants is not None:
        # Informational: the checked kernel is a fuzzing/debug mode.
        # The zero-cost-when-disabled contract is what the gate above
        # enforces (the unchecked kernel IS the headline benchmark).
        print(
            f"  invariants-on overhead "
            f"{invariants['on_overhead_frac']:.1%} "
            f"({invariants['on_cycles_per_sec']:.0f} cycles/s; "
            f"reported, not gated)"
        )
    if failures:
        print("perf check FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("perf check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cycles", type=int, default=6000,
        help="simulated cycles per trial (default 6000)",
    )
    parser.add_argument(
        "--trials", type=int, default=3,
        help="trials per benchmark, best kept (default 3)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: 1500 cycles, 2 trials",
    )
    parser.add_argument(
        "--reference", action="store_true",
        help="also benchmark the frozen seed kernel for the speedup ratio",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"fail on a >{REGRESSION_TOLERANCE:.0%} normalized regression "
             "against the committed JSON (does not overwrite it)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="where to write (or check against) the JSON report",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help=f"also benchmark the batched fleet kernel (B={FLEET_LANES}) "
             f"against the scalar kernel; with --check, gate the "
             f"speedup at {FLEET_SPEEDUP_FLOOR:.0f}x",
    )
    parser.add_argument(
        "--fleet-only", action="store_true",
        help="run only the fleet benchmark (implies --fleet)",
    )
    parser.add_argument(
        "--fleet-cycles", type=int, default=400,
        help="simulated cycles per fleet trial (default 400; the fleet "
             "side simulates lanes x cycles lane-cycles per trial)",
    )
    parser.add_argument(
        "--fleet-output", type=Path, default=DEFAULT_FLEET_OUTPUT,
        help="where to write (or check against) the fleet JSON report",
    )
    parser.add_argument(
        "--ledger", type=Path, default=None,
        help="also append the headline metrics to this repro.perf/v1 "
             "cross-run ledger (see `python -m repro perf`)",
    )
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("--cycles must be >= 1")
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.fleet_cycles < 1:
        parser.error("--fleet-cycles must be >= 1")
    cycles = 1500 if args.quick else args.cycles
    trials = 2 if args.quick else args.trials
    fleet_cycles = min(args.fleet_cycles, 200) if args.quick \
        else args.fleet_cycles
    run_fleet = args.fleet or args.fleet_only

    exit_code = 0
    if not args.fleet_only:
        print(f"benchmarking ({cycles} cycles x {trials} trials per model):")
        report = run_benchmarks(
            cycles, trials, include_reference=args.reference
        )
        print(f"calibration score: {report['calibration_score']:.3g} ops/s")
        if args.ledger is not None:
            from repro.obs.perf import (
                append_ledger_entry, make_ledger_entry,
            )

            headline_config = HiRiseConfig(
                radix=RADIX, layers=LAYERS, channel_multiplicity=4
            )
            headline_entry = report["benchmarks"]["hirise_64x4_c4"]
            metrics = {
                "cycles_per_sec": headline_entry["cycles_per_sec"],
                "normalized": headline_entry["normalized"],
                "calibration_ops_per_sec": report["calibration_score"],
            }
            for section, metric in (
                ("perf_counters", "perf_on_overhead_frac"),
                ("tracing_bin", "tracebin_on_overhead_frac"),
            ):
                overhead = report.get(section, {}).get("on_overhead_frac")
                if overhead is not None:
                    metrics[metric] = overhead
            append_ledger_entry(args.ledger, make_ledger_entry(
                headline_config,
                f"bench_kernel/saturation_uniform_64x4_c4_{cycles}c",
                metrics,
            ))
            print(f"appended headline metrics to ledger {args.ledger}")
        if args.check:
            exit_code = check_regression(report, args.output)
        else:
            args.output.write_text(json.dumps(report, indent=2) + "\n")
            print(f"wrote {args.output}")

    if run_fleet:
        print(
            f"fleet benchmark ({FLEET_LANES} lanes x {fleet_cycles} "
            f"cycles x {trials} trials):"
        )
        fleet_report = run_fleet_benchmark(fleet_cycles, trials)
        print(
            f"  scalar {fleet_report['scalar']['cycles_per_sec']:.0f} "
            f"cycles/s, fleet "
            f"{fleet_report['fleet']['aggregate_lane_cycles_per_sec']:.0f} "
            f"lane-cycles/s -> {fleet_report['speedup']:.2f}x "
            f"(traffic included: {fleet_report['e2e_speedup']:.2f}x)"
        )
        if args.check:
            exit_code = max(
                exit_code, check_fleet(fleet_report, args.fleet_output)
            )
        else:
            args.fleet_output.write_text(
                json.dumps(fleet_report, indent=2) + "\n"
            )
            print(f"wrote {args.fleet_output}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
