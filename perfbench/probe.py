"""Per-layer attribution for the benchmark's traced run.

The probe swaps the public entry points of each simulator layer for
timing wrappers (class methods and module functions, restored by
:meth:`Probe.restore`), so nothing under ``src/`` changes.  Each wrapped
call is a span; its self time is its duration minus the spans it
encloses on the same thread, so the layers' self times plus the
unattributed remainder add up to the traced wall time.

The service workload runs its daemon in-process, so spans also run on
the server threads, mostly while the client thread waits inside a
*wait* span (``submit`` or ``result``).  Two corrections keep any
interval from being counted twice: server-thread self times are scaled
by the union of their top-level spans over the sum of their durations
(threads that interleave under the interpreter lock share the wall
time), and the client's wait time that a server span covers is taken
out of the service layer.
"""

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Each layer and the metric that holds its share of the traced wall time.
LAYER_FRAC_METRIC = {
    "traffic": "traffic.busy_frac",
    "engine": "engine.self_frac",
    "hirise": "hirise.busy_frac",
    "xbar": "xbar.busy_frac",
    "voq": "voq.busy_frac",
    "arbitration": "arbitration.busy_frac",
    "check": "check.busy_frac",
    "fleet": "fleet.busy_frac",
    "harness": "harness.busy_frac",
    "manycore": "manycore.busy_frac",
    "service": "service.busy_frac",
}
LAYERS = tuple(LAYER_FRAC_METRIC)

PHASES = ("inject", "transmit", "refill", "arbitrate", "commit")

_Items = Optional[Callable[[tuple, object], int]]
_Intervals = List[Tuple[int, int]]


class _ThreadState:
    """One thread's span stack and accumulators (merged at the end)."""

    def __init__(self, main: bool) -> None:
        self.main = main
        self.stack: List[list] = []  # [key, start_ns, child_ns]
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)


class Probe:
    """Span timer over the simulator's layers.

    Args:
        perf_phases: Also attach one shared
            :class:`repro.obs.perf.PerfCounters` to every
            :class:`~repro.core.hirise.HiRiseSwitch` built while the probe
            is installed, for the kernel's phase split.
    """

    def __init__(self, perf_phases: bool = False) -> None:
        self.enabled = False
        self.perf = None
        self._perf_phases = perf_phases
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._main = threading.main_thread()
        self._waits: _Intervals = []
        self._offthread: _Intervals = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread() is self._main)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, owner, attr: str, key: str, items: _Items = None,
             wait: bool = False, materialize: bool = False) -> None:
        """Replace ``owner.attr`` with a span named ``key``.

        ``items(args, result)`` counts the work a call did; ``wait``
        marks a client call that blocks on the service's threads;
        ``materialize`` drains a returned iterator inside the span (the
        traffic generators are generators, whose work happens as the
        caller iterates).  A call made while the same key is already
        the innermost span runs unwrapped, so a subclass method calling
        its wrapped base is counted once.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        probe = self
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            if not probe.enabled:
                return original(*args, **kwargs)
            state = probe._state()
            stack = state.stack
            if stack and stack[-1][0] == key:
                return original(*args, **kwargs)
            frame = [key, clock(), 0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                state.self_ns[key] += duration - frame[2]
                state.incl_ns[key] += duration
                state.calls[key] += 1
                if stack:
                    stack[-1][2] += duration
                elif not state.main:
                    probe._offthread.append((frame[1], end))
                if wait:
                    probe._waits.append((frame[1], end))
            if items is not None:
                state.items[key] += items(args, result)
            return result

        span.__wrapped__ = original
        setattr(owner, attr, span)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        import repro.traffic as traffic_pkg
        from repro.arbitration.islip import ISLIPArbiter
        from repro.arbitration.mwm import MWMOracle
        from repro.check.invariants import InvariantChecker
        from repro.check.matching import MatchingInvariantChecker
        from repro.core import fleet
        from repro.core.hirise import HiRiseSwitch
        from repro.harness import figures, parallel, schedulers, tables
        from repro.harness.measure import SimulationMeasurement
        from repro.manycore.system import ManyCoreSystem
        from repro.network.engine import Simulation
        from repro.service import cache, client, daemon, jobs, journal
        from repro.switches.swizzle2d import SwizzleSwitch2D
        from repro.switches.voq import VOQSwitch

        def count(args, result):
            return len(result)

        def one(args, result):
            return 1

        generators = set()
        for exported in vars(traffic_pkg).values():
            if isinstance(exported, type):
                generators.update(
                    cls for cls in exported.__mro__
                    if "packets_for_cycle" in cls.__dict__
                    and cls.__module__.startswith("repro.traffic")
                )
        for cls in sorted(generators, key=lambda c: c.__qualname__):
            self.wrap(cls, "packets_for_cycle", "traffic.packets",
                      items=count, materialize=True)
        self.wrap(Simulation, "run", "engine.run")
        self.wrap(HiRiseSwitch, "inject", "hirise.inject", items=one)
        self.wrap(HiRiseSwitch, "inject_many", "hirise.inject",
                  items=lambda args, result: result)
        self.wrap(HiRiseSwitch, "step", "hirise.step", items=count)
        self.wrap(SwizzleSwitch2D, "inject", "xbar.inject")
        self.wrap(SwizzleSwitch2D, "step", "xbar.step", items=count)
        self.wrap(VOQSwitch, "inject", "voq.inject")
        self.wrap(VOQSwitch, "step", "voq.step", items=count)
        self.wrap(ISLIPArbiter, "match", "arbitration.islip")
        self.wrap(MWMOracle, "match", "arbitration.mwm")
        self.wrap(InvariantChecker, "after_step", "check.hirise")
        self.wrap(MatchingInvariantChecker, "after_step", "check.matching")
        self.wrap(fleet, "run_fleet_plans", "fleet.plans")
        self.wrap(fleet.FleetSimulation, "run", "fleet.sim",
                  items=lambda args, result: len(args[0].traffics))
        self.wrap(fleet.FleetKernel, "step", "fleet.step",
                  items=lambda args, result: args[0].num_lanes)
        self.wrap(fleet.FleetKernel, "inject_packed", "fleet.inject")
        self.wrap(fleet.FleetKernel, "inject_cycle", "fleet.inject")
        self.wrap(tables, "table4", "harness.table4")
        self.wrap(tables, "table5", "harness.table5")
        self.wrap(tables, "table6", "harness.table6")
        self.wrap(figures, "fig11a_hotspot_latency", "harness.fig11a")
        self.wrap(parallel, "run_sweep", "harness.run_sweep")
        self.wrap(schedulers, "compare_schedulers", "harness.compare")
        self.wrap(SimulationMeasurement, "__call__", "harness.task",
                  items=one)
        self.wrap(ManyCoreSystem, "__init__", "manycore.build")
        self.wrap(ManyCoreSystem, "run", "manycore.run")
        self.wrap(client.ServiceClient, "submit", "service.submit",
                  wait=True)
        self.wrap(client.ServiceClient, "result", "service.result_wait",
                  wait=True)
        self.wrap(jobs, "job_fingerprint", "service.fingerprint")
        self.wrap(daemon, "job_fingerprint", "service.fingerprint")
        self.wrap(jobs, "run_job", "service.exec")
        self.wrap(cache.ResultCache, "get", "service.cache_get")
        self.wrap(cache.ResultCache, "put", "service.cache_put")
        self.wrap(journal.JobJournal, "accepted", "service.journal_append")
        self.wrap(journal.JobJournal, "done", "service.journal_append")
        if self._perf_phases:
            self._attach_perf(HiRiseSwitch)

    def _attach_perf(self, switch_cls) -> None:
        from repro.obs.perf import PerfCounters

        if self.perf is None:
            self.perf = PerfCounters()
        original = switch_cls.__dict__["__init__"]
        probe = self

        def init(switch, config=None, tracer=None, faults=None,
                 invariants=None, perf=None):
            if perf is None and probe.enabled:
                perf = probe.perf
            original(switch, config, tracer, faults, invariants, perf)

        switch_cls.__init__ = init
        self._patched.append((switch_cls, "__init__", original))

    def restore(self) -> None:
        """Put back every wrapped attribute (last wrapped, first restored)."""
        self.enabled = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Merged per-key ``self_ns``/``incl_ns``/``calls``/``items``.

        Server-thread ``self_ns`` is scaled to its share of the wall
        time (see the module docstring); ``incl_ns`` is as observed.
        """
        busy = _length(self._offthread)
        share = _length(_union(self._offthread)) / busy if busy else 1.0
        merged: Dict[str, Dict[str, float]] = {
            name: defaultdict(int)
            for name in ("self_ns", "incl_ns", "calls", "items")
        }
        with self._lock:
            states = list(self._states)
        for state in states:
            for name in merged:
                scale = share if name == "self_ns" and not state.main else 1
                for key, value in getattr(state, name).items():
                    merged[name][key] += value * scale
        return merged

    def layer_self_ns(self) -> Dict[str, float]:
        """Self time per layer, with service waits net of server spans."""
        layers = {layer: 0.0 for layer in LAYERS}
        for key, value in self.totals()["self_ns"].items():
            layers[key.split(".", 1)[0]] += value
        layers["service"] -= _length(
            _intersection(_union(self._waits), _union(self._offthread))
        )
        return layers

    def sim_cycles(self) -> int:
        """Switch-cycles simulated: scalar steps plus fleet lane-steps."""
        totals = self.totals()
        scalar = sum(
            totals["calls"][key]
            for key in ("hirise.step", "xbar.step", "voq.step")
        )
        return int(scalar + totals["items"]["fleet.step"])


def _length(intervals: _Intervals) -> int:
    return sum(end - start for start, end in intervals)


def _union(intervals: _Intervals) -> _Intervals:
    merged: List[List[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _intersection(a: _Intervals, b: _Intervals) -> _Intervals:
    """Intersection of two sorted, disjoint interval lists."""
    common = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            common.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return common


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _phase_split(perf) -> Dict[str, float]:
    """The kernel's phase shares of a whole run.

    ``PerfCounters`` times injection on every call but the step phases
    only on sampled cycles, so the step phases are scaled up by the
    sampling ratio before the shares are taken.
    """
    if perf is None or not perf.cycles_sampled:
        return {}
    scale = perf.cycles_total / perf.cycles_sampled
    estimate = {
        phase: perf.time_ns.get(phase, 0) * (1 if phase == "inject" else scale)
        for phase in PHASES
    }
    total = sum(estimate.values())
    return {phase: _per(value, total) for phase, value in estimate.items()}


def layer_metrics(probe: Probe, passes: int,
                  traced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of ``passes`` traced passes.

    Sizes (seconds, counts) are per pass; ``*_frac`` values are shares
    of the traced wall time; ``us_per_*``/``ns_per_*`` are per unit of
    work.  A layer the workload never calls reads 0.
    """
    totals = probe.totals()
    self_s = {k: v / 1e9 for k, v in totals["self_ns"].items()}
    incl_s = {k: v / 1e9 for k, v in totals["incl_ns"].items()}
    calls = totals["calls"]
    items = totals["items"]
    layers = {k: v / 1e9 for k, v in probe.layer_self_ns().items()}

    def mean_ms(key: str) -> float:
        return _per(incl_s.get(key, 0.0) * 1e3, calls[key])

    metrics: Dict[str, float] = {}
    metrics["traffic.calls"] = _per(calls["traffic.packets"], passes)
    metrics["traffic.packets"] = _per(items["traffic.packets"], passes)
    metrics["traffic.busy_s"] = _per(layers["traffic"], passes)
    metrics["traffic.ns_per_packet"] = _per(
        layers["traffic"] * 1e9, items["traffic.packets"]
    )
    metrics["engine.self_s"] = _per(layers["engine"], passes)

    hirise_step = self_s.get("hirise.step", 0.0)
    metrics["hirise.inject_s"] = _per(self_s.get("hirise.inject", 0.0),
                                      passes)
    metrics["hirise.step_s"] = _per(hirise_step, passes)
    metrics["hirise.us_per_cycle"] = _per(hirise_step * 1e6,
                                          calls["hirise.step"])
    metrics["hirise.ns_per_flit"] = _per(hirise_step * 1e9,
                                         items["hirise.step"])
    fractions = _phase_split(probe.perf)
    for phase in PHASES:
        metrics[f"hirise.phase.{phase}_frac"] = fractions.get(phase, 0.0)

    xbar_step = self_s.get("xbar.step", 0.0)
    metrics["xbar.step_s"] = _per(xbar_step, passes)
    metrics["xbar.us_per_cycle"] = _per(xbar_step * 1e6, calls["xbar.step"])

    voq_step = self_s.get("voq.step", 0.0)
    metrics["voq.step_s"] = _per(voq_step, passes)
    metrics["voq.us_per_cycle"] = _per(voq_step * 1e6, calls["voq.step"])
    for scheduler in ("islip", "mwm"):
        key = f"arbitration.{scheduler}"
        metrics[f"{key}.calls"] = _per(calls[key], passes)
        metrics[f"{key}.us_per_match"] = _per(
            self_s.get(key, 0.0) * 1e6, calls[key]
        )
    metrics["check.busy_s"] = _per(layers["check"], passes)

    fleet_step = self_s.get("fleet.step", 0.0)
    metrics["fleet.step_s"] = _per(fleet_step, passes)
    metrics["fleet.us_per_fleet_cycle"] = _per(fleet_step * 1e6,
                                               calls["fleet.step"])
    metrics["fleet.inject_s"] = _per(self_s.get("fleet.inject", 0.0), passes)
    metrics["fleet.pack_s"] = _per(self_s.get("fleet.sim", 0.0), passes)
    metrics["fleet.lanes_per_batch"] = _per(items["fleet.sim"],
                                            calls["fleet.sim"])

    lanes = items["fleet.sim"]
    scalar_tasks = items["harness.task"]
    metrics["harness.batched_frac"] = _per(lanes, lanes + scalar_tasks)
    metrics["harness.scalar_tasks"] = _per(scalar_tasks, passes)
    metrics["harness.self_s"] = _per(layers["harness"], passes)
    metrics["manycore.busy_s"] = _per(layers["manycore"], passes)

    metrics["service.submit_ms"] = mean_ms("service.submit")
    metrics["service.result_wait_ms"] = mean_ms("service.result_wait")
    metrics["service.exec_s"] = _per(incl_s.get("service.exec", 0.0), passes)
    metrics["service.cache_get_ms"] = mean_ms("service.cache_get")
    metrics["service.cache_put_ms"] = mean_ms("service.cache_put")
    metrics["service.journal_append_ms"] = mean_ms("service.journal_append")
    metrics["service.fingerprint_us"] = mean_ms("service.fingerprint") * 1e3

    for layer, name in LAYER_FRAC_METRIC.items():
        metrics[name] = _per(layers[layer], traced_wall_s)
    metrics["unattributed_frac"] = 1.0 - sum(
        metrics[name] for name in LAYER_FRAC_METRIC.values()
    )
    metrics["traced_wall_s"] = _per(traced_wall_s, passes)
    return metrics
