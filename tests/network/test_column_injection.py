"""Column injection equals packet-by-packet injection, bit for bit.

The engine hands each cycle's traffic to a switch as ``(srcs, dsts)``
columns plus the first of ``len(srcs)`` ids claimed from the source's
factory (``SwitchModel.inject_columns``); the switch queues packet
records and never builds a ``Packet``.  The oracle here is the old
protocol driven by hand: a twin source's ``packets_for_cycle`` and one
``switch.inject(packet)`` per packet, with the engine's accounting
written out.  Every kernel, traffic pattern, packet length and
observer must give an equal ``SimulationResult``, traced runs the same
JSONL bytes, and checked runs the same injection ledger.
"""

import io

import pytest

from repro.check.invariants import InvariantChecker
from repro.check.matching import MatchingInvariantChecker
from repro.core.config import HiRiseConfig
from repro.core.hirise import HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.network.engine import Simulation, SimulationResult
from repro.obs.perf import PerfCounters
from repro.obs.tracebin import BinaryTracer
from repro.switches.swizzle2d import SwizzleSwitch2D
from repro.switches.voq import VOQSwitch
from repro.traffic import (
    BurstyTraffic,
    HotspotTraffic,
    TraceTraffic,
    UniformRandomTraffic,
)

RADIX = 8
WARMUP = 15
CYCLES = 90

HIRISE = HiRiseConfig(radix=RADIX, layers=2, channel_multiplicity=2)
ONE_LAYER = HiRiseConfig(radix=RADIX, layers=1, channel_multiplicity=1)


def _voq(arbitration):
    return HiRiseConfig(radix=RADIX, layers=1, channel_multiplicity=1,
                        arbitration=arbitration, islip_iterations=1)


def build_switch(kernel, hooks):
    """A fresh switch of ``kernel`` with the observer ``hooks`` attached."""
    if kernel == "fast":
        return HiRiseSwitch(HIRISE, **hooks)
    if kernel == "reference":
        return ReferenceHiRiseSwitch(HIRISE, **hooks)
    if kernel == "2d":
        # SwizzleSwitch2D takes no hooks; observed runs use the kernel
        # it is: HiRiseSwitch on its one-layer configuration.
        return HiRiseSwitch(ONE_LAYER, **hooks) if hooks else (
            SwizzleSwitch2D(RADIX))
    return VOQSwitch(_voq(kernel), **hooks)


KERNELS = ["fast", "reference", "2d", "islip", "mwm"]


def build_traffic(pattern, flits):
    if pattern == "uniform":
        return UniformRandomTraffic(RADIX, 0.7, packet_flits=flits, seed=5)
    if pattern == "hotspot":
        return HotspotTraffic(RADIX, 0.5, hotspot_output=3,
                              packet_flits=flits, seed=6,
                              background_load=0.2)
    if pattern == "bursty":
        return BurstyTraffic(RADIX, 0.6, burst_length=4.0,
                             packet_flits=flits, seed=7)
    # Several packets per source in one cycle, and idle cycles.
    events = [(c, c % RADIX, (3 * c + 1) % RADIX) for c in range(0, 80, 2)]
    events += [(c, 2, 6) for c in range(0, 80, 5)]
    events += [(c, 5, 0) for c in range(10, 40)]
    return TraceTraffic(events, packet_flits=flits)


PATTERNS = ["uniform", "hotspot", "bursty", "trace"]


def hooks_for(kernel, observer):
    """Fresh observer objects for one run of ``kernel``."""
    if observer == "traced":
        return {"tracer": BinaryTracer(capacity=None)}
    if observer == "perf":
        return {"perf": PerfCounters(stride=3)}
    if observer == "checked":
        if kernel in ("islip", "mwm"):
            return {"invariants": MatchingInvariantChecker()}
        return {"invariants": InvariantChecker()}
    return {}


def run_by_packets(switch, traffic, warmup, measure, drain=False):
    """The oracle: one ``inject(packet)`` per generated packet."""
    result = SimulationResult()

    def account(cycle, ejected):
        result.cycles += 1
        result.flits_ejected += len(ejected)
        for flit in ejected:
            if flit.seq == flit.num_flits - 1:
                latency = cycle - flit.created_cycle
                result.packets_ejected += 1
                result.record_latency(latency)
                src, dst = flit.src, flit.dst
                result.per_input_ejected[src] = (
                    result.per_input_ejected.get(src, 0) + 1)
                result.per_input_latency_sum[src] = (
                    result.per_input_latency_sum.get(src, 0) + latency)
                result.per_output_ejected[dst] = (
                    result.per_output_ejected.get(dst, 0) + 1)

    cycle = 0
    for cycle in range(warmup + measure):
        measuring = cycle >= warmup
        for packet in traffic.packets_for_cycle(cycle):
            switch.inject(packet)
            if measuring:
                result.packets_injected += 1
        ejected = switch.step(cycle)
        if measuring:
            account(cycle, ejected)
    if drain:
        cycle = warmup + measure
        while switch.occupancy() > 0:
            account(cycle, switch.step(cycle))
            cycle += 1
    return result


def jsonl(tracer):
    handle = io.StringIO()
    tracer.write_jsonl(handle)
    return handle.getvalue()


def run_pair(kernel, pattern, flits, observer, drain=False):
    """(column run, packet oracle) as (result, hooks) pairs."""
    column_hooks = hooks_for(kernel, observer)
    column = Simulation(
        build_switch(kernel, column_hooks), build_traffic(pattern, flits),
        warmup_cycles=WARMUP,
    ).run(CYCLES, drain=drain)
    packet_hooks = hooks_for(kernel, observer)
    packet = run_by_packets(
        build_switch(kernel, packet_hooks), build_traffic(pattern, flits),
        WARMUP, CYCLES, drain=drain,
    )
    return (column, column_hooks), (packet, packet_hooks)


@pytest.mark.parametrize("flits", [1, 4])
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_columns_match_packets(kernel, pattern, flits):
    (column, _), (packet, _) = run_pair(kernel, pattern, flits, "plain")
    assert column == packet
    assert column.packets_injected > 0 and column.packets_ejected > 0


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_traced_columns_give_the_same_jsonl(kernel, pattern):
    (column, column_hooks), (packet, packet_hooks) = run_pair(
        kernel, pattern, 4, "traced")
    assert column == packet
    column_text = jsonl(column_hooks["tracer"])
    assert '"inject"' in column_text
    assert column_text == jsonl(packet_hooks["tracer"])


@pytest.mark.parametrize("flits", [1, 4])
@pytest.mark.parametrize("kernel", KERNELS)
def test_perf_attached_columns_match_packets(kernel, flits):
    (column, column_hooks), (packet, packet_hooks) = run_pair(
        kernel, "uniform", flits, "perf")
    assert column == packet
    column_perf, packet_perf = column_hooks["perf"], packet_hooks["perf"]
    # Warm-up injections are booked too; the window's are a subset.
    assert column_perf.ops["inject"] == packet_perf.ops["inject"]
    assert column_perf.ops["inject"] >= column.packets_injected
    assert column_perf.ops["traffic"] == column_perf.ops["inject"]


@pytest.mark.parametrize("flits", [1, 4])
@pytest.mark.parametrize("pattern", ["hotspot", "trace"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_checked_columns_keep_the_same_ledger(kernel, pattern, flits):
    (column, column_hooks), (packet, packet_hooks) = run_pair(
        kernel, pattern, flits, "checked")
    assert column == packet
    column_checker = column_hooks["invariants"]
    packet_checker = packet_hooks["invariants"]
    assert column_checker.injected_packets > 0
    assert column_checker.injected_packets == packet_checker.injected_packets
    assert column_checker.injected_flits == packet_checker.injected_flits
    assert column_checker.injected_flits == (
        flits * column_checker.injected_packets)


@pytest.mark.parametrize("kernel", KERNELS)
def test_drained_columns_match_packets(kernel):
    (column, _), (packet, _) = run_pair(kernel, "trace", 4, "plain",
                                        drain=True)
    assert column == packet
    # The drain delivers every packet the window injected.
    assert column.packets_ejected >= column.packets_injected > 0


def test_packets_only_source_is_refused():
    class PacketsOnly:
        def packets_for_cycle(self, cycle):
            return iter(())

    with pytest.raises(TypeError, match="PacketsOnly"):
        Simulation(HiRiseSwitch(HIRISE), PacketsOnly())


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("srcs, dsts, message", [
    ([0, 1, RADIX], [1, 2, 3], f"source port {RADIX} out of range"),
    ([0, 1, 2], [1, -1, 3], "destination port -1 out of range"),
    ([0, -2, 2], [1, 2, RADIX], "source port -2 out of range"),
])
def test_out_of_range_column_queues_nothing(kernel, srcs, dsts, message):
    switch = build_switch(kernel, {})
    with pytest.raises(ValueError, match=message):
        switch.inject_columns(srcs, dsts, 0, 0, 4)
    assert switch.occupancy() == 0
