"""Tests of the cycle-level switch tracer, its exports and labels."""

import json

import pytest

from repro.core.config import (
    AllocationPolicy,
    ArbitrationScheme,
    HiRiseConfig,
)
from repro.core.hirise import HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.network.engine import Simulation
from repro.obs.trace import (
    CLRG_HALVE,
    EJECT,
    EVENT_FIELDS,
    EVENT_NAMES,
    INJECT,
    P1_GRANT,
    P2_GRANT,
    resource_label,
    validate_chrome,
    validate_chrome_path,
    validate_jsonl_path,
    validate_record,
    validate_records,
)
from repro.obs.tracebin import BinaryTracer, TraceColumns
from repro.switches import VOQSwitch
from repro.traffic import HotspotTraffic, UniformRandomTraffic


def small_config(**overrides):
    defaults = dict(radix=16, layers=4, channel_multiplicity=2)
    defaults.update(overrides)
    return HiRiseConfig(**defaults)


def traced_run(switch_class, config, traffic, cycles=300, warmup=40):
    tracer = BinaryTracer(capacity=None)
    switch = switch_class(config, tracer=tracer)
    result = Simulation(switch, traffic, warmup_cycles=warmup).run(
        measure_cycles=cycles, drain=True
    )
    return result, tracer


class TestTracerBuffer:
    def test_emit_stamps_current_cycle(self):
        tracer = BinaryTracer()
        tracer.cycle = 7
        tracer.emit(P1_GRANT, 1, 2, 3, 4)
        assert tracer.events == [(7, P1_GRANT, 1, 2, 3, 4)]

    def test_inject_carries_its_own_cycle(self):
        tracer = BinaryTracer()
        tracer.cycle = 99
        tracer.inject(5, src=0, dst=3, num_flits=4, packet_id=17)
        assert tracer.events == [(5, INJECT, 0, 3, 4, 17)]

    def test_capacity_drops_instead_of_growing(self):
        # Past capacity the buffer decimates: it keeps the events whose
        # index is a multiple of the (doubling) stride, and counts the
        # rest as dropped.
        tracer = BinaryTracer(capacity=2)
        for index in range(5):
            tracer.emit(EJECT, index)
        assert tracer.stride == 4
        assert [event[2] for event in tracer.events] == [0, 4]
        assert tracer.dropped == 3
        assert tracer.total_events == 5

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BinaryTracer(capacity=0)

    def test_counts_by_kind_uses_wire_names(self):
        tracer = BinaryTracer()
        tracer.emit(EJECT)
        tracer.emit(EJECT)
        tracer.emit(CLRG_HALVE, 3, 1)
        assert tracer.counts_by_kind() == {"eject": 2, "clrg_halve": 1}
        assert tracer.halving_events() == [(0, 3, 1)]

    def test_every_kind_has_name_and_fields(self):
        assert set(EVENT_NAMES) == set(EVENT_FIELDS)
        for fields in EVENT_FIELDS.values():
            assert 2 <= len(fields) <= 4


class TestTracedRunExports:
    def test_jsonl_records_validate(self, tmp_path):
        _result, tracer = traced_run(
            HiRiseSwitch, small_config(),
            UniformRandomTraffic(16, load=0.6, seed=3),
        )
        assert len(tracer.events) > 0
        count = validate_records(tracer.records())
        assert count == len(tracer.events) + 1  # + meta record
        path = tmp_path / "trace.jsonl"
        written = tracer.write_jsonl(str(path))
        assert written == count
        assert validate_jsonl_path(path) == count

    def test_meta_record_describes_the_switch(self):
        _result, tracer = traced_run(
            HiRiseSwitch, small_config(),
            UniformRandomTraffic(16, load=0.4, seed=5), cycles=100,
        )
        meta = next(tracer.records())
        assert meta["event"] == "meta"
        assert meta["radix"] == 16
        assert meta["layers"] == 4
        assert meta["arbitration"] == "clrg"

    def test_chrome_trace_validates(self, tmp_path):
        _result, tracer = traced_run(
            HiRiseSwitch, small_config(),
            UniformRandomTraffic(16, load=0.6, seed=3),
        )
        path = tmp_path / "trace.json"
        written = tracer.write_chrome(str(path))
        trace = json.loads(path.read_text())
        assert validate_chrome(trace) == written == len(trace["traceEvents"])
        assert validate_chrome_path(path) == written
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slices, "a busy run must produce path slices"
        for event in slices:
            assert event["dur"] >= 1

    def test_grant_events_reference_real_resources(self):
        config = small_config()
        _result, tracer = traced_run(
            HiRiseSwitch, config, UniformRandomTraffic(16, load=0.8, seed=9),
        )
        num_resources = len(config.resource_key_table)
        for cycle, kind, a, b, c, _d in tracer.events:
            if kind in (P1_GRANT, P2_GRANT):
                assert 0 <= a < num_resources
                assert 0 <= b < 16
                assert 0 <= c < 16
        assert tracer.resource_name(0)  # resolvable via bound config

    def test_validators_reject_malformed_records(self):
        with pytest.raises(ValueError, match="unknown event"):
            validate_record({"event": "warp_drive", "cycle": 0})
        with pytest.raises(ValueError, match="cycle"):
            validate_record({"event": "eject", "cycle": -1})
        with pytest.raises(ValueError, match="meta"):
            validate_records(iter([{"event": "eject", "cycle": 0}]))
        with pytest.raises(ValueError, match="empty"):
            validate_records(iter([]))


class TestClrgHalvingObservation:
    def test_hotspot_run_records_class_halvings(self):
        config = small_config(arbitration=ArbitrationScheme.CLRG)
        _result, tracer = traced_run(
            HiRiseSwitch, config,
            HotspotTraffic(16, load=0.8, hotspot_output=3, seed=2),
            cycles=600, warmup=0,
        )
        halvings = tracer.halving_events()
        assert halvings, "a saturated hotspot must halve its class bank"
        per_output = {}
        for _cycle, output, count in halvings:
            assert count == per_output.get(output, 0) + 1
            per_output[output] = count
        assert 3 in per_output  # the hotspot output's bank halved

    def test_untraced_switch_has_no_halving_callback(self):
        switch = HiRiseSwitch(small_config())
        for arbiter in switch.subblock_arbiters.values():
            counters = getattr(arbiter, "counters", None)
            if counters is not None:
                assert counters.on_halve is None


class TestTracedEqualsUntraced:
    @pytest.mark.parametrize("scheme", [
        ArbitrationScheme.CLRG,
        ArbitrationScheme.WLRG,
        ArbitrationScheme.L2L_LRG,
    ], ids=lambda s: s.value)
    def test_tracing_never_changes_results(self, scheme):
        config = small_config(arbitration=scheme)

        def run(tracer):
            switch = HiRiseSwitch(config, tracer=tracer)
            traffic = UniformRandomTraffic(16, load=0.9, seed=11)
            return Simulation(switch, traffic, warmup_cycles=40).run(
                measure_cycles=300, drain=True
            )

        untraced = run(None)
        traced = run(BinaryTracer(capacity=None))
        assert traced.packets_ejected == untraced.packets_ejected
        assert traced.flits_ejected == untraced.flits_ejected
        assert traced.cycles == untraced.cycles
        assert traced.packet_latencies == untraced.packet_latencies
        assert traced.per_input_ejected == untraced.per_input_ejected
        assert traced.per_output_ejected == untraced.per_output_ejected

    def test_full_tracer_keeps_results_identical(self):
        # A decimating buffer must only thin events, never change the run.
        config = small_config()

        def run(tracer):
            switch = HiRiseSwitch(config, tracer=tracer)
            traffic = UniformRandomTraffic(16, load=0.9, seed=4)
            return Simulation(switch, traffic, warmup_cycles=0).run(
                measure_cycles=200, drain=True
            )

        tiny = BinaryTracer(capacity=16)
        assert run(tiny).packet_latencies == run(None).packet_latencies
        assert tiny.dropped > 0


class TestKernelEventParity:
    @pytest.mark.parametrize("scheme", [
        ArbitrationScheme.CLRG,
        ArbitrationScheme.WLRG,
        ArbitrationScheme.L2L_LRG,
    ], ids=lambda s: s.value)
    def test_fast_and_reference_emit_identical_events(self, scheme):
        config = small_config(
            arbitration=scheme, allocation=AllocationPolicy.INPUT_BINNED
        )
        traffic = UniformRandomTraffic(16, load=0.9, seed=11)
        _r1, fast = traced_run(HiRiseSwitch, config, traffic, cycles=250)
        traffic = UniformRandomTraffic(16, load=0.9, seed=11)
        _r2, reference = traced_run(
            ReferenceHiRiseSwitch, config, traffic, cycles=250
        )
        assert fast.events == reference.events

    def test_parity_jsonl_streams_match(self):
        config = small_config()
        traffic = UniformRandomTraffic(16, load=0.7, seed=6)
        _r1, fast = traced_run(HiRiseSwitch, config, traffic, cycles=150)
        traffic = UniformRandomTraffic(16, load=0.7, seed=6)
        _r2, reference = traced_run(
            ReferenceHiRiseSwitch, config, traffic, cycles=150
        )
        fast_lines = [json.dumps(r) for r in fast.records()]
        reference_lines = [json.dumps(r) for r in reference.records()]
        assert fast_lines == reference_lines


class TestResourceLabel:
    def test_every_rid_matches_the_config_key_table(self):
        config = HiRiseConfig(radix=64, layers=4, channel_multiplicity=4)
        tracer = BinaryTracer()
        tracer.bind(HiRiseSwitch(config))
        columns = tracer.columns()
        geometry = (config.radix, config.layers, config.channel_multiplicity)
        for rid, key in enumerate(config.resource_key_table):
            if key[0] == "int":
                expected = f"int L{key[1]}.{key[2]}"
            else:
                expected = f"ch L{key[1]}->L{key[2]}#{key[3]}"
            assert resource_label(rid, *geometry) == expected
            assert tracer.resource_name(rid) == expected
            assert columns.resource_name(rid) == expected

    def test_out_of_range_ids_and_missing_geometry_fall_back(self):
        config = HiRiseConfig(radix=64, layers=4, channel_multiplicity=4)
        geometry = (config.radix, config.layers, config.channel_multiplicity)
        tracer = BinaryTracer()
        tracer.bind(HiRiseSwitch(config))
        for rid in (config.num_resources, -1):
            assert resource_label(rid, *geometry) == f"res{rid}"
            assert tracer.resource_name(rid) == f"res{rid}"
        assert BinaryTracer().resource_name(3) == "res3"
        empty = TraceColumns([], [], [], [], [], [])
        assert empty.resource_name(3) == "res3"


class TestDrainBound:
    """Every traced kernel drains its pending timeline as it runs.

    With a small ``drain_interval`` the raw entries waiting for
    expansion stay below it after every step, so ``capacity`` bounds
    memory during the run, not only when it is read at the end.
    """

    @staticmethod
    def bounded_run(switch_class, config, cycles=400):
        tracer = BinaryTracer(capacity=64)
        tracer.drain_interval = 32
        switch = switch_class(config, tracer=tracer)
        step = switch.step
        peak = [0]

        def observed_step(cycle):
            ejected = step(cycle)
            peak[0] = max(peak[0], len(tracer.timeline))
            return ejected

        switch.step = observed_step
        traffic = UniformRandomTraffic(config.radix, load=0.8, seed=7)
        result = Simulation(switch, traffic, warmup_cycles=0).run(
            measure_cycles=cycles
        )
        return result, tracer, peak[0]

    @pytest.mark.parametrize("switch_class", [
        HiRiseSwitch, ReferenceHiRiseSwitch,
    ], ids=["fast", "reference"])
    def test_hirise_kernels_keep_pending_entries_bounded(self, switch_class):
        _result, tracer, peak = self.bounded_run(
            switch_class, small_config()
        )
        assert peak < tracer.drain_interval
        assert len(tracer.events) <= tracer.capacity
        assert tracer.stride > 1

    def test_voq_switch_keeps_pending_entries_bounded(self):
        _result, tracer, peak = self.bounded_run(
            VOQSwitch, small_config(arbitration=ArbitrationScheme.ISLIP)
        )
        assert peak < tracer.drain_interval
        assert len(tracer.events) <= tracer.capacity

    def test_reference_decimation_equals_fast_decimation(self):
        config = small_config()
        fast_result, fast, _ = self.bounded_run(HiRiseSwitch, config)
        ref_result, reference, _ = self.bounded_run(
            ReferenceHiRiseSwitch, config
        )
        assert fast_result.packet_latencies == ref_result.packet_latencies
        assert fast.stride == reference.stride > 1
        assert fast.dropped == reference.dropped
        assert fast.events == reference.events
