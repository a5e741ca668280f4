"""Binary columnar tracing: capture parity, round-trips, torn files.

The contract under test, per layer:

* **capture** — the fast kernel's batched capture and the reference
  kernel's per-event ``emit`` capture produce identical binary streams
  and JSONL bytes for every Hi-Rise scheme and allocation, with and
  without scripted faults, and attaching a tracer changes nothing
  about the simulation results (traced == untraced, bit for bit);
* **round-trips** — every event kind survives binary -> file ->
  columns -> JSONL and back, including the rare kinds (fault_repair,
  invariant) no saturation run produces;
* **files** — ``repro.trace_bin/v1`` readers tolerate torn/truncated
  tails (crash during a run) and damaged segments (per-segment CRC),
  read version-1 files, and reject garbage;
* **analysis** — the audit summary is identical whether the analyzer
  ingests the JSONL view or the binary columns, with or without numpy.
"""

import json

import pytest

from repro.core.config import HiRiseConfig
from repro.core.hirise import HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.network.engine import Simulation
from repro.obs.analyze import analyze_jsonl, analyze_tracer
from repro.obs.trace import EVENT_FIELDS, EVENT_NAMES, validate_jsonl_path
from repro.obs.tracebin import (
    BinaryTracer,
    BinaryTracerFactory,
    FleetTracer,
    read_trace,
    read_tracebin,
    sniff_tracebin,
)
from repro.traffic import HotspotTraffic, UniformRandomTraffic

np = pytest.importorskip("numpy")


def small_config(**overrides):
    defaults = dict(radix=16, layers=4, channel_multiplicity=2)
    defaults.update(overrides)
    return HiRiseConfig(**defaults)


def run_switch(switch, cycles=300, warmup=40, load=0.3, seed=9):
    traffic = UniformRandomTraffic(
        switch.num_ports, load=load, seed=seed
    )
    return Simulation(switch, traffic, warmup_cycles=warmup).run(
        measure_cycles=cycles
    )


def result_fields(result):
    return (
        result.packets_injected, result.packets_ejected,
        result.flits_ejected, result.cycles, result.packet_latencies,
        result.per_input_ejected, result.per_input_latency_sum,
        result.per_output_ejected,
    )


# ---------------------------------------------------------------------------
# Capture parity
# ---------------------------------------------------------------------------
HIRISE_SCHEMES = ("clrg", "wlrg", "l2l_lrg", "l2l_rr", "age")


def traced_pair(config, tmp_path, faults=None, **run_options):
    """(results, events, JSONL text) of fast and reference traced runs."""
    runs = []
    for name, kernel in (("fast", HiRiseSwitch),
                         ("reference", ReferenceHiRiseSwitch)):
        tracer = BinaryTracer(capacity=None)
        switch = kernel(
            config, tracer=tracer,
            faults=faults() if faults is not None else None,
        )
        result = run_switch(switch, **run_options)
        path = tmp_path / f"{name}.jsonl"
        tracer.write_jsonl(str(path))
        validate_jsonl_path(str(path))
        runs.append((result_fields(result), tracer.events, path.read_text()))
    return runs


class TestCaptureParity:
    def test_traced_run_bit_identical_to_untraced(self):
        config = small_config()
        untraced = run_switch(HiRiseSwitch(config))
        traced = run_switch(
            HiRiseSwitch(config, tracer=BinaryTracer(capacity=None))
        )
        assert result_fields(traced) == result_fields(untraced)

    @pytest.mark.parametrize(
        "allocation", ["input_binned", "output_binned", "priority"]
    )
    def test_fast_and_reference_kernels_emit_identical_streams(
        self, allocation, tmp_path
    ):
        for arbitration in HIRISE_SCHEMES:
            config = small_config(
                arbitration=arbitration, allocation=allocation
            )
            fast, reference = traced_pair(
                config, tmp_path, cycles=150, load=0.6
            )
            assert fast == reference, arbitration

    def test_fast_and_reference_streams_match_under_faults(self, tmp_path):
        from repro.faults import (
            FaultSchedule, corrupt_clrg, fail_channel, fail_input,
            repair_channel, repair_input,
        )

        def schedule():
            return FaultSchedule([
                fail_channel(20, 0, 1, 0), fail_input(25, 2),
                corrupt_clrg(30, 3, 2), fail_channel(40, 1, 2, 0),
                fail_channel(41, 1, 2, 1), repair_channel(90, 0, 1, 0),
                repair_input(100, 2), repair_channel(130, 1, 2, 1),
            ])

        fast, reference = traced_pair(
            small_config(), tmp_path, cycles=200, load=0.7,
            faults=schedule,
        )
        assert fast == reference
        _result, events, _jsonl = fast
        kinds = {EVENT_NAMES[event[1]] for event in events}
        assert {"fault_inject", "fault_repair"} <= kinds


# ---------------------------------------------------------------------------
# Every event kind round-trips (including kinds no simulation emits here)
# ---------------------------------------------------------------------------
def all_kinds_tracer():
    """One event of every kind, hand-emitted like the kernels do."""
    tracer = BinaryTracer(capacity=None)
    tracer.bind(HiRiseSwitch(small_config()))
    tracer.inject(0, 1, 2, 4, 77)             # inject
    for kind in range(len(EVENT_NAMES)):
        if EVENT_NAMES[kind] == "inject":
            continue
        tracer.cycle = kind + 1
        payload = tuple(range(3, 3 + len(EVENT_FIELDS[kind])))
        tracer.emit(kind, *payload)
    return tracer


class TestRoundTrips:
    def test_all_twelve_kinds_survive_file_round_trip(self, tmp_path):
        tracer = all_kinds_tracer()
        assert len(tracer.events) == len(EVENT_NAMES)
        path = tmp_path / "kinds.tracebin"
        tracer.save(str(path))
        assert sniff_tracebin(str(path))
        columns = read_tracebin(str(path))
        assert list(columns.iter_events()) == tracer.events
        assert columns.meta["radix"] == 16
        assert not columns.truncated

    def test_all_kinds_survive_jsonl_round_trip(self, tmp_path):
        from repro.obs.analyze import iter_jsonl

        tracer = all_kinds_tracer()
        path = tmp_path / "kinds.jsonl"
        tracer.write_jsonl(str(path))
        records = list(iter_jsonl(str(path)))
        assert records[0]["event"] == "meta"
        names = [record["event"] for record in records[1:]]
        assert sorted(names) == sorted(EVENT_NAMES.values())
        # Rare kinds explicitly: fault_repair (10) and invariant (11).
        assert "fault_repair" in names and "invariant" in names
        by_name = {record["event"]: record for record in records[1:]}
        repair = by_name["fault_repair"]
        assert [repair[f] for f in EVENT_FIELDS[10]] == [3, 4]
        check = by_name["invariant"]
        assert [check[f] for f in EVENT_FIELDS[11]] == [3, 4, 5]

    def test_fault_and_invariant_kinds_from_a_real_run(self, tmp_path):
        from repro.faults import (
            FaultSchedule, fail_channel, fail_input, repair_channel,
            repair_input,
        )

        schedule = FaultSchedule([
            fail_channel(3, 0, 1, 0), fail_input(5, 2),
            repair_channel(12, 0, 1, 0), repair_input(14, 2),
        ])
        tracer = BinaryTracer(capacity=None)
        switch = HiRiseSwitch(
            small_config(), tracer=tracer, faults=schedule
        )
        run_switch(switch, cycles=60, warmup=0)
        counts = tracer.counts_by_kind()
        assert counts["fault_inject"] == 2
        assert counts["fault_repair"] == 2
        path = tmp_path / "faults.tracebin"
        tracer.save(str(path))
        columns = read_tracebin(str(path))
        assert list(columns.iter_events()) == tracer.events


# ---------------------------------------------------------------------------
# Decimation and spill
# ---------------------------------------------------------------------------
class TestDecimation:
    def test_stride_doubles_and_keeps_counter_multiples(self):
        tracer = BinaryTracer(capacity=8)
        tracer.bind(HiRiseSwitch(small_config()))
        for index in range(40):
            tracer.cycle = index
            tracer.emit(2, index, 0, 0, 0)
        tracer.drain()
        assert tracer.stride == 8
        assert tracer.dropped == 40 - len(tracer.events)
        # Retained events are exactly the stride-multiples of the
        # original sequence, so parity survives decimation.
        assert [event[2] for event in tracer.events] == list(
            range(0, 40, 8)
        )

    def test_decimated_capture_matches_switch_tracer_semantics(self):
        config = small_config()
        binary = BinaryTracer(capacity=256)
        run_switch(HiRiseSwitch(config, tracer=binary), cycles=200)
        full = BinaryTracer(capacity=None)
        run_switch(HiRiseSwitch(config, tracer=full), cycles=200)
        stride = binary.stride
        assert stride > 1
        assert binary.events == full.events[::stride]
        assert binary.dropped == len(full.events) - len(binary.events)

    def test_drains_at_a_stride_keep_counter_multiples(self):
        # A short drain interval makes most drains run at a stride above
        # 1 with an event counter that is not a multiple of it.
        config = small_config()
        binary = BinaryTracer(capacity=256)
        binary.drain_interval = 7
        run_switch(HiRiseSwitch(config, tracer=binary), cycles=200)
        full = BinaryTracer(capacity=None)
        run_switch(HiRiseSwitch(config, tracer=full), cycles=200)
        assert binary.stride > 1
        assert binary.events == full.events[::binary.stride]

    def test_decimated_binary_and_jsonl_summaries_identical(self, tmp_path):
        tracer = BinaryTracer(capacity=256)
        run_switch(HiRiseSwitch(small_config(), tracer=tracer), cycles=200)
        assert tracer.stride > 1
        binary = tmp_path / "d.tracebin"
        jsonl = tmp_path / "d.jsonl"
        tracer.save(str(binary))
        tracer.write_jsonl(str(jsonl))
        from_binary = read_trace(str(binary))
        from_jsonl = read_trace(str(jsonl))
        assert from_jsonl.stride == from_binary.stride == tracer.stride
        assert from_jsonl.dropped == from_binary.dropped == tracer.dropped
        assert from_jsonl.summary() == from_binary.summary()
        assert from_jsonl.summary()["meta"]["stride"] == tracer.stride

    def test_undecimated_jsonl_meta_has_no_stride(self):
        tracer = BinaryTracer(capacity=None)
        run_switch(HiRiseSwitch(small_config(), tracer=tracer), cycles=50)
        assert "stride" not in tracer.meta()

    def test_spill_path_keeps_full_fidelity(self, tmp_path):
        path = tmp_path / "spill.tracebin"
        spilling = BinaryTracer(capacity=512, spill_path=str(path))
        config = small_config()
        run_switch(HiRiseSwitch(config, tracer=spilling), cycles=200)
        spilling.save(str(path))
        full = BinaryTracer(capacity=None)
        run_switch(HiRiseSwitch(config, tracer=full), cycles=200)
        columns = read_tracebin(str(path))
        assert list(columns.iter_events()) == full.events
        assert columns.stride == 1


# ---------------------------------------------------------------------------
# Torn and invalid files
# ---------------------------------------------------------------------------
class TestTornFiles:
    @pytest.fixture()
    def saved(self, tmp_path):
        tracer = BinaryTracer(capacity=None)
        run_switch(HiRiseSwitch(small_config(), tracer=tracer), cycles=120)
        path = tmp_path / "whole.tracebin"
        tracer.save(str(path))
        return path, tracer

    def test_torn_tail_recovers_complete_segments(self, tmp_path):
        # A spilling tracer writes many segments; tearing the file
        # mid-segment must recover every complete segment before it.
        path = tmp_path / "spill.tracebin"
        tracer = BinaryTracer(capacity=512, spill_path=str(path))
        tracer.drain_interval = 50  # drain often -> many small segments
        run_switch(HiRiseSwitch(small_config(), tracer=tracer), cycles=120)
        tracer.save(str(path))
        blob = path.read_bytes()
        assert blob.count(b"SGMT") > 2
        full = list(read_tracebin(str(path)).iter_events())
        torn = tmp_path / "torn.tracebin"
        torn.write_bytes(blob[: len(blob) * 2 // 3])
        columns = read_tracebin(str(torn))
        assert columns.truncated
        events = list(columns.iter_events())
        assert 0 < len(events) < len(full)
        assert events == full[: len(events)]

    def test_torn_single_segment_recovers_empty(self, saved, tmp_path):
        path, tracer = saved
        blob = path.read_bytes()
        torn = tmp_path / "torn.tracebin"
        torn.write_bytes(blob[: len(blob) * 2 // 3])
        columns = read_tracebin(str(torn))
        assert columns.truncated
        assert len(columns) == 0
        assert columns.meta["radix"] == 16  # header still intact

    def test_strict_mode_rejects_torn_tail(self, saved, tmp_path):
        path, _ = saved
        blob = path.read_bytes()
        torn = tmp_path / "torn.tracebin"
        torn.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(ValueError):
            read_tracebin(str(torn), strict=True)

    def test_garbage_and_short_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.tracebin"
        bad.write_bytes(b"not a trace at all")
        assert not sniff_tracebin(str(bad))
        with pytest.raises(ValueError):
            read_tracebin(str(bad))
        tiny = tmp_path / "tiny.tracebin"
        tiny.write_bytes(b"RP")
        assert not sniff_tracebin(str(tiny))


# ---------------------------------------------------------------------------
# Systematic damage: every cut, every framing bit flip
# ---------------------------------------------------------------------------
def segment_spans(blob):
    """``(tag_offset, end_of_columns)`` of every segment of a version-2
    file whose columns are the six scalar ones (no lane column); each
    segment's 4-byte CRC follows its columns."""
    spans = []
    offset = 12 + int.from_bytes(blob[8:12], "little")
    width = 8 + 5 * 4
    while blob[offset:offset + 4] == b"SGMT":
        count = int.from_bytes(blob[offset + 4:offset + 8], "little")
        end = offset + 8 + count * width
        spans.append((offset, end))
        offset = end + 4
    assert blob[offset:offset + 4] == b"FTR0"
    return spans


def framing_offsets(blob):
    """Byte offsets of the magic, version, header length, every segment
    tag, count and CRC, and the whole footer of a ``repro.trace_bin``
    file."""
    offsets = list(range(12))
    spans = segment_spans(blob)
    for start, end in spans:
        offsets.extend(range(start, start + 8))
        offsets.extend(range(end, end + 4))
    offsets.extend(range(spans[-1][1] + 4, len(blob)))
    return offsets


def as_version_1(blob):
    """The same trace in the version-1 layout: no segment CRCs."""
    spans = segment_spans(blob)
    out = bytearray(blob[:spans[0][0]])
    out[4:8] = (1).to_bytes(4, "little")
    for start, end in spans:
        out += blob[start:end]
    out += blob[spans[-1][1] + 4:]
    return bytes(out)


class TestDamage:
    """A damaged file raises ValueError or reads a prefix of the stream.

    Every cut and every bit flip of the framing (magic, version, header
    length, each segment's tag, event count and CRC, the footer) is
    tried.  A flipped segment count would misalign the columns; the
    segment's CRC covers the count, so the read stops before it.
    """

    @pytest.fixture(scope="class")
    def spilled(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("damage") / "spill.tracebin"
        tracer = BinaryTracer(capacity=16, spill_path=str(path))
        tracer.drain_interval = 10
        config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=1)
        run_switch(HiRiseSwitch(config, tracer=tracer), cycles=10,
                   warmup=0)
        tracer.save(str(path))
        blob = path.read_bytes()
        assert blob.count(b"SGMT") > 2
        return blob, list(read_tracebin(str(path)).iter_events())

    @staticmethod
    def read_back(path, blob, strict=False):
        path.write_bytes(blob)
        try:
            return list(read_tracebin(str(path), strict=strict).iter_events())
        except ValueError:
            return None

    def test_every_cut_reads_a_prefix_or_raises(self, spilled, tmp_path):
        blob, full = spilled
        path = tmp_path / "cut.tracebin"
        for size in range(len(blob)):
            events = self.read_back(path, blob[:size])
            assert events is None or events == full[:len(events)], size
            assert self.read_back(path, blob[:size], strict=True) is None

    def test_every_framing_bit_flip_reads_a_prefix_or_raises(
        self, spilled, tmp_path
    ):
        blob, full = spilled
        path = tmp_path / "flip.tracebin"
        for offset in framing_offsets(blob):
            for bit in range(8):
                damaged = bytearray(blob)
                damaged[offset] ^= 1 << bit
                events = self.read_back(path, bytes(damaged))
                assert events is None or events == full[:len(events)], (
                    offset, bit,
                )

    def test_flipped_column_bit_ends_the_read_at_that_segment(
        self, spilled, tmp_path
    ):
        blob, full = spilled
        spans = segment_spans(blob)
        start, end = spans[1]
        damaged = bytearray(blob)
        damaged[(start + 8 + end) // 2] ^= 1
        path = tmp_path / "column.tracebin"
        path.write_bytes(bytes(damaged))
        columns = read_tracebin(str(path))
        assert columns.truncated
        first = (spans[0][1] - spans[0][0] - 8) // 28
        assert list(columns.iter_events()) == full[:first]
        with pytest.raises(ValueError, match="torn"):
            read_tracebin(str(path), strict=True)

    def test_version_1_files_still_read(self, spilled, tmp_path):
        blob, full = spilled
        path = tmp_path / "v1.tracebin"
        path.write_bytes(as_version_1(blob))
        columns = read_tracebin(str(path), strict=True)
        assert not columns.truncated
        assert list(columns.iter_events()) == full

    def test_damaged_footer_key_reads_as_a_torn_tail(self, spilled, tmp_path):
        blob, full = spilled
        damaged = blob.replace(b'"events"', b'"evdnts"')
        assert damaged != blob
        path = tmp_path / "footer.tracebin"
        path.write_bytes(damaged)
        columns = read_tracebin(str(path))
        assert columns.truncated
        assert list(columns.iter_events()) == full
        with pytest.raises(ValueError, match="torn"):
            read_tracebin(str(path), strict=True)


# ---------------------------------------------------------------------------
# Analyzer equality: binary path == JSONL path
# ---------------------------------------------------------------------------
class TestAnalyzerEquality:
    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory):
        """A hotspot run with real contention, in all trace forms."""
        root = tmp_path_factory.mktemp("golden")
        tracer = BinaryTracer(capacity=None)
        switch = HiRiseSwitch(small_config(), tracer=tracer)
        traffic = HotspotTraffic(16, load=0.1, hotspot_output=3, seed=4)
        Simulation(switch, traffic, warmup_cycles=100).run(
            measure_cycles=800
        )
        jsonl = root / "golden.jsonl"
        binary = root / "golden.tracebin"
        tracer.write_jsonl(str(jsonl))
        tracer.save(str(binary))
        return tracer, jsonl, binary

    def test_binary_and_jsonl_summaries_identical(self, golden):
        from repro.obs.analyze import analyze_tracebin

        tracer, jsonl, binary = golden
        from_jsonl = analyze_jsonl(str(jsonl)).summary()
        from_binary = analyze_tracebin(str(binary)).summary()
        from_tracer = analyze_tracer(tracer).summary()
        assert json.dumps(from_binary, sort_keys=True) == json.dumps(
            from_jsonl, sort_keys=True
        )
        assert json.dumps(from_tracer, sort_keys=True) == json.dumps(
            from_jsonl, sort_keys=True
        )


# ---------------------------------------------------------------------------
# Factory and validation
# ---------------------------------------------------------------------------
class TestFactory:
    def test_factory_is_fleet_capable_and_comparable(self):
        factory = BinaryTracerFactory(capacity=1024)
        assert factory.fleet_capable
        assert factory == BinaryTracerFactory(capacity=1024)
        assert factory != BinaryTracerFactory(capacity=2048)
        assert hash(factory) == hash(BinaryTracerFactory(capacity=1024))
        tracer = factory()
        assert isinstance(tracer, BinaryTracer)
        assert tracer.capacity == 1024

    def test_factory_pickles(self):
        import pickle

        factory = BinaryTracerFactory(capacity=64)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory

    def test_invalid_capacities_rejected(self):
        with pytest.raises(ValueError):
            BinaryTracer(capacity=0)
        with pytest.raises(ValueError):
            FleetTracer(2, capacity=0)
        with pytest.raises(ValueError):
            FleetTracer(0)
