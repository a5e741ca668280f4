"""Tests of the streaming trace-audit analyzer and baseline diffing."""

import json

import pytest

from repro.core.config import HiRiseConfig
from repro.core.hirise import HiRiseSwitch
from repro.network.engine import Simulation
from repro.obs import StatsRegistry
from repro.obs.analyze import (
    AUDIT_SCHEMA,
    TraceAnalyzer,
    analyze_jsonl,
    analyze_records,
    analyze_tracer,
    compare_audits,
    iter_jsonl,
    validate_audit_summary,
)
from repro.obs import tracebin
from repro.obs.trace import (
    EVENT_FIELDS,
    EVENT_NAMES,
    PORT_FIELDS,
    resource_label,
)
from repro.obs.tracebin import BinaryTracer, columns_from_records
from repro.traffic import HotspotTraffic


def small_config(**overrides):
    defaults = dict(radix=16, layers=4, channel_multiplicity=2)
    defaults.update(overrides)
    return HiRiseConfig(**defaults)


def traced_hotspot(arbitration, cycles=2000, warmup=200, load=0.08, seed=2):
    """A traced, non-draining hotspot run (drain would equalize service)."""
    tracer = BinaryTracer(capacity=None)
    switch = HiRiseSwitch(
        small_config(arbitration=arbitration), tracer=tracer
    )
    traffic = HotspotTraffic(16, load=load, hotspot_output=3, seed=seed)
    result = Simulation(switch, traffic, warmup_cycles=warmup).run(
        measure_cycles=cycles
    )
    return result, tracer


def synthetic_records(events, radix=4, layers=2, channel_multiplicity=1):
    """A meta record followed by hand-built event records."""
    meta = {
        "event": "meta", "version": 1, "events": len(events), "dropped": 0,
        "radix": radix, "layers": layers,
        "channel_multiplicity": channel_multiplicity,
        "arbitration": "clrg", "allocation": "input_binned",
    }
    return [meta] + list(events)


def inject(cycle, src, dst=0, flits=4, pid=0):
    return {"cycle": cycle, "event": "inject", "src": src, "dst": dst,
            "num_flits": flits, "packet_id": pid}


def eject(cycle, src, dst=0, seq=0, tail=0):
    return {"cycle": cycle, "event": "eject", "src": src, "dst": dst,
            "seq": seq, "tail": tail}


def grant(cycle, inp, resource=0, output=0, cls=-1):
    return {"cycle": cycle, "event": "p2_grant", "resource": resource,
            "input": inp, "output": output, "cls": cls}


# ---------------------------------------------------------------------------
# The paper's fairness claim, as an audited property
# ---------------------------------------------------------------------------
class TestFairnessClaim:
    @pytest.fixture(scope="class")
    def audits(self):
        _, clrg_tracer = traced_hotspot("clrg")
        _, lrg_tracer = traced_hotspot("l2l_lrg")
        return (
            analyze_tracer(clrg_tracer).summary(),
            analyze_tracer(lrg_tracer).summary(),
        )

    def test_clrg_jain_strictly_exceeds_two_phase_lrg(self, audits):
        clrg, lrg = audits
        assert clrg["fairness"]["jain"] > lrg["fairness"]["jain"]

    def test_lrg_audit_flags_unfair_epochs_clrg_stays_clean(self, audits):
        clrg, lrg = audits
        assert lrg["fairness"]["unfair_epochs"] >= 1
        assert any(
            item["kind"] == "unfair_epoch"
            for item in lrg["anomalies"]["items"]
        )
        assert clrg["fairness"]["unfair_epochs"] == 0

    def test_clrg_dynamics_reconstructed(self, audits):
        clrg, lrg = audits
        # Grants carry their CLRG class; the counter banks halved.
        assert clrg["clrg"]["class_grants"]
        assert sum(clrg["clrg"]["class_grants"].values()) > 0
        assert clrg["clrg"]["halvings"] > 0
        assert clrg["clrg"]["halvings_by_output"].get("3", 0) > 0
        # Two-phase LRG has no classes and never halves.
        assert lrg["clrg"]["halvings"] == 0
        assert not lrg["clrg"]["class_grants"]

    def test_lrg_skews_service_toward_remote_layers(self, audits):
        _, lrg = audits
        grants = lrg["service"]["per_input_grants"]
        # The hotspot layer's own inputs (ports 0-3 share a layer with
        # output 3) receive measurably less service under two-phase LRG.
        local = sum(grants[0:4]) / 4
        remote = sum(grants[4:]) / 12
        assert remote > 1.5 * local


# ---------------------------------------------------------------------------
# Streaming mechanics
# ---------------------------------------------------------------------------
class TestStreaming:
    def test_single_pass_over_a_one_shot_generator(self):
        records = synthetic_records(
            [inject(0, 0), grant(1, 0), eject(1, 0, tail=1)]
        )
        consumed = (record for record in records)  # exhaustible, one pass
        report = analyze_records(consumed)
        assert report.events == 3
        assert list(consumed) == []

    def test_bounded_epoch_storage_beyond_the_window_buffer(self):
        # 64x more epochs than the analyzer may store: memory stays
        # bounded via stride doubling while aggregates remain exact.
        max_epochs = 8
        window = 4
        epochs = max_epochs * 64
        def stream():
            yield synthetic_records([])[0]
            for epoch in range(epochs):
                cycle = epoch * window
                yield inject(cycle, src=epoch % 4)
                yield grant(cycle + 1, inp=epoch % 4)
        report = analyze_records(
            stream(), window=window, max_epochs=max_epochs
        )
        assert report.epochs_total == epochs
        assert len(report.epochs) <= max_epochs
        assert report.epoch_stride > 1
        # Stored epochs are a deterministic stride sample from the start.
        assert [e.index for e in report.epochs] == list(
            range(0, report.epochs[-1].index + 1, report.epoch_stride)
        )

    def test_anomaly_storage_is_bounded_but_counted(self):
        def stream():
            yield synthetic_records([])[0]
            for cycle in range(40):
                yield {"cycle": cycle, "event": "drain_stall",
                       "idle_cycles": 5, "occupancy": 1}
        report = analyze_records(stream(), max_anomalies=4)
        assert len(report.anomalies) == 4
        assert report.anomalies_total == 40
        assert report.summary()["anomalies"]["dropped"] == 36

    @staticmethod
    def straddling_stream():
        """Stray earlier cycles and counts-only rows across epoch closes."""
        import random

        rng = random.Random(5)
        events = []
        cycle = 0
        for index in range(300):
            cycle += rng.choice((0, 0, 1, 2, 5))
            at = max(0, cycle - rng.choice((0, 0, 0, 3, 9)))  # stray
            port = rng.randrange(4)
            choice = rng.randrange(6)
            if choice == 0:
                events.append(inject(at, src=port, flits=2, pid=index))
            elif choice == 1:
                events.append(grant(at, inp=port, cls=rng.randrange(-1, 3)))
            elif choice == 2:
                events.append(eject(at, src=port, tail=rng.randrange(2)))
            elif choice == 3:
                events.append({"cycle": at, "event": "p2_block",
                               "resource": 0, "input": port, "output": 1})
            elif choice == 4:
                events.append({"cycle": cycle, "event": "p1_grant",
                               "resource": 1, "input": port, "output": 0,
                               "weight": 1})
            else:
                events.append({"cycle": cycle, "event": "via_block",
                               "input": port, "dst": 1, "reason": 0})
        return synthetic_records(events)

    def test_chunk_boundaries_do_not_change_the_report(self, monkeypatch):
        records = self.straddling_stream()
        summaries = []
        for size in (1, 7, 1 << 30):
            monkeypatch.setattr(tracebin, "RECORD_CHUNK", size)
            summaries.append(
                analyze_records(records, window=4, max_epochs=16).summary()
            )
        assert summaries[0]["fairness"]["epochs"] > 16
        assert summaries[0] == summaries[1] == summaries[2]

    def test_requires_meta_record_first(self):
        with pytest.raises(ValueError, match="meta"):
            analyze_records([inject(0, 0)])
        with pytest.raises(ValueError, match="meta"):
            TraceAnalyzer().consume(
                columns_from_records(synthetic_records([inject(0, 0)]))
            )

    def test_feed_after_finish_rejected(self):
        analyzer = TraceAnalyzer()
        analyzer.start(synthetic_records([])[0])
        analyzer.finish()
        with pytest.raises(RuntimeError):
            analyzer.consume(
                columns_from_records(synthetic_records([inject(0, 0)]))
            )

    def test_invalid_records_are_rejected(self):
        meta = synthetic_records([])[0]
        for bad, match in (
            ({"cycle": 0, "event": "warp_drive"}, "unknown event"),
            ({"cycle": 0, "event": "inject", "src": 1}, "dst"),
            (dict(inject(0, 0), cycle=-1), "cycle must be a non-negative"),
            (meta, "second meta"),
        ):
            with pytest.raises(ValueError, match=match):
                analyze_records([meta, bad])

    def test_meta_record_is_kept_verbatim(self):
        meta = dict(synthetic_records([])[0], note="hotspot run")
        report = analyze_records([meta, inject(0, 0)])
        assert report.meta == {
            key: value for key, value in meta.items() if key != "event"
        }

    def test_jsonl_and_tracer_paths_agree(self, tmp_path):
        _, tracer = traced_hotspot("clrg", cycles=400, warmup=40)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        assert (
            analyze_jsonl(path).summary()
            == analyze_tracer(tracer).summary()
        )

    def test_dropped_events_flag_a_truncated_trace(self):
        report = analyze_records(
            [dict(synthetic_records([])[0], dropped=17), inject(0, 0)]
        )
        assert report.dropped_events == 17
        kinds = [a.kind for a in report.anomalies]
        assert "truncated_trace" in kinds


# ---------------------------------------------------------------------------
# Starvation windows
# ---------------------------------------------------------------------------
class TestStarvation:
    def test_longest_backlogged_gap_between_grants(self):
        records = synthetic_records([
            inject(0, src=1),
            grant(10, inp=1),          # waited 10 cycles
            grant(510, inp=1),         # starved 500 cycles, still backlogged
            eject(511, src=1, tail=1),
            eject(512, src=1), eject(513, src=1), eject(514, src=1),
        ])
        report = analyze_records(records, starvation_gap=100)
        assert report.per_input_max_gap[1] == 500
        assert report.starved_inputs == [1]
        assert any(a.kind == "starvation" for a in report.anomalies)

    def test_gap_clock_stops_when_backlog_drains(self):
        records = synthetic_records([
            inject(0, src=2, flits=1),
            grant(5, inp=2),
            eject(6, src=2, tail=1),   # backlog hits zero here
            inject(900, src=2, flits=1),
            grant(905, inp=2),
            eject(906, src=2, tail=1),
        ])
        report = analyze_records(records, starvation_gap=100)
        # The idle 6..900 stretch is not a gap: nothing was waiting.
        assert report.per_input_max_gap[2] == 5
        assert report.starved_inputs == []

    def test_trailing_open_wait_counts_as_a_gap(self):
        records = synthetic_records([
            inject(0, src=0),
            {"cycle": 700, "event": "p1_grant", "resource": 0, "input": 1,
             "output": 0, "weight": 1},  # just advances the clock
        ])
        report = analyze_records(records)
        assert report.per_input_max_gap[0] == 700


# ---------------------------------------------------------------------------
# Summary schema, stats export, baseline comparison
# ---------------------------------------------------------------------------
class TestSummaryAndBaseline:
    @pytest.fixture(scope="class")
    def summary(self):
        _, tracer = traced_hotspot("clrg", cycles=600, warmup=40)
        return analyze_tracer(tracer).summary()

    def test_summary_validates_and_is_strict_json(self, summary):
        assert validate_audit_summary(summary) is summary
        assert summary["schema"] == AUDIT_SCHEMA
        rebuilt = json.loads(json.dumps(summary, allow_nan=False))
        assert validate_audit_summary(rebuilt) == summary

    def test_validation_rejects_wrong_schema_and_missing_sections(
        self, summary
    ):
        with pytest.raises(ValueError, match="schema"):
            validate_audit_summary(dict(summary, schema="bogus/v9"))
        broken = dict(summary)
        del broken["fairness"]
        with pytest.raises(ValueError, match="fairness"):
            validate_audit_summary(broken)
        with pytest.raises(ValueError, match="jain"):
            validate_audit_summary(
                dict(summary, fairness={"window": 256})
            )

    def test_to_stats_exports_headline_numbers(self):
        _, tracer = traced_hotspot("clrg", cycles=600, warmup=40)
        report = analyze_tracer(tracer)
        registry = StatsRegistry()
        report.to_stats(registry)
        assert registry.get("audit.fairness.jain") == pytest.approx(
            report.jain
        )
        assert registry.get("audit.clrg.halvings") == report.total_halvings
        vector = registry["audit.per_input_grants"]
        assert vector.value() == report.per_input_grants

    def test_identical_summaries_show_no_regressions(self, summary):
        assert compare_audits(summary, summary) == []

    def test_injected_regressions_are_caught_directionally(self, summary):
        worse = json.loads(json.dumps(summary))
        worse["fairness"]["jain"] = summary["fairness"]["jain"] * 0.5
        worse["starvation"]["max_gap_cycles"] = (
            summary["starvation"]["max_gap_cycles"] * 10 + 100
        )
        found = {r.metric for r in compare_audits(worse, summary)}
        assert "fairness.jain" in found
        assert "starvation.max_gap_cycles" in found
        # The same moves in the good direction are not regressions.
        better = json.loads(json.dumps(summary))
        better["fairness"]["jain"] = 1.0
        better["starvation"]["max_gap_cycles"] = 0
        assert compare_audits(better, summary) == []

    def test_tolerance_allows_small_moves(self, summary):
        near = json.loads(json.dumps(summary))
        near["fairness"]["jain"] = summary["fairness"]["jain"] * 0.97
        assert compare_audits(near, summary, rel_tol=0.05) == []
        assert compare_audits(near, summary, rel_tol=0.0) != []


# ---------------------------------------------------------------------------
# Inspection helpers (trace CLI satellites)
# ---------------------------------------------------------------------------
def select_oracle(records, kinds=None, ports=None):
    """Record-level filter: the meaning ``TraceColumns.select`` keeps."""
    kept = []
    for record in records[1:]:
        if kinds is not None and record["event"] not in kinds:
            continue
        if ports is not None and not any(
            record.get(name) in ports for name in PORT_FIELDS
        ):
            continue
        kept.append(record)
    return kept


def one_of_each_kind():
    """A meta record plus two events of every kind, ports 0..3 in play."""
    events = []
    for cycle, (kind, fields) in enumerate(sorted(EVENT_FIELDS.items())):
        for offset in (0, 2):
            record = {"cycle": cycle, "event": EVENT_NAMES[kind]}
            record.update(
                (name, (slot + offset + kind) % 4)
                for slot, name in enumerate(fields)
            )
            events.append(record)
    return synthetic_records(events)


class TestInspectionHelpers:
    def test_filter_by_kind_keeps_meta(self):
        records = synthetic_records([inject(0, 0), grant(1, 0)])
        kept = columns_from_records(records).select(kinds=["p2_grant"])
        assert [r["event"] for r in kept.records()] == ["meta", "p2_grant"]

    def test_filter_by_port_matches_any_port_field(self):
        records = synthetic_records([
            inject(0, src=1, dst=5),
            grant(1, inp=2, output=5),
            grant(2, inp=3, output=0),
        ])
        kept = columns_from_records(records).select(ports=[5])
        assert len(list(kept.records())) == 3  # meta + the two events

    def test_filter_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="bogus"):
            columns_from_records(synthetic_records([])).select(
                kinds=["bogus"]
            )

    @pytest.mark.parametrize("port", [0, 2])
    @pytest.mark.parametrize("kind", sorted(EVENT_NAMES.values()))
    def test_select_matches_the_record_oracle(self, kind, port):
        records = one_of_each_kind()
        columns = columns_from_records(records)
        for kinds, ports in (([kind], None), (None, [port]),
                             ([kind], [port])):
            kept = list(columns.select(kinds=kinds, ports=ports).records())
            assert kept[1:] == select_oracle(records, kinds, ports)
            assert kept[0]["events"] == len(kept) - 1

    def test_summarize_counts_resources_and_ports(self):
        records = synthetic_records([
            inject(0, src=1),
            grant(1, inp=1, resource=3),
            {"cycle": 9, "event": "cool", "resource": 3, "input": 1,
             "output": 0, "granted": 1},
            eject(2, src=1, dst=0, tail=1),
        ])
        summary = columns_from_records(records).summary()
        assert summary["events"] == 4
        assert summary["counts_by_kind"]["p2_grant"] == 1
        assert summary["resources"][3] == {"grants": 1, "busy_cycles": 8}
        assert summary["ports"][1]["injected"] == 1
        assert summary["ports"][0]["ejected"] == 1
        assert summary["meta"]["radix"] == 4

    def test_resource_labels_match_config_layout(self):
        # radix 16, 4 layers, 2 channels: ids 0..15 are intermediate
        # outputs, 16.. are channels in (src, dst, channel) order.
        assert resource_label(0, 16, 4, 2) == "int L0.0"
        assert resource_label(5, 16, 4, 2) == "int L1.1"
        assert resource_label(16, 16, 4, 2) == "ch L0->L0#0"
        assert resource_label(19, 16, 4, 2) == "ch L0->L1#1"
        assert resource_label(47, 16, 4, 2) == "ch L3->L3#1"
        assert resource_label(48, 16, 4, 2) == "res48"
        assert resource_label(7, 0, 0, 0) == "res7"

    def test_iter_jsonl_streams_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = synthetic_records([inject(0, 0)])
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        assert list(iter_jsonl(path)) == records


# ---------------------------------------------------------------------------
# Analyzer option validation
# ---------------------------------------------------------------------------
class TestOptions:
    @pytest.mark.parametrize("kwargs", [
        dict(window=0),
        dict(fairness_threshold=0.0),
        dict(fairness_threshold=1.5),
        dict(max_min_threshold=0.5),
        dict(collapse_fraction=1.0),
        dict(starvation_gap=0),
        dict(max_epochs=0),
        dict(max_anomalies=0),
    ])
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TraceAnalyzer(**kwargs)

    def test_empty_trace_produces_an_empty_but_valid_summary(self):
        report = analyze_records(synthetic_records([]))
        summary = validate_audit_summary(report.summary())
        assert summary["trace"]["events"] == 0
        assert summary["fairness"]["jain"] is None
        assert report.cycles == 0

    def test_compare_rejects_negative_tolerances(self):
        with pytest.raises(ValueError):
            compare_audits({}, {}, rel_tol=-0.1)


# ---------------------------------------------------------------------------
# Fault-event tracking and degradation accounting (PR 4)
# ---------------------------------------------------------------------------
class TestFaultTracking:
    @pytest.fixture(scope="class")
    def faulted_audit(self):
        from repro.faults import (
            FaultSchedule, corrupt_clrg, fail_channel, fail_input,
            repair_channel,
        )
        from repro.traffic import UniformRandomTraffic

        schedule = FaultSchedule([
            fail_channel(100, 0, 1, 0),
            corrupt_clrg(150, 3, 2),
            fail_input(200, 5),
            repair_channel(400, 0, 1, 0),
        ])
        tracer = BinaryTracer(capacity=None)
        switch = HiRiseSwitch(
            small_config(), tracer=tracer, faults=schedule
        )
        traffic = UniformRandomTraffic(16, load=0.8, seed=4)
        Simulation(switch, traffic, warmup_cycles=0).run(800)
        return analyze_tracer(tracer, window=100)

    def test_fault_counters_and_final_state(self, faulted_audit):
        assert faulted_audit.fault_events == 3
        assert faulted_audit.repair_events == 1
        assert faulted_audit.clrg_corruptions == 1
        assert faulted_audit.max_failed_channels == 1
        assert faulted_audit.final_failed_channels == []
        assert len(faulted_audit.final_stuck_inputs) == 1

    def test_degradation_buckets_partition_the_run(self, faulted_audit):
        degradation = faulted_audit.degradation
        assert set(degradation) == {0, 1}
        assert sum(b["cycles"] for b in degradation.values()) == 800
        assert degradation[1]["cycles"] == 300
        for bucket in degradation.values():
            assert bucket["throughput_flits_per_cycle"] == pytest.approx(
                bucket["ejected_flits"] / bucket["cycles"]
            )

    def test_degraded_throughput_ratio_defined_and_sane(self, faulted_audit):
        ratio = faulted_audit.degraded_throughput_ratio
        assert ratio is not None
        assert 0.0 < ratio < 1.5

    def test_fault_anomalies_recorded(self, faulted_audit):
        kinds = [anomaly.kind for anomaly in faulted_audit.anomalies]
        assert kinds.count("fault") >= 3

    def test_summary_faults_section_is_additive_and_valid(self, faulted_audit):
        summary = validate_audit_summary(faulted_audit.summary())
        faults = summary["faults"]
        assert faults["fault_events"] == 3
        assert faults["max_failed_channels"] == 1
        assert set(faults["degradation"]) == {"0", "1"}
        # A fault-free audit still validates (the section is additive,
        # not schema-required) and reports zeros.
        clean = analyze_records(synthetic_records([]))
        clean_summary = validate_audit_summary(clean.summary())
        assert clean_summary["faults"]["fault_events"] == 0

    def test_to_stats_exports_fault_scalars_only_when_faulted(
        self, faulted_audit
    ):
        registry = StatsRegistry()
        faulted_audit.to_stats(registry)
        assert "audit.faults.injected" in registry.names()
        clean_registry = StatsRegistry()
        analyze_records(synthetic_records([])).to_stats(clean_registry)
        assert not any(
            name.startswith("audit.faults") for name in clean_registry.names()
        )


# ---------------------------------------------------------------------------
# Scheduler zoo: VOQ audits and the fairness-ordering claim
# ---------------------------------------------------------------------------
def traced_hotspot_voq(arbitration, islip_iterations=1, cycles=2000,
                       warmup=200, load=0.08, seed=2):
    """A traced hotspot run of the VOQ fabric (same window as CLRG's)."""
    from repro.switches import make_switch

    tracer = BinaryTracer(capacity=None)
    config = small_config(
        arbitration=arbitration, islip_iterations=islip_iterations,
    )
    switch = make_switch(config, tracer=tracer)
    traffic = HotspotTraffic(16, load=load, hotspot_output=3, seed=seed)
    result = Simulation(switch, traffic, warmup_cycles=warmup).run(
        measure_cycles=cycles
    )
    return result, tracer


class TestSchedulerZooFairnessClaim:
    #: Slack for the MWM leg of the ordering.  MWM-OCF serves the
    #: oversubscribed hotspot in global FCFS order, so each input's
    #: service carries the arrival process's multinomial noise
    #: (Jain ~= 1/(1 + 1/mean-served-per-input) at this window), while
    #: iSLIP's round-robin pointers rotate *exactly*.  The orderings
    #: involving LRG are strict — its unfairness is systematic, not
    #: sampling noise.
    FCFS_NOISE = 0.04

    @pytest.fixture(scope="class")
    def jains(self):
        audits = {}
        for name, arb, iters in (
            ("mwm", "mwm", 1),
            ("islip4", "islip", 4),
            ("lrg", "l2l_lrg", 1),
        ):
            _, tracer = traced_hotspot_voq(arb, islip_iterations=iters)
            audits[name] = analyze_tracer(tracer).summary()
        _, clrg_tracer = traced_hotspot("clrg")
        audits["clrg"] = analyze_tracer(clrg_tracer).summary()
        return {
            name: audit["fairness"]["jain"]
            for name, audit in audits.items()
        }, audits

    def test_paper_claim_ordering_on_the_hotspot_trace(self, jains):
        jain, _ = jains
        assert jain["mwm"] >= jain["islip4"] - self.FCFS_NOISE
        assert jain["islip4"] >= jain["clrg"] - 1e-9
        assert jain["clrg"] > jain["lrg"]
        assert jain["mwm"] > jain["lrg"]
        assert jain["islip4"] > jain["lrg"]

    def test_fairness_levels_are_in_the_expected_bands(self, jains):
        jain, _ = jains
        assert jain["islip4"] > 0.99 and jain["clrg"] > 0.99
        assert jain["mwm"] > 0.96
        assert jain["lrg"] < 0.96

    def test_voq_audit_reconstructs_scheduler_rounds(self, jains):
        _, audits = jains
        sched = audits["islip4"]["scheduler"]
        assert sched["grants"] > 0
        assert sched["accepts"] > 0
        assert set(sched["accepts_by_iteration"]) >= {"0"}
        assert 0.0 < sched["first_iteration_fraction"] <= 1.0
        # MWM reports its single-shot matching as iteration 0 only.
        mwm = audits["mwm"]["scheduler"]
        assert set(mwm["grants_by_iteration"]) == {"0"}
        assert mwm["first_iteration_fraction"] == 1.0
        # The Hi-Rise kernels emit no scheduler rounds at all.
        clrg = audits["clrg"]["scheduler"]
        assert clrg["grants"] == 0 and clrg["accepts"] == 0

    def test_voq_summaries_validate_against_the_audit_schema(self, jains):
        _, audits = jains
        for name in ("mwm", "islip4"):
            validate_audit_summary(audits[name])


class TestSchedKindRoundTrip:
    def test_sched_kinds_round_trip_binary_and_jsonl(self, tmp_path):
        numpy = pytest.importorskip("numpy")  # noqa: F841
        from repro.obs.analyze import analyze_tracebin
        from repro.obs.tracebin import read_tracebin
        from repro.switches import make_switch

        tracer = BinaryTracer(capacity=None)
        config = small_config(arbitration="islip", islip_iterations=2)
        switch = make_switch(config, tracer=tracer)
        traffic = HotspotTraffic(16, load=0.2, hotspot_output=3, seed=4)
        Simulation(switch, traffic, warmup_cycles=0).run(300)

        counts = tracer.counts_by_kind()
        assert counts["sched_grant"] > 0
        assert counts["sched_accept"] > 0

        # Binary file round-trip preserves the exact event stream.
        binary_path = tmp_path / "voq.tracebin"
        tracer.save(str(binary_path))
        columns = read_tracebin(str(binary_path))
        assert list(columns.iter_events()) == tracer.events

        # The JSONL export view names the sched payload fields.
        jsonl_path = tmp_path / "voq.jsonl"
        tracer.write_jsonl(str(jsonl_path))
        records = list(iter_jsonl(str(jsonl_path)))
        grants = [r for r in records if r["event"] == "sched_grant"]
        accepts = [r for r in records if r["event"] == "sched_accept"]
        assert len(grants) == counts["sched_grant"]
        assert len(accepts) == counts["sched_accept"]
        for record in grants[:10]:
            assert {"iteration", "output", "input", "weight"} <= set(record)
        for record in accepts[:10]:
            assert {"iteration", "input", "output", "weight"} <= set(record)

        # Both ingestion paths agree on the audit summary.
        binary_summary = analyze_tracebin(str(binary_path)).summary()
        jsonl_summary = analyze_jsonl(str(jsonl_path)).summary()
        assert json.dumps(binary_summary, sort_keys=True) == (
            json.dumps(jsonl_summary, sort_keys=True)
        )
        assert binary_summary["scheduler"]["grants"] == (
            counts["sched_grant"]
        )
