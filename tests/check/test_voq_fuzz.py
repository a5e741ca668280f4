"""VOQ cases in the differential fuzzer.

iSLIP and MWM run on the VOQ crossbar only, so a VOQ case is checked by
the matching invariant checker on every cycle rather than against a
second kernel.  The sample below is the VOQ part of the CI fuzz-smoke
VOQ campaign (``repro check --fuzz --seed 181 --cases 16``); its result
and trace digests pin every matching, pointer move and tie-break of
the VOQ switch and both schedulers on small faulted, drained and
one-layer configurations.
"""

import dataclasses
import hashlib
import json

from repro.check import CaseSpec, generate_cases, run_case
from repro.check.fuzz import (
    HIRISE_ARBITRATIONS,
    VOQ_ARBITRATIONS,
    run_voq_case,
)
from repro.obs.tracebin import BinaryTracer

SEED, COUNT = 181, 16

#: case id -> sha256 of the traced run's result fields and event rows.
PINNED = {
    "fuzz-181-000": "12c0ec3d032782695ac44a602b592087163437e13bf3c673da5be96b82f4a486",
    "fuzz-181-002": "c8437c74a3becb85540d91048e9978aeb1d2c74686834cbe31e6e3e22afe8474",
    "fuzz-181-003": "54da51902df00cc8030003434db720b48576b035c8ddd8ee595689fc9af34689",
    "fuzz-181-004": "c622eb54c5956b9aec528d928918c8bb4b58e0b9856f34a16c15da5652e3ffe6",
    "fuzz-181-007": "0ee403eed5c51784926303d721f0d149a62ea8e3368de1b8db3bff434f9343d0",
    "fuzz-181-011": "e66720821208fa760e9a8c9187ad8a2f2cf10897a746ebc7bb425ab0330feb22",
    "fuzz-181-012": "1d5c0a6a73f4788cb2f36ac0fa7d234ffdde220ec456740176917bf53ea48e97",
}


def voq_sample():
    return [
        case for case in generate_cases(SEED, COUNT, max_radix=16)
        if case.arbitration in VOQ_ARBITRATIONS
    ]


def run_digest(case):
    tracer = BinaryTracer(capacity=None)
    result = run_voq_case(case, tracer=tracer)
    blob = json.dumps(
        [dataclasses.asdict(result), tracer.events],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_sample_covers_both_schedulers_faults_drain_and_one_layer():
    sample = voq_sample()
    assert {case.islip_iterations for case in sample
            if case.arbitration == "islip"} == {1, 2, 3, 4}
    assert any(case.arbitration == "mwm" for case in sample)
    assert any(case.drain for case in sample)
    assert any(case.layers == 1 and case.fault_events for case in sample)
    assert sum(1 for case in sample if case.fault_events) >= 4


def test_voq_faults_are_stuck_inputs_only():
    for seed in range(20):
        for case in generate_cases(seed, 12):
            if case.arbitration not in VOQ_ARBITRATIONS:
                continue
            assert not (case.drain and case.fault_events)
            kinds = {event["kind"] for event in case.fault_events}
            assert kinds <= {"fail_input", "repair_input"}
            assert case.build_config().uses_voq


def test_hirise_cases_keep_one_iteration():
    for case in generate_cases(5, 40):
        if case.arbitration in HIRISE_ARBITRATIONS:
            assert case.islip_iterations == 1


def test_sample_digests_are_pinned():
    sample = voq_sample()
    assert {case.case_id: run_digest(case) for case in sample} == PINNED


def test_sample_runs_clean_under_the_matching_checker():
    for case in voq_sample():
        outcome = run_case(case)
        assert outcome.status == "ok", (case.case_id, outcome.detail)


def test_checker_off_leaves_results_unchanged():
    case = voq_sample()[1]
    checked = run_voq_case(case)
    unchecked = run_voq_case(case, invariants=False)
    assert dataclasses.asdict(checked) == dataclasses.asdict(unchecked)


def test_voq_case_round_trips_and_old_records_default_to_one_iteration():
    case = next(c for c in voq_sample() if c.islip_iterations > 1)
    back = CaseSpec.from_dict(json.loads(json.dumps(case.to_dict())))
    assert back == case
    assert back.build_config().islip_iterations == case.islip_iterations
    record = case.to_dict()
    del record["islip_iterations"]
    assert CaseSpec.from_dict(record).islip_iterations == 1
