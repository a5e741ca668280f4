"""The daemon end to end (in-process): admission control, coalescing,
overload shedding, breaker quarantine, corrupt-entry recompute, and
journal-driven recovery."""

import json
import time

import pytest

from repro.service import (
    ServiceClient,
    ServiceError,
    SweepService,
    job_fingerprint,
    run_job,
)


def make_service(tmp_path, **overrides):
    options = dict(workers=2, queue_limit=8, max_batch=2,
                   breaker_threshold=2, max_retries=5,
                   backoff_base=0.01, backoff_cap=0.05)
    options.update(overrides)
    return SweepService(tmp_path / "state", **options)


@pytest.fixture
def service(tmp_path):
    svc = make_service(tmp_path)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    host, port = service.address
    return ServiceClient(host, port, timeout=60.0)


def chaos(seed, mode="ok"):
    return {"kind": "chaos", "seed": seed, "mode": mode}


class TestRoundTrip:
    def test_submit_compute_result(self, client):
        accepted = client.submit(chaos(1))
        assert accepted["state"] == "queued"
        outcome = client.result(job_id=accepted["job_id"], wait_s=60)
        assert outcome["payload"] == run_job(chaos(1))
        assert outcome["job"]["source"] == "computed"

    def test_second_submit_is_a_cache_hit(self, service, client):
        first = client.submit(chaos(2))
        client.result(job_id=first["job_id"], wait_s=60)
        second = client.submit(chaos(2))
        assert second["cache_hit"] is True
        assert second["state"] == "completed"
        assert second["job_id"] != first["job_id"]
        assert service.metrics.value("cache_hits") == 1
        assert service.metrics.value("simulations") == 1

    def test_result_by_fingerprint(self, client):
        accepted = client.submit(chaos(3))
        outcome = client.result(
            fingerprint=accepted["fingerprint"], wait_s=60
        )
        assert outcome["payload"] == run_job(chaos(3))

    def test_transient_failure_is_retried_transparently(
        self, service, client
    ):
        accepted = client.submit(chaos(4, "fail_once"))
        outcome = client.result(job_id=accepted["job_id"], wait_s=60)
        assert outcome["payload"]["value"] == run_job(chaos(4))["value"]
        assert service.metrics.value("retries") >= 1

    def test_crash_once_survives_via_pool_rebuild(self, service, client):
        accepted = client.submit(chaos(5, "crash_once"))
        outcome = client.result(job_id=accepted["job_id"], wait_s=120)
        assert outcome["payload"]["seed"] == 5
        assert service.metrics.value("crashes") >= 1


class TestProtocolErrors:
    def test_invalid_spec(self, service, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "teleport"})
        assert excinfo.value.code == "invalid_spec"
        assert service.metrics.value("rejected_invalid") == 1

    def test_unknown_job(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999")
        assert excinfo.value.code == "unknown_job"

    def test_bad_request_line(self, service):
        import socket

        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    def test_unknown_op(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("teleport")
        assert excinfo.value.code == "bad_request"


class TestAdmission:
    """Dispatcher-free: drive the handler directly so queued jobs stay
    queued and admission decisions are deterministic."""

    def make_idle(self, tmp_path, **overrides):
        service = make_service(tmp_path, **overrides)
        service._recover()  # journal + replay, but no threads
        return service

    def test_overload_sheds_with_retry_after(self, tmp_path):
        service = self.make_idle(tmp_path, queue_limit=1)
        first = service.handle(
            {"op": "submit", "spec": chaos(1), "priority": 0}
        )
        assert first["ok"] is True
        shed = service.handle(
            {"op": "submit", "spec": chaos(2), "priority": 0}
        )
        assert shed["ok"] is False
        assert shed["error"] == "overloaded"
        assert shed["retry_after_s"] > 0
        assert service.metrics.value("rejected_overload") == 1

    def test_duplicate_in_flight_coalesces(self, tmp_path):
        service = self.make_idle(tmp_path)
        first = service.handle({"op": "submit", "spec": chaos(1)})
        second = service.handle({"op": "submit", "spec": chaos(1)})
        assert second["coalesced"] is True
        assert second["job_id"] == first["job_id"]
        assert service.metrics.value("accepted") == 1
        assert service.metrics.value("coalesced") == 1
        # Coalesced duplicates hold no queue slot.
        assert service.queue.depth == 1

    def test_write_ahead_precedes_queueing(self, tmp_path):
        from repro.service.journal import JobJournal

        service = self.make_idle(tmp_path)
        accepted = service.handle({"op": "submit", "spec": chaos(9)})
        unsettled, _, _ = JobJournal.replay(service.journal_path)
        assert [row["job_id"] for row in unsettled] == [
            accepted["job_id"]
        ]
        assert unsettled[0]["spec"] == service._jobs[
            accepted["job_id"]
        ]["spec"]


class TestBreaker:
    def test_deterministic_crasher_is_quarantined(self, service, client):
        spec = chaos(7, "crash_always")
        accepted = client.submit(spec)
        outcome = client.result(job_id=accepted["job_id"], wait_s=120)
        assert "payload" not in outcome
        assert outcome["job"]["state"] == "failed"
        assert service.breaker.is_open(job_fingerprint(spec))
        # Resubmission of the same content is refused outright.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.code == "quarantined"
        assert service.metrics.value("rejected_quarantined") == 1
        # Unrelated work still flows: the daemon degraded, not died.
        other = client.submit(chaos(8))
        assert client.result(
            job_id=other["job_id"], wait_s=60
        )["payload"]["seed"] == 8


class TestCorruptRecompute:
    def test_corrupt_entry_recomputed_never_served(
        self, service, client
    ):
        accepted = client.submit(chaos(11))
        client.result(job_id=accepted["job_id"], wait_s=60)
        fingerprint = accepted["fingerprint"]
        path = service.cache.path_for(fingerprint)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40  # bit-flip mid-entry
        path.write_bytes(bytes(raw))
        outcome = client.result(job_id=accepted["job_id"], wait_s=60)
        assert outcome["payload"] == run_job(chaos(11))
        assert service.metrics.value("cache_corrupt") == 1
        assert service.cache.quarantined()
        assert service.metrics.value("simulations") == 2  # recomputed


class TestRecovery:
    def test_unfinished_jobs_replay_to_identical_results(self, tmp_path):
        specs = [chaos(seed) for seed in range(3)]
        baselines = {
            job_fingerprint(spec): run_job(spec) for spec in specs
        }

        # Life 1: accept (journal) but never dispatch — the admission
        # side of a daemon that died with a full queue.
        first = make_service(tmp_path)
        first._recover()
        for spec in specs:
            assert first.handle({"op": "submit", "spec": spec})["ok"]
        first.journal.close()

        # Life 2: replay computes everything, bit-identically.
        second = make_service(tmp_path)
        second.start()
        try:
            host, port = second.address
            client = ServiceClient(host, port, timeout=60.0)
            for fingerprint, baseline in baselines.items():
                outcome = client.result(
                    fingerprint=fingerprint, wait_s=120
                )
                assert outcome["payload"] == baseline
            assert second.metrics.value("simulations") == len(specs)
        finally:
            second.stop()

        # Life 3: everything settles from cache at replay time —
        # zero re-simulations, all hits.
        third = make_service(tmp_path)
        third.start()
        try:
            host, port = third.address
            client = ServiceClient(host, port, timeout=60.0)
            for fingerprint, baseline in baselines.items():
                outcome = client.result(fingerprint=fingerprint,
                                        wait_s=30)
                assert outcome["payload"] == baseline
            assert third.metrics.value("simulations") == 0
            assert third.metrics.value("cache_hits") == 0  # settled jobs
            # Journal ids never collide across lives.
            assert third._next_sequence == len(specs)
        finally:
            third.stop()

    def test_replay_serves_landed_results_from_cache(self, tmp_path):
        # A job whose result landed before the crash replays as a
        # cache hit, not a recompute.
        spec = chaos(21)
        first = make_service(tmp_path)
        first._recover()
        accepted = first.handle({"op": "submit", "spec": spec})
        first.cache.put(accepted["fingerprint"], run_job(spec))
        first.journal.close()

        second = make_service(tmp_path)
        second._recover()
        job = second._jobs[accepted["job_id"]]
        assert job["state"] == "completed"
        assert job["source"] == "cache"
        assert second.metrics.value("cache_hits") == 1
        assert second.metrics.value("simulations") == 0
        second.journal.close()


def test_shutdown_op_stops_the_daemon(tmp_path):
    service = make_service(tmp_path)
    service.start()
    host, port = service.address
    client = ServiceClient(host, port, timeout=30.0)
    assert client.shutdown()["stopping"] is True
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            client.ping()
            time.sleep(0.05)
        except (OSError, ServiceError):
            break
    else:
        pytest.fail("daemon kept serving after shutdown")
    with pytest.raises((OSError, ServiceError)):
        client.ping()


def test_idle_stop_returns_promptly(tmp_path):
    """``stop()`` waits out at most one server poll, not the 0.5 s
    default of ``serve_forever``."""
    service = make_service(tmp_path, workers=1)
    service.start()
    time.sleep(0.1)
    started = time.monotonic()
    service.stop()
    assert time.monotonic() - started < 0.25
