"""Satellite drill: SIGKILL the daemon mid-campaign, restart it on the
same state directory, and verify the recovered run is bit-identical to
an uninterrupted one — with completed work served from cache (the
cache-hit counter climbs, the simulation counter does not)."""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.service import ServiceClient, job_fingerprint, run_job

SERVE_PATTERN = re.compile(r"serving on [^:]+:(\d+)")


def start_daemon(state_dir):
    """`repro serve` as a subprocess; returns (process, client).

    The daemon leads its own process group, so :func:`kill_group` can
    take its executor's pool workers down with it.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state", str(state_dir), "--workers", "2", "--max-batch", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    line = process.stdout.readline()
    match = SERVE_PATTERN.search(line)
    if not match:
        kill_group(process)
        pytest.fail(f"daemon did not start: {line!r}")
    client = ServiceClient("127.0.0.1", int(match.group(1)),
                           timeout=60.0)
    client.wait_until_up()
    return process, client


def kill_group(process):
    """SIGKILL the daemon's whole process group and reap the daemon.

    Killing only the daemon orphans its pool workers, which keep
    running (and competing for the CPUs) after the test.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the daemon and all its workers have already exited
    process.wait(timeout=30)
    process.stdout.close()


def campaign_specs():
    """A mixed campaign: quick chaos probes plus real simulations."""
    specs = [{"kind": "chaos", "seed": seed} for seed in range(6)]
    specs.append({"kind": "simulate", "load": 0.2, "cycles": 250,
                  "warmup": 20, "seed": 3})
    specs.append({"kind": "simulate", "load": 0.35, "cycles": 250,
                  "warmup": 20, "seed": 4, "traffic": "hotspot"})
    return specs


def test_kill_minus_nine_then_restart_is_bit_identical(tmp_path):
    state = tmp_path / "state"
    specs = campaign_specs()
    baselines = {
        job_fingerprint(spec): run_job(spec) for spec in specs
    }

    process, client = start_daemon(state)
    try:
        for spec in specs:
            assert client.submit_with_backpressure(spec)["ok"]
        # Let part of the campaign land, then pull the plug hard.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if client.metrics()["counters"]["completed"] >= 2:
                break
            time.sleep(0.05)
        else:
            pytest.fail("campaign made no progress before the kill")
    finally:
        kill_group(process)

    # Restart on the same state: the journal replays what the crash
    # interrupted; nothing is lost, nothing diverges.
    process, client = start_daemon(state)
    try:
        for spec in specs:
            fingerprint = job_fingerprint(spec)
            outcome = client.result(fingerprint=fingerprint, wait_s=180)
            assert outcome["payload"] == baselines[fingerprint], (
                f"recovered result diverged for {spec}"
            )

        # Re-running the whole campaign is now pure cache: every
        # submission hits, and the simulation counter does not move.
        simulations_before = client.metrics()["counters"]["simulations"]
        for spec in specs:
            response = client.submit(spec)
            assert response["cache_hit"] is True, (
                f"expected a cache hit for {spec}"
            )
        counters = client.metrics()["counters"]
        assert counters["simulations"] == simulations_before
        assert counters["cache_hits"] >= len(specs)

        # The journal survived both lives and still replays cleanly.
        from repro.service.journal import JobJournal

        unsettled, settled, _ = JobJournal.replay(
            state / "journal.jsonl"
        )
        assert not unsettled
        assert len(settled) >= len(specs)
    finally:
        client.shutdown()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        kill_group(process)
