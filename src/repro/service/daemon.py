"""The sweep service daemon: crash-safe job execution over TCP.

:class:`SweepService` ties the service pieces into one long-running
process:

- a :class:`~repro.service.queue.BoundedJobQueue` as the overload
  valve (full queue → structured ``overloaded`` rejection with a
  ``retry_after_s`` hint),
- a :class:`~repro.service.journal.JobJournal` written **ahead** of
  queueing, so a ``kill -9`` loses no accepted job,
- a :class:`~repro.service.cache.ResultCache` holding every result
  content-addressed by job fingerprint (submit-time hits answer
  without touching a worker; corrupt entries are quarantined and the
  job silently recomputed),
- a :class:`~repro.service.breaker.CircuitBreaker` keyed by job
  fingerprint, shared with the sweep executor so deterministic
  worker-killers stop being retried *and* stop being admitted,
- the supervised parallel executor from
  :mod:`repro.harness.parallel` doing the actual work in batches,
  with per-fingerprint jittered backoff.

The dispatcher thread drains the queue into executor batches; a
:class:`ServiceMetrics` instance counts every admission, shed, retry,
crash, and cache outcome, and renders the lot through the existing
Prometheus text exposition.

Startup replays the journal: settled jobs are re-registered so
``status``/``result`` keep answering across restarts, unsettled jobs
are completed straight from cache when their result already landed
(zero re-simulation) and re-enqueued otherwise.  Jobs being pure
functions of their specs, the recovered run's results are
bit-identical to an uninterrupted one.
"""

import json
import os
import socketserver
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.harness.parallel import (
    ResiliencePolicy,
    TaskFailure,
    _execute_tasks,
)
from repro.service import protocol
from repro.service.breaker import CircuitBreaker
from repro.service.cache import ResultCache
from repro.service.jobs import (
    execute_job_task,
    job_fingerprint,
    normalize_spec,
)
from repro.service.journal import JobJournal
from repro.service.metrics import ServiceMetrics
from repro.service.queue import BoundedJobQueue

_Job = Dict[str, object]


class _BatchChannel:
    """Telemetry adapter: executor heartbeats → job state transitions.

    The executor reports completions and failures through
    the telemetry duck-type (``start``/``record``/``record_failure``);
    this adapter turns those into service-level bookkeeping, so a job
    becomes visible to ``result`` waiters the moment its worker
    finishes — not when the whole batch does.
    """

    def __init__(self, service: "SweepService",
                 jobs: List[_Job]) -> None:
        self._service = service
        self._jobs = jobs

    def start(self, total: int) -> None:  # executor duck-type
        pass

    def record(self, heartbeat) -> None:
        self._service._job_finished(
            self._jobs[heartbeat.index], heartbeat.wall_s
        )

    def record_failure(self, kind: str) -> None:
        metrics = self._service.metrics
        metrics.bump("retries")
        if kind == "crash":
            metrics.bump("crashes")
        elif kind == "timeout":
            metrics.bump("timeouts")


class _ServiceServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    service: "SweepService"


class _Handler(socketserver.StreamRequestHandler):
    """One NDJSON request line in, one response line out; repeat."""

    def handle(self) -> None:
        service = self.server.service
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_LINE_BYTES + 2)
            except OSError:
                return
            if not line:
                return
            if not line.strip():
                continue
            op = None
            try:
                message = protocol.decode_line(line)
                op = message.get("op")
                response = service.handle(message)
            except ValueError as error:
                response = protocol.error("bad_request", str(error))
            except Exception as error:  # a handler bug must not
                response = protocol.error(  # wedge the connection
                    "internal", repr(error)
                )
            try:
                self.wfile.write(protocol.encode(response))
                self.wfile.flush()
            except OSError:
                return
            finally:
                if op == "shutdown":
                    # Stop only once the acknowledgement is on the wire
                    # (or cannot be sent): a stopped service lets
                    # `repro serve` exit, cutting off an unsent reply.
                    threading.Thread(
                        target=service.stop, name="repro-service-stop",
                        daemon=True,
                    ).start()
            if op == "shutdown":
                return


class SweepService:
    """A crash-safe sweep/audit/fuzz job daemon.

    Args:
        state_dir: Durable state root — holds ``journal.jsonl``, the
            ``cache/`` store, and the ``chaos/`` drill markers.  Point
            a restarted daemon at the same directory to recover.
        host, port: Listen address; port 0 picks an ephemeral port
            (read it back from :attr:`address` after :meth:`start`).
        workers: Executor pool width per batch.
        queue_limit: Bound on admitted-but-undispatched jobs; the
            overload knob.
        max_batch: Jobs dispatched to the executor per batch.  1 keeps
            batches independent (deterministic breaker drills);
            larger amortises pool spin-up across a campaign.
        breaker_threshold: Consecutive worker crashes that quarantine
            a job fingerprint.
        task_timeout / max_retries / backoff_base / backoff_cap /
        backoff_jitter / jitter_seed: Forwarded into the per-batch
            :class:`ResiliencePolicy`.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_limit: int = 32,
        max_batch: int = 8,
        breaker_threshold: int = 3,
        task_timeout: Optional[float] = None,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_jitter: float = 0.5,
        jitter_seed: int = 0,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.state_dir / "journal.jsonl"
        self.chaos_dir = self.state_dir / "chaos"
        self.chaos_dir.mkdir(exist_ok=True)
        self.cache = ResultCache(self.state_dir / "cache")
        self.breaker = CircuitBreaker(threshold=breaker_threshold)
        self.queue = BoundedJobQueue(queue_limit)
        self.metrics = ServiceMetrics()
        self.workers = int(workers)
        self.max_batch = max(1, int(max_batch))
        self._policy_fields = dict(
            task_timeout=task_timeout,
            max_retries=max_retries,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            backoff_jitter=backoff_jitter,
            jitter_seed=jitter_seed,
        )
        self._host = host
        self._port = int(port)
        self._jobs: Dict[str, _Job] = {}
        self._inflight_fp: Dict[str, str] = {}
        self._carryover: Deque[_Job] = deque()
        self._next_sequence = 0
        self._inflight_count = 0
        self._mean_wall = 1.0
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._stopping = False
        self._started = False
        self.journal: Optional[JobJournal] = None
        self._server: Optional[_ServiceServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._dispatcher: Optional[threading.Thread] = None
        self.metrics.queue_depth_fn = (
            lambda: self.queue.depth + len(self._carryover)
        )
        self.metrics.inflight_fn = lambda: self._inflight_count
        self.metrics.breaker_open_fn = (
            lambda: len(self.breaker.open_keys())
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> "tuple":
        """``(host, port)`` actually bound (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("service is not started")
        return self._server.server_address

    def start(self) -> None:
        """Recover from the journal, then begin serving and dispatching."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._recover()
        self._server = _ServiceServer(
            (self._host, self._port), _Handler
        )
        self._server.service = self
        # ``shutdown()`` waits out one poll of ``serve_forever``; the
        # default 0.5 s poll would make every ``stop()`` take that long.
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service-tcp", daemon=True,
        )
        self._server_thread.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-service-dispatch", daemon=True,
        )
        self._dispatcher.start()

    def wait(self) -> None:
        """Block until the daemon stops (a ``shutdown`` op or SIGTERM)."""
        while (
            self._server_thread is not None
            and self._server_thread.is_alive()
        ):
            self._server_thread.join(timeout=0.5)

    def stop(self) -> None:
        """Stop serving and dispatching; close the journal. Idempotent."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            self._changed.notify_all()
        self.queue.close()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=30.0)
        if self.journal is not None:
            self.journal.close()

    def _recover(self) -> None:
        """Replay the journal: settle what the cache settles, requeue the rest."""
        unsettled, settled, next_sequence = JobJournal.replay(
            self.journal_path
        )
        self._next_sequence = next_sequence
        self.journal = JobJournal(self.journal_path)
        for job_id, row in settled.items():
            self._jobs[job_id] = {
                "job_id": job_id,
                "fingerprint": row.get("fingerprint"),
                "spec": row.get("spec"),
                "priority": row.get("priority", 0),
                "state": row.get("state", "completed"),
                "source": row.get("source"),
                "error": row.get("error"),
            }
        for row in unsettled:
            job_id = row["job_id"]
            fingerprint = row["fingerprint"]
            job: _Job = {
                "job_id": job_id,
                "fingerprint": fingerprint,
                "spec": row["spec"],
                "priority": row.get("priority", 0),
                "state": "queued",
                "source": None,
                "error": None,
                "recovered": True,
            }
            self._jobs[job_id] = job
            payload = self._cache_read(fingerprint, count=True)
            if payload is not None:
                # The result landed before the crash did: serve it
                # forever, recompute never.
                job["state"] = "completed"
                job["source"] = "cache"
                self.journal.done(job_id, "completed", "cache")
                self.metrics.bump("completed")
            else:
                self._inflight_fp[fingerprint] = job_id
                if not self.queue.offer(job, int(job["priority"])):
                    self._carryover.append(job)

    # ------------------------------------------------------------------
    # Wire dispatch
    # ------------------------------------------------------------------
    def handle(self, message: Dict[str, object]) -> Dict[str, object]:
        """One decoded request → one response dict."""
        op = message.get("op")
        if op == "ping":
            return protocol.ok(
                pid=os.getpid(),
                jobs=len(self._jobs),
                queue_depth=self.queue.depth,
            )
        if op == "submit":
            return self._handle_submit(message)
        if op == "status":
            return self._handle_status(message)
        if op == "result":
            return self._handle_result(message)
        if op == "jobs":
            with self._lock:
                snapshots = [
                    self._snapshot(job)
                    for _, job in sorted(self._jobs.items())
                ]
            return protocol.ok(jobs=snapshots)
        if op == "metrics":
            return protocol.ok(
                counters=self.metrics.snapshot(),
                prometheus=self.metrics.to_prometheus(),
            )
        if op == "shutdown":
            # The connection handler calls stop() after sending this.
            return protocol.ok(stopping=True)
        return protocol.error(
            "bad_request", f"unknown op {op!r} (one of {protocol.OPS})"
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _handle_submit(
        self, message: Dict[str, object]
    ) -> Dict[str, object]:
        if self._stopping:
            return protocol.error("shutting_down")
        try:
            spec = normalize_spec(message.get("spec"))
            fingerprint = job_fingerprint(spec)
            priority = int(message.get("priority", 0) or 0)
        except (ValueError, TypeError) as error:
            self.metrics.bump("rejected_invalid")
            return protocol.error("invalid_spec", str(error))
        if self.breaker.is_open(fingerprint):
            self.metrics.bump("rejected_quarantined")
            return protocol.error(
                "quarantined",
                "this job keeps crashing workers; its circuit is open",
                fingerprint=fingerprint,
            )
        payload = self._cache_read(fingerprint, count=True)
        with self._lock:
            if payload is not None:
                job = self._new_job(spec, fingerprint, priority)
                job["state"] = "completed"
                job["source"] = "cache"
                self.journal.accepted(
                    job["job_id"], fingerprint, spec, priority
                )
                self.journal.done(job["job_id"], "completed", "cache")
                self.metrics.bump("accepted")
                self.metrics.bump("completed")
                self._changed.notify_all()
                return protocol.ok(
                    job_id=job["job_id"], fingerprint=fingerprint,
                    state="completed", source="cache", cache_hit=True,
                )
            existing = self._inflight_fp.get(fingerprint)
            if existing is not None:
                self.metrics.bump("coalesced")
                return protocol.ok(
                    job_id=existing, fingerprint=fingerprint,
                    state=self._jobs[existing]["state"],
                    coalesced=True,
                )
            if self.queue.is_full:
                self.metrics.bump("rejected_overload")
                return protocol.error(
                    "overloaded",
                    "job queue is full; retry after the hinted delay",
                    retry_after_s=self._retry_after(),
                )
            job = self._new_job(spec, fingerprint, priority)
            # Write-ahead: the journal line lands before the queue
            # (and before the client hears "accepted"), so a crash
            # after this point cannot lose the job.
            self.journal.accepted(
                job["job_id"], fingerprint, spec, priority
            )
            self._inflight_fp[fingerprint] = job["job_id"]
            if not self.queue.offer(job, priority):
                self._carryover.append(job)
            self.metrics.bump("accepted")
            return protocol.ok(
                job_id=job["job_id"], fingerprint=fingerprint,
                state="queued", cache_hit=False,
            )

    def _new_job(self, spec: Dict[str, object], fingerprint: str,
                 priority: int) -> _Job:
        job_id = f"job-{self._next_sequence}"
        self._next_sequence += 1
        job: _Job = {
            "job_id": job_id,
            "fingerprint": fingerprint,
            "spec": spec,
            "priority": priority,
            "state": "queued",
            "source": None,
            "error": None,
        }
        self._jobs[job_id] = job
        return job

    def _retry_after(self) -> float:
        backlog = (
            self.queue.depth + len(self._carryover)
            + self._inflight_count
        )
        return round(
            max(0.25, backlog * self._mean_wall / max(self.workers, 1)),
            3,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _snapshot(self, job: _Job) -> Dict[str, object]:
        spec = job.get("spec") or {}
        return {
            "job_id": job["job_id"],
            "fingerprint": job["fingerprint"],
            "kind": spec.get("kind") if isinstance(spec, dict) else None,
            "priority": job.get("priority", 0),
            "state": job["state"],
            "source": job.get("source"),
            "error": job.get("error"),
        }

    def _handle_status(
        self, message: Dict[str, object]
    ) -> Dict[str, object]:
        job_id = message.get("job_id")
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return protocol.error(
                    "unknown_job", f"no job {job_id!r}"
                )
            return protocol.ok(job=self._snapshot(job))

    def _handle_result(
        self, message: Dict[str, object]
    ) -> Dict[str, object]:
        job_id = message.get("job_id")
        fingerprint = message.get("fingerprint")
        try:
            wait_s = max(0.0, float(message.get("wait_s", 0.0) or 0.0))
        except (TypeError, ValueError):
            return protocol.error("bad_request", "wait_s must be a number")
        deadline = time.monotonic() + wait_s
        while True:
            with self._lock:
                job = None
                if isinstance(job_id, str):
                    job = self._jobs.get(job_id)
                    if job is None:
                        return protocol.error(
                            "unknown_job", f"no job {job_id!r}"
                        )
                elif isinstance(fingerprint, str):
                    job = self._latest_by_fingerprint(fingerprint)
                if job is None:
                    if isinstance(fingerprint, str):
                        payload = self._cache_read(fingerprint)
                        if payload is not None:
                            return protocol.ok(
                                fingerprint=fingerprint,
                                state="completed", source="cache",
                                payload=payload,
                            )
                    return protocol.error(
                        "unknown_job",
                        "pass job_id or a known fingerprint",
                    )
                state = job["state"]
                if state == "failed":
                    return protocol.ok(job=self._snapshot(job))
                if state == "completed":
                    payload = self._cache_read(job["fingerprint"])
                    if payload is not None:
                        response = self._snapshot(job)
                        return protocol.ok(job=response, payload=payload)
                    # The entry went corrupt (or missing) after the
                    # job settled: it was quarantined by the read —
                    # recompute rather than ever serving bad bytes.
                    self._requeue(job)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return protocol.error(
                        "timeout",
                        f"job {job['job_id']} still {job['state']} "
                        f"after {wait_s}s",
                        job_id=job["job_id"], state=job["state"],
                    )
                self._changed.wait(min(remaining, 0.5))

    def _latest_by_fingerprint(
        self, fingerprint: str
    ) -> Optional[_Job]:
        best: Optional[_Job] = None
        for job in self._jobs.values():
            if job.get("fingerprint") != fingerprint:
                continue
            if best is None or job["job_id"] > best["job_id"]:
                best = job
        return best

    def _requeue(self, job: _Job) -> None:
        """Send a settled-but-unservable job back through the executor."""
        job["state"] = "queued"
        job["source"] = None
        self._inflight_fp.setdefault(
            str(job["fingerprint"]), str(job["job_id"])
        )
        self._carryover.append(job)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _cache_read(self, fingerprint: str,
                    count: bool = False) -> Optional[Dict[str, object]]:
        """A cache lookup that keeps the service counters honest."""
        corrupt_before = self.cache.corrupt
        payload = self.cache.get(fingerprint)
        newly_corrupt = self.cache.corrupt - corrupt_before
        if newly_corrupt:
            self.metrics.bump("cache_corrupt", newly_corrupt)
        if count:
            self.metrics.bump(
                "cache_hits" if payload is not None else "cache_misses"
            )
        return payload

    def _dispatch_loop(self) -> None:
        while not self._stopping:
            batch: List[_Job] = []
            with self._lock:
                while self._carryover and len(batch) < self.max_batch:
                    batch.append(self._carryover.popleft())
            want = self.max_batch - len(batch)
            if want > 0:
                batch.extend(self.queue.take(
                    want, timeout=0.0 if batch else 0.2
                ))
            if not batch:
                continue
            self._run_batch(batch)

    def _run_batch(self, jobs: List[_Job]) -> None:
        with self._lock:
            for job in jobs:
                job["state"] = "running"
            self._inflight_count = len(jobs)
        tasks = [
            (
                execute_job_task,
                {
                    "spec_json": json.dumps(
                        job["spec"], sort_keys=True,
                        separators=(",", ":"),
                    ),
                    "cache_root": str(self.cache.root),
                    "chaos_dir": str(self.chaos_dir),
                },
                0,
            )
            for job in jobs
        ]
        policy = ResiliencePolicy(
            breaker=self.breaker,
            breaker_keys=tuple(job["fingerprint"] for job in jobs),
            **self._policy_fields,
        )
        channel = _BatchChannel(self, jobs)
        try:
            _execute_tasks(tasks, self.workers, policy, telemetry=channel)
        except TaskFailure as failure:
            self._job_failed(
                jobs[failure.index], repr(failure.cause)
            )
            with self._lock:
                # Innocent batch-mates go back in line; each pass
                # through here removes at least the one failed job,
                # so the recursion-by-carryover terminates.
                for job in jobs:
                    if job["state"] == "running":
                        job["state"] = "queued"
                        self._carryover.append(job)
        except Exception as error:  # the dispatcher must outlive bugs
            with self._lock:
                victims = [
                    job for job in jobs if job["state"] == "running"
                ]
            for job in victims:
                self._job_failed(job, repr(error))
        finally:
            with self._lock:
                self._inflight_count = 0

    def _job_finished(self, job: _Job, wall_s: float) -> None:
        with self._lock:
            if job["state"] == "completed":
                return
            job["state"] = "completed"
            job["source"] = "computed"
            self._inflight_fp.pop(str(job["fingerprint"]), None)
            self.journal.done(
                str(job["job_id"]), "completed", "computed"
            )
            self.metrics.bump("completed")
            self.metrics.bump("simulations")
            self._mean_wall = 0.8 * self._mean_wall + 0.2 * wall_s
            self._changed.notify_all()

    def _job_failed(self, job: _Job, error: str) -> None:
        with self._lock:
            job["state"] = "failed"
            job["error"] = error
            self._inflight_fp.pop(str(job["fingerprint"]), None)
            self.journal.done(
                str(job["job_id"]), "failed", "computed", error=error
            )
            self.metrics.bump("failed")
            self._changed.notify_all()
