"""Sweep-as-a-service: a crash-safe job daemon for the repro harness.

The service accepts simulation/sweep/audit/fuzz jobs over a
newline-delimited JSON TCP protocol (``repro.service/v1``), executes
them through the supervised parallel executor, and serves every
result from a content-addressed cache keyed by the job's normalized
spec fingerprint.  A write-ahead journal makes admission durable: a
``kill -9`` mid-campaign loses nothing — the restarted daemon replays
accepted-but-unfinished jobs to bit-identical results, serving
already-landed ones straight from cache.

Layers (each its own module, composable in tests without the daemon):

- :mod:`~repro.service.jobs` — specs, fingerprints, worker-side
  execution;
- :mod:`~repro.service.cache` — atomic content-addressed results with
  digest verification and corruption quarantine;
- :mod:`~repro.service.queue` — bounded priority admission (the
  overload valve);
- :mod:`~repro.service.breaker` — per-fingerprint circuit breaker for
  worker-killing jobs;
- :mod:`~repro.service.journal` — the write-ahead job journal;
- :mod:`~repro.service.metrics` — service counters on the Prometheus
  renderer;
- :mod:`~repro.service.protocol` / :mod:`~repro.service.client` — the
  wire format and a stdlib client;
- :mod:`~repro.service.daemon` — :class:`SweepService`, tying it all
  together.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.cache import CorruptEntry, ResultCache, payload_digest
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import SweepService
from repro.service.jobs import (
    CHAOS_MODES,
    JOB_KINDS,
    SERVICE_FORMAT,
    execute_job_task,
    job_fingerprint,
    normalize_spec,
    run_job,
)
from repro.service.journal import JobJournal
from repro.service.metrics import ServiceMetrics
from repro.service.queue import BoundedJobQueue

__all__ = [
    "CHAOS_MODES",
    "CircuitBreaker",
    "CorruptEntry",
    "JOB_KINDS",
    "JobJournal",
    "ResultCache",
    "SERVICE_FORMAT",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "SweepService",
    "BoundedJobQueue",
    "execute_job_task",
    "job_fingerprint",
    "normalize_spec",
    "payload_digest",
    "run_job",
]
