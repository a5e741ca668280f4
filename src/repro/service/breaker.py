"""Per-key circuit breaker for jobs that keep killing workers.

A job whose simulation segfaults (or, in drills, calls ``os._exit``)
does not get better by being retried: every attempt costs a worker
process, a pool rebuild, and a slot another job could have used.  The
breaker counts **consecutive** crashes per key — here, per job
fingerprint, so the quarantine follows the *content* of the job across
resubmissions and daemon restarts within a process lifetime — and opens
at a threshold.  An open key fails fast: the sweep executor stops
retrying it (see ``ResiliencePolicy.breaker``) and the daemon rejects
new submissions of the same fingerprint with a structured
``quarantined`` response.

A success resets the streak (the crash was transient, e.g. an OOM kill
under memory pressure), which is what distinguishes the breaker from a
simple retry cap: transient crashes pay one rebuild and move on,
deterministic crashers get cut off after ``threshold`` attempts
*total*, however generous the retry budget is.
"""

import threading
from typing import Dict, List


class CircuitBreaker:
    """Consecutive-crash counting with an open/closed state per key.

    Duck-type contract consumed by
    :class:`repro.harness.parallel.ResiliencePolicy`:
    ``record_crash(key) -> bool`` (True when the breaker is now open),
    ``record_success(key)``, ``is_open(key)``.

    Args:
        threshold: Consecutive crashes that open a key's circuit.
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = int(threshold)
        self._streaks: Dict[object, int] = {}
        self._open: Dict[object, bool] = {}
        self._lock = threading.Lock()

    def record_crash(self, key: object) -> bool:
        """Count one worker crash against ``key``; True if now open."""
        with self._lock:
            streak = self._streaks.get(key, 0) + 1
            self._streaks[key] = streak
            if streak >= self.threshold:
                self._open[key] = True
            return self._open.get(key, False)

    def record_success(self, key: object) -> None:
        """A completed attempt: the streak was transient, reset it."""
        with self._lock:
            self._streaks.pop(key, None)

    def is_open(self, key: object) -> bool:
        """Whether ``key``'s circuit is open (fail fast, reject)."""
        with self._lock:
            return self._open.get(key, False)

    def reset(self, key: object) -> None:
        """Manually close a key's circuit (operator override)."""
        with self._lock:
            self._streaks.pop(key, None)
            self._open.pop(key, None)

    def open_keys(self) -> List[object]:
        """Every key whose circuit is currently open."""
        with self._lock:
            return [key for key, is_open in self._open.items() if is_open]
