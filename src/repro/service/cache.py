"""Content-addressed result store with end-to-end integrity checks.

One file per completed job, named by the job's
:func:`~repro.service.jobs.job_fingerprint` — or, when the directory is
a sweep ``checkpoint``, per completed task, named by its
:func:`~repro.harness.parallel.task_fingerprint`.  Entries are written
**atomically** (temp file in the same directory, ``fsync``, then
``os.replace``), so a crash — of a worker, the daemon, or the whole
host — can never leave a half-written entry under a valid name; at
worst it leaves an orphaned temp file that is ignored and swept.

Every entry embeds its own fingerprint and a sha256 digest of the
canonical payload JSON, so corruption that *does* reach the disk
(bit-rot, truncation by an unrelated tool, a mis-copied file) is
detected at read time: the entry is **quarantined** — renamed to
``<fingerprint>.corrupt-<n>`` beside the store, preserved for
post-mortem — and the read reports a miss, which makes the daemon
recompute rather than ever serving a corrupt payload.

Because entries are pure functions of the fingerprint, writes are
idempotent: two workers racing on the same job write equivalent
entries and either rename wins.
"""

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.service.jobs import SERVICE_FORMAT

_FINGERPRINT_LEN = 64  # sha256 hexdigest


def payload_digest(payload: Dict[str, object]) -> str:
    """sha256 of the canonical (sorted, separator-free) payload JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class CorruptEntry(ValueError):
    """A cache entry failed its integrity checks (for reporting)."""


class ResultCache:
    """Content-addressed store of job result payloads.

    Counters (``hits``/``misses``/``corrupt``) tally this instance's
    reads, feeding the service metrics.

    Args:
        root: Store directory (created if missing).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        """The entry path for a fingerprint (validated hex name)."""
        if (
            len(fingerprint) != _FINGERPRINT_LEN
            or not all(c in "0123456789abcdef" for c in fingerprint)
        ):
            raise ValueError(f"malformed fingerprint {fingerprint!r}")
        return self.root / fingerprint

    def _quarantine_path(self, fingerprint: str) -> Path:
        for attempt in range(10_000):
            candidate = self.root / f"{fingerprint}.corrupt-{attempt}"
            if not candidate.exists():
                return candidate
        raise RuntimeError(f"quarantine namespace exhausted: {fingerprint}")

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def put(self, fingerprint: str, payload: Dict[str, object]) -> Path:
        """Store one payload atomically; returns the entry path."""
        path = self.path_for(fingerprint)
        entry = {
            "format": SERVICE_FORMAT,
            "fingerprint": fingerprint,
            "sha256": payload_digest(payload),
            "payload": payload,
        }
        blob = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        temp = self.root / f".{fingerprint}.tmp-{os.getpid()}"
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        return path

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The stored payload, or ``None`` on miss *or* quarantine.

        A corrupt entry (not UTF-8, unparseable, wrong format tag,
        fingerprint not matching its filename, or payload digest
        mismatch) is renamed aside and counted, then reported as a
        miss — the caller's only correct reaction is to recompute, and
        the one thing this method guarantees is that a payload it
        returns passed its digest.
        """
        path = self.path_for(fingerprint)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            payload = self._verify(fingerprint, raw)
        except CorruptEntry:
            self.corrupt += 1
            self.misses += 1
            os.replace(path, self._quarantine_path(fingerprint))
            return None
        self.hits += 1
        return payload

    def _verify(self, fingerprint: str, raw: bytes) -> Dict[str, object]:
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CorruptEntry(f"undecodable entry: {error}") from error
        if not isinstance(entry, dict):
            raise CorruptEntry("entry is not an object")
        if entry.get("format") != SERVICE_FORMAT:
            raise CorruptEntry(
                f"wrong format tag {entry.get('format')!r}"
            )
        if entry.get("fingerprint") != fingerprint:
            raise CorruptEntry("fingerprint does not match entry name")
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            raise CorruptEntry("payload is not an object")
        if entry.get("sha256") != payload_digest(payload):
            raise CorruptEntry("payload digest mismatch")
        return payload

    def contains(self, fingerprint: str) -> bool:
        """Whether an entry file exists (no integrity check)."""
        return self.path_for(fingerprint).exists()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def fingerprints(self) -> List[str]:
        """Fingerprints of all (unquarantined) entries in the store."""
        return sorted(
            name for name in os.listdir(self.root)
            if len(name) == _FINGERPRINT_LEN
            and all(c in "0123456789abcdef" for c in name)
        )

    def quarantined(self) -> List[str]:
        """Names of quarantined entries (kept for post-mortem)."""
        return sorted(
            name for name in os.listdir(self.root)
            if ".corrupt-" in name
        )

    def sweep_temp(self) -> int:
        """Remove orphaned temp files from crashed writers."""
        removed = 0
        for name in os.listdir(self.root):
            if name.startswith(".") and ".tmp-" in name:
                try:
                    os.unlink(self.root / name)
                    removed += 1
                except OSError:
                    pass
        return removed
