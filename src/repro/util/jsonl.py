"""Append-only JSONL files with torn-line tolerance.

The append-only durable artifacts in this repo are JSONL files: the
perf ledger (``repro.perf/v1``), JSONL trace exports, and the service
job journal (``repro.service/v1``).  Results themselves — service jobs
and sweep checkpoints alike — live one atomic file per entry in
:class:`repro.service.cache.ResultCache`.  The JSONL files share one
failure model — a writer appends one flushed line per record, so a
``kill -9`` mid-append leaves at most one *torn* (truncated, hence
undecodable) trailing line — and therefore the same reader: decode each
non-blank line, skip the ones a crashed writer tore.

This module is that one reader (plus the matching writer), so each new
journal format stops growing its own copy of the loop.  Two tolerance
levels:

* :func:`iter_jsonl_tolerant` / :func:`read_jsonl` — skip lines that do
  not decode.  Right for crash-tolerant journals where a torn tail is
  expected and harmless.
* :func:`iter_jsonl_strict` — raise on the first undecodable line.
  Right for machine-written exports that are re-read immediately (a
  garbled line there is a bug, not a crash artifact).

Neither skips *well-formed* lines of the wrong shape — format-tag
validation stays with each caller, because a cleanly-decoding line with
the wrong ``format`` is a wrong-file mistake that silently skipping
would hide.
"""

import json
from pathlib import Path
from typing import IO, Iterator, List, Union

_PathLike = Union[str, Path]


def iter_jsonl_strict(path: _PathLike) -> Iterator[object]:
    """Yield every decoded record; raise on the first garbled line.

    Blank lines are skipped (a flushed writer may legally end the file
    with a newline).  ``json.JSONDecodeError`` propagates, carrying the
    offending content.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def iter_jsonl_tolerant(path: _PathLike) -> Iterator[object]:
    """Yield decoded records, skipping torn/garbled lines and blanks.

    A crashed writer's partial append decodes as garbage and is dropped;
    every line that decodes — wherever it sits in the file — is yielded,
    so a mid-file tear (two writers racing, a recovered filesystem)
    costs only the damaged line, not the tail of the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def read_jsonl(
    path: _PathLike, missing_ok: bool = False
) -> List[object]:
    """All tolerantly-decoded records of ``path`` as a list.

    With ``missing_ok`` a nonexistent file reads as an empty history —
    the natural state of a journal nothing has appended to yet.
    """
    try:
        return list(iter_jsonl_tolerant(path))
    except FileNotFoundError:
        if missing_ok:
            return []
        raise


def append_jsonl(target: Union[_PathLike, IO[str]], record: object) -> None:
    """Append one record as a single flushed line.

    ``target`` may be a path (opened in append mode for the one write)
    or an already-open text handle (the caller keeps it; useful for
    long-lived journals).  One ``write`` + ``flush`` per record keeps
    the torn-line window to a single line.
    """
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    if hasattr(target, "write"):
        target.write(line)
        target.flush()
    else:
        with open(target, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
