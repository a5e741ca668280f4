"""Binary columnar trace capture and the ``repro.trace_bin/v1`` format.

Recording one Python call and one tuple per event costs ~37% when
attached to the fast kernel — fine for smoke runs, unusable as an
always-on production mode.  :class:`BinaryTracer` avoids that with
*deferred batch capture*: the traced fast-kernel step appends a handful
of tagged entries per cycle to a timeline — in most cases references to
per-cycle structures the kernel already built (the ejected-flit list,
the phase-1 winners dict) — and the expansion into packed integer
columns happens lazily, outside the stepping loop.  The captured objects
are immutable after capture (flit/packet fields and ``_LocalWin``
records are never mutated once emitted), so the deferred expansion
replays the exact event stream the reference kernel records through
per-event :meth:`BinaryTracer.emit` calls; state-dependent payloads
(cooling grant cycles, phase-2 outcomes, viability reasons) are the
only values materialised eagerly.

Storage is columnar: one ``int64`` cycle column plus five ``int32``
payload columns (kind, a, b, c, d) in growable ``array`` buffers that
numpy can view zero-copy.  Memory is bounded two ways:

* **stride-doubling decimation** — past ``capacity`` events the columns
  are halved (every other event kept) and the sampling stride doubles,
  exactly like the engine's latency-sample decimation; or
* **spilling** — with a ``spill_path`` the columns are flushed to disk
  as ``repro.trace_bin/v1`` segments instead, keeping full fidelity.

The on-disk format (:data:`TRACEBIN_FORMAT`)::

    b"RPTB"  u32 version  u32 len  <header JSON, len bytes>
    repeat:  b"SGMT"  u32 n  cycle[i64*n] kind[i32*n] a b c d (i32*n each)
                              lane[i32*n]          (iff header "lane" true)
                              u32 crc32(n and the column bytes)
    optional: b"FTR0" u32 len <footer JSON: events/dropped/stride totals>

All integers are little-endian.  Version 1 files have no segment CRC;
the reader still accepts them.  A torn file (killed writer) parses up
to its last complete segment, and a segment whose CRC does not match
ends the read the same way; :func:`read_tracebin` is tolerant by
default and strict on request.

:class:`TraceColumns` is the one form every trace is read, filtered,
summarised, audited and exported in.  A JSONL trace (or any record
stream) becomes columns through :func:`record_chunks`, a chunk of
:data:`RECORD_CHUNK` events at a time (:func:`columns_from_records`
keeps them as one); :func:`read_trace` reads either file format whole.  JSONL and Chrome ``trace_event`` are export views
of the columns (:meth:`TraceColumns.write_jsonl`,
:meth:`TraceColumns.write_chrome`, ``repro trace --inspect``).
"""

import json
import os
import zlib
from array import array
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.obs.trace import (
    CLRG_HALVE,
    COOL,
    DEFAULT_CAPACITY,
    EJECT,
    EVENT_FIELDS,
    EVENT_NAMES,
    INJECT,
    P1_GRANT,
    P2_BLOCK,
    P2_GRANT,
    PORT_FIELDS,
    TRACE_VERSION,
    VIA_BLOCK,
    iter_chrome_events,
    resource_label,
    validate_record,
    write_chrome_stream,
)

#: Binary trace format tag (header ``format`` field).
TRACEBIN_FORMAT = "repro.trace_bin/v1"
#: File magic / chunk tags.
MAGIC = b"RPTB"
SEGMENT_MAGIC = b"SGMT"
FOOTER_MAGIC = b"FTR0"
#: Binary format version (bumped on layout changes): 2 added the
#: per-segment CRC.
TRACEBIN_VERSION = 2

#: Column order of every segment; ``cycle`` is int64, the rest int32.
COLUMNS = ("cycle", "kind", "a", "b", "c", "d")

# Timeline entry tags (first tuple element).  The traced kernels append
# these; drain() replays them into flat event rows in emission order.
_T_RAW = 0      # (tag, cycle, kind, a, b, c, d) — pre-expanded event
_T_INJECT = 1   # (tag, [Packet, ...]) — batch injection, created_cycle order
_T_COLUMNS = 2  # (tag, cycle, srcs, dsts, num_flits, first) — columns
_T_EJECT = 3    # (tag, cycle, [Flit, ...]) — this cycle's ejected list
_T_COOL = 4     # (tag, cycle, [(rid, src, out, granted), ...])
_T_VIA = 5      # (tag, cycle, [(port, dst, reason), ...])
_T_P1 = 6       # (tag, cycle, {rid: _LocalWin}) — insertion order
_T_P2 = 7       # (tag, cycle, {rid: _LocalWin}, [(in, out, cls), ...])

#: Events per column chunk when a record stream is parsed into columns.
RECORD_CHUNK = 1 << 16

#: How many timeline entries accumulate before the traced step asks the
#: tracer to drain (encode + decimate/spill).  ~6 entries/cycle at
#: saturation, so this is ~10k cycles of capture between drains.
DEFAULT_DRAIN_INTERVAL = 1 << 16


class BinaryTracer:
    """Columnar, deferred-capture switch tracer (binary-native).

    Two capture protocols feed one timeline.  Per-event ``emit`` /
    ``inject`` calls serve the reference and VOQ kernels, single-packet
    injection, the fault engine and the drain loop.  The fast kernel
    instead appends tagged per-cycle batches, the deferred capture that
    makes always-on tracing affordable; every kernel's column injection
    (:meth:`inject_columns`) is one such batch.  Every traced kernel
    drains the timeline once it reaches :attr:`drain_interval` entries,
    so ``capacity`` bounds memory during the run, not only at its end.
    Reads go through ``records`` / ``write_jsonl`` / ``write_chrome`` /
    ``counts_by_kind`` / ``halving_events`` / ``events``.

    Args:
        capacity: Bound on retained events.  Without a spill path the
            columns are stride-decimated past it (every other event
            kept, stride doubled — deterministic, so traced parity
            between kernels survives decimation).  ``None`` = unbounded.
        spill_path: Write overflowing columns to this
            ``repro.trace_bin/v1`` file instead of decimating (full
            fidelity, bounded memory).  The file is finalised by
            :meth:`save` (same path) or :meth:`close`.
    """

    __slots__ = (
        "timeline", "cycle", "capacity", "config", "drain_interval",
        "_cycles", "_kinds", "_a", "_b", "_c", "_d",
        "_counter", "_stride", "_meta_conf", "_writer", "_spill_path",
        "_spilled", "perf",
    )

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY,
                 spill_path: Optional[str] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("tracer capacity must be >= 1 or None")
        self.timeline: List[tuple] = []
        self.cycle = 0
        self.capacity = capacity
        self.config = None
        self.drain_interval = DEFAULT_DRAIN_INTERVAL
        self._cycles = array("q")
        self._kinds = array("i")
        self._a = array("i")
        self._b = array("i")
        self._c = array("i")
        self._d = array("i")
        self._counter = 0   # events ever captured (pre-decimation)
        self._stride = 1
        self._meta_conf: Dict[str, object] = {}
        self._writer: Optional[BinaryTraceWriter] = None
        self._spill_path = spill_path
        self._spilled = 0   # events already flushed to the spill file
        # Optional PerfCounters: set by a kernel constructed with both
        # perf= and this tracer; drains are then timed as "trace_drain".
        self.perf = None

    def bind(self, switch) -> None:
        """Attach the switch's configuration (resource naming, meta)."""
        config = getattr(switch, "config", None)
        self.config = config
        if config is not None:
            self._meta_conf = dict(
                radix=config.radix,
                layers=config.layers,
                channel_multiplicity=config.channel_multiplicity,
                arbitration=str(config.arbitration.value),
                allocation=str(config.allocation.value),
            )

    # ------------------------------------------------------------------
    # Per-event emission (reference and VOQ kernels, rare events)
    # ------------------------------------------------------------------
    def emit(self, kind: int, a: int = 0, b: int = 0, c: int = 0,
             d: int = 0) -> None:
        """Append one event at the tracer's current cycle."""
        self.timeline.append((_T_RAW, self.cycle, kind, a, b, c, d))

    def inject(self, cycle: int, src: int, dst: int, num_flits: int,
               packet_id: int) -> None:
        """Injection events carry their own cycle (they precede step())."""
        self.timeline.append((_T_RAW, cycle, INJECT, src, dst,
                              num_flits, packet_id))

    def inject_columns(self, cycle: int, srcs, dsts, num_flits: int,
                       first: int) -> None:
        """One cycle's column injection (packet ids ``first, first+1, ...``).

        Keeps references to ``srcs``/``dsts``; the injecting engine
        never mutates them, and :meth:`drain` expands them into one
        ``inject`` event per packet.
        """
        if srcs:
            self.timeline.append((_T_COLUMNS, cycle, srcs, dsts,
                                  num_flits, first))

    # ------------------------------------------------------------------
    # Deferred expansion: timeline -> columns
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Encode the captured timeline into the columns.

        Called by the traced kernel every :attr:`drain_interval`
        timeline entries and by every read/export path; cheap when the
        timeline is empty.  Applies the capacity policy: stride
        decimation, or a segment flush when spilling.  With
        :attr:`perf` attached, non-empty drains are timed as the
        ``trace_drain`` phase (op count = timeline entries encoded).
        """
        if self.perf is not None and self.timeline:
            import time as _time

            entries = len(self.timeline)
            start = _time.perf_counter_ns()
            self._drain_timeline()
            self.perf.add(
                "trace_drain", _time.perf_counter_ns() - start, entries
            )
            return
        self._drain_timeline()

    def _drain_timeline(self) -> None:
        timeline = self.timeline
        if timeline:
            self.timeline = []
            cycles = self._cycles
            kinds = self._kinds
            cola, colb, colc, cold = self._a, self._b, self._c, self._d
            counter = base = self._counter
            start = len(kinds)
            # Expand each batch column-wise (one comprehension per
            # column) instead of row by row: the per-event constant is
            # what bounds drain throughput.
            for entry in timeline:
                tag = entry[0]
                if tag == _T_EJECT:
                    cycle = entry[1]
                    flits = entry[2]
                    count = len(flits)
                    cycles.extend([cycle] * count)
                    kinds.extend([EJECT] * count)
                    cola.extend([f.src for f in flits])
                    colb.extend([f.dst for f in flits])
                    colc.extend([f.seq for f in flits])
                    cold.extend([
                        1 if f.seq == f.num_flits - 1 else 0
                        for f in flits
                    ])
                    counter += count
                elif tag == _T_INJECT:
                    packets = entry[1]
                    count = len(packets)
                    cycles.extend([p.created_cycle for p in packets])
                    kinds.extend([INJECT] * count)
                    cola.extend([p.src for p in packets])
                    colb.extend([p.dst for p in packets])
                    colc.extend([p.num_flits for p in packets])
                    cold.extend([p.packet_id for p in packets])
                    counter += count
                elif tag == _T_COLUMNS:
                    _, cycle, srcs, dsts, num_flits, first = entry
                    count = len(srcs)
                    cycles.extend([cycle] * count)
                    kinds.extend([INJECT] * count)
                    cola.extend(srcs)
                    colb.extend(dsts)
                    colc.extend([num_flits] * count)
                    cold.extend(range(first, first + count))
                    counter += count
                elif tag == _T_P1:
                    cycle = entry[1]
                    winners = entry[2]
                    count = len(winners)
                    wins = winners.values()
                    cycles.extend([cycle] * count)
                    kinds.extend([P1_GRANT] * count)
                    cola.extend(winners.keys())
                    colb.extend([w.input_port for w in wins])
                    colc.extend([w.dst_output for w in wins])
                    cold.extend([w.weight for w in wins])
                    counter += count
                elif tag == _T_P2:
                    cycle = entry[1]
                    granted = {
                        input_port: (out, cls)
                        for input_port, out, cls in entry[3]
                    }
                    lookup = granted.get
                    for rid, win in entry[2].items():
                        input_port = win.input_port
                        grant = lookup(input_port)
                        cycles.append(cycle)
                        if grant is not None:
                            kinds.append(P2_GRANT)
                            cola.append(rid)
                            colb.append(input_port)
                            colc.append(grant[0])
                            cold.append(grant[1])
                        else:
                            kinds.append(P2_BLOCK)
                            cola.append(rid)
                            colb.append(input_port)
                            colc.append(win.dst_output)
                            cold.append(0)
                        counter += 1
                elif tag == _T_COOL or tag == _T_VIA:
                    cycle = entry[1]
                    batch = entry[2]
                    count = len(batch)
                    cycles.extend([cycle] * count)
                    if tag == _T_COOL:
                        kinds.extend([COOL] * count)
                        rids, srcs, outs, grants = zip(*batch)
                        cola.extend(rids)
                        colb.extend(srcs)
                        colc.extend(outs)
                        cold.extend(grants)
                    else:
                        kinds.extend([VIA_BLOCK] * count)
                        ports, dsts, reasons = zip(*batch)
                        cola.extend(ports)
                        colb.extend(dsts)
                        colc.extend(reasons)
                        cold.extend([0] * count)
                    counter += count
                else:  # _T_RAW
                    cycles.append(entry[1])
                    kinds.append(entry[2])
                    cola.append(entry[3])
                    colb.append(entry[4])
                    colc.append(entry[5])
                    cold.append(entry[6])
                    counter += 1
            stride = self._stride
            if stride > 1:
                # Keep only the appended rows whose global event counter
                # is a multiple of the stride.
                keep = slice(-base % stride, None, stride)
                for column in (cycles, kinds, cola, colb, colc, cold):
                    column[start:] = column[start:][keep]
            self._counter = counter
        capacity = self.capacity
        if capacity is None or len(self._kinds) <= capacity:
            return
        if self._spill_path is not None:
            self._flush_segment()
        else:
            while len(self._kinds) > capacity:
                self._cycles = self._cycles[::2]
                self._kinds = self._kinds[::2]
                self._a = self._a[::2]
                self._b = self._b[::2]
                self._c = self._c[::2]
                self._d = self._d[::2]
                self._stride *= 2

    def _flush_segment(self) -> None:
        """Spill the current columns to the writer and reset them."""
        if self._writer is None:
            self._writer = BinaryTraceWriter(
                self._spill_path, meta=self._file_meta()
            )
        self._writer.append_segment(
            (self._cycles, self._kinds, self._a, self._b, self._c, self._d)
        )
        self._spilled += len(self._kinds)
        self._cycles = array("q")
        self._kinds = array("i")
        self._a = array("i")
        self._b = array("i")
        self._c = array("i")
        self._d = array("i")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        """Events currently retained in memory (post-decimation)."""
        self.drain()
        return len(self._kinds)

    @property
    def total_events(self) -> int:
        """Events ever captured (pre-decimation, including spilled)."""
        self.drain()
        return self._counter

    @property
    def dropped(self) -> int:
        """Events lost to stride decimation (0 at full fidelity)."""
        self.drain()
        return self._counter - self._spilled - len(self._kinds)

    @property
    def stride(self) -> int:
        """Current decimation stride (1 = every event kept)."""
        self.drain()
        return self._stride

    @property
    def events(self) -> List[Tuple[int, int, int, int, int, int]]:
        """Retained events as ``(cycle, kind, a, b, c, d)`` tuples."""
        self.drain()
        return list(zip(self._cycles, self._kinds, self._a, self._b,
                        self._c, self._d))

    def __len__(self) -> int:
        return self.num_events

    def columns(self) -> "TraceColumns":
        """The retained events as a :class:`TraceColumns` view.

        Zero-copy onto numpy; the analyzer's columnar ingestion path
        consumes this directly.
        """
        self.drain()
        return TraceColumns(
            cycle=_as_np(self._cycles), kind=_as_np(self._kinds),
            a=_as_np(self._a), b=_as_np(self._b), c=_as_np(self._c),
            d=_as_np(self._d), lane=None, meta=self._meta_conf,
            total_events=self._counter, dropped=self.dropped,
            stride=self._stride, truncated=False,
        )

    def counts_by_kind(self) -> Dict[str, int]:
        """Event counts keyed by wire name (for summaries and tests)."""
        return self.columns().counts_by_kind()

    def halving_events(self) -> List[Tuple[int, int, int]]:
        """All CLRG halvings as ``(cycle, output, total_halvings)``."""
        self.drain()
        return [
            (cycle, a, b)
            for cycle, kind, a, b in zip(self._cycles, self._kinds,
                                         self._a, self._b)
            if kind == CLRG_HALVE
        ]

    def resource_name(self, resource_id: int) -> str:
        """Human-readable name of a flat resource id (export labelling)."""
        config = self.config
        if config is None:
            return f"res{resource_id}"
        return resource_label(resource_id, config.radix, config.layers,
                              config.channel_multiplicity)

    def meta(self) -> Dict[str, object]:
        """The JSONL-style meta record for the retained events."""
        return self.columns().jsonl_meta()

    # ------------------------------------------------------------------
    # Export views (of :meth:`columns`)
    # ------------------------------------------------------------------
    def records(self) -> Iterator[Dict[str, object]]:
        """Self-describing dict per event, meta record first (JSONL view)."""
        return self.columns().records()

    def write_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write the JSONL export; returns the number of records written."""
        return self.columns().write_jsonl(destination)

    def write_chrome(self, destination: Union[str, IO[str]]) -> int:
        """Stream the Chrome trace_event export; returns the event count."""
        return self.columns().write_chrome(destination)

    # ------------------------------------------------------------------
    # Binary persistence
    # ------------------------------------------------------------------
    def _file_meta(self) -> Dict[str, object]:
        meta = dict(self._meta_conf)
        meta["capacity"] = self.capacity
        return meta

    def save(self, path: Union[str, os.PathLike]) -> int:
        """Write the ``repro.trace_bin/v1`` file; returns events written.

        In spill mode ``path`` must be the spill path; saving finalises
        the spill file (remaining columns + footer).
        """
        self.drain()
        if self._spill_path is not None:
            if os.fspath(path) != os.fspath(self._spill_path):
                raise ValueError(
                    "a spilling tracer saves to its spill_path "
                    f"({self._spill_path!r}), not {path!r}"
                )
            self._flush_segment()
            written = self._spilled
            self.close()
            return written
        writer = BinaryTraceWriter(path, meta=self._file_meta())
        try:
            writer.append_segment(
                (self._cycles, self._kinds, self._a, self._b,
                 self._c, self._d)
            )
            written = len(self._kinds)
        finally:
            writer.close(events=self._counter, dropped=self.dropped,
                         stride=self._stride)
        return written

    def close(self) -> None:
        """Finalise the spill file, if one is open."""
        if self._writer is not None:
            self._writer.close(events=self._counter,
                               dropped=self._counter - self._spilled,
                               stride=self._stride)
            self._writer = None


class BinaryTracerFactory:
    """Picklable ``callable() -> BinaryTracer`` for harness measurements.

    Unlike an arbitrary ``tracer_factory``, measurements recognise the
    :attr:`fleet_capable` marker and keep the batched fleet path (the
    fleet kernel emits binary traces natively, one tracer per lane)
    instead of falling back to scalar runs.
    """

    fleet_capable = True

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity

    def __call__(self) -> BinaryTracer:
        return BinaryTracer(capacity=self.capacity)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryTracerFactory):
            return NotImplemented
        return self.capacity == other.capacity

    def __hash__(self) -> int:
        return hash((BinaryTracerFactory, self.capacity))


# ---------------------------------------------------------------------------
# Columns container (file reads and in-memory views share it)
# ---------------------------------------------------------------------------
def _as_np(column):
    """numpy view of an array('i'/'q') column (zero-copy); empty stays."""
    if not len(column):
        return column
    return np.frombuffer(
        column, dtype=np.int64 if column.typecode == "q" else np.int32
    )


class TraceColumns:
    """Decoded columnar event data: six parallel integer sequences.

    ``cycle``/``kind``/``a``/``b``/``c``/``d`` are numpy arrays (an
    empty in-memory capture keeps its ``array.array``); ``lane`` is the
    optional per-lane column of fleet traces (``None`` for scalar
    traces).  Every trace view works on this form: :meth:`select`
    filters, :meth:`summary` totals, :meth:`records` /
    :meth:`write_jsonl` / :meth:`write_chrome` export, and
    :class:`repro.obs.analyze.TraceAnalyzer` audits.
    """

    __slots__ = ("cycle", "kind", "a", "b", "c", "d", "lane", "meta",
                 "total_events", "dropped", "stride", "truncated")

    def __init__(self, cycle, kind, a, b, c, d, lane=None,
                 meta: Optional[Dict[str, object]] = None,
                 total_events: Optional[int] = None, dropped: int = 0,
                 stride: int = 1, truncated: bool = False) -> None:
        self.cycle = cycle
        self.kind = kind
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.lane = lane
        self.meta = dict(meta) if meta else {}
        self.total_events = (
            total_events if total_events is not None else len(kind)
        )
        self.dropped = dropped
        self.stride = stride
        self.truncated = truncated

    def __len__(self) -> int:
        return len(self.kind)

    def iter_events(self) -> Iterator[Tuple[int, int, int, int, int, int]]:
        """Events as ``(cycle, kind, a, b, c, d)`` integer tuples."""
        columns = (self.cycle, self.kind, self.a, self.b, self.c, self.d)
        for start in range(0, len(self.kind), RECORD_CHUNK):
            end = start + RECORD_CHUNK
            yield from zip(*(column[start:end].tolist() for column in columns))

    def jsonl_meta(self) -> Dict[str, object]:
        """The stream's meta record (JSONL view header).

        ``stride`` is written only for a decimated trace (stride above
        1), so the export of an undecimated one is unchanged.
        """
        meta: Dict[str, object] = {
            "event": "meta",
            "version": TRACE_VERSION,
            "events": len(self.kind),
            "dropped": self.dropped,
        }
        if self.stride > 1:
            meta["stride"] = self.stride
        for key in ("radix", "layers", "channel_multiplicity",
                    "arbitration", "allocation"):
            if key in self.meta:
                meta[key] = self.meta[key]
        return meta

    def records(self) -> Iterator[Dict[str, object]]:
        """JSONL view: self-describing dicts, meta record first."""
        yield self.jsonl_meta()
        fields = EVENT_FIELDS
        names = EVENT_NAMES
        for cycle, kind, *payload in self.iter_events():
            record: Dict[str, object] = {"cycle": cycle, "event": names[kind]}
            record.update(zip(fields[kind], payload))
            yield record

    def resource_name(self, resource_id: int) -> str:
        """Reconstruct the resource label from the header geometry."""
        meta = self.meta
        return resource_label(
            resource_id, int(meta.get("radix", 0) or 0),
            int(meta.get("layers", 0) or 0),
            int(meta.get("channel_multiplicity", 0) or 0),
        )

    def write_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write the JSONL view; returns the number of records written."""
        if hasattr(destination, "write"):
            count = 0
            for record in self.records():
                destination.write(
                    json.dumps(record, separators=(",", ":")) + "\n"
                )
                count += 1
            return count
        with open(destination, "w", encoding="utf-8") as handle:
            return self.write_jsonl(handle)

    def write_chrome(self, destination: Union[str, IO[str]]) -> int:
        """Stream the Chrome trace_event view; returns the event count."""
        return write_chrome_stream(
            destination,
            iter_chrome_events(self.iter_events(), self.resource_name),
        )

    def _take(self, mask) -> "TraceColumns":
        """The rows under a boolean ``mask`` (same meta and decimation)."""
        return TraceColumns(
            *(np.asarray(column)[mask] for column in (
                self.cycle, self.kind, self.a, self.b, self.c, self.d)),
            lane=None if self.lane is None else np.asarray(self.lane)[mask],
            meta=self.meta, dropped=self.dropped, stride=self.stride,
            truncated=self.truncated,
        )

    def select(self, kinds: Optional[Iterable[str]] = None,
               ports: Optional[Iterable[int]] = None) -> "TraceColumns":
        """The events of the named ``kinds`` that touch one of ``ports``.

        An event touches a port when one of its port-valued fields
        (:data:`repro.obs.trace.PORT_FIELDS` among the kind's
        :data:`EVENT_FIELDS`) equals it.  ``None`` keeps every kind or
        port (with neither, this view itself is returned).  The
        result's meta record counts only the kept events, so its JSONL
        export is itself a valid trace.

        Raises:
            ValueError: On an event kind the schema does not define.
        """
        if kinds is None and ports is None:
            return self
        kind = np.asarray(self.kind)
        keep = np.ones(len(kind), dtype=bool)
        if kinds is not None:
            wanted = set(kinds)
            unknown = wanted - set(EVENT_NAMES.values())
            if unknown:
                raise ValueError(f"unknown event kind(s): {sorted(unknown)}")
            codes = [code for code, name in EVENT_NAMES.items()
                     if name in wanted]
            keep &= np.isin(kind, codes)
        if ports is not None:
            hits = [np.isin(np.asarray(column), list(ports))
                    for column in (self.a, self.b, self.c, self.d)]
            touched = np.zeros(len(kind), dtype=bool)
            for code, fields in EVENT_FIELDS.items():
                for slot, name in enumerate(fields):
                    if name in PORT_FIELDS:
                        touched |= (kind == code) & hits[slot]
            keep &= touched
        return self._take(keep)

    def counts_by_kind(self) -> Dict[str, int]:
        """Event counts keyed by wire name, in kind-code order."""
        binned = np.bincount(np.asarray(self.kind, dtype=np.int64),
                             minlength=len(EVENT_NAMES))
        return {EVENT_NAMES[kind]: int(count)
                for kind, count in enumerate(binned) if count}

    def summary(self) -> Dict[str, object]:
        """Event counts and per-resource / per-port totals.

        Returns a dict with ``events``, ``counts_by_kind``, per-resource
        ``resources`` (``grants`` from ``p2_grant``, ``busy_cycles``
        from ``cool`` hold intervals), per-port ``ports`` (``injected``
        packets at the source, ``ejected`` flits at the destination),
        and the meta record's fields as ``meta``.
        """
        cycle, kind, a, b, d = (
            np.asarray(column, dtype=np.int64)
            for column in (self.cycle, self.kind, self.a, self.b, self.d)
        )
        held = (kind == COOL) & (d >= 0) & (d < cycle)
        resources = {
            rid: {"grants": grants, "busy_cycles": 0}
            for rid, grants in _totals(a[kind == P2_GRANT]).items()
        }
        for rid, busy in _totals(a[held], (cycle - d)[held]).items():
            resources.setdefault(rid, {"grants": 0, "busy_cycles": 0})
            resources[rid]["busy_cycles"] = busy
        ports = {
            port: {"injected": injected, "ejected": 0}
            for port, injected in _totals(a[kind == INJECT]).items()
        }
        for port, ejected in _totals(b[kind == EJECT]).items():
            ports.setdefault(port, {"injected": 0, "ejected": 0})
            ports[port]["ejected"] = ejected
        meta = self.jsonl_meta()
        del meta["event"]
        return {
            "events": len(kind),
            "counts_by_kind": self.counts_by_kind(),
            "resources": resources,
            "ports": ports,
            "meta": meta,
        }

    def for_lane(self, lane: int) -> "TraceColumns":
        """The single-lane slice of a fleet trace (scalar-trace shaped)."""
        if self.lane is None:
            raise ValueError("trace has no lane column")
        view = self._take(np.asarray(self.lane) == lane)
        view.lane = None
        return view

    def lanes(self) -> List[int]:
        """Sorted distinct lane ids (empty for scalar traces)."""
        if self.lane is None:
            return []
        return sorted({int(entry) for entry in self.lane})


def _totals(keys, weights=None) -> Dict[int, int]:
    """Sum of ``weights`` (default 1 each) per distinct key."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, 1 if weights is None else weights)
    return dict(zip(uniq.tolist(), sums.tolist()))


def record_chunks(
    records: Iterable[Dict[str, object]],
) -> Tuple[Dict[str, object], Iterator[TraceColumns]]:
    """Parse a record stream into its meta record and column chunks.

    The stream must start with a meta record, which is returned as it
    is.  The event records follow as :class:`TraceColumns` chunks of at
    most :data:`RECORD_CHUNK` events (int64 columns, unused payload
    slots 0), built lazily, so a consumer holds one chunk at a time.
    Every record is checked with
    :func:`repro.obs.trace.validate_record`.

    Raises:
        ValueError: Here when the stream does not start with a meta
            record; while the chunks are drawn on an invalid record or a
            second meta record.
    """
    records = iter(records)
    meta = next(records, None)
    if not isinstance(meta, dict) or meta.get("event") != "meta":
        raise ValueError("trace must start with a meta record")
    validate_record(meta)
    return meta, _column_chunks(records)


def _column_chunks(records) -> Iterator[TraceColumns]:
    size = 6 * RECORD_CHUNK
    flat: List[int] = []
    for record in records:
        row = validate_record(record)
        if row is None:
            raise ValueError("trace has a second meta record")
        flat.extend(row)
        if len(flat) == size:
            yield _chunk(flat)
            flat = []
    if flat:
        yield _chunk(flat)


def _chunk(flat: List[int]) -> TraceColumns:
    rows = np.array(flat, dtype=np.int64).reshape(-1, 6)
    return TraceColumns(*np.ascontiguousarray(rows.T))


def columns_from_records(
    records: Iterable[Dict[str, object]],
) -> TraceColumns:
    """A whole record stream (meta first) as one :class:`TraceColumns`.

    The stream goes through :func:`record_chunks`; the meta record's
    geometry, ``dropped`` count and decimation ``stride`` carry over, so
    the JSONL export of the result reproduces an exported trace byte for
    byte.
    """
    meta, chunks = record_chunks(records)
    parts = [np.stack((chunk.cycle, chunk.kind, chunk.a, chunk.b,
                       chunk.c, chunk.d)) for chunk in chunks]
    rows = (np.concatenate(parts, axis=1) if parts
            else np.zeros((6, 0), dtype=np.int64))
    dropped = meta.get("dropped", 0)
    stride = meta.get("stride", 1)
    return TraceColumns(
        *rows, meta=meta,
        dropped=dropped if isinstance(dropped, int) else 0,
        stride=stride if isinstance(stride, int) and stride > 0 else 1,
    )


def read_trace(path: Union[str, os.PathLike]) -> TraceColumns:
    """Read a trace file of either format (sniffed by magic) whole.

    A ``repro.trace_bin/v1`` file goes through :func:`read_tracebin`,
    anything else is read as a JSONL trace.
    """
    if sniff_tracebin(path):
        return read_tracebin(path)
    from repro.util.jsonl import iter_jsonl_strict

    return columns_from_records(iter_jsonl_strict(path))


# ---------------------------------------------------------------------------
# File writer / reader
# ---------------------------------------------------------------------------
def _u32(value: int) -> bytes:
    return int(value).to_bytes(4, "little")


class BinaryTraceWriter:
    """Streaming ``repro.trace_bin/v1`` writer (segment-at-a-time).

    The header goes out on open, each :meth:`append_segment` is
    self-contained (a killed process leaves a readable prefix), and
    :meth:`close` appends the totals footer.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 meta: Optional[Dict[str, object]] = None,
                 lane_column: bool = False) -> None:
        self.path = os.fspath(path)
        self.lane_column = lane_column
        self.segments = 0
        self.events = 0
        header = {
            "format": TRACEBIN_FORMAT,
            "version": TRACEBIN_VERSION,
            "columns": list(COLUMNS) + (["lane"] if lane_column else []),
            "dtypes": {"cycle": "<i8", "kind": "<i4", "a": "<i4",
                       "b": "<i4", "c": "<i4", "d": "<i4",
                       **({"lane": "<i4"} if lane_column else {})},
            "lane": lane_column,
            "meta": dict(meta or {}),
        }
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        self._handle = open(self.path, "wb")
        self._handle.write(MAGIC)
        self._handle.write(_u32(TRACEBIN_VERSION))
        self._handle.write(_u32(len(blob)))
        self._handle.write(blob)

    def append_segment(self, columns, lane=None) -> int:
        """Write one segment; returns the number of events it holds.

        ``columns`` is the 6-tuple ``(cycle, kind, a, b, c, d)`` of
        ``array``/numpy columns; ``lane`` the per-lane column iff the
        writer was opened with ``lane_column=True``.
        """
        if self._handle is None:
            raise ValueError("writer is closed")
        n = len(columns[1])
        if any(len(column) != n for column in columns):
            raise ValueError("trace columns must have equal lengths")
        if self.lane_column:
            if lane is None or len(lane) != n:
                raise ValueError("lane column missing or mis-sized")
        elif lane is not None:
            raise ValueError("writer was opened without a lane column")
        if n == 0:
            return 0
        handle = self._handle
        handle.write(SEGMENT_MAGIC)
        count = _u32(n)
        handle.write(count)
        crc = zlib.crc32(count)
        for column in (columns if lane is None else (*columns, lane)):
            blob = _column_bytes(column)
            handle.write(blob)
            crc = zlib.crc32(blob, crc)
        handle.write(_u32(crc))
        self.segments += 1
        self.events += n
        return n

    def close(self, events: Optional[int] = None, dropped: int = 0,
              stride: int = 1) -> None:
        """Append the totals footer and close the file (idempotent)."""
        if self._handle is None:
            return
        footer = {
            "events": self.events if events is None else int(events),
            "written": self.events,
            "segments": self.segments,
            "dropped": int(dropped),
            "stride": int(stride),
        }
        blob = json.dumps(footer, separators=(",", ":")).encode("utf-8")
        self._handle.write(FOOTER_MAGIC)
        self._handle.write(_u32(len(blob)))
        self._handle.write(blob)
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _column_bytes(column) -> bytes:
    """Little-endian bytes of one column (array.array or numpy)."""
    column = np.asarray(column)
    return column.astype(column.dtype.newbyteorder("<"),
                         copy=False).tobytes()


def _decode_column(buffer, offset: int, count: int, typecode: str):
    """One column from raw bytes, as a little-endian numpy view."""
    width = 8 if typecode == "q" else 4
    dtype = np.dtype("<i8" if typecode == "q" else "<i4")
    column = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
    return column, offset + count * width


def read_tracebin(path: Union[str, os.PathLike],
                  strict: bool = False) -> TraceColumns:
    """Read a ``repro.trace_bin/v1`` file into :class:`TraceColumns`.

    Tolerant by default: a torn file (no footer, a final segment cut
    mid-write, a segment whose CRC does not match, or a footer that is
    not a JSON object with integer ``events``/``dropped``/``stride``)
    yields every complete segment before the damage with
    ``truncated=True``.  With ``strict=True`` any torn tail raises
    :class:`ValueError`.  Version 1 files (no segment CRC) are read
    without the check.

    Uses ``mmap`` + zero-copy numpy views, so a multi-gigabyte trace
    opens without materialising it.
    """
    import mmap

    with open(path, "rb") as handle:
        try:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            buffer = handle.read()  # empty files cannot be mapped
    view = memoryview(buffer)
    size = len(view)
    if size < 12 or bytes(view[:4]) != MAGIC:
        raise ValueError(f"not a {TRACEBIN_FORMAT} file: {path}")
    version = int.from_bytes(view[4:8], "little")
    if version not in (1, TRACEBIN_VERSION):
        raise ValueError(
            f"unsupported trace_bin version {version} "
            f"(supported: 1, {TRACEBIN_VERSION})"
        )
    crc_width = 4 if version >= 2 else 0
    header_len = int.from_bytes(view[8:12], "little")
    offset = 12 + header_len
    if offset > size:
        raise ValueError("truncated trace_bin header")
    try:
        header = json.loads(bytes(view[12:offset]))
    except ValueError as error:
        raise ValueError(f"malformed trace_bin header: {error}") from None
    if not isinstance(header, dict):
        raise ValueError("malformed trace_bin header: not a JSON object")
    if header.get("format") != TRACEBIN_FORMAT:
        raise ValueError(
            f"not a {TRACEBIN_FORMAT} file: format={header.get('format')!r}"
        )
    lane_column = bool(header.get("lane"))
    typecodes = ["q", "i", "i", "i", "i", "i"] + (
        ["i"] if lane_column else []
    )

    segments: List[List[object]] = []
    footer: Optional[Dict[str, object]] = None
    truncated = False
    while offset < size:
        tag = bytes(view[offset:offset + 4])
        if tag == FOOTER_MAGIC:
            if offset + 8 > size:
                truncated = True
                break
            blob_len = int.from_bytes(view[offset + 4:offset + 8], "little")
            end = offset + 8 + blob_len
            if end > size:
                truncated = True
                break
            try:
                footer = json.loads(bytes(view[offset + 8:end]))
            except ValueError:
                footer = None
            if not isinstance(footer, dict) or not all(
                isinstance(footer.get(key), int)
                for key in ("events", "dropped", "stride")
            ):
                footer = None  # a damaged footer reads as a torn tail
            offset = end
            break
        if tag != SEGMENT_MAGIC or offset + 8 > size:
            truncated = True
            break
        count = int.from_bytes(view[offset + 4:offset + 8], "little")
        width = sum(8 if code == "q" else 4 for code in typecodes)
        end = offset + 8 + count * width
        if end + crc_width > size:
            truncated = True  # segment cut mid-write
            break
        if crc_width and zlib.crc32(view[offset + 4:end]) != int.from_bytes(
            view[end:end + 4], "little"
        ):
            truncated = True  # damaged segment: count or columns
            break
        cursor = offset + 8
        columns = []
        for code in typecodes:
            column, cursor = _decode_column(view, cursor, count, code)
            columns.append(column)
        segments.append(columns)
        offset = cursor + crc_width
    if footer is None:
        truncated = True
    if truncated and strict:
        raise ValueError(
            f"torn trace_bin file (read {len(segments)} complete "
            f"segment(s)): {path}"
        )

    merged = _merge_segments(segments, typecodes)
    total = sum(len(segment[1]) for segment in segments)
    return TraceColumns(
        cycle=merged[0], kind=merged[1], a=merged[2], b=merged[3],
        c=merged[4], d=merged[5],
        lane=merged[6] if lane_column else None,
        meta=header.get("meta") or {},
        total_events=footer["events"] if footer else total,
        dropped=footer["dropped"] if footer else 0,
        stride=footer["stride"] if footer else 1, truncated=truncated,
    )


def _merge_segments(segments, typecodes):
    """Concatenate per-segment columns into whole-trace columns."""
    if not segments:
        merged = [
            np.empty(0, dtype=np.int64 if code == "q" else np.int32)
            for code in typecodes
        ]
    elif len(segments) == 1:
        merged = list(segments[0])
    else:
        merged = [
            np.concatenate([segment[index] for segment in segments])
            for index in range(len(typecodes))
        ]
    return merged + [None] * (7 - len(merged))


def sniff_tracebin(path: Union[str, os.PathLike]) -> bool:
    """True when ``path`` starts with the trace_bin magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(4) == MAGIC
    except OSError:
        return False


# ---------------------------------------------------------------------------
# Fleet capture (per-lane column, native fleet-kernel emission)
# ---------------------------------------------------------------------------
class FleetTracer:
    """Per-lane binary event capture for the fleet kernel.

    The fleet kernel (:class:`repro.core.fleet.FleetKernel`) appends one
    batch per (cycle, event-kind group): ``lanes`` plus per-event payload
    columns, with rows pre-ordered ``(lane, within-lane event order)``
    and batches appended in the scalar kernel's within-cycle kind order.
    Restricting the concatenated rows to a single lane therefore
    reproduces the scalar fast kernel's event stream for that lane
    exactly — :meth:`lane_tracer` materialises it as a
    :class:`BinaryTracer` (including capacity-driven stride decimation,
    which is drain-timing invariant), and :meth:`columns` exposes the
    whole fleet as one :class:`TraceColumns` with a ``lane`` column.

    The in-memory batches are full fidelity; ``capacity`` is the
    *per-lane* bound applied when a lane is extracted.  Batches are
    stored by reference: the kernel hands over freshly gathered arrays
    and never mutates them afterwards.
    """

    #: The fleet kernel and harness dispatch on this marker.
    fleet_capture = True

    __slots__ = ("num_lanes", "capacity", "config", "_batches", "_events",
                 "_meta_conf")

    def __init__(self, num_lanes: int,
                 capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if num_lanes < 1:
            raise ValueError("need at least one lane")
        if capacity is not None and capacity < 1:
            raise ValueError("tracer capacity must be >= 1 or None")
        self.num_lanes = num_lanes
        self.capacity = capacity
        self.config = None
        self._batches: List[tuple] = []
        self._events = 0
        self._meta_conf: Dict[str, object] = {}

    def bind(self, config) -> None:
        """Attach the fleet's shared configuration (accepts a switch too)."""
        config = getattr(config, "config", config)
        self.config = config
        if config is not None:
            self._meta_conf = dict(
                radix=config.radix,
                layers=config.layers,
                channel_multiplicity=config.channel_multiplicity,
                arbitration=str(config.arbitration.value),
                allocation=str(config.allocation.value),
            )

    # ------------------------------------------------------------------
    # Kernel-facing capture
    # ------------------------------------------------------------------
    def append_batch(self, cycle: int, lanes, kinds, a=0, b=0, c=0,
                     d=0) -> None:
        """Append one pre-ordered event batch.

        ``lanes`` is a sequence; ``kinds``/``a``-``d`` are matching
        sequences or scalars (broadcast over the batch).  Rows must
        already be in ``(lane, within-lane order)`` — the kernel sorts
        before appending.
        """
        count = len(lanes)
        if count == 0:
            return
        self._batches.append((int(cycle), lanes, kinds, a, b, c, d))
        self._events += count

    def append_row(self, cycle: int, lane: int, kind: int, a: int = 0,
                   b: int = 0, c: int = 0, d: int = 0) -> None:
        """Append one event (rare paths: faults, drain stalls)."""
        self._batches.append(
            (int(cycle), (int(lane),), int(kind), int(a), int(b),
             int(c), int(d))
        )
        self._events += 1

    # ------------------------------------------------------------------
    # Inspection / extraction
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        """Events captured (the merged view is full fidelity)."""
        return self._events

    @property
    def total_events(self) -> int:
        return self._events

    def __len__(self) -> int:
        return self._events

    def columns(self) -> TraceColumns:
        """All lanes merged as one lane-columned :class:`TraceColumns`."""
        n = self._events
        cycle = np.empty(n, dtype=np.int64)
        kind = np.empty(n, dtype=np.int32)
        cola = np.empty(n, dtype=np.int32)
        colb = np.empty(n, dtype=np.int32)
        colc = np.empty(n, dtype=np.int32)
        cold = np.empty(n, dtype=np.int32)
        lane = np.empty(n, dtype=np.int32)
        pos = 0
        for batch_cycle, lanes, kinds, a, b, c, d in self._batches:
            count = len(lanes)
            sl = slice(pos, pos + count)
            cycle[sl] = batch_cycle
            lane[sl] = lanes
            kind[sl] = kinds
            cola[sl] = a
            colb[sl] = b
            colc[sl] = c
            cold[sl] = d
            pos += count
        return TraceColumns(
            cycle=cycle, kind=kind, a=cola, b=colb, c=colc, d=cold,
            lane=lane, meta=dict(self._meta_conf), total_events=n,
            dropped=0, stride=1, truncated=False,
        )

    def lane_tracer(self, lane: int, columns: Optional[TraceColumns] = None
                    ) -> BinaryTracer:
        """One lane's stream as a :class:`BinaryTracer`.

        Applies this tracer's per-lane ``capacity`` through the normal
        drain path, so the result is event-for-event identical to a
        scalar :class:`BinaryTracer` capture of the same lane —
        including the stride decimation, which depends only on the
        event sequence, not on drain timing.  Pass a pre-computed
        ``columns()`` result to amortise the merge across lanes.
        """
        tracer = BinaryTracer(capacity=self.capacity)
        tracer.config = self.config
        tracer._meta_conf = dict(self._meta_conf)
        cols = (columns if columns is not None else self.columns()
                ).for_lane(lane)
        timeline = tracer.timeline
        for row in zip(cols.cycle.tolist(), cols.kind.tolist(),
                       cols.a.tolist(), cols.b.tolist(),
                       cols.c.tolist(), cols.d.tolist()):
            timeline.append((_T_RAW,) + row)
        tracer.drain()
        return tracer

    def lanes(self) -> List[int]:
        """All lane indices, `[0, num_lanes)`."""
        return list(range(self.num_lanes))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, os.PathLike]) -> int:
        """Write all lanes as one lane-columned trace_bin file."""
        cols = self.columns()
        meta = dict(self._meta_conf)
        meta["lanes"] = self.num_lanes
        meta["capacity"] = self.capacity
        writer = BinaryTraceWriter(path, meta=meta, lane_column=True)
        try:
            writer.append_segment(
                (cols.cycle, cols.kind, cols.a, cols.b, cols.c, cols.d),
                lane=cols.lane,
            )
        finally:
            writer.close(events=self._events, dropped=0, stride=1)
        return self._events
