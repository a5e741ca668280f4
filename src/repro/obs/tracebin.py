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
    optional: b"FTR0" u32 len <footer JSON: events/dropped/stride totals>

All integers are little-endian.  A torn file (killed writer) parses up
to its last complete segment; :func:`read_tracebin` is tolerant by
default and strict on request.  JSONL and Chrome ``trace_event`` remain
available as export views (:meth:`BinaryTracer.records`,
:meth:`BinaryTracer.write_chrome`, ``repro trace --convert``).
"""

import json
import os
from array import array
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.obs.trace import (
    DEFAULT_CAPACITY,
    EJECT,
    EVENT_FIELDS,
    EVENT_NAMES,
    INJECT,
    P1_GRANT,
    P2_BLOCK,
    P2_GRANT,
    TRACE_VERSION,
    iter_chrome_events,
    resource_label,
    write_chrome_stream,
)

#: Binary trace format tag (header ``format`` field).
TRACEBIN_FORMAT = "repro.trace_bin/v1"
#: File magic / chunk tags.
MAGIC = b"RPTB"
SEGMENT_MAGIC = b"SGMT"
FOOTER_MAGIC = b"FTR0"
#: Binary format version (bumped on layout changes).
TRACEBIN_VERSION = 1

#: Default file extension (CI artifacts, CLI defaults).
TRACEBIN_SUFFIX = ".tracebin"

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
    def _rows(self, timeline) -> Iterator[Tuple[int, int, int, int, int, int]]:
        """Replay tagged timeline entries as flat event rows, in order."""
        for entry in timeline:
            tag = entry[0]
            if tag == _T_RAW:
                yield entry[1:]
            elif tag == _T_EJECT:
                cycle = entry[1]
                for flit in entry[2]:
                    yield (cycle, EJECT, flit.src, flit.dst, flit.seq,
                           1 if flit.seq == flit.num_flits - 1 else 0)
            elif tag == _T_INJECT:
                for p in entry[1]:
                    yield (p.created_cycle, INJECT, p.src, p.dst,
                           p.num_flits, p.packet_id)
            elif tag == _T_COLUMNS:
                _, cycle, srcs, dsts, num_flits, first = entry
                ids = range(first, first + len(srcs))
                for packet_id, src, dst in zip(ids, srcs, dsts):
                    yield (cycle, INJECT, src, dst, num_flits, packet_id)
            elif tag == _T_COOL:
                cycle = entry[1]
                for rid, src, out, granted in entry[2]:
                    yield (cycle, 6, rid, src, out, granted)  # COOL
            elif tag == _T_VIA:
                cycle = entry[1]
                for port, dst, reason in entry[2]:
                    yield (cycle, 5, port, dst, reason, 0)  # VIA_BLOCK
            elif tag == _T_P1:
                cycle = entry[1]
                for rid, win in entry[2].items():
                    yield (cycle, P1_GRANT, rid, win.input_port,
                           win.dst_output, win.weight)
            else:  # _T_P2
                # Phase-2 grants were captured by the traced `_establish`
                # in sub-block order; the scalar stream interleaves
                # grants and blocks in phase-1 winner order, so merge.
                cycle = entry[1]
                granted = {
                    input_port: (out, cls)
                    for input_port, out, cls in entry[3]
                }
                for rid, win in entry[2].items():
                    input_port = win.input_port
                    grant = granted.get(input_port)
                    if grant is not None:
                        yield (cycle, P2_GRANT, rid, input_port,
                               grant[0], grant[1])
                    else:
                        yield (cycle, P2_BLOCK, rid, input_port,
                               win.dst_output, 0)

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
            counter = self._counter
            stride = self._stride
            if stride == 1:
                # Full-fidelity fast path: expand each batch column-wise
                # (one comprehension per column) instead of row-by-row —
                # the per-event constant is what bounds drain throughput.
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
                            kinds.extend([6] * count)  # COOL
                            rids, srcs, outs, grants = zip(*batch)
                            cola.extend(rids)
                            colb.extend(srcs)
                            colc.extend(outs)
                            cold.extend(grants)
                        else:
                            kinds.extend([5] * count)  # VIA_BLOCK
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
            else:
                for row in self._rows(timeline):
                    if counter % stride == 0:
                        cycles.append(row[0])
                        kinds.append(row[1])
                        cola.append(row[2])
                        colb.append(row[3])
                        colc.append(row[4])
                        cold.append(row[5])
                    counter += 1
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
            d=_as_np(self._d), lane=None, meta=self.meta(),
            total_events=self._counter, dropped=self.dropped,
            stride=self._stride, truncated=False,
        )

    def counts_by_kind(self) -> Dict[str, int]:
        """Event counts keyed by wire name (for summaries and tests)."""
        self.drain()
        counts: Dict[str, int] = {}
        kinds = self._kinds
        if not len(kinds):
            return counts
        binned = np.bincount(
            np.frombuffer(kinds, dtype=np.int32), minlength=len(EVENT_NAMES)
        )
        for kind, count in enumerate(binned):
            if count:
                counts[EVENT_NAMES[kind]] = int(count)
        return counts

    def halving_events(self) -> List[Tuple[int, int, int]]:
        """All CLRG halvings as ``(cycle, output, total_halvings)``."""
        self.drain()
        return [
            (cycle, a, b)
            for cycle, kind, a, b in zip(self._cycles, self._kinds,
                                         self._a, self._b)
            if kind == 7  # CLRG_HALVE
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
        self.drain()
        meta: Dict[str, object] = {
            "event": "meta",
            "version": TRACE_VERSION,
            "events": len(self._kinds),
            "dropped": self.dropped,
        }
        meta.update(self._meta_conf)
        return meta

    # ------------------------------------------------------------------
    # Export views
    # ------------------------------------------------------------------
    def records(self) -> Iterator[Dict[str, object]]:
        """Self-describing dict per event, meta record first (JSONL view)."""
        yield self.meta()
        fields = EVENT_FIELDS
        names = EVENT_NAMES
        for cycle, kind, a, b, c, d in zip(
            self._cycles, self._kinds, self._a, self._b, self._c, self._d
        ):
            record: Dict[str, object] = {
                "cycle": int(cycle), "event": names[kind],
            }
            payload = (int(a), int(b), int(c), int(d))
            for index, field in enumerate(fields[kind]):
                record[field] = payload[index]
            yield record

    def write_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write the JSONL export; returns the number of records written."""
        if hasattr(destination, "write"):
            handle = destination
            count = 0
            for record in self.records():
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
                count += 1
            return count
        with open(destination, "w", encoding="utf-8") as handle:
            return self.write_jsonl(handle)

    def write_chrome(self, destination: Union[str, IO[str]]) -> int:
        """Stream the Chrome trace_event export; returns the event count."""
        self.drain()
        events = zip(self._cycles, self._kinds, self._a, self._b,
                     self._c, self._d)
        return write_chrome_stream(
            destination, iter_chrome_events(events, self.resource_name)
        )

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
    traces).  This is the native input of
    :meth:`repro.obs.analyze.TraceAnalyzer.consume_columns`.
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
        for row in zip(self.cycle, self.kind, self.a, self.b,
                       self.c, self.d):
            yield tuple(int(x) for x in row)

    def jsonl_meta(self) -> Dict[str, object]:
        """The stream's meta record (JSONL view header)."""
        meta: Dict[str, object] = {
            "event": "meta",
            "version": TRACE_VERSION,
            "events": len(self.kind),
            "dropped": self.dropped,
        }
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
        for cycle, kind, a, b, c, d in zip(
            self.cycle, self.kind, self.a, self.b, self.c, self.d
        ):
            kind = int(kind)
            record: Dict[str, object] = {
                "cycle": int(cycle), "event": names[kind],
            }
            payload = (int(a), int(b), int(c), int(d))
            for index, field in enumerate(fields[kind]):
                record[field] = payload[index]
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

    def for_lane(self, lane: int) -> "TraceColumns":
        """The single-lane slice of a fleet trace (scalar-trace shaped)."""
        if self.lane is None:
            raise ValueError("trace has no lane column")
        mask = np.asarray(self.lane) == lane
        return TraceColumns(
            cycle=np.asarray(self.cycle)[mask],
            kind=np.asarray(self.kind)[mask],
            a=np.asarray(self.a)[mask], b=np.asarray(self.b)[mask],
            c=np.asarray(self.c)[mask], d=np.asarray(self.d)[mask],
            lane=None, meta=self.meta, dropped=self.dropped,
            stride=self.stride, truncated=self.truncated,
        )

    def lanes(self) -> List[int]:
        """Sorted distinct lane ids (empty for scalar traces)."""
        if self.lane is None:
            return []
        return sorted({int(entry) for entry in self.lane})


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
        handle.write(_u32(n))
        for column in (columns if lane is None else (*columns, lane)):
            handle.write(_column_bytes(column))
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
    if isinstance(column, np.ndarray):
        return column.astype(column.dtype.newbyteorder("<"),
                             copy=False).tobytes()
    import sys

    data = column.tobytes()
    if sys.byteorder == "big":  # pragma: no cover - x86/arm CI is LE
        swapped = array(column.typecode, column)
        swapped.byteswap()
        data = swapped.tobytes()
    return data


def _decode_column(buffer, offset: int, count: int, typecode: str):
    """One column from raw bytes, as a little-endian numpy view."""
    width = 8 if typecode == "q" else 4
    dtype = np.dtype("<i8" if typecode == "q" else "<i4")
    column = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
    return column, offset + count * width


def read_tracebin(path: Union[str, os.PathLike],
                  strict: bool = False) -> TraceColumns:
    """Read a ``repro.trace_bin/v1`` file into :class:`TraceColumns`.

    Tolerant by default: a torn file (no footer, or a final segment cut
    mid-write) yields every complete segment with ``truncated=True``.
    With ``strict=True`` any torn tail raises :class:`ValueError`.

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
    if version != TRACEBIN_VERSION:
        raise ValueError(
            f"unsupported trace_bin version {version} "
            f"(supported: {TRACEBIN_VERSION})"
        )
    header_len = int.from_bytes(view[8:12], "little")
    offset = 12 + header_len
    if offset > size:
        raise ValueError("truncated trace_bin header")
    try:
        header = json.loads(bytes(view[12:offset]))
    except ValueError as error:
        raise ValueError(f"malformed trace_bin header: {error}") from None
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
                truncated = True
            offset = end
            break
        if tag != SEGMENT_MAGIC or offset + 8 > size:
            truncated = True
            break
        count = int.from_bytes(view[offset + 4:offset + 8], "little")
        width = sum(8 if code == "q" else 4 for code in typecodes)
        if offset + 8 + count * width > size:
            truncated = True  # segment cut mid-write
            break
        cursor = offset + 8
        columns = []
        for code in typecodes:
            column, cursor = _decode_column(view, cursor, count, code)
            columns.append(column)
        segments.append(columns)
        offset = cursor
    if footer is None:
        truncated = True
    if truncated and strict:
        raise ValueError(
            f"torn trace_bin file (read {len(segments)} complete "
            f"segment(s)): {path}"
        )

    merged = _merge_segments(segments, typecodes)
    total = sum(len(segment[1]) for segment in segments)
    dropped = int(footer.get("dropped", 0)) if footer else 0
    stride = int(footer.get("stride", 1)) if footer else 1
    return TraceColumns(
        cycle=merged[0], kind=merged[1], a=merged[2], b=merged[3],
        c=merged[4], d=merged[5],
        lane=merged[6] if lane_column else None,
        meta=header.get("meta") or {},
        total_events=int(footer["events"]) if footer else total,
        dropped=dropped, stride=stride, truncated=truncated,
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

    def lane_columns(self, lane: int) -> TraceColumns:
        """One lane's full-fidelity stream (scalar-trace shaped)."""
        return self.columns().for_lane(lane)

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
