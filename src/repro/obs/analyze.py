"""Streaming trace analytics: raw event streams to audited run reports.

The tracers (:mod:`repro.obs.tracebin`) produce cycle-level event
streams, but nothing *read* them: the paper's headline fairness
claim (two-phase LRG starves the hotspot layer's own inputs; CLRG
restores per-input fairness) was only visible by eyeballing aggregate
throughput.  This module turns a trace into an **audit report** the way
the Tiny Tera line of work treats arbiter fairness — as a first-class,
measured property:

* **per-primary-input service timelines** — phase-2 grants per input,
  overall and per fairness window (epoch), condensed with the indices
  from :mod:`repro.metrics.fairness`;
* **starvation windows** — the longest gap between grants for each
  input while it was backlogged (had undelivered flits in flight);
* **CLRG class dynamics** — grant counts by priority class and the
  per-output counter-bank halving history, reconstructed from
  ``p2_grant``/``clrg_halve`` events;
* **utilization timelines** — per-resource busy cycles from ``cool``
  events (which carry the grant cycle) and per-epoch ejected-flit
  throughput;
* **an anomaly pass** — unfair epochs, throughput collapse, per-input
  starvation, drain stalls, fault injections, and truncated
  (event-dropping) traces;
* **degradation tracking** — ``fault_inject``/``fault_repair`` events
  (PR 4's :mod:`repro.faults` engine) are folded into a running fault
  state, each epoch is stamped with its failed-channel count, and the
  summary's ``faults`` section reports delivered throughput bucketed by
  how many channels were down — the measured graceful-degradation
  curve.

The analyzer is **single-pass and bounded-memory**, and it reads one
form: :class:`repro.obs.tracebin.TraceColumns`.  Binary files and
in-memory tracers are columns already; a JSONL file (or any record
stream) is parsed into column chunks by
:func:`repro.obs.tracebin.record_chunks`.  The reducer takes the chunks
one after another, keeps only O(ports + resources) running state plus a
capped, deterministically decimated epoch list and a capped anomaly
list — never the events themselves — so traces far larger than memory
audit fine.

The report's :meth:`AuditReport.summary` dict is the stable machine
schema (:data:`AUDIT_SCHEMA`, checked by :func:`validate_audit_summary`)
and :func:`compare_audits` diffs two summaries with tolerances — the
beginning of run-to-run regression detection (`repro audit --against`).
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.metrics.fairness import jain_index, max_min_ratio
from repro.obs.trace import (
    CLRG_HALVE,
    COOL,
    DRAIN_STALL,
    EJECT,
    EVENT_NAMES,
    FAULT_CHANNEL,
    FAULT_CLRG,
    FAULT_INJECT,
    FAULT_INPUT,
    FAULT_NAMES,
    FAULT_REPAIR,
    INJECT,
    P2_BLOCK,
    P2_GRANT,
    SCHED_ACCEPT,
    SCHED_GRANT,
    resource_label,
)
from repro.obs.tracebin import _totals, read_tracebin, record_chunks

#: Schema tag written into (and required of) every audit summary.
AUDIT_SCHEMA = "repro.audit/v1"

#: Default fairness-window length in cycles.
DEFAULT_WINDOW = 256
#: Epochs with a per-input service Jain index below this are unfair.
DEFAULT_FAIRNESS_THRESHOLD = 0.85
#: ... or with a best-to-worst served ratio above this (Jain is weak on
#: the structural 2:1 skews slot-level LRG produces; the ratio is not).
DEFAULT_MAX_MIN_THRESHOLD = 2.0
#: An epoch ejecting less than this fraction of the peak epoch's flits
#: while demand is backlogged is a throughput collapse.
DEFAULT_COLLAPSE_FRACTION = 0.25
#: Bound on stored epoch records (decimated beyond it, like latency
#: samples) and on stored anomalies (counted but dropped beyond it).
DEFAULT_MAX_EPOCHS = 4096
DEFAULT_MAX_ANOMALIES = 256
#: How many busiest resources the summary lists.
DEFAULT_TOP_RESOURCES = 8


def iter_jsonl(path) -> Iterator[Dict[str, object]]:
    """Stream records from a JSONL trace file, one line at a time.

    Strict: a garbled line raises — a JSONL trace is a machine-written
    export, so damage means a bug, not an interrupted append (the
    crash-tolerant journals use :mod:`repro.util.jsonl`'s tolerant
    reader instead).
    """
    from repro.util.jsonl import iter_jsonl_strict

    return iter_jsonl_strict(path)


# ---------------------------------------------------------------------------
# Epochs and anomalies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Epoch:
    """Per-window service summary (one fairness epoch).

    Attributes:
        index: Window index (``cycle // window``).
        start_cycle / end_cycle: Nominal window bounds (end exclusive).
        grants: Phase-2 grants committed in the window.
        ejected_flits: Flits delivered in the window.
        active_inputs: Inputs that were served, blocked, or backlogged.
        jain: Jain index of per-active-input grants (None when fewer
            than two inputs were active or nothing was granted).
        max_min: Best-to-worst served ratio (None when undefined or
            infinite — some active input got nothing).
        mean_class: Mean CLRG class of the window's grants (None when
            the scheme is not CLRG or nothing was granted).
        utilization: Ejected flits per output per cycle.
        failed_channels: Failed L2LC channels at window close (the
            fault state reconstructed from ``fault_inject`` /
            ``fault_repair`` events; 0 on fault-free traces).
    """

    index: int
    start_cycle: int
    end_cycle: int
    grants: int
    ejected_flits: int
    active_inputs: int
    jain: Optional[float]
    max_min: Optional[float]
    mean_class: Optional[float]
    utilization: float
    failed_channels: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (one entry of ``summary()['epochs']``)."""
        return asdict(self)


@dataclass(frozen=True)
class Anomaly:
    """One flagged irregularity, anchored to a cycle."""

    kind: str            # unfair_epoch | throughput_collapse | starvation
    cycle: int           # | drain_stall | truncated_trace | fault
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (one entry of ``summary()['anomalies']``)."""
        return asdict(self)


# ---------------------------------------------------------------------------
# The streaming analyzer
# ---------------------------------------------------------------------------
class TraceAnalyzer:
    """Single-pass, bounded-memory reducer of trace event columns.

    Start it with the stream's meta record (:meth:`start`), hand it the
    events as :class:`repro.obs.tracebin.TraceColumns` chunks in stream
    order (:meth:`consume`), then call :meth:`finish` for the
    :class:`AuditReport`; or use the :func:`analyze_records` /
    :func:`analyze_jsonl` / :func:`analyze_columns` /
    :func:`analyze_tracer` / :func:`analyze_tracebin` wrappers.  How the
    events are cut into chunks does not change the report.

    Args:
        window: Fairness-epoch length in cycles.
        fairness_threshold: Epoch Jain index below which the epoch is
            flagged unfair.
        max_min_threshold: Epoch best-to-worst served ratio above which
            the epoch is flagged unfair (an active input served nothing
            counts as an infinite ratio).
        collapse_fraction: Epochs ejecting less than this fraction of
            the peak epoch while inputs are backlogged are collapses.
        starvation_gap: Grant gaps (while backlogged) at least this long
            flag the input as starved; defaults to ``4 * window``.
        max_epochs: Stored-epoch bound; beyond it the epoch list is
            deterministically decimated (every other record kept, stride
            doubled).  Streaming epoch aggregates stay exact.
        max_anomalies: Stored-anomaly bound (further ones only counted).
        top_resources: How many busiest resources the summary lists.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        fairness_threshold: float = DEFAULT_FAIRNESS_THRESHOLD,
        max_min_threshold: float = DEFAULT_MAX_MIN_THRESHOLD,
        collapse_fraction: float = DEFAULT_COLLAPSE_FRACTION,
        starvation_gap: Optional[int] = None,
        max_epochs: int = DEFAULT_MAX_EPOCHS,
        max_anomalies: int = DEFAULT_MAX_ANOMALIES,
        top_resources: int = DEFAULT_TOP_RESOURCES,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1 cycle")
        if not 0.0 < fairness_threshold <= 1.0:
            raise ValueError("fairness threshold must be in (0, 1]")
        if max_min_threshold < 1.0:
            raise ValueError("max/min threshold must be >= 1")
        if not 0.0 <= collapse_fraction < 1.0:
            raise ValueError("collapse fraction must be in [0, 1)")
        if starvation_gap is not None and starvation_gap < 1:
            raise ValueError("starvation gap must be >= 1 cycle")
        if max_epochs < 1 or max_anomalies < 1 or top_resources < 1:
            raise ValueError("bounds must be >= 1")
        self.window = window
        self.fairness_threshold = fairness_threshold
        self.max_min_threshold = max_min_threshold
        self.collapse_fraction = collapse_fraction
        self.starvation_gap = (
            starvation_gap if starvation_gap is not None else 4 * window
        )
        self.max_epochs = max_epochs
        self.max_anomalies = max_anomalies
        self.top_resources = top_resources

        # Stream position / identity.
        self.meta: Dict[str, object] = {}
        self._records = 0
        self._events = 0
        self._counts: Dict[str, int] = {}
        self._first_cycle: Optional[int] = None
        self._last_cycle = 0
        # Running maximum of cycle // window over every row so far (the
        # window a stray earlier cycle folds into).
        self._seen_epoch = 0
        self._dropped_events = 0
        self._finished: Optional[AuditReport] = None

        # Per-input state (grown on demand, O(ports)).
        self._ports = 0
        self._service: List[int] = []      # total phase-2 grants
        self._p2_blocks: List[int] = []    # total phase-2 losses
        self._backlog: List[int] = []      # flits injected - ejected
        self._gap_start: List[Optional[int]] = []
        self._max_gap: List[int] = []
        self._max_gap_at: List[int] = []
        self._ever_active = bytearray()

        # Traffic totals.
        self._packets_injected = 0
        self._flits_injected = 0
        self._packets_ejected = 0
        self._flits_ejected = 0

        # CLRG dynamics.
        self._class_grants: Dict[int, int] = {}
        self._halvings_by_output: Dict[int, int] = {}

        # VOQ scheduler rounds (sched_grant / sched_accept), keyed by
        # iteration number.
        self._sched_grants_by_iter: Dict[int, int] = {}
        self._sched_accepts_by_iter: Dict[int, int] = {}

        # Fault state reconstructed from fault_inject / fault_repair.
        self._failed_channel_ids: set = set()
        self._stuck_input_ids: set = set()
        self._fault_events = 0
        self._repair_events = 0
        self._clrg_corruptions = 0
        self._max_failed_channels = 0
        # Degradation curve: window cycles / delivered flits bucketed by
        # the failed-channel count in effect when the window closed.
        self._cycles_by_failed: Dict[int, int] = {}
        self._ejected_by_failed: Dict[int, int] = {}

        # Per-resource utilization (O(resources)).
        self._res_busy: Dict[int, int] = {}
        self._res_grants: Dict[int, int] = {}

        # Open-window accumulators.
        self._epoch_index = 0
        self._win_grants: List[int] = []
        self._win_active = bytearray()
        self._win_ejected = 0
        self._win_class_sum = 0
        self._win_class_n = 0
        self._peak_win_ejected = 0

        # Stored epochs (bounded, decimated) + exact streaming aggregates.
        self.epochs: List[Epoch] = []
        self.epoch_stride = 1
        self._epochs_total = 0
        self._unfair_epochs = 0
        self._jain_sum = 0.0
        self._jain_n = 0
        self._jain_min: Optional[float] = None
        self._jain_min_epoch: Optional[int] = None

        # Anomalies (bounded).
        self.anomalies: List[Anomaly] = []
        self._anomalies_total = 0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def _ensure_ports(self, count: int) -> None:
        if count <= self._ports:
            return
        grow = count - self._ports
        self._service.extend([0] * grow)
        self._p2_blocks.extend([0] * grow)
        self._backlog.extend([0] * grow)
        self._gap_start.extend([None] * grow)
        self._max_gap.extend([0] * grow)
        self._max_gap_at.extend([-1] * grow)
        self._ever_active.extend(b"\x00" * grow)
        self._win_grants.extend([0] * grow)
        self._win_active.extend(b"\x00" * grow)
        self._ports = count

    def start(self, meta: Dict[str, object]) -> None:
        """Begin the stream with its meta record (kept as the report's)."""
        if self._finished is not None:
            raise RuntimeError("analyzer already finished")
        if self._records:
            raise ValueError("trace has a second meta record")
        self._records = 1
        self.meta = {
            key: value for key, value in meta.items() if key != "event"
        }
        radix = meta.get("radix")
        if isinstance(radix, int) and radix > 0:
            self._ensure_ports(radix)
        dropped = meta.get("dropped")
        if isinstance(dropped, int) and dropped > 0:
            self._dropped_events += dropped

    # ------------------------------------------------------------------
    # Reducing column chunks
    # ------------------------------------------------------------------
    def _seq_row(self, cycle: int, kind: int, a: int, b: int, c: int,
                 d: int) -> None:
        """The order-sensitive part of the per-event state machine.

        Handles the kinds that touch backlog/gap/window accumulators or
        emit anomalies, reading the payload slots named by
        :data:`repro.obs.trace.EVENT_FIELDS`; counts-only kinds
        (``p1_grant``, ``via_block``, ``invariant``) fall through as
        no-ops.
        """
        if kind == EJECT:
            src = a
            self._ensure_ports((src if src > b else b) + 1)
            self._flits_ejected += 1
            self._win_ejected += 1
            if d:
                self._packets_ejected += 1
            backlog = self._backlog
            if backlog[src] > 0:
                backlog[src] -= 1
                if backlog[src] == 0:
                    self._gap_start[src] = None
            self._win_active[src] = 1
        elif kind == INJECT:
            src = a
            self._ensure_ports(src + 1)
            self._packets_injected += 1
            self._flits_injected += c
            if self._backlog[src] == 0 and self._gap_start[src] is None:
                self._gap_start[src] = cycle
            self._backlog[src] += c
            self._win_active[src] = 1
            self._ever_active[src] = 1
        elif kind == P2_GRANT:
            inp = b
            self._ensure_ports(inp + 1)
            self._service[inp] += 1
            self._win_grants[inp] += 1
            self._win_active[inp] = 1
            self._ever_active[inp] = 1
            self._res_grants[a] = self._res_grants.get(a, 0) + 1
            self._record_gap(inp, cycle)
            self._gap_start[inp] = cycle if self._backlog[inp] > 0 else None
            if d >= 0:
                self._class_grants[d] = self._class_grants.get(d, 0) + 1
                self._win_class_sum += d
                self._win_class_n += 1
        elif kind == P2_BLOCK:
            inp = b
            self._ensure_ports(inp + 1)
            self._p2_blocks[inp] += 1
            self._win_active[inp] = 1
            self._ever_active[inp] = 1
        elif kind == DRAIN_STALL:
            self._add_anomaly("drain_stall", cycle, {
                "idle_cycles": a, "occupancy": b,
            })
        elif kind == FAULT_INJECT:
            self._fault_events += 1
            if a == FAULT_CHANNEL:
                self._failed_channel_ids.add(b)
                if len(self._failed_channel_ids) > self._max_failed_channels:
                    self._max_failed_channels = len(self._failed_channel_ids)
            elif a == FAULT_INPUT:
                self._stuck_input_ids.add(b)
            elif a == FAULT_CLRG:
                self._clrg_corruptions += 1
            self._add_anomaly("fault", cycle, {
                "fault": FAULT_NAMES.get(a, str(a)),
                "target": b,
                "aux": c,
            })
        elif kind == FAULT_REPAIR:
            self._repair_events += 1
            if a == FAULT_CHANNEL:
                self._failed_channel_ids.discard(b)
            elif a == FAULT_INPUT:
                self._stuck_input_ids.discard(b)

    def consume(self, columns) -> None:
        """Reduce one chunk of event columns, in stream order.

        Bulk-reduces everything the window machinery never reads
        (counts, cycle span, ``cool`` busy sums, ``clrg_halve`` maxima)
        and walks only the order-sensitive kinds row by row.  Each row's
        window is the running maximum of ``cycle // window`` over the
        whole stream so far (a stray earlier cycle folds into the open
        window), and rows that never touch window state cannot change
        what a close observes, so closes wait for the next sequential
        row.  Fleet traces carry a lane column and must be sliced per
        lane first (``columns.for_lane(lane)``).
        """
        if self._finished is not None:
            raise RuntimeError("analyzer already finished")
        if not self._records:
            raise ValueError("trace must start with a meta record")
        if columns.lane is not None:
            raise ValueError(
                "fleet trace has a lane column; analyze one lane at a "
                "time via columns.for_lane(lane)"
            )
        if not len(columns.kind):
            return
        cyc, kind, a, b, c, d = (
            np.asarray(column, dtype=np.int64) for column in (
                columns.cycle, columns.kind, columns.a, columns.b,
                columns.c, columns.d,
            )
        )
        n = int(kind.shape[0])
        if int(kind.min()) < 0 or int(kind.max()) >= len(EVENT_NAMES):
            raise ValueError("unknown event kind in columns")
        bad = np.flatnonzero(cyc < 0)
        if len(bad):
            name = EVENT_NAMES[int(kind[int(bad[0])])]
            raise ValueError(f"{name}: cycle must be a non-negative integer")

        counts = self._counts
        for name, count in columns.counts_by_kind().items():
            counts[name] = counts.get(name, 0) + count
        self._records += n
        self._events += n
        if self._first_cycle is None:
            self._first_cycle = int(cyc[0])
            self._epoch_index = self._first_cycle // self.window
        low = int(cyc.min())
        if low < self._first_cycle:
            self._first_cycle = low
        high = int(cyc.max())
        if high > self._last_cycle:
            self._last_cycle = high

        # Epoch-insensitive reductions: _close_epoch never reads the
        # per-resource busy sums, the halving maxima or the scheduler
        # round counts.
        held = (kind == COOL) & (d >= 0) & (d < cyc)
        res_busy = self._res_busy
        for rid, extra in _totals(a[held], (cyc - d)[held]).items():
            res_busy[rid] = res_busy.get(rid, 0) + extra
        halve_rows = np.flatnonzero(kind == CLRG_HALVE)
        if len(halve_rows):
            uniq, inverse = np.unique(a[halve_rows], return_inverse=True)
            best = np.zeros(len(uniq), dtype=np.int64)
            np.maximum.at(best, inverse, b[halve_rows])
            halvings = self._halvings_by_output
            for output, top in zip(uniq.tolist(), best.tolist()):
                if top > halvings.get(output, 0):
                    halvings[output] = top
        for code, bucket in (
            (SCHED_GRANT, self._sched_grants_by_iter),
            (SCHED_ACCEPT, self._sched_accepts_by_iter),
        ):
            for iteration, count in _totals(a[kind == code]).items():
                bucket[iteration] = bucket.get(iteration, 0) + count

        # Order-sensitive kinds: backlog/gap/window accumulators and
        # anomaly emission must interleave with epoch closes exactly as
        # the stream dictates.  Only these rows can change what a close
        # observes, so closes triggered between them by counts-only
        # rows can safely wait for the next sequential row (or finish).
        seq_rows = np.flatnonzero(
            (kind == INJECT) | (kind == EJECT) | (kind == P2_GRANT)
            | (kind == P2_BLOCK) | (kind == DRAIN_STALL)
            | (kind == FAULT_INJECT) | (kind == FAULT_REPAIR)
        )
        seen = np.maximum.accumulate(
            np.maximum(cyc // self.window, self._seen_epoch)
        )
        self._seen_epoch = int(seen[-1])
        if len(seq_rows):
            epochs = np.maximum(seen[seq_rows], self._epoch_index)
            seq_row = self._seq_row
            close = self._close_epoch
            for cycle, code, ai, bi, ci, di, epoch in zip(
                cyc[seq_rows].tolist(), kind[seq_rows].tolist(),
                a[seq_rows].tolist(), b[seq_rows].tolist(),
                c[seq_rows].tolist(), d[seq_rows].tolist(),
                epochs.tolist(),
            ):
                while epoch > self._epoch_index:
                    close()
                seq_row(cycle, code, ai, bi, ci, di)
        # Trailing counts-only rows may still have advanced the open
        # window; finish() closes through _last_cycle either way.

    def _record_gap(self, inp: int, cycle: int) -> None:
        start = self._gap_start[inp]
        if start is None:
            return
        gap = cycle - start
        if gap > self._max_gap[inp]:
            self._max_gap[inp] = gap
            self._max_gap_at[inp] = cycle

    def _add_anomaly(self, kind: str, cycle: int, detail: Dict[str, object]) -> None:
        self._anomalies_total += 1
        if len(self.anomalies) < self.max_anomalies:
            self.anomalies.append(Anomaly(kind, cycle, detail))

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def _close_epoch(self) -> None:
        start = self._epoch_index * self.window
        end = start + self.window
        values: List[int] = []
        backlogged = 0
        for port in range(self._ports):
            if self._backlog[port] > 0:
                backlogged += 1
            if self._win_active[port] or self._backlog[port] > 0:
                values.append(self._win_grants[port])
        active = len(values)
        grants = sum(values)
        jain: Optional[float] = None
        maxmin: Optional[float] = None
        unfair = False
        served_zero = 0
        if active >= 2 and grants > 0:
            jain = jain_index(values)
            ratio = max_min_ratio(values)
            maxmin = None if math.isinf(ratio) else ratio
            served_zero = sum(1 for value in values if value == 0)
            # Only judge fairness once there was enough service for an
            # even split to give every active input at least one grant;
            # shorter epochs cannot distinguish unfairness from
            # discretization.
            if grants >= active and (
                jain < self.fairness_threshold
                or ratio > self.max_min_threshold
            ):
                unfair = True
        mean_class = (
            self._win_class_sum / self._win_class_n
            if self._win_class_n else None
        )
        utilization = (
            self._win_ejected / (self.window * self._ports)
            if self._ports else 0.0
        )
        failed_now = len(self._failed_channel_ids)
        self._cycles_by_failed[failed_now] = (
            self._cycles_by_failed.get(failed_now, 0) + self.window
        )
        self._ejected_by_failed[failed_now] = (
            self._ejected_by_failed.get(failed_now, 0) + self._win_ejected
        )
        epoch = Epoch(
            index=self._epoch_index, start_cycle=start, end_cycle=end,
            grants=grants, ejected_flits=self._win_ejected,
            active_inputs=active, jain=jain, max_min=maxmin,
            mean_class=mean_class, utilization=utilization,
            failed_channels=failed_now,
        )
        if self._epochs_total % self.epoch_stride == 0:
            self.epochs.append(epoch)
            if len(self.epochs) > self.max_epochs:
                self.epochs[:] = self.epochs[::2]
                self.epoch_stride *= 2
        self._epochs_total += 1
        if jain is not None:
            self._jain_sum += jain
            self._jain_n += 1
            if self._jain_min is None or jain < self._jain_min:
                self._jain_min = jain
                self._jain_min_epoch = self._epoch_index
        if unfair:
            self._unfair_epochs += 1
            self._add_anomaly("unfair_epoch", start, {
                "jain": jain, "max_min": maxmin, "grants": grants,
                "active_inputs": active, "served_zero": served_zero,
            })
        if (
            backlogged > 0
            and self._peak_win_ejected > 0
            and self._win_ejected
            < self.collapse_fraction * self._peak_win_ejected
        ):
            self._add_anomaly("throughput_collapse", start, {
                "ejected_flits": self._win_ejected,
                "peak_ejected_flits": self._peak_win_ejected,
                "backlogged_inputs": backlogged,
            })
        if self._win_ejected > self._peak_win_ejected:
            self._peak_win_ejected = self._win_ejected
        # Reset the window accumulators in place.
        for port in range(self._ports):
            self._win_grants[port] = 0
            self._win_active[port] = 0
        self._win_ejected = 0
        self._win_class_sum = 0
        self._win_class_n = 0
        self._epoch_index += 1

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------
    def finish(self) -> "AuditReport":
        """Close open windows/gaps and build the :class:`AuditReport`."""
        if self._finished is not None:
            return self._finished
        if self._first_cycle is not None:
            while self._epoch_index <= self._last_cycle // self.window:
                self._close_epoch()
            # Inputs still waiting when the trace ended: their open wait
            # is a (lower bound on a) grant gap.
            for port in range(self._ports):
                if self._backlog[port] > 0:
                    self._record_gap(port, self._last_cycle)
        starved = [
            port for port in range(self._ports)
            if self._max_gap[port] >= self.starvation_gap
        ]
        for port in starved:
            self._add_anomaly("starvation", self._max_gap_at[port], {
                "input": port, "gap_cycles": self._max_gap[port],
                "gap_limit": self.starvation_gap,
            })
        if self._dropped_events > 0:
            self._add_anomaly("truncated_trace", self._last_cycle, {
                "dropped_events": self._dropped_events,
            })
        first = self._first_cycle if self._first_cycle is not None else 0
        self._finished = AuditReport(
            meta=dict(self.meta),
            window=self.window,
            fairness_threshold=self.fairness_threshold,
            max_min_threshold=self.max_min_threshold,
            starvation_gap=self.starvation_gap,
            top_resources=self.top_resources,
            records=self._records,
            events=self._events,
            counts_by_kind=dict(self._counts),
            dropped_events=self._dropped_events,
            first_cycle=first,
            last_cycle=self._last_cycle,
            packets_injected=self._packets_injected,
            flits_injected=self._flits_injected,
            packets_ejected=self._packets_ejected,
            flits_ejected=self._flits_ejected,
            per_input_grants=list(self._service),
            per_input_p2_blocks=list(self._p2_blocks),
            per_input_max_gap=list(self._max_gap),
            ever_active=[bool(flag) for flag in self._ever_active],
            class_grants=dict(self._class_grants),
            halvings_by_output=dict(self._halvings_by_output),
            resource_busy=dict(self._res_busy),
            resource_grants=dict(self._res_grants),
            epochs=list(self.epochs),
            epoch_stride=self.epoch_stride,
            epochs_total=self._epochs_total,
            unfair_epochs=self._unfair_epochs,
            jain_epoch_mean=(
                self._jain_sum / self._jain_n if self._jain_n else None
            ),
            jain_epoch_min=self._jain_min,
            jain_epoch_min_epoch=self._jain_min_epoch,
            anomalies=list(self.anomalies),
            anomalies_total=self._anomalies_total,
            starved_inputs=starved,
            fault_events=self._fault_events,
            repair_events=self._repair_events,
            clrg_corruptions=self._clrg_corruptions,
            max_failed_channels=self._max_failed_channels,
            final_failed_channels=sorted(self._failed_channel_ids),
            final_stuck_inputs=sorted(self._stuck_input_ids),
            degradation={
                failed: {
                    "cycles": cycles,
                    "ejected_flits": self._ejected_by_failed.get(failed, 0),
                    "throughput_flits_per_cycle": (
                        self._ejected_by_failed.get(failed, 0) / cycles
                        if cycles else 0.0
                    ),
                }
                for failed, cycles in sorted(self._cycles_by_failed.items())
            },
            sched_grants_by_iteration=dict(self._sched_grants_by_iter),
            sched_accepts_by_iteration=dict(self._sched_accepts_by_iter),
        )
        return self._finished


def _analyze(meta, chunks, options) -> "AuditReport":
    analyzer = TraceAnalyzer(**options)
    analyzer.start(meta)
    for chunk in chunks:
        analyzer.consume(chunk)
    return analyzer.finish()


def analyze_records(
    records: Iterable[Dict[str, object]], **options
) -> "AuditReport":
    """Audit a record stream (meta first), parsed into column chunks."""
    meta, chunks = record_chunks(records)
    return _analyze(meta, chunks, options)


def analyze_jsonl(path, **options) -> "AuditReport":
    """Audit a JSONL trace file, one column chunk at a time."""
    return analyze_records(iter_jsonl(path), **options)


def analyze_columns(columns, **options) -> "AuditReport":
    """Audit decoded trace columns (``TraceColumns``)."""
    return _analyze(columns.jsonl_meta(), [columns], options)


def analyze_tracer(tracer, **options) -> "AuditReport":
    """Audit an in-memory :class:`repro.obs.BinaryTracer`."""
    return analyze_columns(tracer.columns(), **options)


def analyze_tracebin(path, **options) -> "AuditReport":
    """Audit a ``repro.trace_bin/v1`` file."""
    return analyze_columns(read_tracebin(path), **options)


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------
@dataclass
class AuditReport:
    """Everything the analyzer reconstructed from one trace.

    :meth:`summary` renders the stable machine-readable dict
    (:data:`AUDIT_SCHEMA`); :meth:`to_stats` exports the headline
    numbers onto a :class:`repro.obs.StatsRegistry`;
    ``repro.harness.report.render_audit_markdown`` renders the human
    report.
    """

    meta: Dict[str, object]
    window: int
    fairness_threshold: float
    max_min_threshold: float
    starvation_gap: int
    top_resources: int
    records: int
    events: int
    counts_by_kind: Dict[str, int]
    dropped_events: int
    first_cycle: int
    last_cycle: int
    packets_injected: int
    flits_injected: int
    packets_ejected: int
    flits_ejected: int
    per_input_grants: List[int]
    per_input_p2_blocks: List[int]
    per_input_max_gap: List[int]
    ever_active: List[bool]
    class_grants: Dict[int, int]
    halvings_by_output: Dict[int, int]
    resource_busy: Dict[int, int]
    resource_grants: Dict[int, int]
    epochs: List[Epoch]
    epoch_stride: int
    epochs_total: int
    unfair_epochs: int
    jain_epoch_mean: Optional[float]
    jain_epoch_min: Optional[float]
    jain_epoch_min_epoch: Optional[int]
    anomalies: List[Anomaly]
    anomalies_total: int
    starved_inputs: List[int]
    # Fault / degradation state (PR 4; zero-valued on fault-free traces).
    fault_events: int = 0
    repair_events: int = 0
    clrg_corruptions: int = 0
    max_failed_channels: int = 0
    final_failed_channels: List[int] = field(default_factory=list)
    final_stuck_inputs: List[int] = field(default_factory=list)
    degradation: Dict[int, Dict[str, float]] = field(default_factory=dict)
    # VOQ scheduler rounds (zero-valued on non-VOQ traces).
    sched_grants_by_iteration: Dict[int, int] = field(default_factory=dict)
    sched_accepts_by_iteration: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        """Cycle span the trace covers (inclusive of both ends)."""
        if self.events == 0:
            return 0
        return self.last_cycle - self.first_cycle + 1

    @property
    def throughput_flits_per_cycle(self) -> float:
        return self.flits_ejected / self.cycles if self.cycles else 0.0

    @property
    def throughput_packets_per_cycle(self) -> float:
        return self.packets_ejected / self.cycles if self.cycles else 0.0

    def service_values(self) -> List[int]:
        """Per-input grant counts of every input that ever participated."""
        return [
            grants for grants, active
            in zip(self.per_input_grants, self.ever_active) if active
        ]

    @property
    def jain(self) -> Optional[float]:
        """Jain index of per-input service over the whole trace."""
        values = self.service_values()
        return jain_index(values) if values else None

    @property
    def max_min(self) -> Optional[float]:
        """Best-to-worst per-input service ratio (None when infinite)."""
        values = self.service_values()
        if not values:
            return None
        ratio = max_min_ratio(values)
        return None if math.isinf(ratio) else ratio

    @property
    def max_gap_cycles(self) -> int:
        """Longest grant gap any input saw while backlogged."""
        return max(self.per_input_max_gap, default=0)

    @property
    def max_gap_input(self) -> Optional[int]:
        if not self.per_input_max_gap or self.max_gap_cycles == 0:
            return None
        return self.per_input_max_gap.index(self.max_gap_cycles)

    @property
    def total_halvings(self) -> int:
        return sum(self.halvings_by_output.values())

    @property
    def degraded_throughput_ratio(self) -> Optional[float]:
        """Throughput with channels down relative to fully healthy.

        Delivered flits per cycle over every epoch with at least one
        failed channel, divided by the healthy-epoch rate.  ``None``
        when the trace lacks healthy epochs, degraded epochs, or any
        healthy throughput to normalise by.
        """
        healthy = self.degradation.get(0)
        if not healthy or not healthy.get("throughput_flits_per_cycle"):
            return None
        cycles = sum(
            entry["cycles"]
            for failed, entry in self.degradation.items() if failed > 0
        )
        if not cycles:
            return None
        ejected = sum(
            entry["ejected_flits"]
            for failed, entry in self.degradation.items() if failed > 0
        )
        return (ejected / cycles) / healthy["throughput_flits_per_cycle"]

    @property
    def sched_grants(self) -> int:
        """VOQ scheduler grant-stage events across all iterations."""
        return sum(self.sched_grants_by_iteration.values())

    @property
    def sched_accepts(self) -> int:
        """VOQ scheduler accepted pairs across all iterations."""
        return sum(self.sched_accepts_by_iteration.values())

    @property
    def sched_first_iteration_fraction(self) -> Optional[float]:
        """Share of accepted pairs matched in iteration 0.

        Under desynchronized iSLIP pointers this approaches 1.0 (every
        grant is accepted in the first round); extra iterations only
        matter while pointers still collide.  ``None`` on traces with
        no scheduler rounds.
        """
        total = self.sched_accepts
        if not total:
            return None
        return self.sched_accepts_by_iteration.get(0, 0) / total

    def busiest_resources(self) -> List[Dict[str, object]]:
        """Top resources by busy cycles, labelled from the trace meta."""
        radix = self.meta.get("radix", 0)
        layers = self.meta.get("layers", 0)
        cmult = self.meta.get("channel_multiplicity", 0)
        span = self.cycles
        ranked = sorted(
            self.resource_busy,
            key=lambda rid: (-self.resource_busy[rid], rid),
        )[: self.top_resources]
        return [
            {
                "resource": rid,
                "label": resource_label(rid, radix, layers, cmult),
                "busy_cycles": self.resource_busy[rid],
                "busy_frac": self.resource_busy[rid] / span if span else 0.0,
                "grants": self.resource_grants.get(rid, 0),
            }
            for rid in ranked
        ]

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """The stable, JSON-serialisable audit summary (the schema)."""
        return {
            "schema": AUDIT_SCHEMA,
            "meta": dict(self.meta),
            "trace": {
                "records": self.records,
                "events": self.events,
                "dropped": self.dropped_events,
                "first_cycle": self.first_cycle,
                "last_cycle": self.last_cycle,
                "cycles": self.cycles,
                "counts_by_kind": dict(self.counts_by_kind),
            },
            "traffic": {
                "packets_injected": self.packets_injected,
                "flits_injected": self.flits_injected,
                "packets_ejected": self.packets_ejected,
                "flits_ejected": self.flits_ejected,
                "throughput_flits_per_cycle": self.throughput_flits_per_cycle,
                "throughput_packets_per_cycle": (
                    self.throughput_packets_per_cycle
                ),
            },
            "service": {
                "per_input_grants": list(self.per_input_grants),
                "per_input_p2_blocks": list(self.per_input_p2_blocks),
                "active_inputs": sum(1 for a in self.ever_active if a),
            },
            "fairness": {
                "jain": self.jain,
                "max_min": self.max_min,
                "window": self.window,
                "threshold": self.fairness_threshold,
                "max_min_threshold": self.max_min_threshold,
                "epochs": self.epochs_total,
                "unfair_epochs": self.unfair_epochs,
                "unfair_epoch_fraction": (
                    self.unfair_epochs / self.epochs_total
                    if self.epochs_total else 0.0
                ),
                "jain_epoch_mean": self.jain_epoch_mean,
                "jain_epoch_min": self.jain_epoch_min,
                "jain_epoch_min_epoch": self.jain_epoch_min_epoch,
            },
            "starvation": {
                "max_gap_cycles": self.max_gap_cycles,
                "max_gap_input": self.max_gap_input,
                "gap_limit": self.starvation_gap,
                "starved_inputs": list(self.starved_inputs),
                "per_input_max_gap": list(self.per_input_max_gap),
            },
            "clrg": {
                "class_grants": {
                    str(cls): count
                    for cls, count in sorted(self.class_grants.items())
                },
                "halvings": self.total_halvings,
                "halvings_by_output": {
                    str(output): count
                    for output, count in sorted(
                        self.halvings_by_output.items()
                    )
                },
            },
            "utilization": {
                "busiest": self.busiest_resources(),
                "resources_observed": len(self.resource_busy),
            },
            "epochs": {
                "stride": self.epoch_stride,
                "stored": len(self.epochs),
                "records": [epoch.to_dict() for epoch in self.epochs],
            },
            "anomalies": {
                "count": self.anomalies_total,
                "dropped": self.anomalies_total - len(self.anomalies),
                "items": [anomaly.to_dict() for anomaly in self.anomalies],
            },
            # Additive (not schema-required): fault-free traces report
            # zeros so baselines recorded before PR 4 still compare.
            "faults": {
                "fault_events": self.fault_events,
                "repair_events": self.repair_events,
                "clrg_corruptions": self.clrg_corruptions,
                "max_failed_channels": self.max_failed_channels,
                "final_failed_channels": list(self.final_failed_channels),
                "final_stuck_inputs": list(self.final_stuck_inputs),
                "degraded_throughput_ratio": self.degraded_throughput_ratio,
                "degradation": {
                    str(failed): dict(entry)
                    for failed, entry in sorted(self.degradation.items())
                },
            },
            # Additive (not schema-required): zero-valued on non-VOQ
            # traces, so pre-existing baselines still compare.
            "scheduler": {
                "grants": self.sched_grants,
                "accepts": self.sched_accepts,
                "grants_by_iteration": {
                    str(iteration): count
                    for iteration, count in sorted(
                        self.sched_grants_by_iteration.items()
                    )
                },
                "accepts_by_iteration": {
                    str(iteration): count
                    for iteration, count in sorted(
                        self.sched_accepts_by_iteration.items()
                    )
                },
                "first_iteration_fraction":
                    self.sched_first_iteration_fraction,
            },
        }

    def to_stats(self, registry, prefix: str = "audit") -> None:
        """Export the headline audit numbers onto a stats registry."""
        registry.scalar(
            f"{prefix}.cycles", "cycle span of the trace"
        ).set(self.cycles)
        registry.scalar(
            f"{prefix}.events", "trace events analyzed"
        ).set(self.events)
        registry.scalar(
            f"{prefix}.packets_ejected", "packets delivered in the trace"
        ).set(self.packets_ejected)
        registry.scalar(
            f"{prefix}.throughput_flits_per_cycle",
            "delivered flits per cycle",
        ).set(self.throughput_flits_per_cycle)
        jain = self.jain
        registry.scalar(
            f"{prefix}.fairness.jain",
            "Jain index of per-input service",
        ).set(jain if jain is not None else float("nan"))
        registry.scalar(
            f"{prefix}.fairness.unfair_epochs",
            f"epochs below the fairness thresholds (window {self.window})",
        ).set(self.unfair_epochs)
        registry.scalar(
            f"{prefix}.fairness.epochs", "fairness epochs evaluated"
        ).set(self.epochs_total)
        registry.scalar(
            f"{prefix}.starvation.max_gap",
            "longest backlogged grant gap (cycles)",
        ).set(self.max_gap_cycles)
        registry.scalar(
            f"{prefix}.clrg.halvings", "CLRG class-bank halvings"
        ).set(self.total_halvings)
        registry.scalar(
            f"{prefix}.anomalies", "anomalies flagged by the audit"
        ).set(self.anomalies_total)
        if self.fault_events or self.repair_events:
            registry.scalar(
                f"{prefix}.faults.injected", "fault injections in the trace"
            ).set(self.fault_events)
            registry.scalar(
                f"{prefix}.faults.repaired", "fault repairs in the trace"
            ).set(self.repair_events)
            registry.scalar(
                f"{prefix}.faults.max_failed_channels",
                "peak simultaneously failed channels",
            ).set(self.max_failed_channels)
            ratio = self.degraded_throughput_ratio
            if ratio is not None:
                registry.scalar(
                    f"{prefix}.faults.degraded_throughput_ratio",
                    "degraded vs healthy delivered throughput",
                ).set(ratio)
        if self.per_input_grants:
            registry.vector(
                f"{prefix}.per_input_grants", len(self.per_input_grants),
                "phase-2 grants by primary input",
            ).load(self.per_input_grants)


# ---------------------------------------------------------------------------
# Schema validation (used by tests, the CLI, and the CI smoke job)
# ---------------------------------------------------------------------------
_SUMMARY_SECTIONS: Dict[str, Tuple[str, ...]] = {
    "trace": ("records", "events", "cycles", "counts_by_kind"),
    "traffic": (
        "packets_injected", "packets_ejected", "flits_ejected",
        "throughput_flits_per_cycle",
    ),
    "service": ("per_input_grants", "active_inputs"),
    "fairness": (
        "jain", "window", "threshold", "epochs", "unfair_epochs",
        "unfair_epoch_fraction",
    ),
    "starvation": ("max_gap_cycles", "gap_limit", "starved_inputs"),
    "clrg": ("class_grants", "halvings"),
    "utilization": ("busiest",),
    "epochs": ("stride", "stored", "records"),
    "anomalies": ("count", "items"),
}


def validate_audit_summary(summary: Dict[str, object]) -> Dict[str, object]:
    """Validate an audit summary dict against the v1 schema.

    Returns the summary unchanged for chaining.

    Raises:
        ValueError: On a wrong schema tag or a missing section/field.
    """
    if not isinstance(summary, dict):
        raise ValueError("audit summary must be an object")
    schema = summary.get("schema")
    if schema != AUDIT_SCHEMA:
        raise ValueError(
            f"unsupported audit schema: {schema!r} (want {AUDIT_SCHEMA!r})"
        )
    for section, fields in _SUMMARY_SECTIONS.items():
        body = summary.get(section)
        if not isinstance(body, dict):
            raise ValueError(f"audit summary missing section {section!r}")
        for name in fields:
            if name not in body:
                raise ValueError(
                    f"audit summary section {section!r} missing {name!r}"
                )
    return summary


# ---------------------------------------------------------------------------
# Baseline comparison (run-to-run regression detection)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AuditRegression:
    """One audited metric that moved outside tolerance vs a baseline."""

    metric: str
    baseline: float
    current: float
    limit: float

    def __str__(self) -> str:
        return (
            f"{self.metric}: {self.current:.6g} vs baseline "
            f"{self.baseline:.6g} (allowed {self.limit:.6g})"
        )


#: Compared summary metrics and their good direction.
COMPARED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("traffic.throughput_flits_per_cycle", "higher"),
    ("traffic.packets_ejected", "higher"),
    ("fairness.jain", "higher"),
    ("fairness.jain_epoch_min", "higher"),
    ("fairness.unfair_epoch_fraction", "lower"),
    ("starvation.max_gap_cycles", "lower"),
    ("anomalies.count", "lower"),
)


def _lookup(summary: Dict[str, object], path: str):
    value: object = summary
    for part in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


def compare_audits(
    current: Dict[str, object],
    baseline: Dict[str, object],
    rel_tol: float = 0.05,
    abs_tol: float = 0.0,
) -> List[AuditRegression]:
    """Diff two audit summaries; return every out-of-tolerance metric.

    Each metric in :data:`COMPARED_METRICS` may move in its good
    direction freely; in the bad direction it may move by at most
    ``rel_tol`` (relative to the baseline) plus ``abs_tol``.  A metric
    missing or null on either side is skipped.  An empty return means
    no regression (`repro audit --against` exits 0).
    """
    if rel_tol < 0 or abs_tol < 0:
        raise ValueError("tolerances must be non-negative")
    regressions: List[AuditRegression] = []
    for path, direction in COMPARED_METRICS:
        base = _lookup(baseline, path)
        cur = _lookup(current, path)
        if not isinstance(base, (int, float)) or not isinstance(
            cur, (int, float)
        ):
            continue
        if direction == "higher":
            limit = base * (1.0 - rel_tol) - abs_tol
            if cur < limit - 1e-12:
                regressions.append(AuditRegression(path, base, cur, limit))
        else:
            limit = base * (1.0 + rel_tol) + abs_tol
            if cur > limit + 1e-12:
                regressions.append(AuditRegression(path, base, cur, limit))
    return regressions
