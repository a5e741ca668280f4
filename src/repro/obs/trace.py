"""Cycle-level trace event schema and its export views.

A :class:`repro.obs.BinaryTracer` handed to a switch at construction
(``HiRiseSwitch(config, tracer=...)``,
``ReferenceHiRiseSwitch(config, tracer=...)`` or ``VOQSwitch``)
receives every observable arbitration and datapath event: injections,
ejections, phase-1 (local) grants, phase-2 (inter-layer) grants and
losses, viability rejections, path cooldowns (with the grant cycle, so
path occupancy intervals come for free), CLRG counter halvings, and
drain stalls.  Tracing is *opt-in at construction*: an untraced switch
keeps its hot loop on the fast path behind a single predictable
``tracer is None`` check per cycle, and traced runs are bit-identical to
untraced runs (the tracer only observes, never decides).

This module defines what an event is — the compact integer tuple
``(cycle, kind, a, b, c, d)``, the kinds (:data:`EVENT_NAMES`) and their
payload fields (:data:`EVENT_FIELDS`) — and the two export views every
capture shares:

* **JSONL** — one self-describing record per line (plus a leading
  ``meta`` record), the stable machine-readable schema
  (:data:`EVENT_FIELDS`, checked by :func:`validate_jsonl_path`);
* **Chrome ``trace_event``** — a timeline JSON loadable in
  ``chrome://tracing`` / Perfetto: one "thread" per switch resource with
  a complete ("X") event per path hold, instant events for CLRG
  halvings and drain stalls, and a per-cycle ejected-flit counter track
  (:func:`iter_chrome_events`, :func:`write_chrome_stream`).
"""

import json
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: Trace format version, written into the JSONL meta record.
TRACE_VERSION = 1

# ---------------------------------------------------------------------------
# Event kinds
# ---------------------------------------------------------------------------
INJECT = 0       #: packet entered a source queue
EJECT = 1        #: flit left the switch at its output
P1_GRANT = 2     #: phase-1 (local switch) grant of a resource
P2_GRANT = 3     #: phase-2 (inter-layer) grant: full path locked
P2_BLOCK = 4     #: phase-1 winner lost the inter-layer arbitration
VIA_BLOCK = 5    #: an idle input had head flits but no viable request
COOL = 6         #: path released (tail transferred); cooling this cycle
CLRG_HALVE = 7   #: a CLRG class-counter bank halved
DRAIN_STALL = 8  #: drain loop made no progress for the idle limit
FAULT_INJECT = 9  #: a scheduled fault was applied to the switch
FAULT_REPAIR = 10  #: a scheduled fault was repaired (channel/input re-armed)
INVARIANT = 11   #: a runtime invariant check failed (raised right after)
SCHED_GRANT = 12   #: VOQ scheduler grant stage: an output granted an input
SCHED_ACCEPT = 13  #: VOQ scheduler accept stage: an input accepted an output

#: ``fault_inject``/``fault_repair`` fault-class codes (the ``fault``
#: payload slot): what kind of component the event hit.
FAULT_CHANNEL = 0  #: an L2LC (TSV bundle) failed or was repaired
FAULT_INPUT = 1    #: an input port stuck (stopped requesting) / recovered
FAULT_CLRG = 2     #: a sub-block's CLRG class-counter bank was corrupted

#: Fault-class code -> wire name (used in summaries and reports).
FAULT_NAMES: Dict[int, str] = {
    FAULT_CHANNEL: "channel",
    FAULT_INPUT: "input",
    FAULT_CLRG: "clrg",
}

#: Event kind -> wire name used in the JSONL export.
EVENT_NAMES: Dict[int, str] = {
    INJECT: "inject",
    EJECT: "eject",
    P1_GRANT: "p1_grant",
    P2_GRANT: "p2_grant",
    P2_BLOCK: "p2_block",
    VIA_BLOCK: "via_block",
    COOL: "cool",
    CLRG_HALVE: "clrg_halve",
    DRAIN_STALL: "drain_stall",
    FAULT_INJECT: "fault_inject",
    FAULT_REPAIR: "fault_repair",
    INVARIANT: "invariant",
    SCHED_GRANT: "sched_grant",
    SCHED_ACCEPT: "sched_accept",
}

#: Event kind -> names of the payload slots ``(a, b, c, d)`` actually
#: used by that kind (unused trailing slots are not serialised).
#:
#: * ``inject``: src port, dst port, packet length in flits, packet id.
#: * ``eject``: src port, dst port, flit sequence number, tail flag.
#: * ``p1_grant``: resource id, winning input, requested output, weight
#:   (live requestor count, the WLRG weight).
#: * ``p2_grant``: resource id, input, output, winner's CLRG class
#:   after the commit (-1 under non-CLRG schemes).
#: * ``p2_block``: resource id, input, output it lost.
#: * ``via_block``: input port, blocked destination, reason code
#:   (0 = output busy, 1 = output cooling, 2 = resource busy,
#:   3 = resource cooling, 4 = every channel toward the destination
#:   layer has failed).
#: * ``cool``: resource id, input, output, cycle the path was granted.
#: * ``clrg_halve``: output whose bank halved, total halvings so far.
#: * ``drain_stall``: consecutive idle cycles, flits still inside.
#: * ``fault_inject``: fault-class code (0 = channel, 1 = input,
#:   2 = clrg), target (flat resource id of the failed channel / stuck
#:   input port / corrupted output), aux detail (corrupted counter value
#:   for clrg faults, 0 otherwise).
#: * ``fault_repair``: fault-class code, target (same encoding).
#: * ``invariant``: check code (see
#:   :data:`repro.check.invariants.CHECK_CODES`), first implicated flat
#:   resource/port id (-1 if none), aux detail.  Emitted at most once
#:   per run, immediately before the checker raises.
#: * ``sched_grant``: iteration number, granting output, granted input,
#:   head age of the granted pair (the scheduler's edge weight).
#:   Emitted once per output per iSLIP iteration; MWM emits its final
#:   matching as iteration-0 grants.
#: * ``sched_accept``: iteration number, accepting input, accepted
#:   output, head age of the matched pair.  An accepted pair in
#:   iteration 0 commits the iSLIP pointer updates (desynchronization).
EVENT_FIELDS: Dict[int, Tuple[str, ...]] = {
    INJECT: ("src", "dst", "num_flits", "packet_id"),
    EJECT: ("src", "dst", "seq", "tail"),
    P1_GRANT: ("resource", "input", "output", "weight"),
    P2_GRANT: ("resource", "input", "output", "cls"),
    P2_BLOCK: ("resource", "input", "output"),
    VIA_BLOCK: ("input", "dst", "reason"),
    COOL: ("resource", "input", "output", "granted"),
    CLRG_HALVE: ("output", "halvings"),
    DRAIN_STALL: ("idle_cycles", "occupancy"),
    FAULT_INJECT: ("fault", "target", "aux"),
    FAULT_REPAIR: ("fault", "target"),
    INVARIANT: ("check", "resource", "aux"),
    SCHED_GRANT: ("iteration", "output", "input", "weight"),
    SCHED_ACCEPT: ("iteration", "input", "output", "weight"),
}

#: ``via_block`` reason codes.
REASON_OUTPUT_BUSY = 0
REASON_OUTPUT_COOLING = 1
REASON_RESOURCE_BUSY = 2
REASON_RESOURCE_COOLING = 3
REASON_CHANNEL_FAILED = 4

_NAME_TO_KIND = {name: kind for kind, name in EVENT_NAMES.items()}
#: Zero fill for the payload slots a kind leaves unused.
_PADDING = (0,) * 6

#: Record fields that name switch ports (what ``--port`` matches).
PORT_FIELDS = ("src", "dst", "input", "output")

#: Default bound on a tracer's retained events (decimated beyond it).
DEFAULT_CAPACITY = 1 << 20


def resource_label(
    resource_id: int, radix: int, layers: int, channel_multiplicity: int
) -> str:
    """Human-readable name of a flat resource id.

    Mirrors ``config.resource_key_table`` from the geometry alone, so
    live tracers, decoded binary columns and offline JSONL traces (whose
    meta record carries the geometry) all label resources the same way.
    Falls back to ``res<id>`` when the id is out of range or the
    geometry is missing or inconsistent.
    """
    if radix < 1 or layers < 1 or channel_multiplicity < 1 or radix % layers:
        return f"res{resource_id}"
    if 0 <= resource_id < radix:
        ppl = radix // layers
        return f"int L{resource_id // ppl}.{resource_id % ppl}"
    index = resource_id - radix
    per_src = layers * channel_multiplicity
    if not 0 <= index < layers * per_src:
        return f"res{resource_id}"
    src = index // per_src
    dst = (index // channel_multiplicity) % layers
    channel = index % channel_multiplicity
    return f"ch L{src}->L{dst}#{channel}"


def iter_chrome_events(events, resource_name) -> Iterator[Dict[str, object]]:
    """Generate Chrome ``trace_event`` dicts from raw event tuples.

    The Chrome export of :class:`repro.obs.tracebin.TraceColumns`, and
    so of every tracer and trace file.  Streaming: per-cycle
    ejected-flit counter samples flush as soon as the eject cycle
    advances (eject cycles are non-decreasing in every kernel's
    stream), so the only state held across the sweep is the open-path
    table and the resource-name set.

    Args:
        events: Iterable of ``(cycle, kind, a, b, c, d)`` tuples.
        resource_name: ``callable(resource_id) -> str`` for labelling.
    """
    yield {"ph": "M", "pid": 0, "name": "process_name",
           "args": {"name": "switch paths"}}
    yield {"ph": "M", "pid": 1, "name": "process_name",
           "args": {"name": "arbitration"}}
    yield {"ph": "M", "pid": 2, "name": "process_name",
           "args": {"name": "throughput"}}
    named_resources = set()
    open_paths: Dict[int, Tuple[int, int, int]] = {}  # input -> state
    eject_cycle = -1
    eject_count = 0
    last_cycle = 0

    def name_resource(resource: int) -> Optional[Dict[str, object]]:
        if resource in named_resources:
            return None
        named_resources.add(resource)
        return {"ph": "M", "pid": 0, "tid": resource, "name": "thread_name",
                "args": {"name": resource_name(resource)}}

    for cycle, kind, a, b, c, d in events:
        cycle = int(cycle)
        kind = int(kind)
        last_cycle = cycle if cycle > last_cycle else last_cycle
        if kind == P2_GRANT:
            open_paths[int(b)] = (cycle, int(a), int(c))
        elif kind == COOL:
            naming = name_resource(int(a))
            if naming is not None:
                yield naming
            start = int(d) if d >= 0 else cycle
            yield {"name": f"in{b} -> out{c}", "cat": "path", "ph": "X",
                   "ts": start, "dur": max(cycle - start, 1),
                   "pid": 0, "tid": int(a)}
            open_paths.pop(int(b), None)
        elif kind == EJECT:
            if cycle != eject_cycle:
                if eject_count:
                    yield {"name": "ejected_flits", "ph": "C",
                           "ts": eject_cycle, "pid": 2,
                           "args": {"flits": eject_count}}
                eject_cycle = cycle
                eject_count = 0
            eject_count += 1
        elif kind == CLRG_HALVE:
            yield {"name": "clrg_halve", "cat": "clrg", "ph": "i",
                   "ts": cycle, "pid": 1, "tid": int(a), "s": "t",
                   "args": {"output": int(a), "halvings": int(b)}}
        elif kind == DRAIN_STALL:
            yield {"name": "drain_stall", "cat": "engine", "ph": "i",
                   "ts": cycle, "pid": 1, "tid": 0, "s": "g",
                   "args": {"idle_cycles": int(a), "occupancy": int(b)}}
        elif kind == FAULT_INJECT or kind == FAULT_REPAIR:
            verb = "fault" if kind == FAULT_INJECT else "repair"
            kind_name = FAULT_NAMES.get(int(a), str(a))
            target = (
                resource_name(int(b)) if a == FAULT_CHANNEL else str(b)
            )
            yield {"name": f"{verb}:{kind_name} {target}", "cat": "fault",
                   "ph": "i", "ts": cycle, "pid": 1, "tid": 0, "s": "g",
                   "args": {"fault": kind_name, "target": int(b),
                            "aux": int(c)}}
    if eject_count:
        yield {"name": "ejected_flits", "ph": "C", "ts": eject_cycle,
               "pid": 2, "args": {"flits": eject_count}}
    # Paths still streaming when the trace ended.
    for input_port, (start, resource, output) in open_paths.items():
        naming = name_resource(resource)
        if naming is not None:
            yield naming
        yield {"name": f"in{input_port} -> out{output} (open)",
               "cat": "path", "ph": "X", "ts": start,
               "dur": max(last_cycle - start, 1), "pid": 0, "tid": resource}


def write_chrome_stream(destination: Union[str, IO[str]],
                        events: Iterable[Dict[str, object]]) -> int:
    """Serialise Chrome trace events record-by-record; returns the count.

    Writes the ``traceEvents`` container incrementally instead of
    materialising the full event list, so exporting an arbitrarily large
    trace runs in bounded memory.
    """
    if not hasattr(destination, "write"):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_chrome_stream(handle, events)
    destination.write('{"traceEvents": [')
    count = 0
    for event in events:
        if count:
            destination.write(", ")
        destination.write(json.dumps(event))
        count += 1
    destination.write('], "displayTimeUnit": "ms"}')
    return count


# ---------------------------------------------------------------------------
# Schema validation (used by tests, the CLI, and the CI smoke job)
# ---------------------------------------------------------------------------
def validate_record(record: Dict[str, object]) -> Optional[List[int]]:
    """Validate one JSONL event record against the schema.

    Returns the event as its ``[cycle, kind, a, b, c, d]`` column row
    (payload slots the kind does not use are 0), or ``None`` for the
    meta record.

    Raises:
        ValueError: On a record that is not an object, a missing/unknown
            event name, a missing field, or a non-integer cycle/field
            value.
    """
    if not isinstance(record, dict):
        raise ValueError(f"trace record is not an object: {record!r}")
    event = record.get("event")
    if event == "meta":
        version = record.get("version")
        if not isinstance(version, int):
            raise ValueError("meta record missing integer 'version'")
        return None
    kind = _NAME_TO_KIND.get(event)
    if kind is None:
        raise ValueError(f"unknown event name: {event!r}")
    cycle = record.get("cycle")
    if not isinstance(cycle, int) or cycle < 0:
        raise ValueError(f"{event}: cycle must be a non-negative integer")
    row = [cycle, kind]
    for field in EVENT_FIELDS[kind]:
        value = record.get(field)
        if not isinstance(value, int):
            raise ValueError(f"{event}: field {field!r} missing or not an int")
        row.append(value)
    row.extend(_PADDING[len(row):])
    return row


def validate_records(records: Iterable[Dict[str, object]]) -> int:
    """Validate an iterable of records (meta first); returns the count.

    Raises:
        ValueError: On an empty stream, a stream not starting with a
            meta record, or any invalid record.
    """
    count = 0
    for index, record in enumerate(records):
        if index == 0 and record.get("event") != "meta":
            raise ValueError("trace must start with a meta record")
        validate_record(record)
        count += 1
    if count == 0:
        raise ValueError("empty trace")
    return count


def validate_jsonl_path(path) -> int:
    """Validate a JSONL trace file; returns the record count."""
    from repro.util.jsonl import iter_jsonl_strict

    return validate_records(iter_jsonl_strict(path))


def validate_chrome(trace: Dict[str, object]) -> int:
    """Validate a Chrome trace_event dict; returns the event count.

    Raises:
        ValueError: If the container or any event is malformed.
    """
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("chrome trace needs a non-empty traceEvents list")
    for event in events:
        if not isinstance(event, dict):
            raise ValueError("trace event must be an object")
        phase = event.get("ph")
        if phase not in ("X", "i", "C", "M", "B", "E"):
            raise ValueError(f"unknown trace event phase: {phase!r}")
        if "name" not in event or "pid" not in event:
            raise ValueError("trace event needs 'name' and 'pid'")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, int) or ts < 0:
                raise ValueError("timed trace event needs integer 'ts' >= 0")
        if phase == "X" and not isinstance(event.get("dur"), int):
            raise ValueError("complete ('X') event needs integer 'dur'")
    return len(events)


def validate_chrome_path(path) -> int:
    """Validate a Chrome trace file; returns the event count."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_chrome(json.load(handle))
