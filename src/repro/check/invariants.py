"""Runtime structural invariants for the Hi-Rise cycle kernels.

An :class:`InvariantChecker` is handed to a switch at construction
(``HiRiseSwitch(config, invariants=...)`` or
``ReferenceHiRiseSwitch(config, invariants=...)``) and re-verifies, at
the end of every ``step(cycle)``, the structural properties the paper's
single-cycle two-phase arbitration guarantees by construction:

* **flit conservation** — every injected flit is either still inside
  the switch or has been ejected (the fault model *quiesces* in-flight
  packets, it never drops flits, so dropped-by-fault is identically 0);
* **path coherence** — ``connections``, ``resource_owner``,
  ``output_owner`` and the ports' active-VC state describe the same set
  of locked paths (at most one grant per output sub-block, at most one
  owner per resource);
* **grant legality** — a path granted this cycle went to a non-stuck
  input, over a healthy (non-failed, non-diagonal) resource that
  geometrically connects the input's layer to the output's layer, and
  never to an input/output/resource in its cooling blackout cycle;
* **L2LC occupancy** — at most ``c`` busy channels per ordered layer
  pair (Section III-A's channel redundancy bound);
* **CLRG sanity** — class counters stay within their saturation range
  ``[0, num_classes - 1]``, banks halve at most once per cycle (one
  grant per output per cycle), and a halving cycle leaves every counter
  at ``<= max_count // 2 + 1`` (halve-all-together plus the winner's
  increment, Section III-B);
* **LRG total order** — every least-recently-granted arbiter's recency
  keys are pairwise distinct with the next stamp strictly above them
  (a valid total order, the paper's LRG priority invariant).

Like the ``tracer=`` and ``faults=`` hooks, the checker is opt-in at
construction: an unchecked switch carries a single predictable
``invariants is None`` branch per cycle and is bit-identical to the
pre-checker kernels.  A failed check raises a structured
:class:`InvariantViolation` carrying the cycle, the implicated flat
resource/port ids, and a telemetry snapshot — and, on a traced switch,
emits one ``invariant`` trace event first so the failure is visible on
the timeline.
"""

import json
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CHECK_CODES",
    "DrainStallError",
    "InvariantChecker",
    "InvariantViolation",
    "LedgerChecker",
]

#: Check name -> integer code used in the ``invariant`` trace event.
CHECK_CODES: Dict[str, int] = {
    "flit_conservation": 0,
    "path_coherence": 1,
    "output_uniqueness": 2,
    "grant_legality": 3,
    "l2lc_occupancy": 4,
    "clrg_counters": 5,
    "lrg_order": 6,
    "drain_stall": 7,
    # VOQ scheduler checks (repro.check.matching).  10 stays reserved:
    # it was voq_occupancy, a per-output VOQ counter the stages no
    # longer keep.  Codes are never reused, so old traces still decode.
    "matching_validity": 8,
    "stuck_input_grant": 9,
    "voq_support": 11,
}


class InvariantViolation(RuntimeError):
    """A structural switch invariant failed during a checked run.

    Attributes:
        check: Invariant name (a :data:`CHECK_CODES` key).
        cycle: Simulation cycle the violation was detected at.
        resources: Implicated flat resource/port ids (may be empty).
        snapshot: :func:`repro.obs.telemetry_snapshot` of the switch at
            detection time (``None`` when no switch was available).
    """

    def __init__(
        self,
        message: str,
        *,
        check: str = "",
        cycle: int = -1,
        resources: Sequence[int] = (),
        snapshot: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(message)
        self.check = check
        self.cycle = cycle
        self.resources = tuple(int(r) for r in resources)
        self.snapshot = snapshot

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable record (embedded in repro files)."""
        return {
            "check": self.check,
            "cycle": self.cycle,
            "resources": list(self.resources),
            "message": str(self),
            "snapshot": self.snapshot,
        }


class DrainStallError(InvariantViolation):
    """A draining simulation made no progress for the idle limit.

    Raised by :meth:`repro.network.engine.Simulation.run` in place of
    the former bare ``RuntimeError`` (which it still is, so existing
    callers keep working) so ``repro check`` classifies a wedged drain
    as a structured violation instead of crashing the fuzz loop.
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: int = -1,
        idle_cycles: int = 0,
        occupancy: int = 0,
        snapshot: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(
            message, check="drain_stall", cycle=cycle, snapshot=snapshot
        )
        self.idle_cycles = idle_cycles
        self.occupancy = occupancy


def count_injections(checker, switch) -> None:
    """Wrap ``switch``'s injection entry points to feed a flit ledger.

    ``inject``, ``inject_many`` (when the switch has it) and
    ``inject_columns`` add what they queue to ``checker.injected_packets``
    and ``checker.injected_flits``.  The checker binds after the tracer
    and the perf counters, so it wraps their twins; every kernel a
    checker verifies queues columns itself rather than through
    ``inject``, so no packet is counted twice.
    """
    original_inject = switch.inject

    def _counting_inject(packet, _original=original_inject):
        _original(packet)
        checker.injected_packets += 1
        checker.injected_flits += packet.num_flits

    switch.inject = _counting_inject

    original_many = getattr(switch, "inject_many", None)
    if original_many is not None:

        def _counting_inject_many(packets, _original=original_many):
            materialised = list(packets)
            count = _original(materialised)
            checker.injected_packets += count
            checker.injected_flits += sum(
                packet.num_flits for packet in materialised
            )
            return count

        switch.inject_many = _counting_inject_many

    original_columns = switch.inject_columns

    def _counting_inject_columns(srcs, dsts, first, cycle, num_flits,
                                 _original=original_columns):
        _original(srcs, dsts, first, cycle, num_flits)
        count = len(srcs)
        checker.injected_packets += count
        checker.injected_flits += count * num_flits

    switch.inject_columns = _counting_inject_columns


class LedgerChecker:
    """The flit ledger, failure path and summary of both checker kinds.

    A checker binds to one switch.  :class:`InvariantChecker` verifies
    the Hi-Rise kernels and
    :class:`repro.check.matching.MatchingInvariantChecker` the VOQ
    switch; each adds its ``after_step``.

    Args:
        snapshot_ports: Port-list cap passed to the telemetry snapshot
            embedded in violations.
    """

    def __init__(self, snapshot_ports: int = 8) -> None:
        self.snapshot_ports = snapshot_ports
        self.injected_flits = 0
        self.injected_packets = 0
        self.ejected_flits = 0
        self.cycles_checked = 0
        self.config = None
        self._switch = None
        self._prev_connections: Dict[int, Tuple[int, int]] = {}

    def bind(self, switch) -> None:
        """Attach to a switch; wraps its injection methods for counting."""
        if self._switch is not None and self._switch is not switch:
            raise ValueError(
                f"{type(self).__name__} verifies exactly one switch; "
                "build one checker per switch"
            )
        self._switch = switch
        self.config = switch.config
        count_injections(self, switch)

    def _fail(
        self,
        switch,
        check: str,
        cycle: int,
        detail: str,
        resources: Sequence[int] = (),
    ) -> None:
        from repro.obs.snapshot import telemetry_snapshot
        from repro.obs.trace import INVARIANT

        tracer = getattr(switch, "_tracer", None)
        if tracer is not None:
            first = resources[0] if resources else -1
            second = resources[1] if len(resources) > 1 else -1
            tracer.emit(INVARIANT, CHECK_CODES.get(check, -1), first, second)
        snapshot = telemetry_snapshot(switch, max_ports=self.snapshot_ports)
        raise InvariantViolation(
            f"invariant {check!r} violated at cycle {cycle}: {detail}",
            check=check,
            cycle=cycle,
            resources=resources,
            snapshot=snapshot,
        )

    def summary(self) -> Dict[str, int]:
        """Conservation ledger totals (embedded in telemetry snapshots)."""
        return {
            "cycles_checked": self.cycles_checked,
            "injected_packets": self.injected_packets,
            "injected_flits": self.injected_flits,
            "ejected_flits": self.ejected_flits,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(cycles_checked={self.cycles_checked}, "
            f"injected_flits={self.injected_flits}, "
            f"ejected_flits={self.ejected_flits})"
        )


class InvariantChecker(LedgerChecker):
    """Per-cycle structural invariant verification for one switch.

    A checker binds to exactly one switch (differential runs need one
    checker per kernel); it counts injected flits by wrapping the
    switch's injection methods and re-derives everything else from the
    public path state after each step, so a passing checked run is
    bit-identical to an unchecked one.
    """

    def __init__(self, snapshot_ports: int = 8) -> None:
        super().__init__(snapshot_ports)
        self._rid_of_key: Dict[Tuple, int] = {}
        self._prev_halvings: Dict[int, int] = {}
        self._rank_holders: List[Tuple[object, str]] = []
        self._verified_orders: List[Optional[Tuple[List[int], int]]] = []
        self._banks: List[Tuple[int, object, str]] = []
        self._verified_banks: List[Optional[Tuple[list, int, bool]]] = []
        self._fifos: List[object] = []

    # ------------------------------------------------------------------
    # Construction-time wiring (called by the kernels)
    # ------------------------------------------------------------------
    def bind(self, switch) -> None:
        """Attach to a switch and resolve the state each cycle reads."""
        super().bind(switch)
        self._rid_of_key = {
            key: rid
            for rid, key in enumerate(switch.config.resource_key_table)
        }
        # Resolved once: fault events mutate arbiter state in place
        # (CORRUPT_CLRG rewrites counter values) and never replace an
        # arbiter or its counter bank, so these stay the live objects.
        # A bank's counter list is named, not held: halving replaces it
        # (the QoS bank keeps its fractional costs in ``_costs``).
        self._rank_holders = _rank_holders(switch)
        self._verified_orders = [None] * len(self._rank_holders)
        self._banks = [
            (output, arbiter.counters,
             "_costs" if hasattr(arbiter.counters, "_costs") else "_counts")
            for output, arbiter in switch.subblock_arbiters.items()
            if getattr(arbiter, "counters", None) is not None
        ]
        self._verified_banks = [None] * len(self._banks)
        # Ports never replace their VC FIFOs.
        self._fifos = [vc._fifo for port in switch.ports for vc in port.vcs]

    # ------------------------------------------------------------------
    # State normalisation (fast kernel: flat ids; reference: tuple keys)
    # ------------------------------------------------------------------
    def _flat_connections(self, switch) -> Dict[int, Tuple[int, int]]:
        rid_of_key = self._rid_of_key
        flat: Dict[int, Tuple[int, int]] = {}
        for input_port, (resource, output) in switch.connections.items():
            rid = resource if isinstance(resource, int) else rid_of_key[resource]
            flat[input_port] = (rid, output)
        return flat

    def _busy_resources(self, switch) -> Dict[int, int]:
        owner_state = switch.resource_owner
        if isinstance(owner_state, dict):
            rid_of_key = self._rid_of_key
            return {
                rid_of_key[key]: owner for key, owner in owner_state.items()
            }
        return {
            rid: owner for rid, owner in enumerate(owner_state) if owner >= 0
        }

    def _cooling(self, switch):
        paths = getattr(switch, "_cooling_paths", None)
        if paths is not None:
            # Fast kernel: (src, output, rid) triples torn down this
            # cycle.  (The permanent diagonal sentinels live only in the
            # _res_cooling bytearray, never here.)
            inputs = {path[0] for path in paths}
            outputs = {path[1] for path in paths}
            resources = {path[2] for path in paths}
        else:
            rid_of_key = self._rid_of_key
            inputs = set(switch._cooling_inputs)
            outputs = set(switch._cooling_outputs)
            resources = {rid_of_key[key] for key in switch._cooling_resources}
        return inputs, outputs, resources

    # ------------------------------------------------------------------
    # The per-cycle check (called at the end of step())
    # ------------------------------------------------------------------
    def after_step(self, switch, cycle: int, ejected) -> None:
        """Verify every invariant against the post-step switch state."""
        self.cycles_checked += 1
        self.ejected_flits += len(ejected)
        cfg = switch.config

        # 1. Flit conservation: the fault model quiesces in-flight
        # packets (flits are never dropped), so the ledger is exact.
        occupancy = sum(map(len, self._fifos)) + sum(
            map(attrgetter("_pending_flits"), switch._queues))
        expected = occupancy + self.ejected_flits
        if self.injected_flits != expected:
            self._fail(
                switch, "flit_conservation", cycle,
                f"{self.injected_flits} flits injected but "
                f"{occupancy} in flight + {self.ejected_flits} ejected "
                f"= {expected}",
            )

        connections = self._flat_connections(switch)
        busy = self._busy_resources(switch)

        # 2/3. Path coherence and output uniqueness.
        outputs_seen: Dict[int, int] = {}
        resources_seen: Dict[int, int] = {}
        key_table = cfg.resource_key_table
        for input_port, (rid, output) in connections.items():
            prior = outputs_seen.get(output)
            if prior is not None:
                self._fail(
                    switch, "output_uniqueness", cycle,
                    f"output {output} held by inputs {prior} and "
                    f"{input_port} simultaneously",
                    resources=(output, prior, input_port),
                )
            outputs_seen[output] = input_port
            prior = resources_seen.get(rid)
            if prior is not None:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"resource {key_table[rid]} held by inputs {prior} "
                    f"and {input_port} simultaneously",
                    resources=(rid, prior, input_port),
                )
            resources_seen[rid] = input_port
            if busy.get(rid) != input_port:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"connection {input_port} -> {key_table[rid]} but "
                    f"resource owner is {busy.get(rid)}",
                    resources=(rid, input_port),
                )
            if switch.output_owner[output] != input_port:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"connection {input_port} -> output {output} but "
                    f"output owner is {switch.output_owner[output]}",
                    resources=(output, input_port),
                )
        for rid, owner in busy.items():
            if rid not in resources_seen:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"resource {key_table[rid]} owned by input {owner} "
                    f"without a connection (leaked path)",
                    resources=(rid, owner),
                )
        for output, owner in enumerate(switch.output_owner):
            if owner is not None and outputs_seen.get(output) != owner:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"output {output} owned by input {owner} without a "
                    f"connection (leaked output)",
                    resources=(output, owner),
                )
        for port in switch.ports:
            connected = port.port_id in connections
            if (port.active_vc is not None) != connected:
                self._fail(
                    switch, "path_coherence", cycle,
                    f"input {port.port_id} active_vc={port.active_vc} "
                    f"but connected={connected}",
                    resources=(port.port_id,),
                )

        # 3. Grant legality for paths locked this cycle.
        cooling_inputs, cooling_outputs, cooling_resources = (
            self._cooling(switch)
        )
        previous = self._prev_connections
        failed_channels = switch.failed_channels
        for input_port, path in connections.items():
            if previous.get(input_port) == path:
                continue  # held over from an earlier cycle
            rid, output = path
            if switch.grant_cycle.get(input_port) != cycle:
                self._fail(
                    switch, "grant_legality", cycle,
                    f"new path {input_port} -> output {output} carries "
                    f"grant cycle {switch.grant_cycle.get(input_port)}",
                    resources=(rid, input_port),
                )
            if input_port in switch.stuck_inputs:
                self._fail(
                    switch, "grant_legality", cycle,
                    f"stuck input {input_port} was granted output {output}",
                    resources=(rid, input_port),
                )
            if (input_port in cooling_inputs or output in cooling_outputs
                    or rid in cooling_resources):
                self._fail(
                    switch, "grant_legality", cycle,
                    f"grant {input_port} -> output {output} through "
                    f"{key_table[rid]} during its cooling blackout",
                    resources=(rid, input_port),
                )
            key = key_table[rid]
            if key[0] == "ch":
                src_layer, dst_layer, channel = key[1], key[2], key[3]
                if src_layer == dst_layer:
                    self._fail(
                        switch, "grant_legality", cycle,
                        f"diagonal channel {key} granted",
                        resources=(rid, input_port),
                    )
                if (src_layer, dst_layer, channel) in failed_channels:
                    self._fail(
                        switch, "grant_legality", cycle,
                        f"failed channel {key} granted to input "
                        f"{input_port}",
                        resources=(rid, input_port),
                    )
                if (cfg.layer_of_port(input_port) != src_layer
                        or cfg.layer_of_port(output) != dst_layer):
                    self._fail(
                        switch, "grant_legality", cycle,
                        f"channel {key} does not connect input "
                        f"{input_port} to output {output}",
                        resources=(rid, input_port),
                    )
            else:  # intermediate output: same-layer path, rid == output
                if (cfg.layer_of_port(input_port) != key[1]
                        or output != rid):
                    self._fail(
                        switch, "grant_legality", cycle,
                        f"intermediate output {key} does not connect "
                        f"input {input_port} to output {output}",
                        resources=(rid, input_port),
                    )

        # 4. L2LC occupancy <= c per ordered layer pair.
        pair_busy: Dict[Tuple[int, int], int] = {}
        for rid in busy:
            key = key_table[rid]
            if key[0] != "ch":
                continue
            pair = (key[1], key[2])
            pair_busy[pair] = pair_busy.get(pair, 0) + 1
        for pair, count in pair_busy.items():
            if count > cfg.channel_multiplicity:
                self._fail(
                    switch, "l2lc_occupancy", cycle,
                    f"{count} busy channels between layers {pair[0]} -> "
                    f"{pair[1]} exceeds c={cfg.channel_multiplicity}",
                    resources=pair,
                )

        # 5. CLRG counter sanity (integer banks only: the QoS extension
        # charges fractional costs whose post-halving bound depends on
        # the weights, so it is exempt from the integer-bank bounds).
        # The range predicates are pure functions of the counter values
        # and the bound, so a bank holding the values it held when last
        # verified is not re-derived; the memo is a copy, so a counter
        # written in place differs from it.
        prev_halvings = self._prev_halvings
        verified_banks = self._verified_banks
        for index, (output, counters, live) in enumerate(self._banks):
            counts = getattr(counters, live)
            halvings = counters._halvings
            max_count = counters.num_classes - 1
            verified = verified_banks[index]
            if (verified is not None and verified[0] == counts
                    and verified[1] == max_count):
                integer_bank = verified[2]
            else:
                integer_bank = all(map(int.__instancecheck__, counts))
                if integer_bank and (
                    min(counts) < 0 or max(counts) > max_count
                ):
                    self._fail(
                        switch, "clrg_counters", cycle,
                        f"output {output} class counters {counts} outside "
                        f"[0, {max_count}]",
                        resources=(output,),
                    )
                verified_banks[index] = (list(counts), max_count,
                                         integer_bank)
            before = prev_halvings.get(output, halvings)
            if halvings < before or halvings > before + 1:
                self._fail(
                    switch, "clrg_counters", cycle,
                    f"output {output} halvings went {before} -> "
                    f"{halvings} in one cycle (one grant per output per "
                    f"cycle allows at most one halving)",
                    resources=(output,),
                )
            if integer_bank and halvings == before + 1:
                bound = max_count // 2 + 1
                if max(counts) > bound:
                    self._fail(
                        switch, "clrg_counters", cycle,
                        f"output {output} halved this cycle but counters "
                        f"{counts} exceed {bound} (bank did not halve "
                        f"all together)",
                        resources=(output,),
                    )
            prev_halvings[output] = halvings

        # 6. LRG recency keys form a valid total order everywhere.
        self._check_lrg_orders(switch, cycle)

        self._prev_connections = connections

    def _check_lrg_orders(self, switch, cycle: int) -> None:
        # The order predicate is a pure function of the keys and the
        # next stamp; a holder unchanged since it was last verified (most
        # of them: a cycle updates only its winners) is skipped.
        verified = self._verified_orders
        for index, (lrg, label) in enumerate(self._rank_holders):
            ranks = lrg._rank
            stamp = lrg._stamp
            if verified[index] == (ranks, stamp):
                continue
            if len(set(ranks)) != len(ranks) or stamp <= max(ranks):
                self._fail(
                    switch, "lrg_order", cycle,
                    f"{label} recency keys {list(ranks)} (next stamp "
                    f"{stamp}) are not a valid total order",
                )
            verified[index] = (list(ranks), stamp)


def _rank_holders(switch) -> List[Tuple[object, str]]:
    """Every LRG recency-key holder of ``switch`` with its report label."""
    labelled = [
        *((arbiter, f"intermediate arbiter L{layer}.{local}")
          for (layer, local), arbiter in switch.int_arbiters.items()),
        *((arbiter, f"channel arbiter L{src}->L{dst}#{channel}")
          for (src, dst, channel), arbiter in switch.chan_arbiters.items()),
        *((arbiter, f"pair arbiter L{src}->L{dst}")
          for (src, dst), arbiter in switch.pair_arbiters.items()),
        *((arbiter, f"sub-block arbiter out{output}")
          for output, arbiter in switch.subblock_arbiters.items()),
    ]
    holders: List[Tuple[object, str]] = []
    for arbiter, label in labelled:
        # An LRG arbiter holds its own keys, CLRG/WLRG hold them on
        # ``lrg``; round-robin / age sub-blocks carry no LRG state.
        lrg = arbiter if hasattr(arbiter, "_rank") else getattr(
            arbiter, "lrg", None
        )
        if lrg is not None and hasattr(lrg, "_rank"):
            holders.append((lrg, label))
    return holders
