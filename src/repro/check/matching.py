"""Runtime invariants for the VOQ input-queued switch.

The matching-legality twin of :class:`repro.check.InvariantChecker`:
where the Hi-Rise checker re-derives path/arbiter legality from the 3D
switch's resource tables, this checker verifies the scheduler contract
of :class:`repro.switches.VOQSwitch` after every cycle:

* **flit conservation** — injected = ejected + resident (faults wedge
  traffic, they never drop it);
* **matching validity** — the connection set is a bipartite matching:
  no output driven by two inputs, ``output_owner`` coherent with
  ``connections``, every connection's resource id equal to its output
  (the VOQ fabric is flat);
* **grant legality** — no connection established for an input the
  fault schedule has stuck (schedulers must not chase the phantom
  weight of a port that cannot transmit), and no grant to an input or
  output whose tail moved the same cycle (the single-cycle
  arbitrate-or-transmit contract);
* **voq_occupancy** — every stage's occupancy row equals its actual
  VOQ lengths;
* **voq_support** — every stage's ``nonempty`` set names exactly the
  outputs whose VOQ holds a flit (the scheduler builds each weight row
  from that set, so the weights it saw were real).

Attached via the same ``invariants=`` constructor hook; checked runs
stay bit-identical to unchecked runs.  :func:`checker_for` picks the
right checker class for a config's arbitration scheme.
"""

from typing import Dict, Sequence, Set, Tuple

from repro.check.invariants import (
    CHECK_CODES,
    InvariantViolation,
    count_injections,
)

__all__ = ["MatchingInvariantChecker", "checker_for"]


class MatchingInvariantChecker:
    """Per-cycle matching-legality verification for one VOQ switch.

    Mirrors the :class:`repro.check.InvariantChecker` interface
    (``bind``/``after_step``/``summary``) so the harness and the
    telemetry snapshot treat both checker families identically.
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
                "a MatchingInvariantChecker verifies exactly one switch; "
                "build one checker per switch"
            )
        self._switch = switch
        self.config = switch.config

        count_injections(self, switch)

    # ------------------------------------------------------------------
    # Failure path (identical shape to InvariantChecker._fail)
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # The per-cycle check (called at the end of VOQSwitch.step())
    # ------------------------------------------------------------------
    def after_step(self, switch, cycle: int, ejected) -> None:
        """Verify the scheduler contract against post-step state."""
        self.cycles_checked += 1
        self.ejected_flits += len(ejected)

        # 1. Flit conservation.
        occupancy = switch.occupancy()
        expected = self.injected_flits - self.ejected_flits
        if occupancy != expected:
            self._fail(
                switch, "flit_conservation", cycle,
                f"resident flits {occupancy} != injected "
                f"{self.injected_flits} - ejected {self.ejected_flits}",
            )

        # 2. Matching validity: connections form a matching and agree
        # with output_owner in both directions.
        connections = switch.connections
        output_owner = switch.output_owner
        seen_outputs: Set[int] = set()
        for inp, (resource, output) in connections.items():
            if resource != output:
                self._fail(
                    switch, "matching_validity", cycle,
                    f"input {inp} resource id {resource} != output "
                    f"{output} (VOQ resources are output ports)",
                    (inp, output),
                )
            if output in seen_outputs:
                self._fail(
                    switch, "matching_validity", cycle,
                    f"output {output} matched to two inputs",
                    (output,),
                )
            seen_outputs.add(output)
            if output_owner[output] != inp:
                self._fail(
                    switch, "matching_validity", cycle,
                    f"connection {inp}->{output} but output_owner"
                    f"[{output}] is {output_owner[output]}",
                    (inp, output),
                )
        for output, owner in enumerate(output_owner):
            if owner is not None and connections.get(owner, (None, None))[1] != output:
                self._fail(
                    switch, "matching_validity", cycle,
                    f"output_owner[{output}] = {owner} without a "
                    f"matching connection",
                    (owner, output),
                )

        # 3. Grant legality: connections established this cycle must not
        # involve stuck inputs or endpoints whose tail moved this cycle.
        prev = self._prev_connections
        stuck = switch.stuck_inputs
        cooling_inputs = {f.src for f in ejected if f.is_tail}
        cooling_outputs = {f.dst for f in ejected if f.is_tail}
        for inp, (resource, output) in connections.items():
            if prev.get(inp) == (resource, output):
                continue  # established in an earlier cycle
            if inp in stuck:
                self._fail(
                    switch, "stuck_input_grant", cycle,
                    f"scheduler granted output {output} to stuck "
                    f"input {inp}",
                    (inp, output),
                )
            if inp in cooling_inputs or output in cooling_outputs:
                self._fail(
                    switch, "grant_legality", cycle,
                    f"grant {inp}->{output} in the same cycle its "
                    f"endpoint transmitted a tail",
                    (inp, output),
                )
            if switch.grant_cycle.get(inp) != cycle:
                self._fail(
                    switch, "grant_legality", cycle,
                    f"new connection {inp}->{output} without a grant "
                    f"stamp this cycle",
                    (inp, output),
                )
        self._prev_connections = dict(connections)

        # 4. VOQ occupancy rows match the actual queue lengths, and
        # 5. each stage's non-empty set is exactly its non-empty VOQs (the
        # scheduler builds a weight row from that set alone).  One pass
        # over the stages reads each VOQ's length once for both; a
        # stage is walked cell by cell only to name its first mismatch.
        for stage in switch.stages:
            row = stage.occupancy_row
            lengths = list(map(len, stage.voqs))
            if row != lengths:
                for output, (count, actual) in enumerate(zip(row, lengths)):
                    if count != actual:
                        self._fail(
                            switch, "voq_occupancy", cycle,
                            f"stage {stage.input_id} VOQ[{output}] counter "
                            f"{count} != length {actual}",
                            (stage.input_id, output),
                        )
            nonempty = stage.nonempty
            if len(nonempty) == len(lengths) - lengths.count(0) and all(
                map(lengths.__getitem__, nonempty)
            ):
                continue
            for output, actual in enumerate(lengths):
                if (output in nonempty) != (actual > 0):
                    self._fail(
                        switch, "voq_support", cycle,
                        f"stage {stage.input_id} VOQ[{output}] holds "
                        f"{actual} flits but is "
                        f"{'' if output in nonempty else 'not '}"
                        f"in the non-empty set",
                        (stage.input_id, output),
                    )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
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
            f"MatchingInvariantChecker(cycles_checked={self.cycles_checked}, "
            f"injected_flits={self.injected_flits}, "
            f"ejected_flits={self.ejected_flits})"
        )


def checker_for(config, snapshot_ports: int = 8):
    """Build the invariant checker matching a config's scheme family.

    VOQ schemes get a :class:`MatchingInvariantChecker`; Hi-Rise
    schemes get the structural :class:`repro.check.InvariantChecker`.
    """
    if config.uses_voq:
        return MatchingInvariantChecker(snapshot_ports=snapshot_ports)
    from repro.check.invariants import InvariantChecker

    return InvariantChecker(snapshot_ports=snapshot_ports)
