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
* **voq_support** — no stage stores an empty VOQ (the scheduler builds
  each weight row from the stored VOQs, so every request it saw was
  real).

Both conservation and support read one list: every stored VOQ's length,
taken in one flat pass over all stages.  A VOQ exists only while it is
stored, so every flit in every VOQ is counted on every cycle.

Attached via the same ``invariants=`` constructor hook; checked runs
stay bit-identical to unchecked runs.  :func:`checker_for` picks the
right checker class for a config's arbitration scheme.
"""

from itertools import chain
from operator import attrgetter
from typing import Set

from repro.check.invariants import InvariantChecker, LedgerChecker

__all__ = ["MatchingInvariantChecker", "checker_for"]


class MatchingInvariantChecker(LedgerChecker):
    """Per-cycle matching-legality verification for one VOQ switch.

    Shares the :class:`repro.check.InvariantChecker` interface
    (``bind``/``after_step``/``summary``) so the harness and the
    telemetry snapshot treat both checker families identically.
    """

    # ------------------------------------------------------------------
    # The per-cycle check (called at the end of VOQSwitch.step())
    # ------------------------------------------------------------------
    def after_step(self, switch, cycle: int, ejected) -> None:
        """Verify the scheduler contract against post-step state."""
        self.cycles_checked += 1
        self.ejected_flits += len(ejected)

        # 1. Flit conservation, from one flat read of every stored VOQ's
        # length (check 4 reuses it) plus each source queue's backlog.
        stages = switch.stages
        lengths = list(map(len, chain.from_iterable(
            map(dict.values, map(attrgetter("voqs"), stages)))))
        occupancy = sum(lengths) + sum(
            map(attrgetter("source._pending_flits"), stages))
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

        # 4. VOQ support: a stage stores only its non-empty VOQs.
        if 0 in lengths:
            for stage in stages:
                for output, voq in stage.voqs.items():
                    if not voq:
                        self._fail(
                            switch, "voq_support", cycle,
                            f"stage {stage.input_id} stores VOQ[{output}] "
                            f"empty", (stage.input_id, output),
                        )


def checker_for(config, snapshot_ports: int = 8):
    """Build the invariant checker matching a config's scheme family.

    VOQ schemes get a :class:`MatchingInvariantChecker`; Hi-Rise
    schemes get the structural :class:`repro.check.InvariantChecker`.
    """
    if config.uses_voq:
        return MatchingInvariantChecker(snapshot_ports=snapshot_ports)
    return InvariantChecker(snapshot_ports=snapshot_ports)
