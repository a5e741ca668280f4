"""iSLIP: iterative round-robin matching for VOQ input-queued switches.

McKeown's iSLIP (the Tiny Tera scheduler) computes a maximal matching
in rounds of request / grant / accept:

1. **Request** — every unmatched input sends a request to every output
   with a non-empty VOQ.
2. **Grant** — every unmatched output grants the requesting input at or
   after its *grant pointer* (round-robin).
3. **Accept** — every input that received grants accepts the granting
   output at or after its *accept pointer*; the pair is matched.

The pointer update rule is what makes iSLIP stable: pointers advance to
one past the matched partner **only when the grant is accepted in the
first iteration**.  Later-iteration matches leave pointers untouched.
Because an accepted output's pointer moves past the input it just
served, under loaded uniform traffic the pointers *desynchronize* —
after a handful of cycles no two outputs point at the same input, every
round-1 grant is accepted, and throughput reaches 100% (the property
battery in ``tests/arbitration/test_properties.py`` pins this).

With one iteration and at most one non-empty VOQ per input, iSLIP
degenerates to independent round-robin arbitration per output — the
differential parity test pins that equivalence against
:class:`repro.arbitration.RoundRobinArbiter`.
"""

from bisect import bisect_left
from itertools import compress, repeat
from operator import gt
from typing import Callable, Dict, List, Optional, Tuple

from repro.arbitration.matching import Matching, WeightMatrix

__all__ = ["ISLIPArbiter", "RoundObserver"]

#: Callback invoked once per (iteration, stage) with the per-port
#: pairings decided in that stage: ``observer(iteration, stage, pairs)``
#: where stage is "grant" (output -> input granted) or "accept"
#: (input -> output accepted) and pairs is a list of (port, partner).
RoundObserver = Callable[[int, str, List[Tuple[int, int]]], None]


class ISLIPArbiter:
    """iSLIP scheduler over an ``num_ports`` x ``num_ports`` VOQ fabric.

    Unlike the single-resource :class:`repro.arbitration.Arbiter`
    subclasses, an iSLIP arbiter owns the whole matching problem: one
    grant pointer per output and one accept pointer per input, advanced
    together under the iteration-1 accept rule.
    """

    def __init__(self, num_ports: int, iterations: int = 1) -> None:
        if num_ports < 1:
            raise ValueError("iSLIP needs at least one port")
        if iterations < 1:
            raise ValueError("iSLIP needs at least one iteration")
        self.num_ports = num_ports
        self.iterations = iterations
        #: Per-output round-robin pointer used in the grant stage.
        self.grant_pointers = [0] * num_ports
        #: Per-input round-robin pointer used in the accept stage.
        self.accept_pointers = [0] * num_ports

    def match(
        self,
        weights: WeightMatrix,
        observer: Optional[RoundObserver] = None,
    ) -> Matching:
        """Compute a matching over the request matrix ``weights``.

        ``weights[i][j] > 0`` means input ``i`` requests output ``j``
        (the magnitude is ignored — iSLIP sees only request presence).
        Returns input -> output; commits pointer updates for matches
        made in iteration 1.
        """
        n = self.num_ports
        if len(weights) != n or any(len(row) != n for row in weights):
            raise ValueError(f"weights must be {n}x{n}")

        # Per-output requesters in ascending input order, from the rows
        # that request anything (largest weight positive).  Ascending
        # lists let the round-robin pick bisect for the first entry at
        # or after a pointer (wrapping to the first entry).
        requesters: List[List[int]] = [[] for _ in range(n)]
        for inp, row in enumerate(weights):
            if max(row) > 0:
                for out in compress(range(n), map(gt, row, repeat(0))):
                    requesters[out].append(inp)
        grant_pointers = self.grant_pointers
        accept_pointers = self.accept_pointers
        matching: Matching = {}
        for iteration in range(self.iterations):
            # Request: unmatched inputs request all outputs with
            # backlogged VOQs that are still unmatched (a match is never
            # undone, so each round filters the previous round's lists).
            if iteration:
                matched_outputs = set(matching.values())
                requesters = [
                    [] if out in matched_outputs
                    else [inp for inp in requesting if inp not in matching]
                    for out, requesting in enumerate(requesters)
                ]
            requests = {out: r for out, r in enumerate(requesters) if r}
            if not requests:
                break

            # Grant: each output picks the requesting input at or after
            # its grant pointer (the pointer does not move yet).
            grants: Dict[int, List[int]] = {}
            grant_pairs: List[Tuple[int, int]] = []
            for out, requesting in requests.items():
                inp = _first_at_or_after(grant_pointers[out], requesting)
                if inp in grants:
                    grants[inp].append(out)
                else:
                    grants[inp] = [out]
                grant_pairs.append((out, inp))
            if observer is not None:
                observer(iteration, "grant", grant_pairs)

            # Accept: each granted input picks the granting output at or
            # after its accept pointer; iteration-1 accepts commit both
            # pointers (the desynchronization rule).  Outputs were
            # granted in ascending order, so each list is sorted.
            accept_pairs: List[Tuple[int, int]] = []
            for inp, granting in grants.items():
                out = _first_at_or_after(accept_pointers[inp], granting)
                matching[inp] = out
                accept_pairs.append((inp, out))
                if iteration == 0:
                    grant_pointers[out] = (inp + 1) % n
                    accept_pointers[inp] = (out + 1) % n
            if observer is not None:
                observer(iteration, "accept", accept_pairs)
        return matching


def _first_at_or_after(pointer: int, candidates: List[int]) -> int:
    """First of the ascending, non-empty ``candidates`` at or after
    ``pointer``, wrapping round to the smallest."""
    index = bisect_left(candidates, pointer)
    return candidates[index] if index < len(candidates) else candidates[0]
