"""Bipartite-matching helpers shared by the VOQ scheduler family.

An input-queued switch schedule is a matching on the bipartite graph
whose left vertices are inputs, right vertices are outputs, and edges
are the non-empty VOQs (input ``i`` holds traffic for output ``j``).
iSLIP computes a maximal matching iteratively; the MWM oracle computes
a maximum-weight matching.  These helpers give both schedulers — and
the property tests and runtime invariants that pin them — one shared
vocabulary for validity, weight, and maximality.

A matching is represented as ``Dict[int, int]`` mapping input -> output.
A request/weight matrix is any ``Sequence[Sequence[int]]`` of shape
``(num_inputs, num_outputs)``; entry ``[i][j] > 0`` means input ``i``
requests output ``j`` with that weight (the age of the VOQ's head
flit plus one, in :class:`repro.switches.VOQSwitch`).
"""

from typing import Dict, Sequence

Matching = Dict[int, int]
WeightMatrix = Sequence[Sequence[int]]

__all__ = [
    "Matching",
    "WeightMatrix",
    "is_valid_matching",
    "matching_weight",
    "is_maximal_matching",
]


def is_valid_matching(matching: Matching, weights: WeightMatrix) -> bool:
    """True when no input or output is matched twice and every matched
    edge corresponds to an actual request (positive weight)."""
    outputs_seen = set()
    for inp, out in matching.items():
        if not 0 <= inp < len(weights):
            return False
        if not 0 <= out < len(weights[inp]):
            return False
        if weights[inp][out] <= 0:
            return False
        if out in outputs_seen:
            return False
        outputs_seen.add(out)
    return True


def matching_weight(matching: Matching, weights: WeightMatrix) -> int:
    """Total weight (sum of VOQ occupancies) carried by the matching."""
    return sum(weights[inp][out] for inp, out in matching.items())


def is_maximal_matching(matching: Matching, weights: WeightMatrix) -> bool:
    """True when no request edge can be added without a conflict.

    Maximal (no augmenting single edge), not maximum: every unmatched
    input with a positive-weight request must only request outputs that
    are already matched.
    """
    matched_outputs = set(matching.values())
    for inp, row in enumerate(weights):
        if inp in matching:
            continue
        for out, weight in enumerate(row):
            if weight > 0 and out not in matched_outputs:
                return False
    return True
