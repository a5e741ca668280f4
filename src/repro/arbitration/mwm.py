"""Maximum-weight matching oracle for VOQ scheduling quality bounds.

MWM scheduling (match the inputs to outputs maximizing total weight
served — head-of-line age in :class:`repro.switches.VOQSwitch`, i.e.
the oldest-cell-first discipline) is the classical quality upper bound
for input-queued switches: it achieves 100% throughput for any
admissible traffic but is far too slow for hardware — which is exactly
why iSLIP, and in this repo's framing the paper's single-cycle CLRG,
exist.  The oracle lets ``repro compare-schedulers`` place every
practical scheduler between two anchors: round-robin composition at
the bottom and MWM at the top.

The solver is a scipy-free Hungarian algorithm (the e-maxx form of
shortest augmenting paths with dual potentials, O(n^3)).  Weights are
negated into a min-cost assignment on a zero-padded square matrix, and
zero-weight pairs are dropped from the returned matching so only real
requests are ever matched.

The solver stays pure Python on purpose.  At switch radices (16-64) a
numpy inner loop is slower than the list loop: each augmenting step
touches one cost row and the free columns, too little work to amortise
per-call array overhead.  The speed comes instead from touching
less: the scan walks a list of free columns, the potential update
walks the list of used ones, the row invariants are hoisted out of the
scan, and the ``minv`` decrement rides in the next scan instead of a
loop of its own.  Every floating-point operation is the textbook one
on the textbook operands, so assignments (ties included) are
bit-identical to the plain form; ``tests/arbitration/test_mwm_solver.py``
keeps the plain form as a reference and checks that.
"""

from typing import List

from repro.arbitration.matching import Matching, WeightMatrix

__all__ = ["MWMOracle", "solve_assignment"]

_INF = float("inf")


def solve_assignment(cost: List[List[float]]) -> List[int]:
    """Minimum-cost assignment on a square matrix.

    Returns ``assign`` with ``assign[row] = column``.  Classic Hungarian
    with row/column potentials and one shortest-augmenting-path search
    per row; exact on integer inputs (comparisons only, no scaling).

    Columns are 1-based inside (column 0 is the virtual start of each
    search).  Each search grows a tree of *used* columns; every step:

    1. scans the *free* columns in ascending order: first applies the
       previous step's ``minv[j] -= delta`` (deferred into this scan,
       same operands, same result), then relaxes ``minv[j]`` with the
       reduced cost from the newest tree row and picks the first column
       of least ``minv`` (ties go to the lowest column, as in a full
       ``range`` scan);
    2. shifts the potentials by that ``delta`` on the used columns only;
    3. stops if the picked column is unmatched, else moves it to the
       tree.

    The last step's decrement is never applied: ``minv`` is rebuilt for
    the next row.
    """
    n = len(cost)
    if n == 0:
        return []
    # 1-based potentials/links; way[j] remembers the previous column on
    # the alternating path that reached column j.  Rows are padded so
    # the scan indexes them by the 1-based column directly.
    rows = [[0.0, *row] for row in cost]
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)  # match_col[j] = row matched to column j
    way = [0] * (n + 1)
    columns = range(1, n + 1)
    for row in columns:
        match_col[0] = row
        j0 = 0
        minv = [_INF] * (n + 1)
        free = list(columns)
        used = [0]
        shift = 0.0  # the decrement still owed to every free minv
        while True:
            i0 = match_col[j0]
            cost_row = rows[i0 - 1]
            u_i0 = u[i0]
            delta = _INF
            j1 = 0
            for j in free:
                cur = cost_row[j] - u_i0 - v[j]
                low = minv[j] - shift
                if cur < low:
                    low = cur
                    way[j] = j0
                minv[j] = low
                if low < delta:
                    delta = low
                    j1 = j
            for j in used:
                u[match_col[j]] += delta
                v[j] -= delta
            if match_col[j1] == 0:
                break
            shift = delta
            free.remove(j1)
            used.append(j1)
            j0 = j1
        j0 = j1
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assign = [0] * n
    for j in columns:
        if match_col[j]:
            assign[match_col[j] - 1] = j - 1
    return assign


class MWMOracle:
    """Stateless maximum-weight matcher over VOQ occupancy matrices.

    Mirrors the :class:`repro.arbitration.ISLIPArbiter` interface
    (``match(weights) -> Dict[input, output]``) so the VOQ switch can
    swap schedulers without caring which family it holds.  Ties between
    equal-weight matchings rotate: each call relabels inputs and outputs
    by an advancing offset before the row-major solve, so the port that
    wins a tie cycles round-robin instead of pinning to index 0 (a fixed
    tie-break starves high-index ports under light symmetric load, where
    nearly every request has weight 1).  The rotation is a permutation,
    so the matching weight is still maximal, and there is no RNG —
    seeded runs stay reproducible.
    """

    def __init__(self, num_ports: int) -> None:
        if num_ports < 1:
            raise ValueError("MWM needs at least one port")
        self.num_ports = num_ports
        self._offset = 0

    def match(self, weights: WeightMatrix, observer=None) -> Matching:
        """Maximum-weight matching over ``weights`` (input -> output).

        ``observer`` is accepted for interface parity with iSLIP and
        ignored — MWM is single-shot, there are no rounds to trace.
        """
        n = self.num_ports
        if len(weights) != n or any(len(row) != n for row in weights):
            raise ValueError(f"weights must be {n}x{n}")
        offset = self._offset
        self._offset = (offset + 1) % n
        # Negate for min-cost; clamp negatives (absent requests) to -0.0
        # so they never look attractive (the same values as
        # -float(max(w, 0))).  Rows and columns are rotated by the
        # tie-break offset; the permutation is undone below.  No
        # all-zero pre-check: such a matrix has no positive pair to
        # keep, so the result is {} anyway.
        cost = [
            [-float(w) if w > 0 else -0.0 for w in row[offset:] + row[:offset]]
            for row in weights[offset:] + weights[:offset]
        ]
        assign = solve_assignment(cost)
        matching = {}
        for row, col in enumerate(assign):
            inp = (row + offset) % n
            out = (col + offset) % n
            if weights[inp][out] > 0:
                matching[inp] = out
        return matching
