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

The search is the e-maxx one: rows are taken in order, each step
scans the columns outside the search tree in ascending order, and the
first column of least distance wins.  Only the bookkeeping differs (see
:func:`solve_assignment`): distances are kept against a running total
instead of being decremented every step, potentials are settled once
per row instead of every step, the all-zero columns (most of them at
switch radices: an output nobody requests) are scanned through one
representative, and a search stops as soon as its end is decided
rather than stepping through ties that cannot change it.  That is
exact, not approximate.  The costs are integers (VOQ weights are
integer ages, :data:`~repro.arbitration.matching.WeightMatrix`), so
every cost, potential and distance is an integer.  With costs in
``[-W, 0]`` the potentials stay in ``[-W, 0]`` between searches, and
every value either loop forms is below ``4nW`` in magnitude, far below
``2**53`` for any age a run reaches, so every float sum is exact and
regrouping the same additions yields the same values.  Every ``<`` therefore compares the same two numbers as
the textbook loop and every tie breaks the same way, so the assignment
is identical, ties included.  ``tests/arbitration/test_mwm_solver.py``
keeps the textbook loop as the oracle and checks that.
"""

from typing import List

from repro.arbitration.matching import Matching, WeightMatrix

__all__ = ["MWMOracle", "solve_assignment"]

_INF = float("inf")


def solve_assignment(cost: List[List[float]]) -> List[int]:
    """Minimum-cost assignment on a square matrix of integer costs <= 0.

    Returns ``assign`` with ``assign[row] = column``.  Classic Hungarian
    with row/column potentials ``u``/``v`` and one shortest-augmenting-
    path search per row, in the e-maxx order.  Precondition: every cost
    is a non-positive integer (an int or an integral float), as the
    oracle's negated weights are; on such costs every step is exact.

    Column ``n`` is the virtual start of each search.  A search grows a
    tree of columns; each step scans the columns outside it in
    ascending order, relaxes them through the newest tree row, and
    moves the first column of least distance into the tree, until that
    column is unmatched.  The textbook loop keeps ``minv[j]`` and, every
    step, subtracts the step's ``delta`` from each free ``minv`` and
    shifts the potentials of every tree column.  Here:

    * **Running distance.**  ``D`` is the sum of the deltas so far and
      ``dist[j] = minv[j] + D``, so a step only sets ``D`` to the least
      ``dist``.  A tree row's ``u`` has risen by ``D - D_j`` since its
      column joined the tree at ``D_j``, so the reduced cost through it
      is ``cost + (D_j - u) - v`` against ``dist``.  Once the search
      ends at ``D``, the potentials are settled in one pass: the search
      row's ``u`` rises by ``D``, and a tree column that joined at
      ``D_j`` lowers its ``v``, and raises its row's ``u``, by
      ``D - D_j``.
    * **One representative for the all-zero columns.**  Outside the
      tree, a column whose costs are all zero (so its ``v`` stays 0) has
      the same distance, the least ``D_j - u`` over the tree rows, and
      the same ``way`` at every step as any other such column.  The
      first least column can only be the lowest of them, ``rep``, so
      only ``rep`` is scanned.  Once ``rep`` is the first least column,
      at distance ``D``, the search is decided: an unmatched column
      (``v`` = 0, never in a tree) is reached through every tree row at
      a distance no greater than ``rep``'s, and no distance falls below
      ``D``, so every unmatched column sits at ``D`` for good.  The
      textbook loop goes on joining matched columns at ``D`` (each
      step's ``delta`` is 0, so no potential moves) until the lowest
      unmatched column is the first least one, and its ``way`` is
      already final.  So the search ends there at once, and no all-zero
      column ever joins a tree.

    Both are regroupings of integer additions, exact below ``2**53``,
    so every comparison, tie-break and the assignment equal the
    textbook loop's (see the module docstring).
    """
    n = len(cost)
    if n == 0:
        return []
    u = [0.0] * n
    v = [0.0] * n
    match_col = [-1] * (n + 1)  # match_col[j] = row matched to column j
    way = [0] * n  # way[j] = the tree column that reached column j
    # The all-zero columns move as one (see above): all stay out of
    # ``scan``, and the lowest, ``rep``, stands for them.
    zero_column = [not any(column) for column in zip(*cost)]
    rep = zero_column.index(True) if True in zero_column else -1
    scan = [j for j in range(n) if not zero_column[j]]
    for row in range(n):
        match_col[n] = row
        free = scan[:]
        dist = [_INF] * n
        tree: List[int] = []
        joined: List[float] = []  # D at which each tree column joined
        j0 = n
        d_j0 = 0.0
        rep_dist = _INF
        rep_way = n
        while True:
            i0 = match_col[j0]
            cost_row = cost[i0]
            h = d_j0 - u[i0]
            best = _INF
            j1 = -1
            for j in free:
                d = cost_row[j] + h - v[j]
                if d < dist[j]:
                    dist[j] = d
                    way[j] = j0
                else:
                    d = dist[j]
                if d < best:
                    best = d
                    j1 = j
            if rep >= 0:
                if h < rep_dist:
                    rep_dist = h
                    rep_way = j0
                if rep_dist < best or (rep_dist == best and rep < j1):
                    # The search ends here, on the lowest unmatched column.
                    best = rep_dist
                    j1 = match_col.index(-1)
                    if zero_column[j1]:
                        way[j1] = rep_way
                    break
            free.remove(j1)
            if match_col[j1] < 0:
                break
            tree.append(j1)
            joined.append(best)
            j0 = j1
            d_j0 = best
        # Settle the potentials at the final distance ``best``.
        u[row] += best
        for j, d_j in zip(tree, joined):
            shift = best - d_j
            u[match_col[j]] += shift
            v[j] -= shift
        j0 = j1
        while j0 != n:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assign = [0] * n
    for j in range(n):
        assign[match_col[j]] = j
    return assign


class MWMOracle:
    """Maximum-weight matcher over VOQ head-age weight matrices.

    Mirrors the :class:`repro.arbitration.ISLIPArbiter` interface
    (``match(weights) -> Dict[input, output]``) so the VOQ switch can
    swap schedulers without caring which family it holds.  Its only
    state is the tie-break rotation: ties between equal-weight matchings
    rotate, because each call relabels inputs and outputs by an
    advancing offset before the row-major solve, so the port that wins a
    tie cycles round-robin instead of pinning to index 0 (a fixed
    tie-break starves high-index ports under light symmetric load, where
    many requests have equal ages).  The rotation is a permutation, so
    the matching weight is still maximal, and there is no RNG — seeded
    runs stay reproducible.
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
        # tie-break offset; the permutation is undone below.  The solver
        # reads its all-zero columns from these same rows.  No all-zero
        # pre-check: such a matrix has no positive pair to keep, so the
        # result is {} anyway.  Rows with no request share one zero row
        # (the solver never writes ``cost``).
        zero = [-0.0] * n
        cost = [
            [-float(w) if w > 0 else -0.0 for w in row[offset:] + row[:offset]]
            if any(row) else zero
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
