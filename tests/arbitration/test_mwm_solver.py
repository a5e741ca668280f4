"""Differential tests of the MWM assignment solver against its plain form.

``reference_solve_assignment`` is the textbook e-maxx Hungarian loop the
oracle shipped with: full ``range`` scans over a ``used`` flag array,
a ``minv`` decrement and a potential update over every column on every
step.  The production solver keeps running distances, settles the
potentials once per row, scans the all-zero columns through one
representative and ends a search once its last column is decided; it
must return the identical assignment (not merely one of equal weight),
ties included, because the matching it yields decides which VOQ
transmits and so every downstream statistic.
"""

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbitration import mwm
from repro.arbitration.mwm import MWMOracle, solve_assignment
from repro.harness.schedulers import compare_schedulers

_INF = float("inf")


def reference_solve_assignment(cost: List[List[float]]) -> List[int]:
    """The plain e-maxx Hungarian loop (the solver's original form)."""
    n = len(cost)
    if n == 0:
        return []
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)
    way = [0] * (n + 1)
    for row in range(1, n + 1):
        match_col[0] = row
        j0 = 0
        minv = [_INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = _INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assign = [0] * n
    for j in range(1, n + 1):
        if match_col[j]:
            assign[match_col[j] - 1] = j - 1
    return assign


def reference_match(weights, offset):
    """The oracle's original rotation: modulo indexing and a zero check."""
    n = len(weights)
    if all(weights[i][j] <= 0 for i in range(n) for j in range(n)):
        return {}
    cost = [
        [
            -float(max(weights[(i + offset) % n][(j + offset) % n], 0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    matching = {}
    for row, col in enumerate(reference_solve_assignment(cost)):
        inp = (row + offset) % n
        out = (col + offset) % n
        if weights[inp][out] > 0:
            matching[inp] = out
    return matching


@st.composite
def tied_weight_matrices(draw, max_ports=32):
    """Square VOQ weights with heavy ties: values 0..3, many zero rows."""
    n = draw(st.integers(min_value=1, max_value=max_ports))
    rows = []
    for _ in range(n):
        if draw(st.booleans()):
            rows.append([0] * n)
        else:
            rows.append(draw(st.lists(
                st.integers(min_value=0, max_value=3),
                min_size=n, max_size=n,
            )))
    return rows


@st.composite
def sparse_age_matrices(draw, max_ports=64):
    """VOQ head-age weights as a busy switch sees them: most rows and
    columns all zero, the rest ages up to 10**6 (ties still possible)."""
    n = draw(st.integers(min_value=1, max_value=max_ports))
    live_rows = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 3)))
    live_cols = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 3)))
    ages = st.one_of(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=10**6),
    )
    rows = []
    for i in range(n):
        row = [0] * n
        if i in live_rows:
            for j in sorted(live_cols):
                if draw(st.booleans()):
                    row[j] = draw(ages)
        rows.append(row)
    return rows


def negated(weights):
    return [[-float(max(w, 0)) for w in row] for row in weights]


class TestSolverMatchesReference:
    @given(tied_weight_matrices())
    @settings(max_examples=150, deadline=None)
    def test_identical_assignment_on_tied_matrices(self, weights):
        cost = negated(weights)
        assert solve_assignment(cost) == reference_solve_assignment(cost)

    @given(tied_weight_matrices(max_ports=12))
    @settings(max_examples=60, deadline=None)
    def test_oracle_identical_at_every_rotation(self, weights):
        # The oracle rotates by an advancing offset; one full turn
        # visits every offset.  Matchings must agree in content and in
        # insertion order (the order the switch transmits in).
        n = len(weights)
        oracle = MWMOracle(n)
        for offset in range(n):
            got = oracle.match(weights)
            assert list(got.items()) == list(
                reference_match(weights, offset).items()
            )

    @given(sparse_age_matrices())
    @settings(max_examples=40, deadline=None)
    def test_identical_assignment_on_sparse_age_matrices(self, weights):
        cost = negated(weights)
        assert solve_assignment(cost) == reference_solve_assignment(cost)

    def test_identical_assignment_on_captured_zoo_matrices(self, monkeypatch):
        # Cost matrices as the switch really produces them: short
        # radix-32 uniform and hotspot cells and the overdriven
        # saturation cell, all under the MWM oracle.
        captured = []

        def capture(cost):
            captured.append([list(row) for row in cost])
            return solve_assignment(cost)

        monkeypatch.setattr(mwm, "solve_assignment", capture)
        compare_schedulers(
            radix=32, seed=1, warmup_cycles=20, measure_cycles=60,
            schedulers=("mwm",), traffic=("uniform", "hotspot"),
        )
        assert len(captured) >= 60
        assert any(
            not any(column) for cost in captured for column in zip(*cost)
        )
        for cost in captured:
            assert solve_assignment(cost) == reference_solve_assignment(cost)

    def test_zero_column_hands_its_path_to_the_lowest_unmatched(self):
        # Columns 0 and 1 are all zero.  Row 0 takes column 0; row 1
        # takes column 2.  Row 2's search enters the tree at column 2
        # (weight 10 beats 5), which lowers the zero columns' distance
        # through row 1.  Column 0 is then the first least column but is
        # matched, so the search ends on column 1, the lowest unmatched
        # column, which inherits column 0's ``way`` (column 2): row 1
        # moves to column 1 and row 2 gets column 2.
        cost = negated([[0, 0, 0], [0, 0, 5], [0, 0, 10]])
        assert reference_solve_assignment(cost) == [0, 1, 2]
        assert solve_assignment(cost) == [0, 1, 2]

    def test_empty_and_single(self):
        assert solve_assignment([]) == [] == reference_solve_assignment([])
        assert solve_assignment([[-3.0]]) == [0]
