"""Property-based tests (hypothesis) for the arbitration primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbitration.classes import ClassCounterBank
from repro.arbitration.clrg import CLRGArbiter
from repro.arbitration.lrg import LRGArbiter
from repro.arbitration.wlrg import WLRGArbiter


@st.composite
def lrg_and_requests(draw):
    num_slots = draw(st.integers(min_value=1, max_value=16))
    requests = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_slots - 1),
            unique=True,
            max_size=num_slots,
        )
    )
    return LRGArbiter(num_slots), requests


class TestLRGProperties:
    @given(lrg_and_requests())
    def test_winner_is_a_requestor(self, case):
        arb, requests = case
        winner = arb.arbitrate(requests)
        if requests:
            assert winner in requests
        else:
            assert winner is None

    @given(lrg_and_requests())
    def test_winner_outranks_all_other_requestors(self, case):
        arb, requests = case
        winner = arb.arbitrate(requests)
        if winner is not None:
            assert all(arb.rank(winner) <= arb.rank(r) for r in requests)

    @given(
        st.integers(min_value=2, max_value=12),
        st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=200),
    )
    def test_order_stays_a_permutation(self, num_slots, updates):
        arb = LRGArbiter(num_slots)
        for update in updates:
            arb.update(update % num_slots)
            assert sorted(arb.priority_order) == list(range(num_slots))

    @given(
        st.integers(min_value=2, max_value=12),
        st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=50),
    )
    def test_updated_slot_is_always_last(self, num_slots, updates):
        arb = LRGArbiter(num_slots)
        for update in updates:
            slot = update % num_slots
            arb.update(slot)
            assert arb.priority_order[-1] == slot

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=25)
    def test_full_contention_grant_counts_balanced(self, num_slots, rounds):
        arb = LRGArbiter(num_slots)
        counts = [0] * num_slots
        for _ in range(rounds):
            winner = arb.arbitrate(range(num_slots))
            arb.update(winner)
            counts[winner] += 1
        assert max(counts) - min(counts) <= 1


class TestClassCounterProperties:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=2, max_value=5),
        st.lists(st.integers(min_value=0, max_value=15), max_size=300),
    )
    def test_counts_bounded(self, num_inputs, num_classes, wins):
        bank = ClassCounterBank(num_inputs, num_classes)
        for win in wins:
            bank.record_win(win % num_inputs)
            assert all(
                0 <= count <= bank.max_count for count in bank.counts()
            )

    @given(
        st.integers(min_value=2, max_value=16),
        st.lists(st.integers(min_value=0, max_value=15), max_size=300),
    )
    def test_untouched_input_never_outclassed(self, num_inputs, wins):
        """An input that never wins stays in the highest-priority class."""
        bank = ClassCounterBank(num_inputs)
        for win in wins:
            bank.record_win(win % (num_inputs - 1))  # input n-1 never wins
        assert bank.class_of(num_inputs - 1) == 0


class TestCLRGProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=15),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_winner_minimises_class_then_rank(self, raw_requests):
        # Deduplicate slots (one request per channel per cycle).
        requests = list({slot: (slot, inp) for slot, inp in raw_requests}.values())
        arb = CLRGArbiter(4, 16)
        arb.commit(0, requests[0][1])  # perturb state
        winner = arb.arbitrate_requests(requests)
        assert winner in requests
        w_class = arb.counters.class_of(winner[1])
        assert all(
            w_class < arb.counters.class_of(inp)
            or (
                w_class == arb.counters.class_of(inp)
                and arb.lrg.rank(winner[0]) <= arb.lrg.rank(slot)
            )
            for slot, inp in requests
        )

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=200))
    @settings(max_examples=30)
    def test_state_stays_consistent(self, winners):
        arb = CLRGArbiter(4, 8)
        for winner in winners:
            arb.commit(winner, winner)
        assert sorted(arb.lrg.priority_order) == [0, 1, 2, 3]
        assert all(0 <= c <= arb.counters.max_count for c in arb.counters.counts())


class TestWLRGProperties:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30)
    def test_service_proportional_to_weights(self, num_rounds, w0, w1):
        arb = WLRGArbiter(2)
        grants = [0, 0]
        total = num_rounds * (w0 + w1)
        for _ in range(total):
            winner = arb.arbitrate_requests([(0, w0), (1, w1)])
            arb.commit(*winner)
            grants[winner[0]] += 1
        assert grants[0] == num_rounds * w0
        assert grants[1] == num_rounds * w1


class TestCLRGFairnessBound:
    """Grant counts never diverge by more than one class width.

    Validated empirically before being pinned: among requestors that
    contend every round, the CLRG class mechanism (paper Section
    III-B.4) keeps win-count divergence within ``num_classes`` — both
    under pure full contention and when churny extra requestors join
    and leave around an always-requesting core.  (Patterns that
    *displace* a persistent requestor's slot can add one more; those
    are out of scope for this bound.)
    """

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=20, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_contention_divergence_bounded(
        self, num_slots, num_classes, rounds
    ):
        arb = CLRGArbiter(num_slots, num_slots, num_classes=num_classes)
        wins = [0] * num_slots
        requests = [(slot, slot) for slot in range(num_slots)]
        for _ in range(rounds):
            slot, primary_input = arb.arbitrate_requests(requests)
            arb.commit(slot, primary_input)
            wins[primary_input] += 1
        assert max(wins) - min(wins) <= num_classes

    @given(
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=2, max_value=4),
        st.lists(
            st.lists(
                st.booleans(), min_size=4, max_size=4
            ),
            min_size=30,
            max_size=200,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_persistent_core_bounded_under_churn(
        self, num_slots, num_classes, churn
    ):
        # Slots [0, core) request every round; the remaining slots come
        # and go per the hypothesis-driven churn mask.
        core = num_slots - 2
        extras = list(range(core, num_slots))
        arb = CLRGArbiter(num_slots, num_slots, num_classes=num_classes)
        wins = [0] * num_slots
        for mask in churn:
            requests = [(slot, slot) for slot in range(core)]
            requests.extend(
                (slot, slot)
                for slot, active in zip(extras, mask)
                if active
            )
            granted = arb.arbitrate_requests(requests)
            if granted is None:
                continue
            slot, primary_input = granted
            arb.commit(slot, primary_input)
            wins[primary_input] += 1
        persistent = wins[:core]
        assert max(persistent) - min(persistent) <= num_classes


class TestLRGOrderInvariant:
    """Recency keys stay a strict total order under arbitrary grants.

    This is the exact property the runtime ``lrg_order`` invariant
    (``repro.check.invariants``) asserts inside the kernels: pairwise
    distinct ``_rank`` keys and a stamp strictly above all of them.
    """

    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(
            st.sets(st.integers(min_value=0, max_value=7), max_size=8),
            min_size=1,
            max_size=120,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_order_is_permutation_after_arbitrary_sequences(
        self, num_slots, request_sets
    ):
        arb = LRGArbiter(num_slots)
        for raw in request_sets:
            requests = {slot % num_slots for slot in raw}
            winner = arb.arbitrate(requests)
            if winner is not None:
                arb.update(winner)
            assert sorted(arb.priority_order) == list(range(num_slots))
            assert len(set(arb._rank)) == num_slots
            assert arb._stamp > max(arb._rank)

    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                 max_size=120),
    )
    @settings(max_examples=50, deadline=None)
    def test_direct_updates_preserve_total_order(self, num_slots, updates):
        arb = LRGArbiter(num_slots)
        for raw in updates:
            arb.update(raw % num_slots)
            assert len(set(arb._rank)) == num_slots
            assert arb._stamp > max(arb._rank)
            ranks = sorted(arb.rank(slot) for slot in range(num_slots))
            assert ranks == list(range(num_slots))


# ---------------------------------------------------------------------------
# VOQ scheduler family: iSLIP and the MWM oracle
# ---------------------------------------------------------------------------
from repro.arbitration.islip import ISLIPArbiter  # noqa: E402
from repro.arbitration.matching import (  # noqa: E402
    is_maximal_matching,
    is_valid_matching,
    matching_weight,
)
from repro.arbitration.mwm import MWMOracle  # noqa: E402


@st.composite
def weight_matrices(draw, max_ports=8, max_weight=9):
    """A square VOQ occupancy/weight matrix (zeros = no request)."""
    n = draw(st.integers(min_value=1, max_value=max_ports))
    matrix = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=max_weight),
                min_size=n, max_size=n,
            ),
            min_size=n, max_size=n,
        )
    )
    return matrix


@st.composite
def matrix_sequences(draw, max_ports=6, max_len=8):
    """A port count plus a sequence of weight matrices for that size.

    Driving one arbiter through the whole sequence exercises matches
    from *warmed* pointer state, not just the all-zeros reset state.
    """
    n = draw(st.integers(min_value=1, max_value=max_ports))
    matrices = draw(
        st.lists(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=5),
                    min_size=n, max_size=n,
                ),
                min_size=n, max_size=n,
            ),
            min_size=1, max_size=max_len,
        )
    )
    return n, matrices


class TestISLIPProperties:
    @given(matrix_sequences(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_every_grant_set_is_a_valid_matching(self, case, iterations):
        n, matrices = case
        arb = ISLIPArbiter(n, iterations=iterations)
        for weights in matrices:
            matching = arb.match(weights)
            assert is_valid_matching(matching, weights)

    @given(matrix_sequences())
    @settings(max_examples=200, deadline=None)
    def test_matching_is_maximal_after_n_iterations(self, case):
        n, matrices = case
        arb = ISLIPArbiter(n, iterations=n)
        for weights in matrices:
            matching = arb.match(weights)
            assert is_valid_matching(matching, weights)
            assert is_maximal_matching(matching, weights)

    @given(matrix_sequences())
    @settings(max_examples=100, deadline=None)
    def test_pointers_stay_in_range(self, case):
        n, matrices = case
        arb = ISLIPArbiter(n, iterations=2)
        for weights in matrices:
            arb.match(weights)
            assert all(0 <= p < n for p in arb.grant_pointers)
            assert all(0 <= p < n for p in arb.accept_pointers)

    @given(st.integers(min_value=2, max_value=16))
    @settings(max_examples=15, deadline=None)
    def test_desynchronization_reaches_full_throughput(self, n):
        # The iSLIP stability claim: under saturated uniform traffic
        # (every VOQ backlogged) the accepted outputs' pointers move
        # past the inputs they served, so after a warm-up no two
        # outputs fight over one input and *one* iteration matches all
        # n pairs every cycle — 100% throughput.
        arb = ISLIPArbiter(n, iterations=1)
        saturated = [[1] * n for _ in range(n)]
        for _ in range(2 * n):
            arb.match(saturated)
        for _ in range(n):
            matching = arb.match(saturated)
            assert len(matching) == n
        assert sorted(arb.grant_pointers) == list(range(n))


@st.composite
def single_request_runs(draw, max_ports=8, max_len=12):
    """A port count and per-cycle matrices in which every input requests
    exactly one output (one non-empty VOQ per input)."""
    n = draw(st.integers(min_value=1, max_value=max_ports))
    cycles = draw(st.integers(min_value=1, max_value=max_len))
    matrices = []
    for _ in range(cycles):
        matrix = [[0] * n for _ in range(n)]
        for row in matrix:
            row[draw(st.integers(0, n - 1))] = draw(st.integers(1, 5))
        matrices.append(matrix)
    return n, matrices


class TestISLIPTinyTeraOracle:
    """iSLIP-1 on single-request inputs is one round-robin per output.

    With one request per input no input is granted twice, so every grant
    is accepted in iteration 1 and moves its output's pointer one past
    the winner: exactly a :class:`RoundRobinArbiter` per output (the
    *Tiny Tera* construction).
    """

    @given(single_request_runs())
    @settings(max_examples=200, deadline=None)
    def test_grants_and_pointers_equal_round_robin(self, case):
        from repro.arbitration.round_robin import RoundRobinArbiter

        n, matrices = case
        islip = ISLIPArbiter(n, iterations=1)
        oracle = [RoundRobinArbiter(n) for _ in range(n)]
        for weights in matrices:
            rounds = []
            matching = islip.match(
                weights,
                observer=lambda it, stage, pairs: rounds.append(
                    (it, stage, list(pairs))
                ),
            )
            expected_grants = []
            for out, arbiter in enumerate(oracle):
                winner = arbiter.arbitrate(
                    inp for inp in range(n) if weights[inp][out] > 0
                )
                if winner is not None:
                    arbiter.update(winner)
                    expected_grants.append((out, winner))
            assert rounds[0] == (0, "grant", expected_grants)
            assert sorted(matching.items()) == sorted(
                (inp, out) for out, inp in expected_grants
            )
            assert islip.grant_pointers == [a.pointer for a in oracle]


@st.composite
def signed_matrix_sequences(draw, max_ports=6, max_len=6):
    """Like :func:`matrix_sequences`, with zero and negative weights."""
    n = draw(st.integers(min_value=1, max_value=max_ports))
    matrices = draw(
        st.lists(
            st.lists(
                st.lists(
                    st.integers(min_value=-5, max_value=5),
                    min_size=n, max_size=n,
                ),
                min_size=n, max_size=n,
            ),
            min_size=1, max_size=max_len,
        )
    )
    return n, matrices


class TestNonPositiveWeightsAreNotRequests:
    """A weight of zero or below is no request, for either scheduler.

    Each scheduler runs on the signed matrices and, from the same state,
    on the same matrices clamped at zero; the matchings (and iSLIP's
    rounds and pointers) must be equal, so a negative weight is never
    read as a request the way a truthiness test would read it.
    """

    @given(signed_matrix_sequences(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_islip_ignores_non_positive_weights(self, case, iterations):
        n, matrices = case
        signed = ISLIPArbiter(n, iterations=iterations)
        clamped = ISLIPArbiter(n, iterations=iterations)
        for weights in matrices:
            rounds = ([], [])
            matching = signed.match(
                weights,
                observer=lambda *event: rounds[0].append(event),
            )
            expected = clamped.match(
                [[max(w, 0) for w in row] for row in weights],
                observer=lambda *event: rounds[1].append(event),
            )
            assert matching == expected
            assert rounds[0] == rounds[1]
            assert all(weights[i][o] > 0 for i, o in matching.items())
        assert signed.grant_pointers == clamped.grant_pointers
        assert signed.accept_pointers == clamped.accept_pointers

    @given(signed_matrix_sequences())
    @settings(max_examples=200, deadline=None)
    def test_mwm_ignores_non_positive_weights(self, case):
        n, matrices = case
        signed, clamped = MWMOracle(n), MWMOracle(n)
        for weights in matrices:
            matching = signed.match(weights)
            assert matching == clamped.match(
                [[max(w, 0) for w in row] for row in weights]
            )
            assert all(weights[i][o] > 0 for i, o in matching.items())

    def test_rows_of_only_negative_weights_request_nothing(self):
        weights = [[-1, -2, -3], [0, 0, 0], [-4, 0, -5]]
        assert ISLIPArbiter(3, iterations=3).match(weights) == {}
        assert MWMOracle(3).match(weights) == {}


class TestMWMProperties:
    @given(weight_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matching_is_valid(self, weights):
        oracle = MWMOracle(len(weights))
        matching = oracle.match(weights)
        assert is_valid_matching(matching, weights)

    @given(weight_matrices(max_ports=4, max_weight=6))
    @settings(max_examples=200, deadline=None)
    def test_weight_is_optimal_by_brute_force(self, weights):
        from itertools import permutations

        n = len(weights)
        oracle = MWMOracle(n)
        matching = oracle.match(weights)
        best = 0
        for perm in permutations(range(n)):
            best = max(best, sum(
                weights[i][perm[i]]
                for i in range(n) if weights[i][perm[i]] > 0
            ))
        assert matching_weight(matching, weights) == best

    @given(
        weight_matrices(),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_weight_dominates_islip_on_identical_occupancies(
        self, weights, iterations
    ):
        n = len(weights)
        oracle = MWMOracle(n)
        islip = ISLIPArbiter(n, iterations=iterations)
        assert matching_weight(oracle.match(weights), weights) >= (
            matching_weight(islip.match(weights), weights)
        )

    @given(weight_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rotating_tie_break_preserves_weight(self, weights):
        # The fairness rotation relabels ports before the solve; the
        # matching weight must be offset-invariant.
        n = len(weights)
        oracle = MWMOracle(n)
        results = {
            matching_weight(oracle.match(weights), weights)
            for _ in range(n)  # one full rotation of the offset
        }
        assert len(results) == 1
