"""The VOQ matching checker: each check code trips on its corruption.

A clean VOQ run is driven for a few cycles, one piece of the switch's
scheduling state is corrupted, and the checker must raise the check the
corruption breaks, naming the implicated ports.
"""

from collections import deque

import pytest

from repro.check import InvariantViolation
from repro.check.matching import MatchingInvariantChecker
from repro.core.config import HiRiseConfig
from repro.network.engine import Simulation
from repro.network.packet import Packet
from repro.switches import make_switch
from repro.traffic import UniformRandomTraffic

RADIX = 8
#: Cycle handed to a direct re-check after a corruption (later than any
#: cycle the warm-up simulated).
CHECK_CYCLE = 1000


def running_switch(arbitration="islip", load=0.7, cycles=20):
    config = HiRiseConfig(
        radix=RADIX, layers=2, channel_multiplicity=2,
        arbitration=arbitration,
    )
    checker = MatchingInvariantChecker()
    switch = make_switch(config, invariants=checker)
    traffic = UniformRandomTraffic(RADIX, load, seed=5)
    simulation = Simulation(switch, traffic, warmup_cycles=0)
    simulation.run(measure_cycles=cycles)
    assert switch.connections, "need at least one live connection"
    return switch, checker, simulation


def idle_pair(switch):
    """An unconnected input and an unowned output."""
    inp = next(
        p for p in range(RADIX)
        if p not in switch.connections and p not in switch.stuck_inputs
    )
    out = next(o for o in range(RADIX) if switch.output_owner[o] is None)
    return inp, out


def recheck(switch, checker):
    with pytest.raises(InvariantViolation) as excinfo:
        checker.after_step(switch, CHECK_CYCLE, [])
    return excinfo.value


@pytest.mark.parametrize("arbitration", ["islip", "mwm"])
def test_phantom_packet_breaks_conservation(arbitration):
    switch, _, simulation = running_switch(arbitration)
    # Enqueue behind the checker's counting inject wrapper.
    switch.stages[0].source.append_packet(
        Packet(packet_id=10**6, src=0, dst=1, num_flits=4, created_cycle=0)
    )
    with pytest.raises(InvariantViolation) as excinfo:
        simulation.run(measure_cycles=2)
    assert excinfo.value.check == "flit_conservation"


def test_resource_not_output_is_invalid():
    switch, checker, _ = running_switch()
    inp, (_, out) = next(iter(switch.connections.items()))
    switch.connections[inp] = ((out + 1) % RADIX, out)
    violation = recheck(switch, checker)
    assert violation.check == "matching_validity"
    assert violation.resources == (inp, out)


def test_output_matched_twice_is_invalid():
    switch, checker, _ = running_switch()
    _, (_, out) = next(iter(switch.connections.items()))
    other, _ = idle_pair(switch)
    switch.connections[other] = (out, out)
    violation = recheck(switch, checker)
    assert violation.check == "matching_validity"
    assert violation.resources == (out,)
    assert "matched to two inputs" in str(violation)


def test_incoherent_output_owner_is_invalid():
    switch, checker, _ = running_switch()
    inp, (_, out) = next(iter(switch.connections.items()))
    other, _ = idle_pair(switch)
    switch.output_owner[out] = other
    violation = recheck(switch, checker)
    assert violation.check == "matching_validity"
    assert violation.resources == (inp, out)
    assert "output_owner" in str(violation)


def test_owner_without_connection_is_invalid():
    switch, checker, _ = running_switch()
    inp, out = idle_pair(switch)
    switch.output_owner[out] = inp
    violation = recheck(switch, checker)
    assert violation.check == "matching_validity"
    assert violation.resources == (inp, out)
    assert "without a matching connection" in str(violation)


def establish(switch, inp, out, stamp=True):
    """Lock a connection as the scheduler would, bypassing it."""
    switch.connections[inp] = (out, out)
    switch.output_owner[out] = inp
    if stamp:
        switch.grant_cycle[inp] = CHECK_CYCLE


def test_grant_to_stuck_input_is_detected():
    switch, checker, _ = running_switch()
    inp, out = idle_pair(switch)
    switch.stuck_inputs.add(inp)
    establish(switch, inp, out)
    violation = recheck(switch, checker)
    assert violation.check == "stuck_input_grant"
    assert violation.resources == (inp, out)


def test_grant_without_stamp_is_illegal():
    switch, checker, _ = running_switch()
    inp, out = idle_pair(switch)
    establish(switch, inp, out, stamp=False)
    violation = recheck(switch, checker)
    assert violation.check == "grant_legality"
    assert violation.resources == (inp, out)
    assert "without a grant stamp" in str(violation)


def test_grant_to_cooling_endpoint_is_illegal():
    switch, checker, _ = running_switch()
    inp, out = idle_pair(switch)
    establish(switch, inp, out)
    # The input's tail left this very cycle: it must sit the cycle out.
    tail = Packet(
        packet_id=10**6, src=inp, dst=(out + 1) % RADIX, num_flits=1,
        created_cycle=0,
    ).to_flits()[-1]
    checker.injected_flits += 1  # keep the ledger balanced
    with pytest.raises(InvariantViolation) as excinfo:
        checker.after_step(switch, CHECK_CYCLE, [tail])
    violation = excinfo.value
    assert violation.check == "grant_legality"
    assert violation.resources == (inp, out)
    assert "transmitted a tail" in str(violation)


@pytest.mark.parametrize("arbitration", ["islip", "mwm"])
def test_flit_slipped_into_a_voq_breaks_conservation(arbitration):
    switch, checker, _ = running_switch(arbitration)
    # A flit that no injection counted, appended to a stored VOQ: the
    # checker reads every stored VOQ's length each cycle, so the ledger
    # sees the extra flit.
    stage = next(stage for stage in switch.stages if stage.voqs)
    voq = next(iter(stage.voqs.values()))
    voq.append(voq[-1])
    violation = recheck(switch, checker)
    assert violation.check == "flit_conservation"


@pytest.mark.parametrize("phantom", [False, True])
def test_voq_support_drift_is_detected(phantom):
    switch, checker, _ = running_switch("mwm")
    # The scheduler builds weight rows from each stage's stored VOQs,
    # which must be exactly its non-empty ones.  A stored empty VOQ is
    # a request the weights misreport and breaks support; a non-empty
    # VOQ dropped from its stage loses its flits and breaks
    # conservation.
    if phantom:
        stage, out = next(
            (stage, out)
            for stage in switch.stages
            for out in range(RADIX)
            if out not in stage.voqs
        )
        stage.voqs[out] = deque()
    else:
        stage = next(stage for stage in switch.stages if stage.voqs)
        out = next(iter(stage.voqs))
        del stage.voqs[out]
    violation = recheck(switch, checker)
    if phantom:
        assert violation.check == "voq_support"
        assert violation.resources == (stage.input_id, out)
        assert "stores VOQ" in str(violation)
    else:
        assert violation.check == "flit_conservation"
