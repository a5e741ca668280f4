"""Property test: fleet lanes are perfectly isolated from one another.

Two guarantees, checked over hypothesis-generated lane mixes (seeds,
loads, an optional fault schedule on one lane):

1. **Scalar parity** — every lane of a fleet run is bit-identical to a
   scalar fast-kernel run with the same traffic source and faults.
2. **Non-interference** — replacing one lane's traffic and faults with
   something entirely different must not perturb any *other* lane's
   results by a single bit.

Together these pin the structure-of-arrays batching as a pure
optimisation: whatever happens inside lane j (divergent traffic, mid-run
channel failures) is invisible to lane i.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.config import ArbitrationScheme, HiRiseConfig
from repro.core.fleet import FleetSimulation
from repro.core.hirise import HiRiseSwitch
from repro.faults import FaultSchedule
from repro.network.engine import Simulation
from repro.traffic import UniformRandomTraffic


CONFIG = HiRiseConfig(
    radix=8, layers=2, channel_multiplicity=2,
    arbitration=ArbitrationScheme.CLRG,
)
WARMUP, MEASURE = 10, 60


def result_tuple(result):
    """Hashable, bit-exact digest of one SimulationResult.

    The per-port counters are dicts whose insertion order is a kernel
    implementation detail (first-ejection order scalar, ascending port
    order fleet); equality is over their *contents*, so sort the items.
    """
    return (
        result.cycles,
        result.packets_injected,
        result.packets_ejected,
        result.flits_ejected,
        tuple(result.packet_latencies),
        tuple(sorted(result.per_input_ejected.items())),
        tuple(sorted(result.per_input_latency_sum.items())),
        tuple(sorted(result.per_output_ejected.items())),
    )


def lane_spec(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    load = draw(st.sampled_from((0.3, 0.6, 0.9)))
    fault_seed = draw(st.one_of(
        st.none(), st.integers(min_value=0, max_value=2 ** 16)
    ))
    return seed, load, fault_seed


def materialize(spec):
    seed, load, fault_seed = spec
    traffic = UniformRandomTraffic(CONFIG.radix, load=load, seed=seed)
    faults = None
    if fault_seed is not None:
        faults = FaultSchedule.random(
            CONFIG, seed=fault_seed, horizon=WARMUP + MEASURE, faults=2,
        )
    return traffic, faults


def fleet_digests(specs):
    sources = [materialize(spec) for spec in specs]
    fleet = FleetSimulation(
        CONFIG,
        [traffic for traffic, _ in sources],
        faults=[faults for _, faults in sources],
        warmup_cycles=WARMUP,
    )
    return [result_tuple(lane) for lane in fleet.run(MEASURE)]


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_lane_isolation(data):
    specs = [lane_spec(data.draw) for _ in range(3)]
    digests = fleet_digests(specs)

    # 1. Scalar parity, lane by lane.
    for spec, digest in zip(specs, digests):
        traffic, faults = materialize(spec)
        switch = HiRiseSwitch(CONFIG, faults=faults)
        scalar = Simulation(switch, traffic, warmup_cycles=WARMUP)
        assert result_tuple(scalar.run(MEASURE)) == digest

    # 2. Non-interference: rewrite the middle lane (new seed, saturating
    # load, a fault schedule) and re-run; outer lanes must not move.
    perturbed_middle = (specs[1][0] + 7919, 1.0, 4242)
    perturbed = fleet_digests([specs[0], perturbed_middle, specs[2]])
    assert perturbed[0] == digests[0]
    assert perturbed[2] == digests[2]
