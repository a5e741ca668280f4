"""Ablation: packet length (flits per packet).

The paper simulates 4-flit packets on 128-bit flits (a 64-byte cache line
plus header).  Packet length trades serialisation latency against
arbitration overhead: every packet pays one arbitration cycle, so short
packets waste a larger fraction of the wires' time while long packets
stretch zero-load latency.  The sweep quantifies both effects on the
headline Hi-Rise switch.
"""

import pytest

from conftest import emit, run_once
from repro.core import HiRiseConfig
from repro.harness.measure import SimulationMeasurement, saturation_throughput
from repro.traffic import TrafficSpec

LENGTHS = (1, 2, 4, 8)


def measure(num_flits):
    # Buffer depth must cover the packet (the buffering ablation shows a
    # too-shallow VC stalls streaming), so depth scales with length.
    from repro.network.port import PortConfig

    config = HiRiseConfig(
        port_config=PortConfig(num_vcs=4, vc_depth=max(4, num_flits))
    )
    traffic = TrafficSpec(packet_flits=num_flits)
    saturation_flits = saturation_throughput(
        config, traffic, seed=7, warmup_cycles=300, measure_cycles=1500,
    ) * num_flits
    zero_load = SimulationMeasurement(
        config, traffic=traffic, load=0.002,
        warmup_cycles=200, measure_cycles=3000,
    ).run(seed=8).avg_latency_cycles
    return saturation_flits, zero_load


def test_packet_length_ablation(benchmark):
    results = run_once(
        benchmark, lambda: {n: measure(n) for n in LENGTHS}
    )
    lines = ["Packet-length ablation (Hi-Rise c4, uniform random)"]
    for num_flits, (flits, latency) in results.items():
        lines.append(
            f"  {num_flits} flits/packet : saturation {flits:5.1f} "
            f"flits/cycle, zero-load latency {latency:4.1f} cycles"
        )
    emit("\n".join(lines))

    # Flit throughput grows with packet length: the per-packet
    # arbitration cycle amortises (1-flit packets waste half the slots).
    flit_rates = [results[n][0] for n in LENGTHS]
    assert flit_rates == sorted(flit_rates)
    assert results[1][0] < 0.6 * results[4][0]

    # Zero-load latency is the serialisation time: ~num_flits cycles.
    for num_flits in LENGTHS:
        assert results[num_flits][1] == pytest.approx(num_flits, abs=1.5)

    # The paper's 4-flit point captures most of the amortisation benefit.
    assert results[4][0] > 0.85 * results[8][0]
