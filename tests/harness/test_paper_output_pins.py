"""The paper's tables and figures, pinned bit for bit at short windows.

Tables IV and V (which include Table I's rows), Figs 10 and 11(a-c) and
Table VI for all eight mixes at two seeds are compared by ``float.hex``
against ``data/paper_output_pins.json``.  A small phased many-core run
adds the tile-loop paths Table VI's constant profiles never take:
compute-only phases (an infinite gap to the next miss) and writebacks.
One service ``simulate`` payload and one ``repro simulate`` printout per
traffic pattern pin the two front ends of a single run.  Any kernel or
tile-array optimisation must leave every value unchanged; a deliberate
change of the model has to regenerate the file and say why.  The
windows match perfbench's ``paper_tables`` pass, so the whole module
runs in a few seconds.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core import HiRiseConfig, HiRiseSwitch
from repro.harness import figures, tables
from repro.manycore import MIXES, BenchmarkProfile, ManyCoreSystem, SystemConfig
from repro.manycore.phases import Phase, PhasedProfile
from repro.service.jobs import run_job

PINS = json.loads(
    (Path(__file__).parent / "data" / "paper_output_pins.json").read_text()
)
COST_WINDOWS = (40, 160)
SWEEP_WINDOWS = (40, 160)
FIG11_WINDOWS = (100, 400)
TABLE6_CYCLES = 150


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _hex_row(row) -> dict:
    return {name: _hex(value) for name, value in asdict(row).items()}


@pytest.mark.parametrize("name", ["table4", "table5"])
def test_cost_table(name):
    rows = getattr(tables, name)(*COST_WINDOWS)
    assert [_hex_row(row) for row in rows] == PINS[name]


def test_fig11a_hotspot_latency():
    warmup, measure = FIG11_WINDOWS
    series = figures.fig11a_hotspot_latency(
        warmup_cycles=warmup, measure_cycles=measure, seed=1,
    )
    assert {
        design: [value.hex() for value in latencies]
        for design, latencies in series.items()
    } == PINS["fig11a"]


@pytest.mark.parametrize("name", ["fig10", "fig11b"])
def test_load_sweep_figure(name):
    function = {
        "fig10": figures.fig10_latency_vs_load,
        "fig11b": figures.fig11b_arbitration_throughput,
    }[name]
    warmup, measure = SWEEP_WINDOWS
    series = function(warmup_cycles=warmup, measure_cycles=measure, seed=1)
    assert {
        design: [[_hex(value) for value in point] for point in points]
        for design, points in series.items()
    } == PINS[name]


def test_fig11c_adversarial_throughput():
    warmup, measure = FIG11_WINDOWS
    series = figures.fig11c_adversarial_throughput(
        warmup_cycles=warmup, measure_cycles=measure, seed=1,
    )
    assert {
        design: {str(src): rate.hex() for src, rate in per_input.items()}
        for design, per_input in series.items()
    } == PINS["fig11c"]


#: The single run both simulate front ends are pinned on.
SIMULATE_RUN = {"radix": 16, "layers": 2, "channels": 2, "load": 0.2,
                "seed": 3, "warmup": 40, "cycles": 300}


@pytest.mark.parametrize("traffic", ["uniform", "hotspot"])
def test_service_simulate(traffic):
    run = SIMULATE_RUN
    payload = run_job({
        "kind": "simulate",
        "config": {"radix": run["radix"], "layers": run["layers"],
                   "channel_multiplicity": run["channels"]},
        "traffic": traffic, "load": run["load"], "seed": run["seed"],
        "warmup": run["warmup"], "cycles": run["cycles"],
    })
    assert {name: _hex(value) for name, value in payload.items()} == (
        PINS[f"service_simulate_{traffic}"]
    )


@pytest.mark.parametrize("traffic", ["uniform", "hotspot"])
def test_cli_simulate(traffic, capsys):
    run = SIMULATE_RUN
    assert main([
        "simulate", "--traffic", traffic,
        *(f"--{name}={value}" for name, value in run.items()),
    ]) == 0
    assert capsys.readouterr().out.splitlines() == (
        PINS[f"cli_simulate_{traffic}"]
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_table6(seed):
    rows = tables.table6(
        network_cycles_baseline=TABLE6_CYCLES, seed=seed, mixes=list(MIXES),
    )
    assert {row.mix: row.speedup.hex() for row in rows} == PINS[f"table6_seed{seed}"]


def test_phased_system():
    compute_then_burst = PhasedProfile("cb", (
        Phase(400.0, 0.0, 0.0), Phase(300.0, 60.0, 20.0),
    ))
    steady = BenchmarkProfile("s", 25.0, 8.0)
    profiles = [compute_then_burst if i % 2 else steady for i in range(16)]
    config = SystemConfig(num_cores=16, num_memory_controllers=4,
                          writeback_fraction=0.3, seed=4)
    system = ManyCoreSystem(
        HiRiseSwitch(HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)),
        2.2, profiles, config,
    )
    result = system.run(600)
    assert {
        "retired": [value.hex() for value in result.retired_per_core],
        "misses": [core.misses_issued for core in system.cores],
        "messages_sent": system.messages_sent,
        "writebacks_sent": system.writebacks_sent,
    } == PINS["phased_system"]
