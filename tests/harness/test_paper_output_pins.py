"""The paper's tables and Fig 11(a), pinned bit for bit at short windows.

Tables IV and V (which include Table I's rows), Fig 11(a) and Table VI
for all eight mixes at two seeds are compared by ``float.hex`` against
``data/paper_output_pins.json``.  A small phased many-core run adds the
tile-loop paths Table VI's constant profiles never take: compute-only
phases (an infinite gap to the next miss) and writebacks.  Any kernel
or tile-array optimisation must leave every value unchanged; a
deliberate change of the model has to regenerate the file and say why.
The windows match perfbench's ``paper_tables`` pass, so the whole
module runs in a few seconds.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core import HiRiseConfig, HiRiseSwitch
from repro.harness import figures, tables
from repro.manycore import MIXES, BenchmarkProfile, ManyCoreSystem, SystemConfig
from repro.manycore.phases import Phase, PhasedProfile

PINS = json.loads(
    (Path(__file__).parent / "data" / "paper_output_pins.json").read_text()
)
COST_WINDOWS = (40, 160)
FIG11_WINDOWS = (100, 400)
TABLE6_CYCLES = 150


def _hex_row(row) -> dict:
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in asdict(row).items()
    }


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
