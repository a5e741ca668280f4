"""Regeneration of the paper's tables.

* Table I  — implementation cost of 2D versus 3D folded (64-radix).
* Table IV — implementation cost of the channel-multiplicity design space
  (2D, folded, 4/2/1-channel Hi-Rise) including saturation throughput.
* Table V  — implementation cost of the arbitration variants (2D,
  L-2-L LRG, CLRG).
* Table VI — application speedups of Hi-Rise over 2D for the eight
  workload mixes.

Area/frequency/energy come from the calibrated physical model; saturation
throughput comes from overdriven cycle simulation converted to Tbps at the
design's modelled clock (Tbps = flits/cycle x 128 bit x GHz).
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import HiRiseConfig, HiRiseSwitch
from repro.harness.measure import saturation_throughput
from repro.manycore import MIXES, SystemConfig, WorkloadMix, system_speedup
from repro.physical import cost_of
from repro.physical.calibration import (
    PAPER_AREA_MM2,
    PAPER_ENERGY_PJ,
    PAPER_FREQUENCY_GHZ,
    PAPER_TSV_COUNT,
)
from repro.switches import SwizzleSwitch2D

#: What ``SwizzleSwitch2D(64)`` and ``FoldedSwitch3D(64, 4)`` simulate:
#: one 64x64 crossbar, the one-layer Hi-Rise switch.
FLAT_64 = HiRiseConfig(radix=64, layers=1, channel_multiplicity=1)

PAPER_THROUGHPUT_TBPS: Dict[str, float] = {
    "2d": 9.24,
    "folded": 8.86,
    "hirise_c4": 10.97,
    "hirise_c2": 7.65,
    "hirise_c1": 4.27,
    "hirise_c4_clrg": 10.65,
}


@dataclass(frozen=True)
class CostRow:
    """One design-point row of Tables I/IV/V (paper and measured)."""

    design: str
    configuration: str
    area_mm2: float
    frequency_ghz: float
    energy_pj: float
    throughput_tbps: float
    tsv_count: int
    paper_area_mm2: Optional[float] = None
    paper_frequency_ghz: Optional[float] = None
    paper_energy_pj: Optional[float] = None
    paper_throughput_tbps: Optional[float] = None
    paper_tsv_count: Optional[int] = None


@dataclass(frozen=True)
class SpeedupRow:
    """One workload-mix row of Table VI."""

    mix: str
    avg_mpki: float
    speedup: float
    paper_avg_mpki: float
    paper_speedup: float


def _measure_saturation(
    config: HiRiseConfig,
    warmup_cycles: int,
    measure_cycles: int,
    seed: int = 7,
) -> float:
    """Overdriven uniform-random delivered rate, flits/cycle."""
    packets = saturation_throughput(
        config,
        overdrive_load=0.99,
        seed=seed,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
    )
    return packets * 4  # 4-flit packets


def _hirise_config(channels: int, arbitration: str) -> HiRiseConfig:
    return HiRiseConfig(
        radix=64, layers=4, channel_multiplicity=channels,
        arbitration=arbitration,
    )


def _cost_row(
    design_key: str,
    design,
    configuration: str,
    flits_per_cycle: float,
) -> CostRow:
    cost = cost_of(design)
    return CostRow(
        design=cost.name,
        configuration=configuration,
        area_mm2=cost.area_mm2,
        frequency_ghz=cost.frequency_ghz,
        energy_pj=cost.energy_pj,
        throughput_tbps=cost.throughput_tbps(flits_per_cycle),
        tsv_count=cost.tsv_count,
        paper_area_mm2=PAPER_AREA_MM2.get(
            design_key, PAPER_AREA_MM2.get(design_key.replace("_clrg", ""))
        ),
        paper_frequency_ghz=PAPER_FREQUENCY_GHZ.get(design_key),
        paper_energy_pj=PAPER_ENERGY_PJ.get(design_key),
        paper_throughput_tbps=PAPER_THROUGHPUT_TBPS.get(design_key),
        paper_tsv_count=PAPER_TSV_COUNT.get(
            design_key, PAPER_TSV_COUNT.get(design_key.replace("_clrg", ""))
        ),
    )


def table1(warmup_cycles: int = 500, measure_cycles: int = 2500) -> List[CostRow]:
    """Table I: 2D versus 3D folded implementation cost (radix 64).

    Folding spreads the ports over layers but keeps one 64x64 crossbar:
    ``FoldedSwitch3D(64, 4)`` builds the same one-layer configuration as
    ``SwizzleSwitch2D(64)``.  The crossbar is therefore simulated once,
    and the two rows differ only in physical cost.
    """
    flits_per_cycle = _measure_saturation(
        FLAT_64, warmup_cycles, measure_cycles
    )
    return [
        _cost_row("2d", "2d", "64x64", flits_per_cycle),
        _cost_row("folded", "folded", "[16x64]x4", flits_per_cycle),
    ]


def table4(warmup_cycles: int = 500, measure_cycles: int = 2500) -> List[CostRow]:
    """Table IV: cost of the channel-multiplicity design space."""
    rows = table1(warmup_cycles, measure_cycles)
    for channels in (4, 2, 1):
        config = _hirise_config(channels, "l2l_lrg")
        rows.append(
            _cost_row(
                f"hirise_c{channels}", config, config.configuration_string(),
                _measure_saturation(config, warmup_cycles, measure_cycles),
            )
        )
    return rows


def table5(warmup_cycles: int = 500, measure_cycles: int = 2500) -> List[CostRow]:
    """Table V: cost of the arbitration variants (WLRG omitted, as in the
    paper — "its implementation is infeasible")."""
    rows = [
        _cost_row("2d", "2d", "64x64", _measure_saturation(
            FLAT_64, warmup_cycles, measure_cycles,
        ))
    ]
    for arbitration, key in (("l2l_lrg", "hirise_c4"), ("clrg", "hirise_c4_clrg")):
        config = _hirise_config(4, arbitration)
        rows.append(
            _cost_row(
                key, config,
                config.configuration_string(),
                _measure_saturation(config, warmup_cycles, measure_cycles),
            )
        )
    return rows


def table6(
    network_cycles_baseline: int = 8000,
    seed: int = 0,
    mixes: Optional[List[WorkloadMix]] = None,
    config: Optional[SystemConfig] = None,
) -> List[SpeedupRow]:
    """Table VI: Hi-Rise over 2D system speedup per workload mix."""
    freq_2d = cost_of("2d").frequency_ghz
    hirise_config = HiRiseConfig()  # 4-channel 4-layer CLRG headline
    freq_hirise = cost_of(hirise_config).frequency_ghz
    rows: List[SpeedupRow] = []
    for mix in mixes if mixes is not None else MIXES:
        speedup = system_speedup(
            mix,
            lambda: SwizzleSwitch2D(64),
            lambda: HiRiseSwitch(hirise_config),
            baseline_frequency_ghz=freq_2d,
            candidate_frequency_ghz=freq_hirise,
            network_cycles_baseline=network_cycles_baseline,
            config=config,
            seed=seed,
        )
        rows.append(
            SpeedupRow(
                mix=mix.name,
                avg_mpki=mix.avg_mpki,
                speedup=speedup,
                paper_avg_mpki=mix.paper_avg_mpki,
                paper_speedup=mix.paper_speedup,
            )
        )
    return rows
