"""repro — a full reproduction of *Hi-Rise: A High-Radix Switch for 3D
Integration with Single-cycle Arbitration* (MICRO 2014).

Public API highlights:

* :class:`repro.core.HiRiseSwitch` / :class:`repro.core.HiRiseConfig` —
  the paper's hierarchical 3D switch with CLRG arbitration;
* :class:`repro.switches.SwizzleSwitch2D` and
  :class:`repro.switches.FoldedSwitch3D` — the 2D and folded baselines,
  both the one-layer Hi-Rise switch;
* :mod:`repro.traffic` — synthetic traffic patterns (uniform random,
  hotspot, bursty, adversarial, ...), named by a
  :class:`repro.traffic.TrafficSpec`;
* :mod:`repro.metrics` — latency/throughput/fairness statistics and
  confidence intervals;
* :mod:`repro.physical` — calibrated 32 nm area/frequency/energy/TSV cost
  models;
* :mod:`repro.manycore` — the 64-core application-level simulator
  (Table VI);
* :mod:`repro.harness` — regenerates every table and figure of the paper;
  :class:`repro.harness.SimulationMeasurement` measures one switch point
  and :func:`repro.harness.saturation_throughput` its saturation.
"""

from repro.core import HiRiseConfig, HiRiseSwitch
from repro.switches import FoldedSwitch3D, SwizzleSwitch2D
from repro.network import FLIT_BITS, PACKET_FLITS, Simulation

__version__ = "1.0.0"

__all__ = [
    "HiRiseConfig",
    "HiRiseSwitch",
    "SwizzleSwitch2D",
    "FoldedSwitch3D",
    "Simulation",
    "FLIT_BITS",
    "PACKET_FLITS",
    "__version__",
]
