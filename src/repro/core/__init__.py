"""The Hi-Rise 3D switch — the paper's primary contribution.

``HiRiseSwitch`` is a cycle-accurate model of the hierarchical 3D switch:
N inputs/outputs split over L layers, a local switch and an inter-layer
switch per layer, and ``c`` dedicated layer-to-layer channels (L2LCs)
between every pair of layers.  Arbitration is two-phase within a single
cycle and supports the paper's three schemes (baseline layer-to-layer LRG,
weighted LRG, and the proposed class-based LRG).
"""

from repro.core.config import (
    AllocationPolicy,
    ArbitrationScheme,
    HiRiseConfig,
)
from repro.core.channels import (
    InputBinnedAllocation,
    OutputBinnedAllocation,
    PriorityAllocation,
    make_allocation,
)
from repro.core.hirise import HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.core.fleet import (
    FleetKernel,
    FleetSimulation,
    LanePlan,
    fleet_supports,
    plans_compatible,
    run_fleet_plans,
    verify_fleet_parity,
)

__all__ = [
    "AllocationPolicy",
    "ArbitrationScheme",
    "HiRiseConfig",
    "HiRiseSwitch",
    "ReferenceHiRiseSwitch",
    "InputBinnedAllocation",
    "OutputBinnedAllocation",
    "PriorityAllocation",
    "make_allocation",
    "FleetKernel",
    "FleetSimulation",
    "LanePlan",
    "fleet_supports",
    "plans_compatible",
    "run_fleet_plans",
    "verify_fleet_parity",
]
