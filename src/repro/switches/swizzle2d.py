"""The flat 2D Swizzle-Switch and the 3D folded switch: Hi-Rise with one layer.

The Swizzle-Switch is a radix-N matrix crossbar with arbitration embedded
in the cross-points: each output column holds an LRG priority vector over
all inputs, and a cycle is spent either arbitrating for an output or
streaming a data flit ("arbitrate or transmit in a single cycle").  Hi-Rise
splits that crossbar into L per-layer local switches followed by
inter-layer sub-blocks; with ``layers=1`` the local switch *is* the
crossbar (its intermediate outputs are the final outputs, each with an
LRG arbiter over all N inputs) and every sub-block has a single input, so
the inter-layer scheme never has a choice to make.  The 2D baseline is
therefore :class:`repro.core.HiRiseSwitch` on a one-layer configuration,
and gets tracing, faults, perf counters, invariant checking and the fleet
path from that kernel.

Folding a 2D Swizzle-Switch over L silicon layers (Sewell et al.)
redistributes the inputs and outputs (N/L of each per layer) but leaves
the datapath a single radix-N matrix with the same LRG arbitration, so
cycle for cycle the folded switch behaves exactly like the 2D switch.
What changes is physical — TSV capacitance, hence a lower clock, and
N x flit-width TSVs — and lives in :mod:`repro.physical` under the
``"2d"`` and ``"folded"`` design labels.
"""

from typing import Optional

from repro.core.config import HiRiseConfig
from repro.core.hirise import HiRiseSwitch
from repro.network.port import PortConfig


class SwizzleSwitch2D(HiRiseSwitch):
    """A radix-N flat matrix crossbar with per-output LRG arbitration.

    Args:
        radix: Number of input ports (= number of output ports).
        port_config: Virtual-channel configuration for every input port.
    """

    def __init__(self, radix: int, port_config: Optional[PortConfig] = None) -> None:
        super().__init__(HiRiseConfig(
            radix=radix, layers=1, channel_multiplicity=1,
            port_config=PortConfig() if port_config is None else port_config,
        ))

    # Bound in the class body so per-class instrumentation that patches
    # ``SwizzleSwitch2D.__dict__`` finds the entry points here.
    inject = HiRiseSwitch.inject
    inject_columns = HiRiseSwitch.inject_columns
    step = HiRiseSwitch.step


class FoldedSwitch3D(SwizzleSwitch2D):
    """Radix-N 2D switch folded over ``layers`` silicon layers.

    Args:
        radix: Switch radix; must divide evenly by ``layers``.
        layers: Number of stacked silicon layers.
        port_config: Virtual-channel configuration for every input port.
    """

    def __init__(
        self,
        radix: int,
        layers: int = 4,
        port_config: Optional[PortConfig] = None,
    ) -> None:
        if layers < 2:
            raise ValueError("a folded switch needs at least two layers")
        if radix % layers != 0:
            raise ValueError(
                f"radix {radix} must divide evenly across {layers} layers"
            )
        super().__init__(radix, port_config)
