"""Configuration of a Hi-Rise switch.

Holds the architectural parameters of Section III: radix ``N``, layer count
``L``, channel multiplicity ``c``, the L2LC allocation policy, and the
inter-layer arbitration scheme.  Derived quantities (switch shapes, slot
counts, vertical bus counts) are computed here so the cycle model and the
physical cost model agree on the geometry by construction.
"""

import enum
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, List, Optional, Tuple

from repro.network.port import PortConfig


class AllocationPolicy(str, enum.Enum):
    """How inputs are allocated to layer-to-layer channels (Section III-A)."""

    INPUT_BINNED = "input_binned"
    OUTPUT_BINNED = "output_binned"
    PRIORITY = "priority"


class ArbitrationScheme(str, enum.Enum):
    """Inter-layer sub-block arbitration scheme.

    ``L2L_LRG``, ``WLRG`` and ``CLRG`` are the paper's Section III-B
    schemes.  ``L2L_RR`` (iSLIP-style rotating pointer) and ``AGE``
    (oldest-first, hardware-infeasible at high radix) are the related-work
    comparison points of Section VII, included for ablation studies.

    ``ISLIP`` and ``MWM`` are *virtual-output-queued* schemes (Tiny Tera
    lineage): iterative SLIP with ``islip_iterations`` grant/accept
    rounds, and a maximum-weight-matching oracle used as the scheduling
    quality upper bound.  They run on the input-queued
    :class:`repro.switches.voq.VOQSwitch` rather than the Hi-Rise
    two-phase kernel — build switches through
    :func:`repro.switches.make_switch` to dispatch on the scheme.
    """

    L2L_LRG = "l2l_lrg"
    WLRG = "wlrg"
    CLRG = "clrg"
    L2L_RR = "l2l_rr"
    AGE = "age"
    ISLIP = "islip"
    MWM = "mwm"


#: Schemes scheduled by the VOQ input stage (repro.switches.voq), not by
#: the Hi-Rise two-phase kernel.
VOQ_SCHEMES = frozenset((ArbitrationScheme.ISLIP, ArbitrationScheme.MWM))


@dataclass(frozen=True)
class HiRiseConfig:
    """Architectural parameters of a Hi-Rise switch.

    Attributes:
        radix: Total inputs (= outputs), split evenly across layers.
        layers: Number of stacked silicon layers (paper headline: 4).
        channel_multiplicity: L2LCs between each ordered pair of layers
            (the paper's ``c``; headline configuration uses 4).
        allocation: L2LC allocation policy (default input-binned, which the
            paper implements in its cross-point design).
        arbitration: Inter-layer arbitration scheme (default CLRG).
        num_classes: CLRG class count (counter range); paper default 3.
        islip_iterations: Grant/accept rounds per cycle for the
            ``ISLIP`` scheme (iSLIP(1), iSLIP(2), iSLIP(4), ...);
            ignored by every other scheme.
        port_config: Input-port buffering (4 VCs x 4 flits by default).
        qos_weights: Optional per-input service weights (QoS extension,
            CLRG only): an input with weight w sustains a share of any
            contested output proportional to w.  None (default) gives the
            paper's plain CLRG.
        failed_channels: L2LCs whose TSV bundle is faulty, as
            ``(src_layer, dst_layer, channel)`` triples (robustness
            extension).  The switch never grants a failed channel; under
            binned allocation, flows nominally bound to one are rerouted
            to the next healthy channel toward the same layer.

    Construction also builds hot-path lookup tables (not dataclass
    fields): ``layer_of_port_table`` / ``local_index_table`` (per-port
    layer and local index), ``num_resources`` (size of the flat resource
    id space), ``slot_of_channel_table`` (sub-block slot per channel id)
    and ``resource_key_table`` (id -> tuple key).  The validating methods
    (:meth:`layer_of_port`, :meth:`local_index`, ...) delegate to these
    tables; the cycle kernel indexes them directly.
    """

    radix: int = 64
    layers: int = 4
    channel_multiplicity: int = 4
    allocation: AllocationPolicy = AllocationPolicy.INPUT_BINNED
    arbitration: ArbitrationScheme = ArbitrationScheme.CLRG
    num_classes: int = 3
    islip_iterations: int = 1
    port_config: PortConfig = field(default_factory=PortConfig)
    qos_weights: Optional[Tuple[float, ...]] = None
    failed_channels: Tuple[Tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.radix < 2:
            raise ValueError("radix must be >= 2")
        if self.layers < 1:
            raise ValueError("a switch needs at least one layer")
        if self.radix < self.layers:
            raise ValueError("radix must be at least the layer count")
        if self.radix % self.layers != 0:
            raise ValueError(
                f"radix {self.radix} must divide evenly across "
                f"{self.layers} layers"
            )
        if self.channel_multiplicity < 1:
            raise ValueError("channel multiplicity must be >= 1")
        if self.num_classes < 2:
            raise ValueError("CLRG needs at least two classes")
        if self.islip_iterations < 1:
            raise ValueError("iSLIP needs at least one iteration")
        # Normalise string inputs to enum members.
        object.__setattr__(
            self, "allocation", AllocationPolicy(self.allocation)
        )
        object.__setattr__(
            self, "arbitration", ArbitrationScheme(self.arbitration)
        )
        if self.qos_weights is not None:
            if self.arbitration is not ArbitrationScheme.CLRG:
                raise ValueError("QoS weights require CLRG arbitration")
            if len(self.qos_weights) != self.radix:
                raise ValueError(
                    f"need {self.radix} QoS weights, got {len(self.qos_weights)}"
                )
            if any(weight <= 0 for weight in self.qos_weights):
                raise ValueError("QoS weights must be positive")
            object.__setattr__(self, "qos_weights", tuple(self.qos_weights))
        # Normalise: sorted tuple-of-tuples, so two configs with the same
        # fault set compare and hash equal regardless of input ordering.
        failed = tuple(sorted(
            tuple(int(x) for x in entry) for entry in self.failed_channels
        ))
        if len(set(failed)) != len(failed):
            duplicates = sorted({
                entry for entry in failed if failed.count(entry) > 1
            })
            raise ValueError(f"duplicate failed channels: {duplicates}")
        object.__setattr__(self, "failed_channels", failed)
        for src, dst, channel in failed:
            if not 0 <= src < self.layers or not 0 <= dst < self.layers:
                raise ValueError(f"failed channel {src}->{dst} out of range")
            if src == dst:
                raise ValueError("a layer has no L2LC to itself")
            if not 0 <= channel < self.channel_multiplicity:
                raise ValueError(f"channel {channel} out of range")
        for src in range(self.layers):
            for dst in range(self.layers):
                if src == dst:
                    continue
                healthy = sum(
                    1
                    for channel in range(self.channel_multiplicity)
                    if (src, dst, channel) not in failed
                )
                if healthy == 0:
                    raise ValueError(
                        f"every channel {src}->{dst} failed: the switch "
                        "would be disconnected"
                    )
        self._build_lookup_tables()

    def _build_lookup_tables(self) -> None:
        # Construction-time lookup tables backing the hot-path mappings.
        # Validation happens once here; the public methods stay validating
        # for API callers while the cycle kernel indexes the raw tables.
        ppl = self.radix // self.layers
        cmult = self.channel_multiplicity
        object.__setattr__(
            self, "layer_of_port_table",
            tuple(port // ppl for port in range(self.radix)),
        )
        object.__setattr__(
            self, "local_index_table",
            tuple(port % ppl for port in range(self.radix)),
        )
        # Flat resource-id space: intermediate outputs occupy [0, radix)
        # (the id of an intermediate output IS its final output's global
        # port id), L2LCs occupy [radix, num_resources) in
        # (src_layer, dst_layer, channel) row-major order.  Ids for the
        # src == dst diagonal exist but are never requested.
        object.__setattr__(
            self, "num_resources",
            self.radix + self.layers * self.layers * cmult,
        )
        slot_table = []
        key_table: List[Tuple] = [
            ("int", port // ppl, port % ppl) for port in range(self.radix)
        ]
        for src in range(self.layers):
            for dst in range(self.layers):
                for channel in range(cmult):
                    key_table.append(("ch", src, dst, channel))
                    if src == dst:
                        slot_table.append(-1)  # diagonal: never a sub-block slot
                    else:
                        adjusted = src if src < dst else src - 1
                        slot_table.append(adjusted * cmult + channel)
        object.__setattr__(
            self, "slot_of_channel_table", tuple(slot_table)
        )
        object.__setattr__(self, "resource_key_table", tuple(key_table))

    # ------------------------------------------------------------------
    # Scheduling family
    # ------------------------------------------------------------------
    @property
    def uses_voq(self) -> bool:
        """True when the scheme runs on the VOQ input-queued switch."""
        return self.arbitration in VOQ_SCHEMES

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def ports_per_layer(self) -> int:
        """Inputs (= outputs) hosted on each layer (N/L)."""
        return self.radix // self.layers

    @property
    def channels_per_layer(self) -> int:
        """Outgoing L2LCs of one layer: c x (L - 1)."""
        return self.channel_multiplicity * (self.layers - 1)

    @property
    def local_switch_shape(self) -> Tuple[int, int]:
        """(inputs, outputs) of each layer's local switch."""
        return (
            self.ports_per_layer,
            self.ports_per_layer + self.channels_per_layer,
        )

    @property
    def subblock_inputs(self) -> int:
        """Inputs of each inter-layer sub-block: c x (L - 1) + 1."""
        return self.channels_per_layer + 1

    @property
    def subblocks_per_layer(self) -> int:
        """Sub-blocks on each inter-layer switch (one per final output)."""
        return self.ports_per_layer

    @property
    def vertical_bus_count(self) -> int:
        """Total L2LC buses in the stack: c x (L - 1) x L."""
        return self.channels_per_layer * self.layers

    @property
    def inputs_per_channel(self) -> int:
        """Primary inputs pre-assigned to each L2LC under input binning.

        Raises:
            ValueError: If the per-layer port count does not divide evenly
                by the channel multiplicity (binning would be uneven).
        """
        if self.ports_per_layer % self.channel_multiplicity != 0:
            raise ValueError(
                f"{self.ports_per_layer} ports per layer do not bin evenly "
                f"into {self.channel_multiplicity} channels"
            )
        return self.ports_per_layer // self.channel_multiplicity

    # ------------------------------------------------------------------
    # Port <-> layer mapping
    # ------------------------------------------------------------------
    def layer_of_port(self, port: int) -> int:
        """Silicon layer (0-based) hosting the given port.

        Validates ``port`` for API callers; the cycle kernel indexes
        :attr:`layer_of_port_table` directly (validated at construction).
        """
        if not 0 <= port < self.radix:
            raise ValueError(f"port {port} out of range [0, {self.radix})")
        return self.layer_of_port_table[port]

    def local_index(self, port: int) -> int:
        """Index of the port within its layer's local switch.

        Validates ``port`` for API callers; the cycle kernel indexes
        :attr:`local_index_table` directly (validated at construction).
        """
        if not 0 <= port < self.radix:
            raise ValueError(f"port {port} out of range [0, {self.radix})")
        return self.local_index_table[port]

    def global_port(self, layer: int, local_index: int) -> int:
        """Global port id of ``local_index`` on ``layer``."""
        if not 0 <= layer < self.layers:
            raise ValueError(f"layer {layer} out of range")
        if not 0 <= local_index < self.ports_per_layer:
            raise ValueError(f"local index {local_index} out of range")
        return layer * self.ports_per_layer + local_index

    # ------------------------------------------------------------------
    # Inter-layer sub-block slot numbering
    # ------------------------------------------------------------------
    def subblock_slots(self, dst_layer: int) -> List[Tuple[int, int]]:
        """Channel slots of a sub-block on ``dst_layer``.

        Returns the ordered list of ``(src_layer, channel)`` feeding the
        sub-block; the *local* intermediate output occupies the extra slot
        at index :attr:`local_slot`.
        """
        slots: List[Tuple[int, int]] = []
        for src_layer in range(self.layers):
            if src_layer == dst_layer:
                continue
            for channel in range(self.channel_multiplicity):
                slots.append((src_layer, channel))
        return slots

    @property
    def local_slot(self) -> int:
        """Slot index of the local intermediate output in a sub-block."""
        return self.channels_per_layer

    def slot_of_channel(self, dst_layer: int, src_layer: int, channel: int) -> int:
        """Slot index of L2LC (src_layer -> dst_layer, channel)."""
        if src_layer == dst_layer:
            raise ValueError("a layer has no L2LC to itself")
        adjusted = src_layer if src_layer < dst_layer else src_layer - 1
        return adjusted * self.channel_multiplicity + channel

    # ------------------------------------------------------------------
    # Flat resource ids (fast-path cycle kernel)
    # ------------------------------------------------------------------
    def intermediate_resource_id(self, dst_port: int) -> int:
        """Flat resource id of the intermediate output feeding ``dst_port``.

        Intermediate-output ids coincide with global output port ids, so
        this is the identity map on ``[0, radix)`` (validated).
        """
        if not 0 <= dst_port < self.radix:
            raise ValueError(
                f"port {dst_port} out of range [0, {self.radix})"
            )
        return dst_port

    def channel_resource_id(
        self, src_layer: int, dst_layer: int, channel: int
    ) -> int:
        """Flat resource id of L2LC (``src_layer`` -> ``dst_layer``, ``channel``).

        Channel ids are dense in ``[radix, num_resources)``; the
        ``src_layer == dst_layer`` diagonal is representable but never
        granted by the switch.
        """
        if not 0 <= src_layer < self.layers or not 0 <= dst_layer < self.layers:
            raise ValueError(
                f"layer pair {src_layer}->{dst_layer} out of range"
            )
        if not 0 <= channel < self.channel_multiplicity:
            raise ValueError(f"channel {channel} out of range")
        return self.radix + (
            (src_layer * self.layers + dst_layer) * self.channel_multiplicity
            + channel
        )

    def resource_key(self, resource_id: int) -> Tuple:
        """Human-readable key for a flat resource id.

        Returns ``("int", layer, local_output)`` for intermediate outputs
        and ``("ch", src_layer, dst_layer, channel)`` for L2LCs — the
        tuple keys the seed kernel used, kept for probes and reports.
        """
        if not 0 <= resource_id < self.num_resources:
            raise ValueError(
                f"resource id {resource_id} out of range "
                f"[0, {self.num_resources})"
            )
        return self.resource_key_table[resource_id]

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def configuration_string(self) -> str:
        """Table IV style configuration string, e.g.
        ``[(16x28), 16.(13x1)]x4`` for the 4-channel 4-layer radix 64.
        """
        rows, cols = self.local_switch_shape
        return (
            f"[({rows}x{cols}), {self.subblocks_per_layer}."
            f"({self.subblock_inputs}x1)]x{self.layers}"
        )


def _canonical(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_canonical(item) for item in value]
    if is_dataclass(value):
        return {
            item.name: _canonical(getattr(value, item.name))
            for item in fields(value)
        }
    return value


#: Every :class:`HiRiseConfig` field, in declaration order: the one field
#: list the config fingerprint and the service wire form derive from.
CONFIG_FIELDS = tuple(f.name for f in fields(HiRiseConfig))


def config_canonical(config: HiRiseConfig) -> Dict[str, object]:
    """JSON form of every :data:`CONFIG_FIELDS` entry of ``config``.

    Enums become their values, tuples lists and ``port_config`` a dict
    of its own fields.  ``HiRiseConfig.__post_init__`` has already
    normalised the inputs (sorted ``failed_channels``, enum coercion),
    so equal configs map to equal dicts.
    """
    return {name: _canonical(getattr(config, name)) for name in CONFIG_FIELDS}
