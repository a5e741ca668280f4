"""Unit tests for HiRiseConfig geometry and validation."""

import pytest

from repro.core import AllocationPolicy, ArbitrationScheme, HiRiseConfig


class TestValidation:
    def test_defaults_are_the_paper_headline_config(self):
        config = HiRiseConfig()
        assert config.radix == 64
        assert config.layers == 4
        assert config.channel_multiplicity == 4
        assert config.arbitration is ArbitrationScheme.CLRG
        assert config.allocation is AllocationPolicy.INPUT_BINNED
        assert config.num_classes == 3

    def test_string_enums_accepted(self):
        config = HiRiseConfig(allocation="output_binned", arbitration="wlrg")
        assert config.allocation is AllocationPolicy.OUTPUT_BINNED
        assert config.arbitration is ArbitrationScheme.WLRG

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radix": 63},                       # not divisible by layers
            {"layers": 0},                       # too few layers
            {"radix": 1, "layers": 1},           # too few ports
            {"radix": 2, "layers": 4},           # radix < layers
            {"channel_multiplicity": 0},
            {"num_classes": 1},
            {"allocation": "bogus"},
            {"arbitration": "bogus"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            HiRiseConfig(**kwargs)


class TestGeometry:
    def test_paper_4channel_shapes(self):
        """Table IV: [(16x28), 16.(13x1)]x4 for the 4-channel config."""
        config = HiRiseConfig(channel_multiplicity=4)
        assert config.ports_per_layer == 16
        assert config.local_switch_shape == (16, 28)
        assert config.subblock_inputs == 13
        assert config.subblocks_per_layer == 16
        assert config.vertical_bus_count == 48

    def test_paper_2channel_shapes(self):
        config = HiRiseConfig(channel_multiplicity=2)
        assert config.local_switch_shape == (16, 22)
        assert config.subblock_inputs == 7

    def test_paper_1channel_shapes(self):
        config = HiRiseConfig(channel_multiplicity=1)
        assert config.local_switch_shape == (16, 19)
        assert config.subblock_inputs == 4

    def test_configuration_strings_match_table4(self):
        assert (
            HiRiseConfig(channel_multiplicity=4).configuration_string()
            == "[(16x28), 16.(13x1)]x4"
        )
        assert (
            HiRiseConfig(channel_multiplicity=1).configuration_string()
            == "[(16x19), 16.(4x1)]x4"
        )

    def test_inputs_per_channel(self):
        assert HiRiseConfig(channel_multiplicity=4).inputs_per_channel == 4
        assert HiRiseConfig(channel_multiplicity=1).inputs_per_channel == 16
        with pytest.raises(ValueError):
            _ = HiRiseConfig(
                radix=60, layers=4, channel_multiplicity=4
            ).inputs_per_channel


class TestPortMapping:
    def test_layer_and_local_index_roundtrip(self):
        config = HiRiseConfig()
        for port in range(config.radix):
            layer = config.layer_of_port(port)
            local = config.local_index(port)
            assert config.global_port(layer, local) == port

    def test_paper_example_ports(self):
        """Input 20 sits on layer 2 (index 1); output 63 on layer 4."""
        config = HiRiseConfig()
        assert config.layer_of_port(20) == 1
        assert config.local_index(20) == 4
        assert config.layer_of_port(63) == 3
        assert config.local_index(63) == 15

    def test_out_of_range(self):
        config = HiRiseConfig()
        with pytest.raises(ValueError):
            config.layer_of_port(64)
        with pytest.raises(ValueError):
            config.global_port(4, 0)
        with pytest.raises(ValueError):
            config.global_port(0, 16)


class TestSlotNumbering:
    def test_slots_cover_all_foreign_layer_channels(self):
        config = HiRiseConfig(channel_multiplicity=4)
        slots = config.subblock_slots(dst_layer=2)
        assert len(slots) == 12
        assert (2, 0) not in [s for s in slots]
        assert config.local_slot == 12

    def test_slot_of_channel_is_consistent_with_listing(self):
        config = HiRiseConfig(channel_multiplicity=2)
        for dst in range(4):
            listing = config.subblock_slots(dst)
            for index, (src, channel) in enumerate(listing):
                assert config.slot_of_channel(dst, src, channel) == index

    def test_self_channel_rejected(self):
        config = HiRiseConfig()
        with pytest.raises(ValueError):
            config.slot_of_channel(1, 1, 0)
