"""The calibrated cost models must reproduce every published anchor.

These are the quantitative core of Tables I, IV and V: the analytical
model, fitted once over the five published design points, must land within
a small tolerance of *all* of them simultaneously (the system is
over-determined, so this is a real consistency check of the model's form,
not a tautology).  The constants are pinned literals; the exactness tests
below rerun the NNLS fits they came from and demand every bit back.
"""

import dataclasses

import pytest

from repro.core import HiRiseConfig
from repro.physical import cost_of
from repro.physical.calibration import (
    PAPER_AREA_MM2,
    PAPER_ENERGY_PJ,
    PAPER_FREQUENCY_GHZ,
    PAPER_TSV_COUNT,
    calibrated_area,
    calibrated_delay,
    calibrated_energy,
    fit_area_constants,
    fit_delay_constants,
    fit_energy_constants,
)

TOLERANCE = 0.03  # 3% relative


def anchor_cost(name):
    if name == "2d":
        return cost_of("2d")
    if name == "folded":
        return cost_of("folded")
    channels = int(name.split("_c")[1][0])
    arbitration = "clrg" if name.endswith("clrg") else "l2l_lrg"
    return cost_of(
        HiRiseConfig(channel_multiplicity=channels, arbitration=arbitration)
    )


ANCHORS = ["2d", "folded", "hirise_c4", "hirise_c2", "hirise_c1", "hirise_c4_clrg"]


class TestAnchors:
    @pytest.mark.parametrize("name", ANCHORS)
    def test_frequency_anchor(self, name):
        cost = anchor_cost(name)
        assert cost.frequency_ghz == pytest.approx(
            PAPER_FREQUENCY_GHZ[name], rel=TOLERANCE
        )

    @pytest.mark.parametrize("name", ANCHORS)
    def test_energy_anchor(self, name):
        cost = anchor_cost(name)
        assert cost.energy_pj == pytest.approx(
            PAPER_ENERGY_PJ[name], rel=TOLERANCE
        )

    @pytest.mark.parametrize("name", ANCHORS[:5])
    def test_area_anchor(self, name):
        cost = anchor_cost(name)
        assert cost.area_mm2 == pytest.approx(
            PAPER_AREA_MM2[name], rel=TOLERANCE
        )

    @pytest.mark.parametrize("name", ANCHORS[:5])
    def test_tsv_count_exact(self, name):
        assert anchor_cost(name).tsv_count == PAPER_TSV_COUNT[name]


class TestFittedConstants:
    def test_all_constants_non_negative(self):
        delay = calibrated_delay()
        energy = calibrated_energy()
        area = calibrated_area()
        assert delay.per_stage_ns > 0
        assert delay.per_span_ns > 0
        assert delay.per_tsv_crossing_ns >= 0
        assert energy.per_stage_pj > 0
        assert energy.per_span_pj >= 0
        assert area.per_crosspoint_mm2 > 0
        assert area.per_tsv_mm2 >= 0

    def test_clrg_adders_match_table5_deltas(self):
        delay = calibrated_delay()
        energy = calibrated_energy()
        assert delay.clrg_extra_ns == pytest.approx(1 / 2.2 - 1 / 2.24)
        assert energy.clrg_extra_pj == pytest.approx(2.0)

    def test_headline_clrg_point(self):
        """The abstract's headline: 64-radix 4-layer CLRG Hi-Rise runs at
        2.2 GHz, 44 pJ per 128-bit transaction, 0.451 mm^2."""
        cost = cost_of(HiRiseConfig())  # defaults are the headline config
        assert cost.frequency_ghz == pytest.approx(2.2, rel=TOLERANCE)
        assert cost.energy_pj == pytest.approx(44.0, rel=TOLERANCE)
        assert cost.area_mm2 == pytest.approx(0.451, rel=TOLERANCE)
        assert cost.tsv_count == 6144

    def test_headline_improvements_over_2d(self):
        """Abstract: ~33% area reduction, ~38-40% energy reduction."""
        hirise = cost_of(HiRiseConfig())
        flat = cost_of("2d")
        area_reduction = 1 - hirise.area_mm2 / flat.area_mm2
        energy_reduction = 1 - hirise.energy_pj / flat.energy_pj
        assert area_reduction == pytest.approx(0.33, abs=0.03)
        assert energy_reduction == pytest.approx(0.38, abs=0.03)


class TestPinnedConstants:
    """The pinned literals are the NNLS solution, bit for bit."""

    @pytest.mark.parametrize(
        "pinned, fit",
        [
            (calibrated_delay, fit_delay_constants),
            (calibrated_energy, fit_energy_constants),
            (calibrated_area, fit_area_constants),
        ],
        ids=["delay", "energy", "area"],
    )
    def test_pinned_equals_fit_bit_for_bit(self, pinned, fit):
        constants, fitted = pinned(), fit()
        for field in dataclasses.fields(constants):
            value = getattr(constants, field.name)
            assert type(value) is float, field.name
            assert value.hex() == float(getattr(fitted, field.name)).hex(), (
                field.name
            )

    @pytest.mark.parametrize("name", ANCHORS)
    def test_anchor_costs_are_plain_floats(self, name):
        cost = anchor_cost(name)
        for value in (cost.area_mm2, cost.frequency_ghz, cost.energy_pj):
            assert type(value) is float
