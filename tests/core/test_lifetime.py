"""A finished switch is freed by reference counting alone.

Sweeps build thousands of switches; one that only the cyclic garbage
collector can free holds its ports, queues and arbiters until the next
collection, which shows up as peak memory.
"""

import gc
import weakref

import pytest

from repro.core import HiRiseConfig, HiRiseSwitch
from repro.core.reference import ReferenceHiRiseSwitch
from repro.network.engine import Simulation
from repro.switches import SwizzleSwitch2D, VOQSwitch
from repro.traffic import UniformRandomTraffic


@pytest.mark.parametrize("build", [
    lambda: HiRiseSwitch(
        HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
    ),
    lambda: HiRiseSwitch(HiRiseConfig(
        radix=8, layers=2, channel_multiplicity=2, allocation="priority",
    )),
    lambda: SwizzleSwitch2D(8),
    lambda: ReferenceHiRiseSwitch(
        HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
    ),
    lambda: VOQSwitch(HiRiseConfig(
        radix=8, layers=2, channel_multiplicity=2, arbitration="islip",
    )),
], ids=["fast-binned", "fast-priority", "flat-2d", "reference", "voq"])
def test_switch_freed_without_cyclic_gc(build):
    gc.collect()
    gc.disable()
    try:
        switch = build()
        Simulation(
            switch, UniformRandomTraffic(8, load=0.5, seed=1)
        ).run(100, drain=True)
        ref = weakref.ref(switch)
        del switch
        assert ref() is None
    finally:
        gc.enable()
