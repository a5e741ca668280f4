"""The benchmark's probe still finds every entry point it wraps.

``perfbench/probe.py`` patches simulator classes by name, reading
``cls.__dict__[attr]``, so an entry point that moves to a base class or
is deleted makes ``Probe.install`` raise ``KeyError`` and every
benchmark workload fail.  These tests install and restore a real probe,
and pin the names whose loss is easiest to miss, plus each kernel's
``inject_columns``, the engine's injection path.
"""

import importlib.util
from pathlib import Path

import pytest

PROBE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def load_probe_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_probe_under_test", PROBE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("perf_phases", [False, True])
def test_probe_installs_and_restores(perf_phases):
    probe = load_probe_module().Probe(perf_phases=perf_phases)
    try:
        probe.install()
        patched = list(probe._patched)
        assert patched
    finally:
        probe.restore()
    for owner, attr, original in patched:
        if isinstance(owner, type):
            assert owner.__dict__[attr] is original, (owner, attr)
        else:
            assert getattr(owner, attr) is original, (owner, attr)


@pytest.mark.parametrize("owner, names", [
    ("repro.core.hirise:HiRiseSwitch",
     ("inject", "inject_many", "inject_columns", "step")),
    ("repro.switches.swizzle2d:SwizzleSwitch2D",
     ("inject", "inject_columns", "step")),
    ("repro.switches.voq:VOQSwitch", ("inject", "inject_columns", "step")),
    ("repro.traffic.base:SyntheticTraffic", ("packets_for_cycle",)),
    ("repro.traffic.trace:TraceTraffic", ("packets_for_cycle",)),
])
def test_wrapped_names_live_in_the_class_dict(owner, names):
    module_name, class_name = owner.split(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    for name in names:
        assert name in cls.__dict__, f"{class_name}.{name}"
