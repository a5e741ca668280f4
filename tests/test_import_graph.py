"""Import-graph contract: scipy stays off the start-up path.

Importing the package or any entry point must load no scipy module, so
a CLI call, a daemon or a sweep pays nothing for scipy until it builds
a confidence interval (``scipy.special``).  The cost model never loads
scipy: its constants are pinned, and only the fits that derive them
(``scipy.optimize``) do.  Each case runs in a fresh interpreter, since
``sys.modules`` in the test process already holds whatever other tests
imported.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

ENTRY_POINTS = [
    "repro",
    "repro.core",
    "repro.core.fleet",
    "repro.switches",
    "repro.traffic",
    "repro.harness",
    "repro.manycore",
    "repro.physical",
    "repro.service",
    "repro.__main__",
]


def scipy_modules_after(code):
    """Run ``code`` in a fresh interpreter; return the scipy modules loaded."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(
            name for name in sys.modules if name.split(".")[0] == "scipy"
        )))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])
    ))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize("module_name", ENTRY_POINTS)
def test_entry_point_loads_no_scipy(module_name):
    loaded = scipy_modules_after(f"import {module_name}")
    assert not loaded, f"{module_name} pulled in {sorted(loaded)[:5]}"


def test_first_interval_loads_special_not_stats():
    loaded = scipy_modules_after("""
        from repro.metrics.confidence import t_interval
        t_interval([1.0, 2.0, 3.0])
    """)
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


def test_fit_loads_optimize():
    loaded = scipy_modules_after("""
        from repro.physical.calibration import fit_delay_constants
        fit_delay_constants()
    """)
    assert "scipy.optimize" in loaded


def test_cost_model_loads_no_scipy():
    loaded = scipy_modules_after("""
        from repro.core import HiRiseConfig
        from repro.harness import (
            fig9a_frequency_vs_radix, fig12_tsv_pitch, table4, table6,
        )
        from repro.manycore import MIXES
        from repro.physical import Technology, cost_of

        cost_of("2d")
        cost_of("folded")
        for channels in (4, 2, 1):
            cost_of(HiRiseConfig(channel_multiplicity=channels,
                                 arbitration="l2l_lrg"))
        cost_of(HiRiseConfig())
        cost_of(HiRiseConfig(), technology=Technology().with_tsv_pitch(1.6))
        fig9a_frequency_vs_radix()
        fig12_tsv_pitch()
        table4(20, 40)
        table6(network_cycles_baseline=20, mixes=MIXES[:1])
    """)
    assert not loaded, f"the cost model pulled in {sorted(loaded)[:5]}"
