"""Smoke tests of the benchmark itself.

A tiny-length run of every workload, untraced and traced, must emit
every metric that ``BENCHMARK.json`` names, with its unit, and pass its
output checks; the traced run must attribute its wall time to the
layers the workload drives.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
from probe import LAYER_FRAC_METRIC  # noqa: E402

#: Per-layer metrics that must be non-zero (busy) or zero (idle) on each
#: workload: the layer split each workload was chosen for.
BUSY = {
    "paper_tables": ("traffic.busy_s", "engine.self_s", "hirise.step_s",
                     "xbar.step_s", "manycore.busy_s"),
    "fleet_sweep": ("traffic.busy_s", "fleet.step_s", "fleet.pack_s",
                    "harness.batched_frac"),
    "scheduler_zoo": ("voq.step_s", "arbitration.islip.calls",
                      "arbitration.mwm.calls", "check.busy_s",
                      "hirise.step_s"),
    "service_campaign": ("service.exec_s", "service.cache_put_ms",
                         "service.journal_append_ms", "fleet.step_s",
                         "hirise.step_s", "service.warm_job_p50_ms"),
}
IDLE = {
    "paper_tables": ("fleet.step_s", "voq.step_s", "service.exec_s"),
    "fleet_sweep": ("hirise.step_s", "harness.scalar_tasks", "voq.step_s"),
    "scheduler_zoo": ("fleet.step_s", "service.exec_s", "manycore.busy_s"),
    "service_campaign": ("voq.step_s", "manycore.busy_s"),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_and_units():
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in SPEC[group]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names), names
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"], done.stdout
    assert report["failed"] == 0 and report["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(report["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        metric = report["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
    values = {name: m["value"] for name, m in report["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
        return
    shares = sum(values[name] for name in LAYER_FRAC_METRIC.values())
    assert shares + values["unattributed_frac"] == pytest.approx(1.0)
    assert -0.05 < values["unattributed_frac"] < 0.1, values
    assert all(values[name] > 0 for name in BUSY[workload]), values
    assert all(values[name] == 0 for name in IDLE[workload]), values


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
