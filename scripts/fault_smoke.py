#!/usr/bin/env python
"""CI fault smoke: seeded fault sweep, forced crash recovery, parity gate.

Exercises the PR 4 robustness machinery end to end, the way CI wants it
— fast, deterministic, and loud on failure:

1. **Fault parity gate** — a seeded random `FaultSchedule` (channel
   failures/repairs, stuck inputs, CLRG corruption) is driven through
   both kernels; `verify_parity` must report bit-identical results *and*
   identical trace streams.
2. **Degradation report** — `measure_degradation` runs the scripted
   partition schedule and writes `degradation.json` / `degradation.md`
   (the artifact CI uploads), sanity-checked for phase structure.
3. **Crash-resilient sweep** — a sweep whose measurement kills its own
   worker process (`os._exit`) on first execution per seed, run with
   retries, a per-task timeout, and a JSONL checkpoint, must complete
   with values bit-identical to direct calls of the measurement — and
   a resumed run must replay the checkpoint without recomputing.

Usage:
    python scripts/fault_smoke.py                 # writes into ./fault-smoke
    python scripts/fault_smoke.py --out-dir DIR --seed 7
"""

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import HiRiseConfig  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultSchedule,
    fail_channel,
    repair_channel,
    measure_degradation,
    verify_parity,
)
from repro.harness.report import render_degradation_markdown  # noqa: E402
from repro.harness.sweep import parameter_grid, run_sweep  # noqa: E402
from repro.metrics.confidence import t_interval  # noqa: E402


def crashing_measurement(seed, load=0.6, token=None):
    """Throughput measurement that kills its worker once per seed.

    The token file marks "this seed already crashed"; the retried
    attempt computes normally, so the supervised result must equal
    direct calls of :func:`healthy_measurement`.
    """
    if token is not None:
        marker = f"{token}.{seed}"
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8"):
                pass
            os._exit(1)
    return healthy_measurement(seed, load=load)


def healthy_measurement(seed, load=0.6, token=None):
    from repro.core.hirise import HiRiseSwitch
    from repro.network.engine import Simulation
    from repro.traffic import UniformRandomTraffic

    config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
    switch = HiRiseSwitch(config)
    traffic = UniformRandomTraffic(8, load=load, seed=seed)
    result = Simulation(switch, traffic, warmup_cycles=20).run(100)
    return result.throughput_packets_per_cycle


def check_parity(seed: int) -> None:
    config = HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)
    schedule = FaultSchedule.random(
        config, seed=seed, horizon=340, faults=6,
        include_inputs=True, include_clrg=True,
    )
    mismatches = verify_parity(config, schedule, load=0.9, seed=11)
    if mismatches:
        for line in mismatches:
            print(f"  PARITY MISMATCH: {line}")
        raise SystemExit("fault parity gate failed")
    print(
        f"parity: fast == reference under {len(schedule)} random fault "
        f"events (results and trace streams)"
    )


def write_degradation(out_dir: Path) -> None:
    config = HiRiseConfig(radix=8, layers=2, channel_multiplicity=2)
    schedule = FaultSchedule([
        fail_channel(100, 0, 1, 0),
        fail_channel(150, 0, 1, 1),      # full 0->1 partition
        repair_channel(250, 0, 1, 0),
        repair_channel(250, 0, 1, 1),
    ])
    report = measure_degradation(
        config, schedule, load=0.7, seed=3,
        measure_cycles=400, warmup_cycles=50,
    )
    payload = report.to_dict()
    phases = payload["phases"]
    assert [p["failed_channels"] for p in phases] == [0, 1, 2, 0], phases
    assert min(p["reachable_fraction"] for p in phases) == 0.75, phases
    (out_dir / "degradation.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    (out_dir / "degradation.md").write_text(
        render_degradation_markdown(payload)
    )
    print(
        f"degradation: {len(phases)} phases, reachability dipped to "
        f"{min(p['reachable_fraction'] for p in phases):.2f}, reports in "
        f"{out_dir}/"
    )


def check_resilient_sweep(out_dir: Path) -> None:
    token = str(out_dir / "crash-token")
    grid = parameter_grid(load=[0.4, 0.8], token=[token])
    checkpoint = out_dir / "sweep-checkpoint.jsonl"
    # A pool break fails every in-flight future and charges one of them
    # (the culprit is unknowable), so size the budget for an innocent
    # charge per crash round on top of each task's own crash.
    supervised = run_sweep(
        crashing_measurement, grid, replications=3, base_seed=0,
        workers=2, task_timeout=60.0, max_retries=4, backoff_base=0.0,
        checkpoint=checkpoint,
    )
    # The reference calls the measurement directly: any run_sweep goes
    # through the same executor as the supervised sweep.
    direct = [
        t_interval([healthy_measurement(seed, load=load) for seed in range(3)])
        for load in (0.4, 0.8)
    ]
    crashed = [p for p in Path(out_dir).glob("crash-token.*")]
    assert crashed, "no worker crash was actually forced"
    for got, want in zip(supervised, direct):
        assert got.value == want.mean, (got, want)
        assert got.interval.half_width == want.half_width
    # Resume: every task must come from the journal, none recomputed
    # (recomputation would crash again via a fresh token).
    for marker in crashed:
        marker.unlink()
    resumed = run_sweep(
        crashing_measurement, grid, replications=3, base_seed=0,
        workers=2, checkpoint=checkpoint,
    )
    assert [p.value for p in resumed] == [p.value for p in supervised]
    assert not list(Path(out_dir).glob("crash-token.*")), (
        "checkpoint resume recomputed a journaled task"
    )
    print(
        f"resilient sweep: {len(crashed)} forced worker crashes retried "
        f"to bit-identical results; checkpoint resume replayed "
        f"{len(supervised) * 3} tasks without recomputing"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the random parity schedule")
    parser.add_argument("--out-dir", type=Path, default=Path("fault-smoke"),
                        help="artifact directory (created if missing)")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    check_parity(args.seed)
    write_degradation(args.out_dir)
    check_resilient_sweep(args.out_dir)
    print("fault smoke: OK")


if __name__ == "__main__":
    main()
