"""Job specifications, fingerprints, and the worker-side executor.

A *job* is one unit of work a client submits to the sweep service: a
single simulation, a load sweep, a trace audit, or a fuzz campaign —
each a **pure function of its specification**.  That purity is the
load-bearing property of the whole service: it makes results
content-addressable (the same spec always produces the same payload, so
a cache entry keyed by the spec's fingerprint can be served forever),
makes crash recovery trivial (re-running an interrupted job cannot
produce a different answer), and makes the kill-and-restart equivalence
the tests pin actually hold.

Specs travel as plain JSON dicts.  :func:`normalize_spec` validates a
client's dict and fills defaults so that any two specs meaning the same
work normalize identically; :func:`job_fingerprint` hashes the
normalized spec — with the embedded :class:`~repro.core.config.HiRiseConfig`
reduced to its order-normalized :func:`repro.obs.perf.config_fingerprint`
— into the content address.

:func:`execute_job_task` is the module-level (hence picklable) entry
the daemon schedules through the resilient parallel executor: it runs
in a worker process, computes the payload, and writes the cache entry
*itself* (atomically, content-addressed — so two workers racing on the
same fingerprint write the same bytes and either rename wins).

The ``chaos`` job kind exists for fault-drill testing of the service's
own machinery (forced worker crashes, transient failures) — the same
role ``os._exit`` measurements play in the executor test-suite.
"""

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

from repro.core.config import CONFIG_FIELDS, HiRiseConfig, config_canonical
from repro.network.port import PortConfig
from repro.obs.perf import config_fingerprint

#: Schema tag shared by the wire protocol, journal, and cache entries.
SERVICE_FORMAT = "repro.service/v1"

#: Job kinds the service accepts.
JOB_KINDS = ("simulate", "sweep", "audit", "fuzz", "chaos")

#: Chaos modes (service fault drills).
CHAOS_MODES = ("ok", "fail_once", "crash_once", "crash_always")


def build_config(fields: Optional[Dict[str, object]]) -> HiRiseConfig:
    """A :class:`HiRiseConfig` from a spec's ``config`` sub-dict.

    The inverse of :func:`~repro.core.config.config_canonical`, the
    canonical wire form.  Unknown fields are rejected (a typo'd field
    silently meaning "the default" would fingerprint two different
    intentions identically).
    """
    fields = dict(fields or {})
    unknown = set(fields) - set(CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config field(s): {sorted(unknown)}")
    if "qos_weights" in fields and fields["qos_weights"] is not None:
        fields["qos_weights"] = tuple(fields["qos_weights"])
    if "failed_channels" in fields:
        fields["failed_channels"] = tuple(
            tuple(entry) for entry in fields["failed_channels"]
        )
    if isinstance(fields.get("port_config"), dict):
        fields["port_config"] = PortConfig(**fields["port_config"])
    return HiRiseConfig(**fields)


def _take(spec: Dict[str, object], name: str, default, kind) -> object:
    value = spec.get(name, default)
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise ValueError(f"spec field {name!r} must be {kind.__name__}")
    return value


def normalize_spec(spec: Dict[str, object]) -> Dict[str, object]:
    """Validate a job spec and fill defaults into its canonical form.

    Two specs that mean the same work (fields in any order, defaults
    spelled out or omitted) normalize to the same dict, which is what
    :func:`job_fingerprint` hashes.  Raises ``ValueError`` on unknown
    kinds, unknown fields, or ill-typed values.
    """
    if not isinstance(spec, dict):
        raise ValueError("job spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(f"unknown job kind {kind!r} (one of {JOB_KINDS})")

    known = {"kind", "config", "traffic", "load", "seed", "cycles",
             "warmup", "drain", "metric", "loads", "replications",
             "base_seed", "window", "cases", "max_radix", "mode"}
    unknown = set(spec) - known
    if unknown:
        raise ValueError(f"unknown spec field(s): {sorted(unknown)}")

    normalized: Dict[str, object] = {"kind": kind}
    if kind in ("simulate", "sweep", "audit"):
        config = build_config(spec.get("config"))
        normalized["config"] = config_canonical(config)
        normalized["warmup"] = _take(spec, "warmup", 40, int)
        normalized["cycles"] = _take(spec, "cycles", 300, int)
        if normalized["cycles"] < 1 or normalized["warmup"] < 0:
            raise ValueError("cycles must be >= 1 and warmup >= 0")
    if kind in ("simulate", "audit"):
        traffic = spec.get("traffic", "uniform")
        if traffic not in ("uniform", "hotspot"):
            raise ValueError(f"unknown traffic {traffic!r}")
        normalized["traffic"] = traffic
        normalized["load"] = _take(spec, "load", 0.3, float)
        normalized["seed"] = _take(spec, "seed", 1, int)
    if kind == "simulate":
        normalized["drain"] = _take(spec, "drain", False, bool)
    elif kind == "sweep":
        from repro.harness.measure import METRICS

        metric = spec.get("metric", "throughput")
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r} (one of {METRICS})")
        normalized["metric"] = metric
        loads = spec.get("loads", [0.3])
        if (not isinstance(loads, (list, tuple)) or not loads
                or not all(isinstance(l, (int, float)) for l in loads)):
            raise ValueError("loads must be a non-empty list of numbers")
        normalized["loads"] = [float(l) for l in loads]
        normalized["replications"] = _take(spec, "replications", 1, int)
        if normalized["replications"] < 1:
            raise ValueError("replications must be >= 1")
        normalized["base_seed"] = _take(spec, "base_seed", 0, int)
    elif kind == "audit":
        normalized["window"] = _take(spec, "window", 64, int)
        if normalized["window"] < 1:
            raise ValueError("window must be >= 1")
    elif kind == "fuzz":
        normalized["seed"] = _take(spec, "seed", 0, int)
        normalized["cases"] = _take(spec, "cases", 5, int)
        normalized["max_radix"] = _take(spec, "max_radix", 8, int)
        if normalized["cases"] < 1:
            raise ValueError("cases must be >= 1")
    elif kind == "chaos":
        mode = spec.get("mode", "ok")
        if mode not in CHAOS_MODES:
            raise ValueError(f"unknown chaos mode {mode!r}")
        normalized["mode"] = mode
        normalized["seed"] = _take(spec, "seed", 0, int)
    return normalized


def job_fingerprint(spec: Dict[str, object]) -> str:
    """Content address of a job: sha256 over its canonical identity.

    The config sub-dict is reduced to :func:`config_fingerprint`, so the
    job inherits the config's order normalisation (two specs whose
    ``failed_channels`` differ only in ordering address the same cache
    entry).
    """
    normalized = normalize_spec(spec)
    canonical = dict(normalized)
    if "config" in canonical:
        canonical["config"] = config_fingerprint(
            build_config(canonical["config"])
        )
    blob = json.dumps(
        {"format": SERVICE_FORMAT, "job": canonical},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Execution (worker side)
# ----------------------------------------------------------------------
def _chaos_value(seed: int) -> float:
    return seed * seed + 0.5 * seed + 1.0


def _run_chaos(spec: Dict[str, object],
               chaos_dir: Optional[str]) -> Dict[str, object]:
    """The fault-drill job: misbehave as instructed, then answer.

    ``crash_once``/``fail_once`` leave a marker file keyed by the job's
    content so only the *first* attempt misbehaves — the retried attempt
    (in a rebuilt pool) finds the marker and answers normally, exactly
    like a transient OOM-kill.  With no ``chaos_dir`` (direct baseline
    computation outside the daemon) the drills are inert and only the
    answer remains, which is what interrupted-vs-uninterrupted
    comparisons diff against.
    """
    mode = spec["mode"]
    seed = spec["seed"]
    if chaos_dir is not None and mode != "ok":
        marker = os.path.join(
            chaos_dir, f"{job_fingerprint(spec)}.{mode}"
        )
        first_time = not os.path.exists(marker)
        if first_time:
            with open(marker, "w", encoding="utf-8"):
                pass
        if mode == "crash_always":
            os._exit(23)
        if first_time and mode == "crash_once":
            os._exit(23)
        if first_time and mode == "fail_once":
            raise RuntimeError("chaos: scripted transient failure")
    return {"kind": "chaos", "mode": mode, "seed": seed,
            "value": _chaos_value(seed)}


def _run_simulate(spec: Dict[str, object]) -> Dict[str, object]:
    from repro.core.hirise import HiRiseSwitch
    from repro.network.engine import Simulation

    config = build_config(spec["config"])
    switch = HiRiseSwitch(config)
    traffic = _build_traffic(spec, config)
    sim = Simulation(switch, traffic, warmup_cycles=spec["warmup"])
    result = sim.run(spec["cycles"], drain=spec["drain"])
    avg_latency = (
        result.latency_sum / result.latency_count
        if result.latency_count else 0.0
    )
    return {
        "kind": "simulate",
        "cycles": result.cycles,
        "packets_ejected": result.packets_ejected,
        "flits_ejected": result.flits_ejected,
        "throughput_packets_per_cycle":
            result.throughput_packets_per_cycle,
        "avg_latency_cycles": avg_latency,
    }


def _build_traffic(spec: Dict[str, object], config: HiRiseConfig):
    from repro.traffic import HotspotTraffic, UniformRandomTraffic

    if spec["traffic"] == "hotspot":
        return HotspotTraffic(
            config.radix, spec["load"],
            hotspot_output=config.radix - 1, seed=spec["seed"],
        )
    return UniformRandomTraffic(
        config.radix, spec["load"], seed=spec["seed"]
    )


def _run_sweep(spec: Dict[str, object]) -> Dict[str, object]:
    from repro.harness.measure import SimulationMeasurement
    from repro.harness.parallel import run_sweep

    config = build_config(spec["config"])
    measurement = SimulationMeasurement(
        config, metric=spec["metric"],
        warmup_cycles=spec["warmup"], measure_cycles=spec["cycles"],
    )
    grid = [{"load": load} for load in spec["loads"]]
    # workers=1: this already runs inside a pool worker, which cannot
    # spawn grandchildren; the fleet prepass still batches compatible
    # replications through the vectorized kernel when numpy is present.
    points = run_sweep(
        measurement, grid, replications=spec["replications"],
        base_seed=spec["base_seed"], workers=1,
    )
    wire_points = []
    for point in points:
        entry = {"load": point.parameters["load"], "value": point.value}
        if point.interval is not None:
            entry["half_width"] = point.interval.half_width
        wire_points.append(entry)
    return {"kind": "sweep", "metric": spec["metric"],
            "points": wire_points}


def _run_audit(spec: Dict[str, object]) -> Dict[str, object]:
    from repro.core.hirise import HiRiseSwitch
    from repro.network.engine import Simulation
    from repro.obs import BinaryTracer, analyze_tracer, validate_audit_summary

    config = build_config(spec["config"])
    tracer = BinaryTracer()
    switch = HiRiseSwitch(config, tracer=tracer)
    sim = Simulation(
        switch, _build_traffic(spec, config),
        warmup_cycles=spec["warmup"],
    )
    sim.run(spec["cycles"])
    report = analyze_tracer(tracer, window=spec["window"])
    return {"kind": "audit",
            "summary": validate_audit_summary(report.summary())}


def _run_fuzz(spec: Dict[str, object]) -> Dict[str, object]:
    from repro.check import run_fuzz

    report = run_fuzz(
        seed=spec["seed"], cases=spec["cases"],
        max_radix=spec["max_radix"], out_dir=None,
        invariants=True, minimize=False,
    )
    return {
        "kind": "fuzz",
        "seed": report.seed,
        "cases_run": report.cases_run,
        "ok": report.ok,
        "failures": [
            {
                "case_id": failure.original.case_id,
                "status": failure.outcome.status,
                "detail": failure.outcome.detail,
            }
            for failure in report.failures
        ],
    }


def run_job(spec: Dict[str, object],
            chaos_dir: Optional[str] = None) -> Dict[str, object]:
    """Compute one job's payload — a pure function of the (normalized) spec.

    ``chaos_dir`` arms the chaos drills; leave it ``None`` to compute
    the job's *answer* (e.g. as a baseline to diff a recovered run
    against).
    """
    spec = normalize_spec(spec)
    kind = spec["kind"]
    if kind == "chaos":
        return _run_chaos(spec, chaos_dir)
    if kind == "simulate":
        return _run_simulate(spec)
    if kind == "sweep":
        return _run_sweep(spec)
    if kind == "audit":
        return _run_audit(spec)
    return _run_fuzz(spec)


def execute_job_task(
    seed: int = 0,
    spec_json: str = "",
    cache_root: str = "",
    chaos_dir: Optional[str] = None,
) -> float:
    """The daemon's unit of scheduled work (module-level, picklable).

    Runs in a worker process under the sweep executor: computes the
    payload and writes the content-addressed cache entry itself (atomic
    write-then-rename, so a crash mid-job leaves no partial entry and a
    duplicate worker is harmless).  The scalar return value feeds the
    executor's bookkeeping; the *result* travels through the cache.
    """
    from repro.service.cache import ResultCache

    spec = json.loads(spec_json)
    fingerprint = job_fingerprint(spec)
    payload = run_job(spec, chaos_dir=chaos_dir)
    ResultCache(cache_root).put(fingerprint, payload)
    return 1.0
