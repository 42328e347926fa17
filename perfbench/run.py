"""Frame-loop benchmark of the BALB reproduction.

Run one workload:

    python3 perfbench/run.py --workload s1_keyframe --seed 0 --seconds 6 --trace 0

or every workload, each in a process of its own, with a table of every
metric by name and unit:

    python3 perfbench/run.py

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one
traced run and reports the per-layer metrics instead. The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when
any operation failed, and 2 when the checkout has no sources to run.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

# One thread: numpy's BLAS must not start workers that compete with the
# frame loop for the host's cores. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402
from harness import WORKLOADS, DigestCheck, Measurement, Workload  # noqa: E402
from tracer import COUNT_NAMES, ENTRY_NAMES, LayerTracer  # noqa: E402

OUT_DIR = harness.ROOT / "perfbench" / "out"

#: Layers of the frame loop in report order; entry ``layer.name``
#: belongs to ``layer``.
LAYERS = tuple(dict.fromkeys(
    name.split(".")[0] for name in ENTRY_NAMES if not name.startswith("setup.")
))


#: Per-layer counts summed from the run's exported counters.
EXPORTED_COUNTS = (
    ("net.retries", "message_retries_total"),
    ("net.drops", "messages_dropped_total"),
    ("net.corrupt_drops", "wire_corrupt_dropped_total"),
    ("ingest.dropped", "ingest_dropped_total"),
    ("ingest.coalesced", "ingest_coalesced_total"),
    ("failover.takeovers", "failover_takeovers_total"),
)


def _exported(result, name: str) -> List[float]:
    return [entry["value"] for entry in result.metrics
            if entry["name"] == name]


def traced_run(workload: Workload, seed: int, m: Measurement,
               check: DigestCheck) -> Tuple[Dict[str, Tuple[float, str]],
                                            List[str]]:
    """The traced setup and run; returns per-layer metrics and a report."""
    # The last instance measured: every memo still holds its entries.
    inst = m.last
    setup_tracer = LayerTracer()
    try:
        with setup_tracer:
            harness.setup_instance(workload, inst.seed)
    except Exception as exc:  # noqa: BLE001 - a failed operation, counted
        check.raised(f"traced setup seed {inst.seed}", exc)
        return {}, []

    run_tracer = LayerTracer()
    clock = harness.TracedClock(run_tracer)
    with run_tracer:
        outcome = harness.guarded_run(inst, check, clock)
    if outcome is None:
        return {}, []
    result, timing = outcome
    harness.frame_times(result, clock, check, inst.seed)

    metrics: Dict[str, Tuple[float, str]] = {}
    layer_ms: Dict[str, float] = {}
    table = run_tracer.layer_table()
    table.update({name: value
                  for name, value in setup_tracer.layer_table().items()
                  if name.startswith("setup.")})
    for name, (calls, self_s) in table.items():
        layer = name.split(".")[0]
        if layer == "pipeline":  # the frame spans: part of the residual
            continue
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1e3, "ms")
        if layer != "setup":
            layer_ms[layer] = layer_ms.get(layer, 0.0) + self_s * 1e3
    for name in COUNT_NAMES:
        metrics[name] = (run_tracer.counts.get(name, 0), "count")
    observations = run_tracer.counts.get("association.observations_in", 0)
    metrics["association.merge_ratio"] = (
        run_tracer.counts.get("association.global_objects_out", 0)
        / observations if observations else 0.0, "ratio")
    for metric, exported in EXPORTED_COUNTS:
        metrics[metric] = (sum(_exported(result, exported)), "count")
    metrics["ingest.max_backlog"] = (
        max(_exported(result, "ingest_queue_peak_depth"), default=0),
        "count")
    hits = sum(_exported(result, "serving_cache_hits_total"))
    misses = sum(_exported(result, "serving_cache_misses_total"))
    metrics["serving.hit_rate"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")

    wall_ms = timing.wall_s * 1e3
    residual_ms = wall_ms - sum(layer_ms.values())
    frames = len(result.frames)
    metrics["pipeline.self_ms"] = (residual_ms, "ms")
    metrics["pipeline.self_ms_per_frame"] = (residual_ms / frames, "ms")
    metrics["trace.overhead_ratio"] = (
        m.median_wall_s(inst.seed) / timing.wall_s, "ratio")
    metrics["host.wall_frames_per_s"] = (m.frames_per_s(wall=True),
                                         "frames/s")
    metrics["host.gauge_kernel_ms"] = (
        statistics.median(m.gauge.samples) * 1e3, "ms")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    run_tracer.dump_jsonl(
        str(OUT_DIR / f"{workload.name}.seed{seed}.trace.jsonl"))

    layer_ms["pipeline"] = residual_ms
    report = [f"layer shares of traced host time ({wall_ms:.1f} ms, "
              f"{frames} frames, instance seed {inst.seed}):"]
    for layer in LAYERS + ("pipeline",):
        report.append(f"  {layer:<16}{layer_ms.get(layer, 0.0):>11.2f} ms"
                      f"{100.0 * layer_ms.get(layer, 0.0) / wall_ms:>8.2f}%")
    return metrics, report


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        harness.import_repro()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    references = harness.load_references().get(name, {})
    check = DigestCheck(references)
    m = harness.measure(workload, seed, seconds, check)
    lines = [f"workload {name} seed {seed}: {len(m.setup_s)} instances "
             f"(seeds {workload.seeds(seed)[0]}..{workload.seeds(seed)[-1]}),"
             f" {sum(len(w) for _, w in m.timed.values())} timed runs, "
             f"{len(m.key_ms)} key + {len(m.regular_ms)} regular frame samples"]
    metrics: Dict[str, Tuple[float, str]] = {}
    if m.modeled and len(m.timed) == workload.instances:
        if trace:
            metrics, report = traced_run(workload, seed, m, check)
            lines.extend(report)
        else:
            metrics = harness.end_to_end(m)
    lines.extend(f"  {metric:<44}{value:>16.6g} {unit}"
                 for metric, (value, unit) in metrics.items())
    lines.extend(f"FAILED: {error}" for error in check.errors)
    correct = check.failed == 0 and bool(metrics)
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": max(check.attempted, 1),
        "failed": check.failed if check.failed or correct else 1,
        "metrics": {metric: {"value": float(value), "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a process of its own; one summary at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode == 2 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        status = status or proc.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def write_references(n_seeds: int) -> int:
    """Record the digest of every instance of seeds ``0..n_seeds-1``."""
    try:
        harness.import_repro()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table: Dict[str, Dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for seed in range(n_seeds):
            for inst_seed in workload.seeds(seed):
                inst = harness.setup_instance(workload, inst_seed)
                result, _ = harness.run_instance(inst)
                table[name][str(inst_seed)] = harness.digest(result)
            print(f"{name} seed {seed} recorded", flush=True)
    with open(harness.REFERENCE_PATH, "w", encoding="utf-8") as out:
        json.dump(table, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", type=int, metavar="N",
                        help="record reference digests for seeds 0..N-1")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.write_references is not None:
        return write_references(args.write_references)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
