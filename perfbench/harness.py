"""Frame-loop benchmark harness: workloads, clock, behaviour digest, phases.

A benchmark run of one workload drives ``repro.runtime.pipeline.Pipeline``
closed loop from one process: one caller, frames back to back. Each run
covers ``Workload.instances`` scenario instances whose seeds derive from
the run's seed, so that seed-to-seed variation in the generated inputs
averages out within a run instead of spreading the run's figures.

Phases of a run (see :func:`measure`):

1. *setup* — per instance, build the scenario and ``train_models`` with
   no artifact cache active;
2. *cold* — per instance, the first ``Pipeline.run()``. The scenario,
   its cameras and its trained models are fresh objects, so every memo
   keyed on them (warm-world snapshot, camera masks, projection
   constants) starts empty; this run is also the warm-up the timed runs
   discard;
3. *timed* — warm runs of the instance for its share of the time
   budget (at least :data:`MIN_TIMED_RUNS`), with a
   :class:`RecordingClock` giving per-frame host times. Each run
   processes the same frames, so a frame's host time is its fastest
   time over the instance's timed runs, and an instance's run time is
   its fastest run: a burst of other work on the host that lands on one
   run does not count.

Host times are the benchmark thread's CPU time, so time the host gives
to other work (other processes, or other guests on a shared machine) is
not counted. :class:`gauge.SpeedGauge` is sampled right before and
right after every operation, and the operation's host times are
rescaled by its factor to the reference speed, so a host that runs
slower for a while does not read as a slower program.

Instances go through the three phases one after the other and are
dropped once measured, so a run never relies on a memo holding more
than one instance.

Every run's :class:`~repro.runtime.metrics.RunResult` is hashed by
:func:`digest`; a digest that differs from the shipped reference (or,
for a seed without one, from the other runs of the same instance) is a
failed operation.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from gauge import SpeedGauge

#: Timed runs of each instance at the least, however short ``--seconds``.
MIN_TIMED_RUNS = 2

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_PATH = Path(__file__).resolve().parent / "reference_digests.json"


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Raises ``ImportError`` when the checkout has no sources, or when
    ``repro`` resolves to a copy outside this checkout.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


CHAOS_FAULTS = (
    "rand:crash=0.01,outage=10,loss=0.05,sched=0.006,sched_frames=12,"
    "burst=0.03,burst_frames=4,corrupt=0.03,dup=0.03,reorder=0.02,"
    "freeze=0.01,flap=0.006,fade=0.008"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scenario plus the ``PipelineConfig`` fields
    that differ from the defaults.

    ``instances`` scenario instances make one run; instance ``i`` of the
    run with seed ``s`` uses seed ``s * instances + i`` for both
    ``get_scenario`` and ``PipelineConfig.seed``.
    """

    name: str
    scenario: str
    config: Dict[str, Any]
    instances: int

    def seeds(self, seed: int) -> List[int]:
        return [seed * self.instances + i for i in range(self.instances)]


#: Why each workload exists is recorded in BENCHMARK.json and
#: perfbench/PROFILE.md. Instance counts keep the seed-to-seed spread of
#: the modeled metrics small and give each run at least 1000 frames.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("s1_keyframe", "S1", {"policy": "balb", "horizon": 3}, 12),
        Workload("s3_tracking", "S3", {"policy": "balb", "horizon": 30}, 6),
        Workload(
            "s1_chaos", "S1",
            {
                "policy": "balb",
                "horizon": 10,
                "runtime": "event",
                "ingest_policy": "coalesce-to-key-frame",
                "ingest_capacity": 2,
                "serve_subscribers": 1000,
                "faults": CHAOS_FAULTS,
            },
            6,
        ),
    )
}


class RecordingClock:
    """A pipeline ``Clock`` that keeps every reading.

    The pipeline reads its clock once when a frame starts and once when
    it ends, so consecutive pairs of readings bracket one frame each.
    The pipeline sees wall time; the thread's CPU time is kept beside it.
    """

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.cpu_stamps: List[float] = []

    def now(self) -> float:
        self.cpu_stamps.append(time.thread_time())
        stamp = time.perf_counter()
        self.stamps.append(stamp)
        return stamp

    def frame_ms(self) -> List[float]:
        """Host (CPU) milliseconds of each frame, in processing order."""
        if len(self.stamps) % 2:
            raise RuntimeError("unpaired clock reading: a frame never ended")
        stamps = self.cpu_stamps
        return [(b - a) * 1e3 for a, b in zip(stamps[0::2], stamps[1::2])]

    def current_frame(self) -> int:
        """Ordinal of the latest frame whose interval has opened (-1: none)."""
        return (len(self.stamps) + 1) // 2 - 1


class TracedClock(RecordingClock):
    """A :class:`RecordingClock` that also brackets each frame interval in
    a ``pipeline.frame`` span of ``tracer`` and stamps the tracer's spans
    with this clock's frame ordinal.

    Under the event runtime the whole frame loop runs inside
    ``EventQueue.run_until_idle``; the frame span keeps the frame's own
    orchestration out of that entry point's self time.
    """

    def __init__(self, tracer) -> None:
        super().__init__()
        self.tracer = tracer
        tracer.frame_of = self.current_frame
        self._frame_span: Optional[list] = None

    def now(self) -> float:
        if self._frame_span is not None:
            self.tracer.close(self._frame_span)
            self._frame_span = None
            return super().now()
        stamp = super().now()
        self._frame_span = self.tracer.open("pipeline.frame")
        return stamp


def _canon_map(mapping: Dict[Any, Any]) -> List[Tuple[Any, float]]:
    return sorted((k if isinstance(k, str) else int(k), float(v))
                  for k, v in mapping.items())


def digest(result) -> str:
    """SHA-256 over a run's behaviour: every frame record and every
    exported metric except the wall-clock ``frame_wall_ms`` histogram."""
    h = hashlib.sha256()
    h.update(repr((result.policy, result.scenario, result.horizon)).encode())
    for f in result.frames:
        h.update(repr((
            int(f.frame_index),
            bool(f.is_key_frame),
            _canon_map(f.inference_ms),
            sorted(int(o) for o in f.visible_gt),
            sorted(int(o) for o in f.detected_gt),
            _canon_map(f.overheads_ms),
            _canon_map(f.n_slices),
            sorted(int(o) for o in f.coverage_lost),
        )).encode())
    for entry in result.metrics:
        if entry["name"] == "frame_wall_ms":
            continue
        h.update(json.dumps(entry, sort_keys=True, default=lambda o: o.item())
                 .encode())
    return h.hexdigest()


def load_references() -> Dict[str, Dict[str, str]]:
    """``{workload: {instance seed: digest}}`` shipped with the benchmark."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class DigestCheck:
    """Counts runs and failures against reference or first-seen digests."""

    def __init__(self, references: Dict[str, str]) -> None:
        self.references = dict(references)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, seed: int, result) -> bool:
        self.attempted += 1
        got = digest(result)
        want = self.references.setdefault(str(seed), got)
        if got != want:
            self.fail(f"seed {seed}: digest {got[:12]} != reference {want[:12]}")
            return False
        return True

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def raised(self, what: str, exc: Exception) -> None:
        """Count an operation that raised as attempted and failed."""
        self.attempted += 1
        self.fail(f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class Instance:
    """One scenario instance of a run, with its trained models."""

    seed: int
    scenario: Any
    config: Any
    trained: Any


def setup_instance(workload: Workload, seed: int) -> Instance:
    """Build the scenario and train its models (no artifact cache)."""
    from repro.cache import get_active_cache
    from repro.runtime.pipeline import PipelineConfig, train_models
    from repro.scenarios import get_scenario

    if get_active_cache() is not None:
        raise RuntimeError("an artifact cache is active; setup must train")
    scenario = get_scenario(workload.scenario, seed)
    config = PipelineConfig(seed=seed, **workload.config)
    trained = train_models(scenario, config)
    return Instance(seed, scenario, config, trained)


@dataclass
class Timing:
    """Host time of one operation."""

    wall_s: float
    cpu_s: float
    #: :meth:`SpeedGauge.scale` around the operation (1.0 when the
    #: operation was not gauged).
    scale: float = 1.0

    @property
    def host_s(self) -> float:
        """CPU seconds at the reference speed."""
        return self.cpu_s * self.scale


def timed(fn: Callable[[], Any],
          gauge: Optional[SpeedGauge] = None) -> Tuple[Any, Timing]:
    """Call ``fn``; with a gauge, sample it right before and after."""
    before = gauge.sample() if gauge is not None else None
    wall, cpu = time.perf_counter(), time.thread_time()
    value = fn()
    timing = Timing(time.perf_counter() - wall, time.thread_time() - cpu)
    if gauge is not None:
        timing.scale = gauge.scale(before, gauge.sample())
    return value, timing


def run_instance(inst: Instance, clock: Optional[RecordingClock] = None,
                 gauge: Optional[SpeedGauge] = None) -> Tuple[Any, Timing]:
    """One ``Pipeline.run()`` of ``inst``; returns (result, timing)."""
    from repro.runtime.pipeline import Pipeline

    pipeline = Pipeline(inst.scenario, inst.config, inst.trained, clock=clock)
    return timed(pipeline.run, gauge)


def guarded_run(inst: Instance, check: DigestCheck, clock=None,
                gauge: Optional[SpeedGauge] = None):
    """:func:`run_instance` with failures counted instead of raised.

    Returns (result, timing), or ``None`` when the run raised
    (``InvariantViolation`` included) or its digest did not match.
    """
    try:
        result, timing = run_instance(inst, clock, gauge)
    except Exception as exc:  # noqa: BLE001 - a failed operation, counted
        check.raised(f"seed {inst.seed}", exc)
        return None
    if not check.check(inst.seed, result):
        return None
    return result, timing


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def merged(results: Sequence[Any]):
    """One ``RunResult`` holding every frame of ``results`` in order.

    Every run is a whole number of horizons, so per-horizon metrics over
    the merge equal the pooled per-horizon metrics of the parts.
    """
    from repro.runtime.metrics import RunResult

    first = results[0]
    out = RunResult(policy=first.policy, scenario=first.scenario,
                    horizon=first.horizon)
    for result in results:
        out.frames.extend(result.frames)
    return out


def modeled_metrics(results: Sequence[Any]) -> Dict[str, float]:
    """The paper's modeled-onboard metrics over the merged runs."""
    run = merged(results)
    slowest = [max(f.inference_ms.values()) for f in run.frames
               if f.inference_ms]
    return {
        "modeled_latency_ms": run.mean_slowest_latency(),
        "modeled_frame_ms_p99": percentile(slowest, 99),
        "modeled_overhead_ms": run.overhead_breakdown()["total"],
        "object_recall": run.object_recall(),
    }


@dataclass
class Measurement:
    """Everything one run of a workload measured.

    Host times are reference-speed CPU seconds (:attr:`Timing.host_s`)
    unless a name says wall.
    """

    gauge: SpeedGauge = field(default_factory=SpeedGauge)
    #: The last instance set up. Earlier ones are dropped once measured,
    #: so every instance runs with only its own models in memory.
    last: Optional[Instance] = None
    setup_s: List[float] = field(default_factory=list)
    cold_s: List[float] = field(default_factory=list)
    #: Per instance seed: (frames per run, timing of each timed run).
    timed: Dict[int, Tuple[int, List[Timing]]] = field(default_factory=dict)
    #: Per frame of every instance: its fastest time over the timed runs.
    key_ms: List[float] = field(default_factory=list)
    regular_ms: List[float] = field(default_factory=list)
    modeled: Dict[str, float] = field(default_factory=dict)

    def frames_per_s(self, wall: bool = False) -> float:
        """Frames of one run of every instance ÷ the sum of the
        instances' fastest timed-run times (host time, or raw wall time)."""
        frames = sum(n for n, _ in self.timed.values())
        total = sum(min(t.wall_s if wall else t.host_s for t in runs)
                    for _, runs in self.timed.values())
        return frames / total

    def median_wall_s(self, seed: int) -> float:
        """Median wall time of the timed runs of instance ``seed``."""
        return statistics.median(t.wall_s for t in self.timed[seed][1])


def frame_times(result, clock: RecordingClock, check: DigestCheck,
                seed: int) -> Optional[List[float]]:
    """Per-frame host (CPU) ms, checked to pair one-to-one with the frame
    records."""
    if len(clock.stamps) != 2 * len(result.frames):
        check.fail(f"seed {seed}: {len(clock.stamps)} clock readings for "
                   f"{len(result.frames)} frames")
        return None
    return clock.frame_ms()


def measure(workload: Workload, seed: int, seconds: float,
            check: DigestCheck) -> Measurement:
    """Setup, cold and timed phases of one run (see the module docstring).

    Instances are measured one after the other, each getting an equal
    share of ``seconds`` for its timed runs (at least
    :data:`MIN_TIMED_RUNS`).
    """
    m = Measurement()
    share = seconds / workload.instances
    cold_results = []
    for inst_seed in workload.seeds(seed):
        try:
            inst, timing = timed(
                lambda: setup_instance(workload, inst_seed), m.gauge)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            check.raised(f"setup seed {inst_seed}", exc)
            continue
        m.setup_s.append(timing.host_s)
        m.last = inst
        outcome = guarded_run(inst, check, gauge=m.gauge)
        if outcome is None:
            continue
        cold_results.append(outcome[0])
        m.cold_s.append(outcome[1].host_s)

        runs: List[Timing] = []
        frame_ms: List[List[float]] = []
        deadline = time.perf_counter() + share
        while (len(runs) < MIN_TIMED_RUNS
               or time.perf_counter() < deadline):
            clock = RecordingClock()
            outcome = guarded_run(inst, check, clock, m.gauge)
            if outcome is None:
                break
            result, timing = outcome
            times = frame_times(result, clock, check, inst_seed)
            if times is None:
                break
            frame_ms.append([ms * timing.scale for ms in times])
            runs.append(timing)
        if len(runs) < MIN_TIMED_RUNS:
            continue
        m.timed[inst_seed] = (len(cold_results[-1].frames), runs)
        for record, *times in zip(result.frames, *frame_ms):
            (m.key_ms if record.is_key_frame else m.regular_ms).append(
                min(times))
    if cold_results and len(cold_results) == workload.instances:
        m.modeled = modeled_metrics(cold_results)
    return m


def peak_rss_mb() -> float:
    """This process's high-water resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m: Measurement) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of one run: ``{name: (value, unit)}``."""
    all_ms = m.key_ms + m.regular_ms
    out = {
        "sim_frames_per_s": (m.frames_per_s(), "frames/s"),
        "key_frame_host_ms_p50": (statistics.median(m.key_ms), "ms"),
        "regular_frame_host_ms_p50": (statistics.median(m.regular_ms), "ms"),
        "frame_host_ms_p99": (percentile(all_ms, 99), "ms"),
        "cold_run_s": (statistics.median(m.cold_s), "s"),
        "setup_s": (statistics.median(m.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    units = {"modeled_latency_ms": "ms", "modeled_frame_ms_p99": "ms",
             "modeled_overhead_ms": "ms", "object_recall": "ratio"}
    for name, value in m.modeled.items():
        out[name] = (value, units[name])
    return out
