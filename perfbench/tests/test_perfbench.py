"""Tests of the frame-loop benchmark itself: tracer, clock, digest, failures.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import statistics

import pytest

import gauge
import harness
import run
import tracer as tracer_mod
from harness import DigestCheck, TracedClock, Workload
from tracer import LayerTracer

#: A small, fast workload: two cameras, short training, 12 frames.
TINY = Workload(
    "tiny", "S2",
    {"policy": "balb", "horizon": 3, "n_horizons": 4, "train_duration_s": 20.0},
    1,
)


@pytest.fixture(scope="module")
def tiny_instance():
    return harness.setup_instance(TINY, 0)


def _traced_run(inst):
    layer_tracer = LayerTracer()
    clock = TracedClock(layer_tracer)
    with layer_tracer:
        result, timing = harness.run_instance(inst, clock)
    return layer_tracer, clock, result, timing.wall_s


def test_self_times_fit_in_wall_time(tiny_instance):
    layer_tracer, clock, result, wall = _traced_run(tiny_instance)
    own = layer_tracer.self_times()
    assert layer_tracer.spans
    assert min(own) > -1e-9
    assert sum(own) <= wall
    layer_self = sum(
        self_s for name, (_, self_s) in layer_tracer.layer_table().items()
        if not name.startswith("pipeline.")
    )
    assert wall - layer_self >= 0.0
    # Every frame interval became one pipeline.frame span.
    frames = [s for s in layer_tracer.spans if s[0] == "pipeline.frame"]
    assert len(frames) == len(result.frames) == len(clock.frame_ms())
    assert [s[4] for s in frames] == list(range(len(result.frames)))


def test_uninstall_restores_every_original():
    sites = [(tracer_mod._resolve(t.site), t.attr) for t in tracer_mod.TARGETS]
    originals = [tracer_mod._lookup(owner, attr) for owner, attr in sites]
    layer_tracer = LayerTracer()
    with layer_tracer:
        for (owner, attr), original in zip(sites, originals):
            assert tracer_mod._lookup(owner, attr) is not original
    for (owner, attr), original in zip(sites, originals):
        assert tracer_mod._lookup(owner, attr) is original
    layer_tracer.install()
    with pytest.raises(RuntimeError):
        layer_tracer.install()
    layer_tracer.uninstall()


def test_failed_install_restores_what_it_replaced(monkeypatch):
    kept = tracer_mod.TARGETS[:3]
    bogus = tracer_mod.Target("world.nothing", "repro.world.world:World",
                              "no_such_method")
    monkeypatch.setattr(tracer_mod, "TARGETS", kept + (bogus,))
    sites = [(tracer_mod._resolve(t.site), t.attr) for t in kept]
    originals = [tracer_mod._lookup(owner, attr) for owner, attr in sites]
    with pytest.raises(KeyError):
        LayerTracer().install()
    for (owner, attr), original in zip(sites, originals):
        assert tracer_mod._lookup(owner, attr) is original


def test_traced_digest_equals_untraced(tiny_instance):
    plain, _ = harness.run_instance(tiny_instance)
    _, _, traced, _ = _traced_run(tiny_instance)
    assert harness.digest(traced) == harness.digest(plain)


def test_chaos_clock_intervals_match_processed_frames():
    chaos = harness.WORKLOADS["s1_chaos"]
    inst = harness.setup_instance(chaos, 0)
    clock = harness.RecordingClock()
    result, _ = harness.run_instance(inst, clock)
    total = inst.config.horizon * inst.config.n_horizons
    assert len(clock.frame_ms()) == len(result.frames) == total

    def exported(name):
        return sum(e["value"] for e in result.metrics if e["name"] == name)

    # Frames were dropped or coalesced at the ingest edge, and none of
    # them opened a clock interval of its own.
    assert exported("ingest_dropped_total") + exported("ingest_coalesced_total") > 0
    assert exported("ingest_served_total") < exported("ingest_offered_total")


def test_digest_depends_on_seed_only(tiny_instance):
    again, _ = harness.run_instance(tiny_instance)
    first, _ = harness.run_instance(tiny_instance)
    other, _ = harness.run_instance(harness.setup_instance(TINY, 1))
    assert harness.digest(first) == harness.digest(again)
    assert harness.digest(first) != harness.digest(other)


def test_digest_ignores_frame_wall_time(tiny_instance):
    result, _ = harness.run_instance(tiny_instance)
    before = harness.digest(result)
    for entry in result.metrics:
        if entry["name"] == "frame_wall_ms":
            entry["max"] += 1.0
    assert harness.digest(result) == before


def test_perturbed_result_counts_as_failure(tiny_instance):
    result, _ = harness.run_instance(tiny_instance)
    check = DigestCheck({"0": harness.digest(result)})
    assert check.check(0, result)
    frame = result.frames[-1]
    cam = next(iter(frame.inference_ms))
    frame.inference_ms[cam] += 1e-9
    assert not check.check(0, result)
    assert (check.attempted, check.failed) == (2, 1)


def test_unpaired_clock_counts_as_failure(tiny_instance):
    clock = harness.RecordingClock()
    result, _ = harness.run_instance(tiny_instance, clock)
    check = DigestCheck({})
    assert len(harness.frame_times(result, clock, check, 0)) == len(result.frames)
    clock.now()
    assert harness.frame_times(result, clock, check, 0) is None
    assert check.failed == 1


def test_raising_run_counts_as_failure(tiny_instance, monkeypatch):
    from repro.runtime.invariants import InvariantViolation
    from repro.runtime.pipeline import Pipeline

    def violate(self):
        raise InvariantViolation("R1 split-brain")

    monkeypatch.setattr(Pipeline, "run", violate)
    check = DigestCheck({})
    assert harness.guarded_run(tiny_instance, check) is None
    assert (check.attempted, check.failed) == (1, 1)
    assert "InvariantViolation" in check.errors[0]


def test_metrics_match_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    check = DigestCheck({})
    m = harness.measure(TINY, 0, 0.0, check)
    assert check.failed == 0
    assert [n for n, _ in m.timed.values()] == [12]
    e2e = harness.end_to_end(m)
    assert [(x["name"], x["unit"]) for x in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]
    assert all(value > 0 for value, _ in e2e.values())
    per_layer, report = run.traced_run(TINY, 0, m, check)
    assert check.failed == 0
    assert [(x["name"], x["unit"]) for x in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in per_layer.items()
    ]
    assert per_layer["pipeline.self_ms"][0] >= 0.0
    assert per_layer["net.reliable_transfer.calls"][0] == 0
    assert report[0].startswith("layer shares")
    spans = (tmp_path / "tiny.seed0.trace.jsonl").read_text().splitlines()
    assert json.loads(spans[0]).keys() == {
        "id", "name", "start_s", "end_s", "parent", "frame"}
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_gauge_rescales_to_reference_speed(monkeypatch):
    monkeypatch.setattr(gauge, "SENSITIVITY", 1.0)
    speed = gauge.SpeedGauge()
    ref = gauge.REFERENCE_KERNEL_S
    assert speed.scale(ref, ref) == 1.0
    # A host running at half speed makes the kernel take twice as long,
    # so an operation timed there counts for half its CPU time.
    assert speed.scale(2.0 * ref, 2.0 * ref) == 0.5
    samples = iter([2.0 * ref, 3.0 * ref])
    monkeypatch.setattr(speed, "sample", lambda: next(samples))
    value, timing = harness.timed(lambda: sum(range(100000)), speed)
    assert value == sum(range(100000))
    assert timing.scale == pytest.approx(0.4)
    assert timing.host_s == timing.cpu_s * timing.scale
    assert 0.0 < timing.cpu_s <= timing.wall_s + 1e-3
    monkeypatch.setattr(gauge, "SENSITIVITY", 0.5)
    assert speed.scale(4.0 * ref, 4.0 * ref) == 0.5


def test_gauge_kernel_is_deterministic():
    assert gauge.reference_kernel() == gauge.reference_kernel()
    speed = gauge.SpeedGauge()
    assert speed.sample() > 0.0
    assert len(speed.samples) == 1


def test_frame_times_are_cpu_time(tiny_instance):
    clock = harness.RecordingClock()
    result, timing = harness.run_instance(tiny_instance, clock)
    check = DigestCheck({})
    times = harness.frame_times(result, clock, check, 0)
    assert len(clock.cpu_stamps) == len(clock.stamps) == 2 * len(times)
    assert sum(times) <= timing.cpu_s * 1e3


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 50) == statistics.median(values)
    assert harness.percentile(values, 99) == pytest.approx(99.01)
    assert harness.percentile([3.0], 99) == 3.0
