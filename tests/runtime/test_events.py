"""The deterministic event kernel and the injectable-clock seam (ISSUE 6).

The kernel's ordering contract is load-bearing: frame arrivals must land
in the ingest queues before the frame's dispatch fires, and ties must
break FIFO so reruns replay identically. The injectable clock is what
lets the pipeline's ``frame_wall_ms`` measurement run on fake time in
tests (and keeps ``runtime/pipeline.py`` off the RL002 wall-clock
allowlist).
"""

from dataclasses import replace

import pytest

from repro.checkpoint import load_checkpoint
from repro.obs.trace import WALL_CLOCK, Clock, WallClock
from repro.runtime.events import EventQueue, SimulatedClock
from repro.runtime.pipeline import PipelineConfig, Pipeline, train_models
from repro.scenarios.aic21 import get_scenario


class TestSimulatedClock:
    def test_starts_at_given_time(self):
        assert SimulatedClock().now() == 0.0
        assert SimulatedClock(start=7.5).now() == 7.5

    def test_advance_moves_forward(self):
        clock = SimulatedClock()
        clock.advance_to(3.0)
        assert clock.now() == 3.0
        clock.advance_to(3.0)  # standing still is allowed
        assert clock.now() == 3.0

    def test_advance_backwards_rejected(self):
        clock = SimulatedClock(start=5.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(4.999)

    def test_satisfies_clock_protocol(self):
        assert isinstance(SimulatedClock(), Clock)
        assert isinstance(WallClock(), Clock)
        assert isinstance(WALL_CLOCK, Clock)


class TestEventOrdering:
    def test_dispatch_in_time_order(self):
        kernel = EventQueue()
        fired = []
        kernel.schedule_at(2.0, lambda: fired.append("late"))
        kernel.schedule_at(1.0, lambda: fired.append("early"))
        kernel.schedule_at(1.5, lambda: fired.append("middle"))
        assert kernel.run_until_idle() == 3
        assert fired == ["early", "middle", "late"]

    def test_lower_priority_fires_first_at_equal_time(self):
        """Arrivals (priority 0) precede dispatches (priority 1)."""
        kernel = EventQueue()
        fired = []
        kernel.schedule_at(1.0, lambda: fired.append("dispatch"), priority=1)
        kernel.schedule_at(1.0, lambda: fired.append("arrival"), priority=0)
        kernel.run_until_idle()
        assert fired == ["arrival", "dispatch"]

    def test_equal_time_and_priority_is_fifo(self):
        kernel = EventQueue()
        fired = []
        for i in range(10):
            kernel.schedule_at(1.0, lambda i=i: fired.append(i), priority=0)
        kernel.run_until_idle()
        assert fired == list(range(10))

    def test_clock_tracks_dispatched_event_times(self):
        kernel = EventQueue()
        seen = []
        for when in (0.5, 1.25, 4.0):
            kernel.schedule_at(when, lambda: seen.append(kernel.clock.now()))
        kernel.run_until_idle()
        assert seen == [0.5, 1.25, 4.0]

    def test_events_may_schedule_further_events(self):
        kernel = EventQueue()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                kernel.schedule_after(1.0, lambda: chain(n + 1))

        kernel.schedule_at(0.0, lambda: chain(0))
        assert kernel.run_until_idle() == 4
        assert fired == [0, 1, 2, 3]
        assert kernel.clock.now() == 3.0


class TestSchedulingErrors:
    def test_scheduling_in_the_past_rejected(self):
        kernel = EventQueue()
        kernel.schedule_at(2.0, lambda: None)
        kernel.run_until_idle()
        with pytest.raises(ValueError, match="cannot schedule at"):
            kernel.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventQueue().schedule_after(-0.1, lambda: None)

    def test_max_events_bounds_runaway_loops(self):
        kernel = EventQueue()

        def forever():
            kernel.schedule_after(1.0, forever)

        kernel.schedule_at(0.0, forever)
        with pytest.raises(RuntimeError, match="max_events"):
            kernel.run_until_idle(max_events=50)

    def test_counters(self):
        kernel = EventQueue()
        kernel.schedule_at(1.0, lambda: None)
        kernel.schedule_at(2.0, lambda: None)
        assert kernel.pending == 2 and kernel.dispatched == 0
        kernel.run_until_idle()
        assert kernel.pending == 0 and kernel.dispatched == 2


class TestKernelRng:
    def test_unseeded_kernel_refuses_rng(self):
        with pytest.raises(ValueError, match="seed"):
            EventQueue().rng

    def test_seeded_kernels_draw_identically(self):
        a, b = EventQueue(seed=42), EventQueue(seed=42)
        assert list(a.rng.random(8)) == list(b.rng.random(8))


# -- The injectable clock in the pipeline (the RL002 satellite fix) --------


class TickingClock:
    """A fake wall clock: each ``now()`` is 1 ms after the previous."""

    def __init__(self):
        self.calls = 0

    def now(self) -> float:
        self.calls += 1
        return self.calls * 1e-3


class TestInjectablePipelineClock:
    @pytest.fixture(scope="class")
    def small_setup(self):
        scenario = get_scenario("S2", seed=0)
        config = PipelineConfig(
            policy="balb", horizon=3, n_horizons=2, warmup_s=5.0,
            train_duration_s=10.0, seed=0,
        )
        return scenario, config, train_models(scenario, config)

    def _wall_stats(self, result):
        return [m for m in result.metrics if m["name"] == "frame_wall_ms"]

    def _ticking_run(self, small_setup, loop, checkpoint_path):
        """One run of ``loop`` under fresh fake clocks: (result, clocks)."""
        scenario, config, trained = small_setup
        if loop == "event-burst":
            config = replace(
                config, runtime="event", faults="burst:at=2,for=2"
            )
        if loop != "resumed-sync":
            clock = TickingClock()
            return Pipeline(scenario, config, trained, clock=clock).run(), [
                clock
            ]
        config = replace(
            config, checkpoint_path=checkpoint_path, stop_after_frames=2
        )
        first, second = TickingClock(), TickingClock()
        Pipeline(scenario, config, trained, clock=first).run()
        state = load_checkpoint(checkpoint_path).state
        result = Pipeline(scenario, config, trained, clock=second).resume_state(
            state
        )
        return result, [first, second]

    @pytest.mark.parametrize("loop", ["sync", "event-burst", "resumed-sync"])
    def test_fake_clock_makes_frame_wall_ms_deterministic(
        self, small_setup, tmp_path, loop
    ):
        runs = [
            self._ticking_run(small_setup, loop, str(tmp_path / f"{i}.ckpt"))
            for i in range(2)
        ]
        stats = [self._wall_stats(result) for result, _ in runs]
        assert stats[0]  # the histogram is actually exported
        assert stats[0] == stats[1]
        # Each frame spans exactly one start/stop pair of the fake clock,
        # so every observation is exactly 1 ms.
        (hist,) = stats[0]
        assert hist["max"] == pytest.approx(1.0)
        assert hist["min"] == pytest.approx(1.0)
        # Exactly two clock reads per processed frame, on every loop.
        result, clocks = runs[0]
        assert hist["count"] == len(result.frames)
        assert sum(c.calls for c in clocks) == 2 * len(result.frames)

    def test_default_clock_is_the_wall_clock(self, small_setup):
        scenario, config, trained = small_setup
        pipe = Pipeline(scenario, config, trained)
        assert pipe.clock is WALL_CLOCK

    def test_clock_does_not_perturb_simulation(self, small_setup):
        """Fake vs wall clock: identical frames, identical recall."""
        scenario, config, trained = small_setup
        fake = Pipeline(scenario, config, trained, clock=TickingClock()).run()
        wall = Pipeline(scenario, config, trained).run()
        assert fake.frames == wall.frames
