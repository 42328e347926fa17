"""The indexed FaultSchedule answers exactly like a scan of every event.

``LinearScan`` below is the straightforward implementation of each
query: one pass over the whole sorted event list, filtering by kind,
window and camera. Random schedules over every fault kind — fleet-wide
and camera-bound events, open-ended windows, scheduler rejoins — must
give the same answer from the index, compared with ``==`` on floats and
on result types, so products and sums are pinned to the same order.
"""

import copyreg
import io
import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultModel
from repro.faults.schedule import (
    DRIFT_LAG_CAP,
    FADE_RAMP_FRAMES,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FrameFaults,
)
from repro.net.link import LinkFault

_SENSOR_KINDS = (FaultKind.SENSOR_FREEZE, FaultKind.CLOCK_DRIFT,
                 FaultKind.CAMERA_FLAP, FaultKind.QUALITY_FADE)
_CAMERA_REQUIRED = (FaultKind.CAMERA_CRASH, FaultKind.PARTITION,
                    FaultKind.GPU_SLOWDOWN) + _SENSOR_KINDS
_SCHEDULER_KINDS = (FaultKind.SCHEDULER_CRASH, FaultKind.SCHEDULER_REJOIN)
_WIRE_KINDS = (FaultKind.MSG_CORRUPT, FaultKind.MSG_DUPLICATE,
               FaultKind.MSG_REORDER)


class LinearScan:
    """Reference queries: every call scans the whole event list."""

    def __init__(self, events):
        self.events = tuple(events)

    def down_cameras(self, frame):
        crashed = set(
            e.camera_id
            for e in self.events
            if e.kind is FaultKind.CAMERA_CRASH
            and e.active_at(frame)
            and e.camera_id is not None
        )
        for e in self.events:
            if (
                e.kind is FaultKind.CAMERA_FLAP
                and e.active_at(frame)
                and e.camera_id is not None
            ):
                period = max(1, int(e.magnitude))
                if ((frame - e.start_frame) // period) % 2 == 0:
                    crashed.add(e.camera_id)
        return frozenset(crashed)

    def _cameras_of(self, kind, frame):
        return frozenset(
            e.camera_id
            for e in self.events
            if e.kind is kind
            and e.active_at(frame)
            and e.camera_id is not None
        )

    def partitioned_cameras(self, frame):
        return self._cameras_of(FaultKind.PARTITION, frame)

    def frozen_cameras(self, frame):
        return self._cameras_of(FaultKind.SENSOR_FREEZE, frame)

    def scheduler_partitioned_cameras(self, frame, camera_ids):
        cut = set()
        for e in self.events:
            if e.kind is not FaultKind.SCHEDULER_PARTITION:
                continue
            if not e.active_at(frame):
                continue
            if e.camera_id is None:
                cut.update(camera_ids)
            else:
                cut.add(e.camera_id)
        return frozenset(cut) & frozenset(camera_ids)

    def has_scheduler_faults(self):
        return any(
            e.kind in _SCHEDULER_KINDS
            or e.kind is FaultKind.SCHEDULER_PARTITION
            for e in self.events
        )

    def has_scheduler_partitions(self):
        return any(
            e.kind is FaultKind.SCHEDULER_PARTITION for e in self.events
        )

    def has_wire_faults(self):
        return any(e.kind in _WIRE_KINDS for e in self.events)

    def has_ingest_bursts(self):
        return any(e.kind is FaultKind.INGEST_BURST for e in self.events)

    def has_sensor_faults(self):
        return any(e.kind in _SENSOR_KINDS for e in self.events)

    def drift_lag(self, frame, camera_id):
        lag = 0
        for e in self.events:
            if (
                e.kind is FaultKind.CLOCK_DRIFT
                and e.active_at(frame)
                and e.camera_id == camera_id
            ):
                lag += int(math.floor(e.magnitude * (frame - e.start_frame + 1)))
        return min(lag, DRIFT_LAG_CAP)

    def max_drift_lag(self, n_frames):
        worst = 0
        cams = set(
            e.camera_id
            for e in self.events
            if e.kind is FaultKind.CLOCK_DRIFT and e.camera_id is not None
        )
        for cam in cams:
            for e in self.events:
                if e.kind is not FaultKind.CLOCK_DRIFT or e.camera_id != cam:
                    continue
                last = n_frames - 1
                if e.end_frame is not None:
                    last = min(last, e.end_frame - 1)
                if last >= e.start_frame:
                    worst = max(worst, self.drift_lag(last, cam))
        return min(worst, DRIFT_LAG_CAP)

    def fade_factor(self, frame, camera_id):
        factor = 1.0
        for e in self.events:
            if (
                e.kind is FaultKind.QUALITY_FADE
                and e.active_at(frame)
                and e.camera_id == camera_id
            ):
                elapsed = frame - e.start_frame + 1
                ramp = min(1.0, elapsed / float(FADE_RAMP_FRAMES))
                factor *= 1.0 + (e.magnitude - 1.0) * ramp
        return factor

    def ingest_bursting(self, frame, camera_id):
        return any(
            e.kind is FaultKind.INGEST_BURST
            and e.active_at(frame)
            and e.applies_to(camera_id)
            for e in self.events
        )

    def burst_release_frame(self, frame, camera_id, n_frames):
        release = frame
        while release < n_frames and self.ingest_bursting(release, camera_id):
            release += 1
        return release if release < n_frames else None

    def scheduler_down(self, frame):
        rejoins = sorted(
            e.start_frame
            for e in self.events
            if e.kind is FaultKind.SCHEDULER_REJOIN
        )
        for e in self.events:
            if e.kind is not FaultKind.SCHEDULER_CRASH:
                continue
            end = e.end_frame
            if end is None:
                end = next((r for r in rejoins if r > e.start_frame), None)
            if frame >= e.start_frame and (end is None or frame < end):
                return True
        return False

    def gpu_factor(self, frame, camera_id):
        factor = 1.0
        for e in self.events:
            if (
                e.kind is FaultKind.GPU_SLOWDOWN
                and e.active_at(frame)
                and e.applies_to(camera_id)
            ):
                factor *= e.magnitude
        return factor

    def combined_prob(self, kind, frame, camera_id):
        survive = 1.0
        for e in self.events:
            if (
                e.kind is kind
                and e.active_at(frame)
                and e.applies_to(camera_id)
            ):
                survive *= 1.0 - e.magnitude
        return 1.0 - survive

    def extra_delay_ms(self, frame, camera_id):
        return sum(
            e.magnitude
            for e in self.events
            if e.kind is FaultKind.LINK_DELAY
            and e.active_at(frame)
            and e.applies_to(camera_id)
        )

    def started_at(self, frame):
        return tuple(e for e in self.events if e.start_frame == frame)

    def at(self, frame, camera_ids):
        cams = sorted(camera_ids)
        partitioned = self.partitioned_cameras(frame) & frozenset(cams)
        gpu = {}
        link = {}
        drift_lags = {}
        fade = {}
        for cam in cams:
            lag = self.drift_lag(frame, cam)
            if lag > 0:
                drift_lags[cam] = lag
            fade_x = self.fade_factor(frame, cam)
            if fade_x != 1.0:
                fade[cam] = fade_x
        for cam in cams:
            factor = self.gpu_factor(frame, cam)
            if factor != 1.0:
                gpu[cam] = factor
            loss = (
                1.0 if cam in partitioned
                else self.combined_prob(FaultKind.LINK_LOSS, frame, cam)
            )
            delay = self.extra_delay_ms(frame, cam)
            corrupt = self.combined_prob(FaultKind.MSG_CORRUPT, frame, cam)
            duplicate = self.combined_prob(
                FaultKind.MSG_DUPLICATE, frame, cam
            )
            reorder = self.combined_prob(FaultKind.MSG_REORDER, frame, cam)
            if loss > 0.0 or delay > 0.0 or corrupt > 0.0 \
                    or duplicate > 0.0 or reorder > 0.0:
                link[cam] = LinkFault(
                    loss_prob=loss,
                    extra_delay_ms=delay,
                    corrupt_prob=corrupt,
                    duplicate_prob=duplicate,
                    reorder_prob=reorder,
                )
        return FrameFaults(
            frame=frame,
            down=self.down_cameras(frame) & frozenset(cams),
            partitioned=partitioned,
            gpu_factor=gpu,
            link_faults=link,
            started=self.started_at(frame),
            scheduler_down=self.scheduler_down(frame),
            bursting=frozenset(
                cam for cam in cams if self.ingest_bursting(frame, cam)
            ),
            sched_partitioned=self.scheduler_partitioned_cameras(
                frame, cams
            ),
            frozen=self.frozen_cameras(frame) & frozenset(cams),
            drift_lags=drift_lags,
            fade=fade,
        )


#: Magnitude range per kind; the rest carry no magnitude.
_MAGNITUDES = {
    FaultKind.LINK_LOSS: (0.0, 1.0),
    FaultKind.MSG_CORRUPT: (0.0, 1.0),
    FaultKind.MSG_DUPLICATE: (0.0, 1.0),
    FaultKind.MSG_REORDER: (0.0, 1.0),
    FaultKind.LINK_DELAY: (0.0, 120.0),
    FaultKind.GPU_SLOWDOWN: (0.1, 5.0),
    FaultKind.CLOCK_DRIFT: (0.05, 3.0),
    FaultKind.CAMERA_FLAP: (1.0, 6.0),
    FaultKind.QUALITY_FADE: (1.0, 10.0),
}

#: Cameras named by drawn events; queries also ask about camera 7,
#: which no event names, so only fleet-wide events reach it.
_EVENT_CAMERAS = (0, 1, 2, 3)
_QUERY_CAMERAS = _EVENT_CAMERAS + (7,)
_FRAMES = 40


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(list(FaultKind)))
    start = draw(st.integers(0, _FRAMES - 5))
    if kind is FaultKind.SCHEDULER_REJOIN:
        duration = None
    else:
        duration = draw(st.none() | st.integers(1, 15))
    if kind in _SCHEDULER_KINDS:
        camera_id = None
    elif kind in _CAMERA_REQUIRED:
        camera_id = draw(st.sampled_from(_EVENT_CAMERAS))
    else:
        camera_id = draw(st.none() | st.sampled_from(_EVENT_CAMERAS))
    low, high = _MAGNITUDES.get(kind, (0.0, 0.0))
    magnitude = draw(st.floats(low, high, allow_nan=False))
    return FaultEvent(kind, start, duration, camera_id, magnitude)


def assert_same_value(got, want):
    assert type(got) is type(want), (got, want)
    assert got == want, (got, want)


def assert_agrees(sched, ref, n_frames=_FRAMES + 10):
    for attr in ("has_scheduler_faults", "has_scheduler_partitions",
                 "has_wire_faults", "has_ingest_bursts", "has_sensor_faults"):
        assert getattr(sched, attr) is getattr(ref, attr)(), attr
    for n in (1, 10, n_frames):
        assert_same_value(sched.max_drift_lag(n), ref.max_drift_lag(n))
    for frame in range(n_frames):
        assert sched.at(frame, _QUERY_CAMERAS) == ref.at(frame, _QUERY_CAMERAS)
        assert sched.at(frame, [1, 2]) == ref.at(frame, [1, 2])
        assert sched.started_at(frame) == ref.started_at(frame)
        assert sched.scheduler_down(frame) is ref.scheduler_down(frame)
        assert sched.down_cameras(frame) == ref.down_cameras(frame)
        assert sched.partitioned_cameras(frame) == ref.partitioned_cameras(frame)
        assert sched.frozen_cameras(frame) == ref.frozen_cameras(frame)
        assert sched.scheduler_partitioned_cameras(
            frame, _QUERY_CAMERAS
        ) == ref.scheduler_partitioned_cameras(frame, _QUERY_CAMERAS)
        for cam in _QUERY_CAMERAS:
            assert_same_value(sched.drift_lag(frame, cam),
                              ref.drift_lag(frame, cam))
            assert_same_value(sched.fade_factor(frame, cam),
                              ref.fade_factor(frame, cam))
            assert_same_value(sched.gpu_factor(frame, cam),
                              ref.gpu_factor(frame, cam))
            assert_same_value(sched.extra_delay_ms(frame, cam),
                              ref.extra_delay_ms(frame, cam))
            assert_same_value(
                sched.loss_prob(frame, cam),
                ref.combined_prob(FaultKind.LINK_LOSS, frame, cam),
            )
            for kind in _WIRE_KINDS:
                assert_same_value(sched.wire_prob(kind, frame, cam),
                                  ref.combined_prob(kind, frame, cam))
            assert sched.ingest_bursting(frame, cam) is ref.ingest_bursting(
                frame, cam
            )
            for n in (frame, frame + 3, n_frames):
                assert_same_value(
                    sched.burst_release_frame(frame, cam, n),
                    ref.burst_release_frame(frame, cam, n),
                )


@settings(max_examples=60, deadline=None)
@given(events=st.lists(fault_events(), max_size=24))
def test_index_agrees_with_linear_scan(events):
    sched = FaultSchedule(events)
    assert_agrees(sched, LinearScan(sched.events))


@settings(max_examples=30, deadline=None)
@given(
    event=fault_events(),
    copies=st.integers(2, 4),
    magnitudes=st.lists(st.floats(0.0, 1.0, allow_nan=False),
                        min_size=4, max_size=4),
)
def test_same_window_events_fold_in_input_order(event, copies, magnitudes):
    """Events equal in (start, kind, camera) keep their input order, so
    the float products over them are the reference's products."""
    low, high = _MAGNITUDES.get(event.kind, (0.0, 0.0))
    events = [
        FaultEvent(event.kind, event.start_frame, event.duration,
                   event.camera_id, low + (high - low) * m)
        for m in magnitudes[:copies]
    ]
    sched = FaultSchedule(events)
    assert sched.events == tuple(events)
    assert_agrees(sched, LinearScan(sched.events))


def test_compiled_chaos_model_agrees_with_linear_scan():
    model = FaultModel(
        crash_rate=0.01, loss_prob=0.05, scheduler_crash_rate=0.006,
        mean_scheduler_outage_frames=12, burst_rate=0.03,
        mean_burst_frames=4, corrupt_prob=0.03, duplicate_prob=0.03,
        reorder_prob=0.02, freeze_rate=0.01, flap_rate=0.006,
        fade_rate=0.008, slowdown_rate=0.01, delay_spike_rate=0.02,
        clock_drift_rate=0.01, scheduler_partition_rate=0.01,
    )
    sched = model.compile(_EVENT_CAMERAS, 200, seed=3)
    assert len(sched) > 20
    assert_agrees(sched, LinearScan(sched.events), n_frames=200)


def test_burst_release_jumps_across_chained_windows():
    sched = FaultSchedule([
        FaultEvent(FaultKind.INGEST_BURST, 2, duration=4, camera_id=1),
        FaultEvent(FaultKind.INGEST_BURST, 5, duration=3),
        FaultEvent(FaultKind.INGEST_BURST, 8, duration=2, camera_id=1),
    ])
    assert sched.burst_release_frame(2, 1, 20) == 10
    assert sched.burst_release_frame(2, 0, 20) == 2
    assert sched.burst_release_frame(6, 0, 20) == 8
    assert sched.burst_release_frame(2, 1, 10) is None
    open_ended = FaultSchedule([
        FaultEvent(FaultKind.INGEST_BURST, 3, camera_id=0),
    ])
    assert open_ended.burst_release_frame(3, 0, 1000) is None
    assert open_ended.burst_release_frame(2, 0, 1000) == 2


class _PreIndexPickler(pickle.Pickler):
    """Pickles a FaultSchedule with its ``events`` alone as state: the
    default object pickling of the schedule before it carried an index."""

    def reducer_override(self, obj):
        if type(obj) is FaultSchedule:
            return (copyreg.__newobj__, (FaultSchedule,),
                    {"events": obj.events})
        return NotImplemented


def _pre_index_dumps(sched, protocol=pickle.HIGHEST_PROTOCOL):
    buffer = io.BytesIO()
    _PreIndexPickler(buffer, protocol).dump(sched)
    return buffer.getvalue()


def _chaos_schedule():
    model = FaultModel(crash_rate=0.02, loss_prob=0.05, burst_rate=0.03,
                       scheduler_crash_rate=0.01, fade_rate=0.01,
                       clock_drift_rate=0.01)
    return model.compile([0, 1, 2, 3, 4], 120, seed=5)


def test_pickle_round_trip_rebuilds_the_index():
    sched = _chaos_schedule()
    clone = pickle.loads(pickle.dumps(sched, pickle.HIGHEST_PROTOCOL))
    assert clone.events == sched.events
    assert_agrees(clone, LinearScan(sched.events), n_frames=120)


def test_pickled_state_is_the_events_alone():
    sched = _chaos_schedule()
    assert sched.__getstate__() == {"events": sched.events}
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(sched, protocol) == _pre_index_dumps(
            sched, protocol
        )


def test_pre_index_pickle_loads_with_a_working_index():
    sched = _chaos_schedule()
    loaded = pickle.loads(_pre_index_dumps(sched))
    assert isinstance(loaded, FaultSchedule)
    assert loaded.events == sched.events
    assert_agrees(loaded, LinearScan(sched.events), n_frames=120)
