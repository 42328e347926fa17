"""Outside-in layer tracer: spans around the public entry points of each layer.

The program under test is not instrumented. :class:`LayerTracer` replaces
each entry point listed in :data:`TARGETS` with a wrapper that records a
span (name, start, end, parent span, frame index) and the layer's work
counts, then calls the original. Wrappers go in at the class attribute for
methods and at every by-name import site for functions (a module that did
``from repro.ml.hungarian import hungarian`` holds its own binding, so
patching ``repro.ml.hungarian`` alone would miss it). :meth:`uninstall`
puts every original object back and checks, by identity, that it did.

Self time is a span's duration minus the time its direct child spans
cover. A run's wall time minus the self time of every wrapped entry
point is the ``pipeline`` residual: orchestration in the frame loop,
plus the wrappers' own bookkeeping. Spans opened directly with
:meth:`LayerTracer.open` (the per-frame ``pipeline.frame`` span) only
mark where that residual sits.

Per-track calls (``FlowPredictor.predict`` and the like) are deliberately
not wrapped: at tens of calls per frame their wrapper cost would swamp
the time they measure.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Counter = Callable[["LayerTracer", tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``site`` is ``module`` or ``module:Class``; ``attr`` is the function
    or method name bound there. Several targets may share one ``name``
    (the same function bound in two modules) and then record as one.
    """

    name: str
    site: str
    attr: str
    count: Optional[Counter] = None


def _add(tracer: "LayerTracer", key: str, value: float) -> None:
    tracer.counts[key] = tracer.counts.get(key, 0) + value


def _count_world(tracer, args, result) -> None:
    _add(tracer, "world.objects_stepped", len(args[0].objects))


def _count_boxes(tracer, args, result) -> None:
    # The cache hands back the same table object on repeat lookups; only
    # the first sighting of a table is projection work.
    if id(result) not in tracer.seen_tables:
        tracer.seen_tables[id(result)] = result
        _add(tracer, "cameras.boxes_projected", len(result))


def _count_len(key: str) -> Counter:
    def count(tracer, args, result) -> None:
        _add(tracer, key, len(result))

    return count


def _count_associate(tracer, args, result) -> None:
    _add(tracer, "association.observations_in",
         sum(len(obs) for obs in args[1].values()))
    _add(tracer, "association.global_objects_out", len(result))


def _count_knn(tracer, args, result) -> None:
    # Query rows sent to the pair's KNN models: every box through the
    # visibility classifier, the visible ones through the box regressor.
    _add(tracer, "association.knn_probes", len(args[1]) + len(result[0]))


def _count_balb(tracer, args, result) -> None:
    _add(tracer, "core.objects_assigned", len(result.assignment))


def _count_events(tracer, args, result) -> None:
    _add(tracer, "events.dispatched", result)


_PIPELINE = "repro.runtime.pipeline"
_CAMERA_NODE = "repro.runtime.camera_node"
_SCHEDULER_NODE = "repro.runtime.scheduler_node"
_MATCHER = "repro.association.matcher"

#: Every wrapped entry point, named ``<layer>.<entry>`` after the
#: ``src/repro`` module that owns it.
TARGETS: Tuple[Target, ...] = (
    Target("world.step", "repro.world.world:World", "step", _count_world),
    Target("cameras.boxes", "repro.cameras.projection:FrameProjectionCache",
           "boxes", _count_boxes),
    Target("cameras.coverage_table",
           "repro.cameras.projection:FrameProjectionCache", "coverage_table"),
    Target("vision.detect_full_frame", "repro.vision.detector:SimulatedDetector",
           "detect_full_frame", _count_len("vision.detections")),
    Target("vision.detect_regions", "repro.vision.detector:SimulatedDetector",
           "detect_regions", _count_len("vision.detections")),
    Target("vision.find_new_regions", _CAMERA_NODE, "find_new_regions",
           _count_len("vision.new_regions")),
    Target("vision.build_slices", _CAMERA_NODE, "build_slices",
           _count_len("vision.slices")),
    Target("camera_node.process_key_frame", f"{_CAMERA_NODE}:CameraNode",
           "process_key_frame"),
    Target("camera_node.process_regular_frame", f"{_CAMERA_NODE}:CameraNode",
           "process_regular_frame"),
    Target("association.associate", f"{_MATCHER}:CrossCameraMatcher",
           "associate", _count_associate),
    Target("association.predict_visible_boxes",
           "repro.association.pairwise:PairModel", "predict_visible_boxes",
           _count_knn),
    Target("ml.hungarian", _MATCHER, "hungarian"),
    Target("ml.hungarian", _CAMERA_NODE, "hungarian"),
    Target("core.balb_central", _SCHEDULER_NODE, "balb_central", _count_balb),
    Target("core.build_camera_masks", _SCHEDULER_NODE, "build_camera_masks"),
    Target("scheduler_node.schedule", f"{_SCHEDULER_NODE}:CentralScheduler",
           "schedule"),
    Target("scheduler_node.refit_members",
           f"{_SCHEDULER_NODE}:CentralScheduler", "refit_members"),
    Target("devices.execute", "repro.devices.gpu:GPUExecutor", "execute",
           lambda tracer, args, result: _add(
               tracer, "devices.batches", len(args[1]))),
    Target("devices.execute_full_frame", "repro.devices.gpu:GPUExecutor",
           "execute_full_frame"),
    Target("devices.greedy_plan", _CAMERA_NODE, "greedy_plan"),
    Target("net.reliable_transfer", "repro.net.link:Link", "reliable_transfer"),
    Target("net.admit", "repro.net.envelope:ChannelGuard", "admit"),
    Target("ingest.offer", "repro.runtime.ingest:BoundedFrameQueue", "offer"),
    Target("ingest.poll_upto", "repro.runtime.ingest:BoundedFrameQueue",
           "poll_upto"),
    Target("events.run_until_idle", "repro.runtime.events:EventQueue",
           "run_until_idle", _count_events),
    Target("health.observe", "repro.runtime.health:FleetHealthWatchdog",
           "observe", _count_len("health.transitions")),
    Target("failover.step", "repro.runtime.failover:FailoverManager", "step"),
    Target("failover.step_partition", "repro.runtime.failover:FailoverManager",
           "step_partition"),
    Target("invariants.observe", "repro.runtime.invariants:InvariantMonitor",
           "observe_issue"),
    Target("invariants.observe", "repro.runtime.invariants:InvariantMonitor",
           "observe_applied"),
    Target("invariants.observe", "repro.runtime.invariants:InvariantMonitor",
           "observe_membership"),
    Target("invariants.observe", "repro.runtime.invariants:InvariantMonitor",
           "observe_frame"),
    Target("serving.on_frame", "repro.serving.edge:ServingEdge", "on_frame"),
    Target("setup.collect_association_dataset", _PIPELINE,
           "collect_association_dataset"),
    Target("setup.profile_device", _PIPELINE, "profile_device"),
    Target("setup.fit", "repro.association.pairwise:PairwiseAssociator", "fit"),
)

#: Entry-point names in report order (each once).
ENTRY_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(t.name for t in TARGETS))

#: Work counts the wrappers record, in report order.
COUNT_NAMES: Tuple[str, ...] = (
    "world.objects_stepped",
    "cameras.boxes_projected",
    "vision.detections",
    "vision.new_regions",
    "vision.slices",
    "association.observations_in",
    "association.global_objects_out",
    "association.knn_probes",
    "core.objects_assigned",
    "devices.batches",
    "events.dispatched",
    "health.transitions",
)


def _resolve(site: str) -> Any:
    module_name, _, class_name = site.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _lookup(owner: Any, attr: str) -> Any:
    # A class's own __dict__ entry, so an inherited method is never
    # shadowed by a wrapper on the subclass by accident.
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class LayerTracer:
    """Records spans and work counts from wrappers around :data:`TARGETS`.

    ``frame_of`` returns the frame index to stamp on a span when it opens
    (-1 unless a clock binds it, see ``harness.TracedClock``).
    Spans are kept in memory as ``[name, start_s, end_s, parent, frame]``
    lists (parent is an index into :attr:`spans`, -1 for a root).
    """

    def __init__(self) -> None:
        self.frame_of: Callable[[], int] = lambda: -1
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        #: Box tables already counted, pinned so their ids stay unique.
        self.seen_tables: Dict[int, Any] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def open(self, name: str) -> list:
        """Start a span named ``name`` under the innermost open span."""
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.frame_of()]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def close(self, record: list) -> None:
        """End the innermost open span, which must be ``record``."""
        record[2] = time.perf_counter()
        if self.spans[self._stack.pop()] is not record:
            raise RuntimeError(f"span {record[0]} closed out of order")

    def wrap(self, name: str, fn: Callable, count: Optional[Counter]) -> Callable:
        """``fn`` behind a span named ``name`` (and its work counter)."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        # open() and close() inlined: this is the per-call hot path.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.frame_of()]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every target for its wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for target in TARGETS:
                owner = _resolve(target.site)
                original = _lookup(owner, target.attr)
                self._saved.append((owner, target.attr, original))
                setattr(owner, target.attr,
                        self.wrap(target.name, original, target.count))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every original and check each one by identity."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if _lookup(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time in seconds of each span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_table(self) -> Dict[str, Tuple[int, float]]:
        """``{entry name: (calls, self seconds)}`` over every span.

        Spans opened with :meth:`open` under names outside
        :data:`ENTRY_NAMES` are listed too.
        """
        table = {name: (0, 0.0) for name in ENTRY_NAMES}
        for span, own in zip(self.spans, self.self_times()):
            calls, total = table.get(span[0], (0, 0.0))
            table[span[0]] = (calls + 1, total + own)
        return table

    def dump_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, frame) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start_s": start,
                    "end_s": end, "parent": parent, "frame": frame,
                }) + "\n")
