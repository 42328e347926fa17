"""The per-source shared classifier search is exact.

``CrossCameraMatcher.associate`` runs one KNN neighbour search per source
camera and lets every target with bit-identical search inputs vote on it.
These tests pin that the global objects it returns are exactly those of
a plain per-pair loop with no sharing, on every scenario's trained
models, on the baseline model factories and on unpickled associators.
"""

import pickle
from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.association.baselines import (
    CLASSIFIER_FACTORIES,
    REGRESSOR_FACTORIES,
)
from repro.association.matcher import (
    CrossCameraMatcher,
    LocalObservation,
    _UnionFind,
)
from repro.association.pairwise import PairModel, PairwiseAssociator
from repro.association.training import (
    AssociationDataset,
    collect_association_dataset,
)
from repro.geometry.box import BBox, iou_cost_rows
from repro.ml.hungarian import hungarian
from repro.scenarios.aic21 import get_scenario

SCENARIOS = ("S1", "S2", "S3")
IOU_THRESHOLD = 0.15


class _Rig:
    """One scenario's training dataset plus ground-truth box frames."""

    def __init__(self, name: str) -> None:
        scenario = get_scenario(name, seed=0)
        world, rig = scenario.build(seed=0)
        world.run(20.0, scenario.frame_interval)
        self.dataset = collect_association_dataset(
            world, rig, duration_s=20.0, dt=scenario.frame_interval
        )
        self.frame_sizes = {c.camera_id: c.frame_size for c in scenario.cameras}
        self.frames = []
        for _ in range(16):
            world.run(2.0, scenario.frame_interval)
            projections = rig.project_all(world.objects)
            self.frames.append(
                {cam: list(boxes.values()) for cam, boxes in projections.items()}
            )


_RIGS: Dict[str, _Rig] = {}
_ASSOCIATORS: Dict[tuple, PairwiseAssociator] = {}


def rig_for(name: str) -> _Rig:
    if name not in _RIGS:
        _RIGS[name] = _Rig(name)
    return _RIGS[name]


def associator_for(name: str, variant: str = "knn") -> PairwiseAssociator:
    """A fitted associator: the paper's KNN models, a baseline factory
    pair, or a KNN associator that went through pickle."""
    key = (name, variant)
    if key not in _ASSOCIATORS:
        dataset = rig_for(name).dataset
        if variant == "knn":
            assoc = PairwiseAssociator().fit(dataset)
        elif variant == "pickled":
            assoc = pickle.loads(pickle.dumps(associator_for(name)))
        else:
            cls_name, reg_name = variant.split("+")
            assoc = PairwiseAssociator(
                CLASSIFIER_FACTORIES[cls_name], REGRESSOR_FACTORIES[reg_name]
            ).fit(dataset)
        _ASSOCIATORS[key] = assoc
    return _ASSOCIATORS[key]


def reference_associate(
    associator: PairwiseAssociator,
    observations: Dict[int, Sequence[LocalObservation]],
) -> List[tuple]:
    """Per-pair association with no sharing: one full
    ``predict_visible_boxes`` call (feature build, classifier search,
    regressor search) for every non-empty ordered pair."""
    camera_ids = sorted(observations)
    uf = _UnionFind()
    for cam in camera_ids:
        for idx in range(len(observations[cam])):
            uf.find((cam, idx))
    for pos, cam_a in enumerate(camera_ids):
        obs_a = observations[cam_a]
        for cam_b in camera_ids[pos + 1 :]:
            obs_b = observations[cam_b]
            model = associator.model(cam_a, cam_b)
            if not obs_a or not obs_b or model is None:
                continue
            vis_idx, predicted = model.predict_visible_boxes(
                [o.bbox for o in obs_a]
            )
            candidates = [
                (i, box) for i, box in zip(vis_idx, predicted) if box is not None
            ]
            if not candidates:
                continue
            cost = iou_cost_rows(
                [box for _, box in candidates], [o.bbox for o in obs_b]
            )
            for row, col in hungarian(cost):
                if cost[row][col] <= 1.0 - IOU_THRESHOLD:
                    uf.union((cam_a, candidates[row][0]), (cam_b, col))
    groups: Dict[tuple, Dict[int, LocalObservation]] = {}
    for cam in camera_ids:
        for idx, o in enumerate(observations[cam]):
            groups.setdefault(uf.find((cam, idx)), {}).setdefault(cam, o)
    return [
        (gid, _members(members)) for gid, members in enumerate(groups.values())
    ]


def _members(members: Dict[int, LocalObservation]) -> tuple:
    return tuple(
        (cam, o.track_id, (o.bbox.x1, o.bbox.y1, o.bbox.x2, o.bbox.y2))
        for cam, o in sorted(members.items())
    )


def shared_associate(associator, observations) -> List[tuple]:
    found = CrossCameraMatcher(associator, IOU_THRESHOLD).associate(observations)
    return [(g.global_id, _members(g.members)) for g in found]


@st.composite
def observation_sets(draw, name: str):
    """Per-camera boxes: a jittered subset of one ground-truth frame (so
    pairs really match) plus random false positives anywhere in frame."""
    rig = rig_for(name)
    frame = draw(st.sampled_from(rig.frames))
    observations: Dict[int, List[LocalObservation]] = {}
    for cam, (w, h) in sorted(rig.frame_sizes.items()):
        boxes = [
            box.translate(
                draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0))
            )
            for box in frame.get(cam, [])
            if draw(st.booleans())
        ]
        for _ in range(draw(st.integers(0, 3))):
            side = draw(st.floats(8.0, 160.0))
            boxes.append(BBox.from_xywh(
                draw(st.floats(0.0, float(w))), draw(st.floats(0.0, float(h))),
                side, side * draw(st.floats(0.3, 2.0)),
            ))
        observations[cam] = [
            LocalObservation(camera_id=cam, track_id=i, bbox=box)
            for i, box in enumerate(boxes)
        ]
    return observations


def _check(name: str, variant: str, observations) -> None:
    assoc = associator_for(name, variant)
    assert shared_associate(assoc, observations) == reference_associate(
        assoc, observations
    )


@pytest.mark.parametrize("name", SCENARIOS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_search_matches_per_pair_loop(name, data):
    _check(name, "knn", data.draw(observation_sets(name)))


@pytest.mark.parametrize("variant", [
    "svm+homography", "logistic+linear", "decision-tree+ransac",
    "knn+homography",
])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_baseline_factories_match_per_pair_loop(variant, data):
    _check("S1", variant, data.draw(observation_sets("S1")))


@pytest.mark.parametrize("name", SCENARIOS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_unpickled_associator_matches_per_pair_loop(name, data):
    _check(name, "pickled", data.draw(observation_sets(name)))


@pytest.fixture
def searches(monkeypatch):
    """The pairs whose :meth:`PairModel.source_query` ran, in call order."""
    calls = []
    original = PairModel.source_query

    def spy(model, boxes):
        calls.append(model.pair)
        return original(model, boxes)

    monkeypatch.setattr(PairModel, "source_query", spy)
    return calls


class TestSharingPreconditions:
    def test_trained_s1_shares_one_search_per_source(self):
        assoc = associator_for("S1")
        for source in range(5):
            owners = {assoc.query_owner(source, t) for t in range(5) if t != source}
            assert len(owners) == 1

    def test_non_knn_and_constant_pairs_never_share(self):
        assert associator_for("S1", "svm+homography")._query_owners == {}
        s3 = associator_for("S3")
        for key, model in s3._models.items():
            if model.constant_label is not None:
                assert s3.query_owner(*key) is None
        assert s3.query_owner(7, 8) is None

    def test_associate_searches_once_per_source(self, searches):
        observations = {
            cam: [LocalObservation(cam, 0, BBox.from_xywh(300, 300, 60, 40))]
            for cam in range(5)
        }
        CrossCameraMatcher(associator_for("S1")).associate(observations)
        # Sources 0-3 have later targets; source 4 has none.
        assert sorted(searches) == [(0, 1), (1, 0), (2, 0), (3, 0)]

    def test_differing_classifier_rows_do_not_share(self, searches):
        rng = np.random.default_rng(0)
        ds = AssociationDataset()
        for target in (1, 2):
            for _ in range(200):
                cx, cy = rng.uniform(0, 1000), rng.uniform(0, 600)
                src = BBox.from_xywh(cx, cy, 50.0, 35.0)
                ds.pair(0, target).add(
                    src, src.translate(100.0, 0.0) if cx < 500 else None
                )
        assoc = PairwiseAssociator().fit(ds)
        assert assoc.query_owner(0, 1) == (0, 1)
        assert assoc.query_owner(0, 2) == (0, 2)

        observations = {
            0: [LocalObservation(0, 0, BBox.from_xywh(200, 300, 50, 35))],
            1: [LocalObservation(1, 0, BBox.from_xywh(300, 300, 50, 35))],
            2: [LocalObservation(2, 0, BBox.from_xywh(300, 300, 50, 35))],
        }
        got = shared_associate(assoc, observations)
        assert searches == [(0, 1), (0, 2)]
        assert got == reference_associate(assoc, observations)

    def test_identical_rows_share_despite_different_labels(self):
        rng = np.random.default_rng(1)
        ds = AssociationDataset()
        for _ in range(200):
            cx, cy = rng.uniform(0, 1000), rng.uniform(0, 600)
            src = BBox.from_xywh(cx, cy, 50.0, 35.0)
            ds.pair(0, 1).add(src, src if cx < 500 else None)
            ds.pair(0, 2).add(src, src if cy < 300 else None)
        assoc = PairwiseAssociator().fit(ds)
        assert assoc.query_owner(0, 2) == (0, 1)
        probes = [
            BBox.from_xywh(x, y, 50.0, 35.0)
            for x in (100.0, 900.0) for y in (100.0, 500.0)
        ]
        shared = assoc.predict_visible_targets(0, [1, 2], probes)
        for target in (1, 2):
            own_search = assoc.model(0, target).predict_visible_batch(probes)
            np.testing.assert_array_equal(shared[target], own_search)
        assert shared[1].tolist() != shared[2].tolist()

    def test_artifact_without_owner_map_regroups_lazily(self):
        assoc = pickle.loads(pickle.dumps(associator_for("S1")))
        del assoc._query_owners  # an associator pickled before sharing
        assert assoc.query_owner(0, 3) == (0, 1)
        assert assoc._query_owners == associator_for("S1")._query_owners
