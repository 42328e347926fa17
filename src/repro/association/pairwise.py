"""Per-camera-pair visibility classification and location regression.

Implements the first two steps of the paper's association procedure
(Section II-C): a classifier decides whether a box seen on camera ``i``
also appears on camera ``i'``; when positive, a regressor predicts its
box on ``i'``. Models are pluggable so the Figure 10/11 baselines reuse
the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.association.training import (
    AssociationDataset,
    PairDataset,
    PairKey,
    box_features,
    target_to_box,
)
from repro.geometry.box import BBox
from repro.ml.base import Classifier, Regressor
from repro.ml.knn import KNNClassifier, KNNRegressor
from repro.ml.scaling import StandardScaler

ClassifierFactory = Callable[[], Classifier]
RegressorFactory = Callable[[], Regressor]

#: One source camera's classifier search over a box list: the scaled
#: feature rows and each row's k nearest classifier training rows
#: (:meth:`PairModel.source_query`).
SourceQuery = Tuple[np.ndarray, np.ndarray]


def default_classifier_factory() -> Classifier:
    """The paper's choice: KNN classification."""
    return KNNClassifier(k=7)


def default_regressor_factory() -> Regressor:
    """The paper's choice: KNN regression (distance weighted)."""
    return KNNRegressor(k=5, weighted=True)


@dataclass
class PairModel:
    """Fitted classifier + regressor for one ordered camera pair."""

    pair: PairKey
    classifier: Optional[Classifier]
    regressor: Optional[Regressor]
    feature_scaler: Optional[StandardScaler]
    constant_label: Optional[int] = None  # when training labels are constant

    def predict_visible(self, box: BBox, threshold: float = 0.5) -> bool:
        """Is a source-camera ``box`` visible on the target camera?"""
        if self.constant_label is not None:
            return bool(self.constant_label)
        if self.classifier is None or self.feature_scaler is None:
            return False
        feats = self._scaled_features(box)
        return bool(self.classifier.predict_proba(feats)[0] >= threshold)

    def predict_box(self, box: BBox) -> Optional[BBox]:
        """Predicted target-camera box for a source ``box`` (None if no regressor)."""
        if self.regressor is None or self.feature_scaler is None:
            return None
        feats = self._scaled_features(box)
        return target_to_box(self.regressor.predict(feats)[0])

    def predict_visible_batch(
        self,
        boxes: Sequence[BBox],
        threshold: float = 0.5,
        query: Optional[SourceQuery] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`predict_visible`: one classifier call for all boxes.

        Returns a boolean array aligned with ``boxes``. Agrees elementwise
        with the scalar path: the KNN distance computation is row-wise
        independent, so batching changes only the BLAS call shape.
        ``query`` is this pair's shared search over ``boxes``
        (:meth:`PairwiseAssociator.shared_query`), or None to search here.
        """
        n = len(boxes)
        if self.constant_label is not None:
            return np.full(n, bool(self.constant_label))
        if self.classifier is None or self.feature_scaler is None or n == 0:
            return np.zeros(n, dtype=bool)
        _, proba = self._visible_proba(boxes, query)
        return np.asarray(proba >= threshold)

    def predict_boxes(self, boxes: Sequence[BBox]) -> List[Optional[BBox]]:
        """Vectorized :meth:`predict_box`: one regressor call for all boxes."""
        if self.regressor is None or self.feature_scaler is None or not boxes:
            return [None] * len(boxes)
        feats = self._scaled_features_batch(boxes)
        return self._regress_boxes(feats)

    def predict_visible_boxes(
        self,
        boxes: Sequence[BBox],
        threshold: float = 0.5,
        query: Optional[SourceQuery] = None,
    ) -> "tuple[List[int], List[Optional[BBox]]]":
        """Fused :meth:`predict_visible_batch` + :meth:`predict_boxes`.

        Returns ``(vis_idx, predicted)`` where ``vis_idx`` indexes the
        boxes classified visible and ``predicted`` is aligned with it.
        The scaled feature matrix is built once and fed to both models;
        row slicing commutes with the elementwise scaler and the KNN
        distance rows are independent, so both outputs are bit-identical
        to the two separate calls this replaces. ``query`` is as for
        :meth:`predict_visible_batch`; the regressor always runs its own
        search on the visible rows.
        """
        n = len(boxes)
        feats: Optional[np.ndarray] = None
        if self.constant_label is not None:
            vis_idx = list(range(n)) if self.constant_label else []
        elif self.classifier is None or self.feature_scaler is None or n == 0:
            vis_idx = []
        else:
            feats, proba = self._visible_proba(boxes, query)
            vis_idx = [i for i in range(n) if proba[i] >= threshold]
        if not vis_idx:
            return vis_idx, []
        if self.regressor is None or self.feature_scaler is None:
            return vis_idx, [None] * len(vis_idx)
        if feats is None:
            cand_feats = self._scaled_features_batch(
                [boxes[i] for i in vis_idx]
            )
        elif len(vis_idx) == n:
            cand_feats = feats
        else:
            cand_feats = feats[vis_idx]
        return vis_idx, self._regress_boxes(cand_feats)

    def source_query(self, boxes: Sequence[BBox]) -> SourceQuery:
        """This pair's scaled features and classifier neighbours of ``boxes``.

        The label-free half of the classifier call, which every target
        whose scaler and KNN training rows are bit-identical to this
        pair's would compute identically (see
        :meth:`PairwiseAssociator.query_owner`).
        """
        assert isinstance(self.classifier, KNNClassifier)
        feats = self._scaled_features_batch(boxes)
        return feats, self.classifier.neighbours(feats)

    def _visible_proba(
        self, boxes: Sequence[BBox], query: Optional[SourceQuery]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Scaled features and classifier probability of ``boxes``."""
        assert self.classifier is not None
        if query is None:
            feats = self._scaled_features_batch(boxes)
            return feats, self.classifier.predict_proba(feats)
        assert isinstance(self.classifier, KNNClassifier)
        feats, idx = query
        return feats, self.classifier.proba_from_neighbours(feats, idx)

    def _regress_boxes(self, feats: np.ndarray) -> List[BBox]:
        """Regress scaled features to target-camera boxes."""
        assert self.regressor is not None
        targets = self.regressor.predict(feats)
        # Vectorized target_to_box/from_xywh: the size clamp and the
        # centre±half-size arithmetic mirror the scalar helpers exactly
        # (np.maximum is the same selection as max; w >= 2.0 subsumes
        # from_xywh's max(0.0, w)), so each BBox is bit-identical.
        cx, cy = targets[:, 0], targets[:, 1]
        w = np.maximum(targets[:, 2], 2.0)
        h = np.maximum(targets[:, 3], 2.0)
        x1, y1 = cx - w / 2.0, cy - h / 2.0
        x2, y2 = cx + w / 2.0, cy + h / 2.0
        return [
            BBox(float(x1[i]), float(y1[i]), float(x2[i]), float(y2[i]))
            for i in range(len(feats))
        ]

    def _scaled_features(self, box: BBox) -> np.ndarray:
        assert self.feature_scaler is not None
        raw = np.asarray([box_features(box)], dtype=float)
        return self.feature_scaler.transform(raw)

    def _scaled_features_batch(self, boxes: Sequence[BBox]) -> np.ndarray:
        assert self.feature_scaler is not None
        # Vectorized box_features: one corner gather + columnwise
        # arithmetic instead of a per-box Python feature build. Every
        # expression mirrors box_features/as_xywh exactly (np.maximum is
        # the same exact selection as max), so rows are bit-identical.
        corners = np.asarray(
            [(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float
        )
        raw = np.empty((len(boxes), 5), dtype=float)
        raw[:, 0] = (corners[:, 0] + corners[:, 2]) / 2.0  # cx
        raw[:, 1] = (corners[:, 1] + corners[:, 3]) / 2.0  # cy
        w = corners[:, 2] - corners[:, 0]
        h = corners[:, 3] - corners[:, 1]
        raw[:, 2] = w
        raw[:, 3] = h
        raw[:, 4] = w / np.maximum(h, 1e-6)
        return self.feature_scaler.transform(raw)


class PairwiseAssociator:
    """All pair models for a camera rig, fitted from an AssociationDataset."""

    def __init__(
        self,
        classifier_factory: ClassifierFactory = default_classifier_factory,
        regressor_factory: RegressorFactory = default_regressor_factory,
    ) -> None:
        self.classifier_factory = classifier_factory
        self.regressor_factory = regressor_factory
        self._models: Dict[PairKey, PairModel] = {}

    def fit(self, dataset: AssociationDataset) -> "PairwiseAssociator":
        """Fit one classifier/regressor pair per ordered camera pair."""
        # Invalidates downstream memos keyed on this instance's fitted
        # state (e.g. the camera-mask cache); getattr-guarded so models
        # unpickled from older artifacts start at token 0.
        self._fit_token = getattr(self, "_fit_token", 0) + 1
        for key, pair_ds in dataset.pairs.items():
            self._models[key] = self._fit_pair(pair_ds)
        self._query_owners = _query_owners(self._models)
        return self

    def model(self, source: int, target: int) -> Optional[PairModel]:
        """The fitted model for the ordered pair, or None if untrained."""
        return self._models.get((source, target))

    def query_owner(self, source: int, target: int) -> Optional[PairKey]:
        """The pair whose classifier search stands in for this pair's.

        ``collect_association_dataset`` gives every target of a source the
        same feature rows, so their scalers and KNN classifiers differ
        only in the labels. Pairs of one source share an owner only when
        :func:`_same_search` finds their fitted search inputs
        bit-identical, so the owner's :meth:`PairModel.source_query` is
        exactly the search this pair would run. None when the pair has no
        KNN classifier search (baseline factories, constant labels,
        missing pairs).
        """
        owners = getattr(self, "_query_owners", None)
        if owners is None:  # unpickled from an artifact that predates it
            owners = self._query_owners = _query_owners(self._models)
        return owners.get((source, target))

    def shared_query(
        self,
        source: int,
        target: int,
        boxes: Sequence[BBox],
        memo: Dict[PairKey, SourceQuery],
    ) -> Optional[SourceQuery]:
        """The pair's classifier search over ``boxes``, run once per owner.

        ``memo`` holds the searches already run over this box list; pass
        the same dict for every target of one source.
        """
        owner = self.query_owner(source, target)
        if owner is None or not boxes:
            return None
        query = memo.get(owner)
        if query is None:
            query = memo[owner] = self._models[owner].source_query(boxes)
        return query

    def predict_visible(self, source: int, target: int, box: BBox) -> bool:
        """Visibility of a source-camera box on the target camera."""
        model = self._models.get((source, target))
        return model.predict_visible(box) if model else False

    def predict_visible_many(
        self, source: int, target: int, boxes: Sequence[BBox]
    ) -> np.ndarray:
        """Visibility of many source boxes in one classifier call."""
        return self.predict_visible_targets(source, [target], boxes)[target]

    def predict_visible_targets(
        self, source: int, targets: Sequence[int], boxes: Sequence[BBox]
    ) -> Dict[int, np.ndarray]:
        """Visibility of many source boxes on each of ``targets``.

        Targets with a common :meth:`query_owner` share one classifier
        search; each still votes with its own labels. Unknown pairs
        predict all-invisible.
        """
        memo: Dict[PairKey, SourceQuery] = {}
        visible: Dict[int, np.ndarray] = {}
        for target in targets:
            model = self._models.get((source, target))
            if model is None:
                visible[target] = np.zeros(len(boxes), dtype=bool)
                continue
            query = self.shared_query(source, target, boxes, memo)
            visible[target] = model.predict_visible_batch(boxes, query=query)
        return visible

    def predict_box(self, source: int, target: int, box: BBox) -> Optional[BBox]:
        """Predicted target box when classified visible, else None."""
        model = self._models.get((source, target))
        if model is None or not model.predict_visible(box):
            return None
        return model.predict_box(box)

    # ------------------------------------------------------------------
    def _fit_pair(self, pair_ds: PairDataset) -> PairModel:
        if pair_ds.n_samples == 0:
            return PairModel(
                pair=pair_ds.pair,
                classifier=None,
                regressor=None,
                feature_scaler=None,
                constant_label=0,
            )
        x_cls, y_cls = pair_ds.classification_arrays()
        scaler = StandardScaler().fit(x_cls)
        labels = set(np.unique(y_cls).tolist())
        constant = int(y_cls[0]) if len(labels) == 1 else None
        classifier = None
        if constant is None:
            classifier = self.classifier_factory().fit(
                scaler.transform(x_cls), y_cls
            )
        regressor = None
        if pair_ds.n_positive >= 3:
            x_reg, y_reg = pair_ds.regression_arrays()
            regressor = self.regressor_factory().fit(
                scaler.transform(x_reg), y_reg
            )
        return PairModel(
            pair=pair_ds.pair,
            classifier=classifier,
            regressor=regressor,
            feature_scaler=scaler,
            constant_label=constant,
        )


def _query_owners(models: Dict[PairKey, PairModel]) -> Dict[PairKey, PairKey]:
    """Map each KNN-classified pair to its source's first pair with an
    identical classifier search (itself when none precedes it)."""
    owners: Dict[PairKey, PairKey] = {}
    firsts: Dict[int, List[PairKey]] = {}
    for key in sorted(models):
        model = models[key]
        # Exact type: a subclass may search differently.
        if (
            model.constant_label is not None
            or model.feature_scaler is None
            or type(model.classifier) is not KNNClassifier
        ):
            continue
        candidates = firsts.setdefault(key[0], [])
        owner = next(
            (c for c in candidates if _same_search(models[c], model)), None
        )
        if owner is None:
            candidates.append(key)
            owner = key
        owners[key] = owner
    return owners


def _same_search(a: PairModel, b: PairModel) -> bool:
    """Do ``a`` and ``b`` compute bit-identical scaled features and KNN
    neighbour indices for every query? Compares every fitted array the
    scaler and :func:`repro.ml.knn._k_nearest` read."""
    sa, sb = a.feature_scaler, b.feature_scaler
    ca, cb = a.classifier, b.classifier
    assert sa is not None and sb is not None
    assert isinstance(ca, KNNClassifier) and isinstance(cb, KNNClassifier)
    return ca.k == cb.k and all(
        _identical(getattr(x, name, None), getattr(y, name, None))
        for x, y, names in (
            (sa, sb, ("mean_", "scale_")),
            (ca, cb, ("_x", "_x_norms", "_x_neg2")),
        )
        for name in names
    )


def _identical(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    """Same values, dtype and memory layout (both None counts as equal)."""
    if a is None or b is None:
        return a is b
    return (
        a.dtype == b.dtype
        and a.strides == b.strides
        and bool(np.array_equal(a, b))
    )
