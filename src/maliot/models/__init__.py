"""Uniform train/score/serialize facade over the six classifier kinds."""

from __future__ import annotations

import time

import numpy as np

from ..errors import CodecMismatchError, EmptyDatasetError
from .base import (
    ForestConfig,
    GnbConfig,
    LinearConfig,
    Metrics,
    MlpConfig,
    TrainedModel,
    TreeConfig,
    as_training_matrix,
    metrics_from_confusion,
)
from .io import load_model, save_model
from .registry import DISCRIMINATIVE_KINDS, KINDS, MODEL_KINDS

__all__ = [
    "MODEL_KINDS",
    "DISCRIMINATIVE_KINDS",
    "TreeConfig",
    "ForestConfig",
    "LinearConfig",
    "GnbConfig",
    "MlpConfig",
    "TrainedModel",
    "Metrics",
    "metrics_from_confusion",
    "train",
    "score_batch",
    "labels_from_scores",
    "evaluate",
    "check_codec",
    "save_model",
    "load_model",
]


def train(
    kind: str,
    X,
    y,
    config=None,
    seed: int = 0,
    codec_fingerprint: str = "",
    version: int = 1,
    trained_at: float | None = None,
) -> TrainedModel:
    """Train one classifier of the given kind.

    Deterministic for a fixed (data, config, seed) triple.  ``trained_at``
    defaults to the wall clock and is bookkeeping only; it never affects
    the learned parameters.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    X, y = as_training_matrix(X, y, kind, kind in DISCRIMINATIVE_KINDS)
    expected = KINDS[kind].config
    if config is None:
        config = expected()
    if not isinstance(config, expected):
        raise TypeError(f"{kind} wants {expected.__name__}, got {type(config).__name__}")
    params = KINDS[kind].fit(X, y, config, seed)
    return TrainedModel(
        kind=kind,
        params=params,
        codec_fingerprint=codec_fingerprint,
        version=version,
        trained_at=time.time() if trained_at is None else trained_at,
    )


def score_batch(model: TrainedModel, X) -> np.ndarray:
    """Anomaly scores in [0, 1], one per row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return KINDS[model.kind].score(model.params, X)


def labels_from_scores(model: TrainedModel, scores: np.ndarray) -> np.ndarray:
    """Boolean anomaly mask for a score vector.

    Every kind calls 0.5 and above an anomaly, except a forest configured
    to fail open, where an exactly split vote stays benign.
    """
    if model.kind == "random_forest" and model.params.get("tie_break") == "benign":
        return scores > 0.5
    return scores >= 0.5


def check_codec(model: TrainedModel, codec) -> None:
    """Refuse to pair a model with a codec it was not trained against.

    Accepts either a FeatureCodec or a bare fingerprint string.
    """
    fingerprint = codec if isinstance(codec, str) else codec.fingerprint()
    if model.codec_fingerprint != fingerprint:
        raise CodecMismatchError(
            f"model fingerprint {model.codec_fingerprint[:12]}... "
            f"!= codec {fingerprint[:12]}..."
        )


def evaluate(model: TrainedModel, X, y) -> Metrics:
    """Confusion-matrix metrics with anomaly as the positive class.

    Rows labeled with the unlabeled sentinel are skipped; evaluating
    nothing but sentinels is an error.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    labeled = y >= 0
    if X.shape[0] == 0 or not labeled.any():
        raise EmptyDatasetError("evaluate needs at least one labeled row")
    X, y = X[labeled], y[labeled].astype(bool)
    pred = labels_from_scores(model, score_batch(model, X))
    tp = int(np.sum(pred & y))
    fp = int(np.sum(pred & ~y))
    tn = int(np.sum(~pred & ~y))
    fn = int(np.sum(~pred & y))
    return metrics_from_confusion(tp, fp, tn, fn)
