"""Shared model types: configs, the trained-model container, metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    InsufficientDataError,
    SingleClassDataError,
)


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 16
    # Minimum number of rows a node must hold before a split is attempted.
    # A 2|1 split of a 3-row node is legal under this rule.
    min_samples_split: int = 2


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 16
    min_samples_split: int = 2
    bootstrap: bool = True
    max_features: str = "sqrt"  # "sqrt" or "all"
    # What a 50/50 vote means. "benign" fails open (traffic keeps flowing),
    # "anomaly" fails closed.
    tie_break: str = "benign"


@dataclass(frozen=True)
class LinearConfig:
    learning_rate: float = 1e-3
    decay_rate: float = 1e-5
    l2: float = 1e-5
    n_batch: int = 100
    n_epoch: int = 5


@dataclass(frozen=True)
class GnbConfig:
    var_floor: float = 1e-9


@dataclass(frozen=True)
class MlpConfig:
    learning_rate: float = 1e-3
    decay_rate: float = 1e-5
    dropout_rate: float = 0.5
    dense_units: int = 128
    n_batch: int = 100
    n_epoch: int = 1
    clf_reg: float = 1e-5


@dataclass
class TrainedModel:
    """One trained classifier plus the bookkeeping needed to deploy it.

    ``params`` is a kind-specific dict of numpy arrays and scalars and is
    treated as immutable once training returns.  ``codec_fingerprint`` ties
    the model to the exact feature codec it was trained against, and
    ``version`` counts retrains so a hot swap can refuse to go backwards.
    """

    kind: str
    params: dict
    codec_fingerprint: str = ""
    version: int = 1
    trained_at: float = 0.0


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: dict = field(default_factory=dict)


def metrics_from_confusion(tp: int, fp: int, tn: int, fn: int) -> Metrics:
    """Derive the scalar metrics from raw confusion counts.

    Anomaly is the positive class.  Ratios with a zero denominator are
    defined as 0.0 rather than raising.
    """
    total = tp + fp + tn + fn
    if total == 0:
        raise EmptyDatasetError("confusion over zero rows")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return Metrics(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
    )


def as_training_matrix(X, y, kind: str, discriminative: bool) -> tuple[np.ndarray, np.ndarray]:
    """Validate and normalize training inputs for ``train``.

    A ``discriminative`` kind models a decision boundary and so needs both
    classes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={X.ndim}")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatchError(
            f"labels shape {y.shape} does not match {X.shape[0]} rows"
        )
    if X.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 rows, got {X.shape[0]}")
    y = y.astype(np.int8)
    uniq = set(np.unique(y).tolist())
    if not uniq <= {0, 1}:
        raise ValueError(f"training labels must be 0 or 1, got {sorted(uniq)}")
    if discriminative and len(uniq) < 2:
        raise SingleClassDataError(f"{kind} needs both classes, got only {uniq}")
    return X, y


def minibatches(n: int, n_batch: int, n_epoch: int, rng: np.random.Generator):
    """Row indexes of each mini-batch: a fresh permutation per epoch."""
    for _ in range(n_epoch):
        order = rng.permutation(n)
        for start in range(0, n, n_batch):
            yield order[start : start + n_batch]


def check_width(params: dict, X: np.ndarray) -> None:
    want = int(params["width"])
    got = X.shape[-1] if X.ndim else -1
    if got != want:
        raise DimensionMismatchError(f"model expects width {want}, got {got}")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
