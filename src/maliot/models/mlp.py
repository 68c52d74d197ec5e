"""Single-hidden-layer network: dense(ReLU) -> dropout -> dense(sigmoid).

Training minimizes mean binary cross-entropy plus clf_reg times the squared
L2 norm of both weight matrices (biases excluded).  Dropout uses seeded
Bernoulli masks scaled by 1/keep at train time and is an identity at
inference, so the expected activation matches between the two modes.
"""

from __future__ import annotations

import numpy as np

from .base import MlpConfig, check_width, minibatches, sigmoid


def init_params(width: int, dense_units: int, rng: np.random.Generator) -> dict:
    # He-style scaling for the ReLU layer keeps early logits in range.
    return {
        "width": int(width),
        "W1": rng.normal(0.0, np.sqrt(2.0 / width), size=(width, dense_units)),
        "b1": np.zeros(dense_units, dtype=np.float64),
        "W2": rng.normal(0.0, np.sqrt(2.0 / dense_units), size=dense_units),
        "b2": 0.0,
    }


def _logits(params: dict, X: np.ndarray, mask: np.ndarray | None = None):
    z1 = X @ params["W1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    if mask is not None:
        a1 = a1 * mask
    z2 = a1 @ params["W2"] + params["b2"]
    return z1, a1, z2


def loss(params: dict, X: np.ndarray, y: np.ndarray, clf_reg: float) -> float:
    """Mean cross-entropy plus the L2 penalty, from logits for stability."""
    _, _, z = _logits(params, X)
    y = y.astype(np.float64)
    ce = np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z))))
    reg = clf_reg * (np.sum(params["W1"] ** 2) + np.sum(params["W2"] ** 2))
    return float(ce + reg)


def gradient(
    params: dict,
    X: np.ndarray,
    y: np.ndarray,
    clf_reg: float,
    mask: np.ndarray | None = None,
) -> dict:
    """Backpropagated gradients of ``loss`` w.r.t. every parameter.

    ``mask`` is the (already scaled) dropout mask for training steps; leave
    it None to differentiate the inference-mode network, which is what the
    finite-difference check exercises.
    """
    z1, a1, z2 = _logits(params, X, mask)
    m = X.shape[0]
    dz2 = (sigmoid(z2) - y.astype(np.float64)) / m
    gW2 = a1.T @ dz2 + 2.0 * clf_reg * params["W2"]
    gb2 = float(dz2.sum())
    da1 = np.outer(dz2, params["W2"])
    if mask is not None:
        da1 = da1 * mask
    dz1 = da1 * (z1 > 0.0)
    gW1 = X.T @ dz1 + 2.0 * clf_reg * params["W1"]
    gb1 = dz1.sum(axis=0)
    return {"W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}


def fit(X: np.ndarray, y: np.ndarray, config: MlpConfig, seed: int) -> dict:
    n, width = X.shape
    rng = np.random.default_rng(seed)
    params = init_params(width, config.dense_units, rng)
    keep = 1.0 - config.dropout_rate
    t = 0
    for batch in minibatches(n, config.n_batch, config.n_epoch, rng):
        Xb, yb = X[batch], y[batch]
        if config.dropout_rate > 0.0:
            mask = (
                rng.random((Xb.shape[0], config.dense_units)) < keep
            ) / keep
        else:
            mask = None
        g = gradient(params, Xb, yb, config.clf_reg, mask=mask)
        lr = config.learning_rate / (1.0 + config.decay_rate * t)
        params["W1"] -= lr * g["W1"]
        params["b1"] -= lr * g["b1"]
        params["W2"] -= lr * g["W2"]
        params["b2"] -= lr * g["b2"]
        t += 1
    return params


def score(params: dict, X: np.ndarray) -> np.ndarray:
    check_width(params, X)
    _, _, z = _logits(params, X)
    return sigmoid(z)


def to_doc(params: dict) -> dict:
    return {
        "width": params["width"],
        "W1": params["W1"].tolist(),
        "b1": params["b1"].tolist(),
        "W2": params["W2"].tolist(),
        "b2": params["b2"],
    }


def from_doc(doc: dict) -> dict:
    return {
        "width": int(doc["width"]),
        "W1": np.asarray(doc["W1"], dtype=np.float64),
        "b1": np.asarray(doc["b1"], dtype=np.float64),
        "W2": np.asarray(doc["W2"], dtype=np.float64),
        "b2": float(doc["b2"]),
    }
