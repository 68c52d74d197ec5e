"""Logistic regression and linear SVM sharing one mini-batch optimizer.

Both start from zero weights and take ``n_epoch`` passes of mini-batch
gradient descent with the step size decayed as lr/(1 + decay * t), where t
counts batches from the start of training.  The L2 penalty is l2*||w||^2,
so its gradient contribution is 2*l2*w; the bias is left unregularized.
"""

from __future__ import annotations

import numpy as np

from .base import LinearConfig, check_width, minibatches, sigmoid


def _fit(X, y, config: LinearConfig, seed: int, hinge: bool) -> dict:
    n, k = X.shape
    w = np.zeros(k, dtype=np.float64)
    b = 0.0
    rng = np.random.default_rng(seed)
    t = 0
    y = y.astype(np.float64)
    y_signed = 2.0 * y - 1.0  # hinge loss wants -1/+1
    for batch in minibatches(n, config.n_batch, config.n_epoch, rng):
        Xb = X[batch]
        m = Xb.shape[0]
        f = Xb @ w + b
        if hinge:
            ys = y_signed[batch]
            violating = ys * f < 1.0
            coef = np.where(violating, -ys, 0.0)
        else:
            coef = sigmoid(f) - y[batch]
        gw = (Xb.T @ coef) / m + 2.0 * config.l2 * w
        gb = coef.mean()
        lr = config.learning_rate / (1.0 + config.decay_rate * t)
        w -= lr * gw
        b -= lr * gb
        t += 1
    return {"width": int(k), "weights": w, "bias": float(b)}


def fit_logistic(X, y, config: LinearConfig, seed: int) -> dict:
    return _fit(X, y, config, seed, hinge=False)


def fit_svm(X, y, config: LinearConfig, seed: int) -> dict:
    return _fit(X, y, config, seed, hinge=True)


def score(params: dict, X: np.ndarray) -> np.ndarray:
    """Logistic squashing of the raw linear output.

    For logistic regression this is the model probability; for the SVM it
    maps the margin into [0, 1] so every kind shares one score contract.
    """
    check_width(params, X)
    return sigmoid(X @ params["weights"] + params["bias"])


def to_doc(params: dict) -> dict:
    return {
        "width": params["width"],
        "weights": params["weights"].tolist(),
        "bias": params["bias"],
    }


def from_doc(doc: dict) -> dict:
    return {
        "width": int(doc["width"]),
        "weights": np.asarray(doc["weights"], dtype=np.float64),
        "bias": float(doc["bias"]),
    }
