"""Gaussian naive Bayes against closed-form posteriors.

The oracle below recomputes the posterior from first principles (per-class
Gaussian log-density plus log-prior, normalized over the two classes) with
no shared code, so agreement is meaningful.
"""

import math

import numpy as np
import pytest

from maliot import models
from maliot.errors import EmptyDatasetError, InsufficientDataError
from maliot.models import GnbConfig

VAR_FLOOR = 1e-9


def oracle_posterior(X, y, q, var_floor=VAR_FLOOR):
    """P(anomaly | q) for one query row, by direct computation."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    logs = {}
    for c in (0, 1):
        rows = X[y == c]
        prior = len(rows) / len(X)
        mu = rows.mean(axis=0)
        var = np.maximum(rows.var(axis=0), var_floor)  # population variance
        ll = math.log(prior)
        for j in range(X.shape[1]):
            ll += -0.5 * (math.log(2 * math.pi * var[j])
                          + (q[j] - mu[j]) ** 2 / var[j])
        logs[c] = ll
    m = max(logs.values())
    e0, e1 = math.exp(logs[0] - m), math.exp(logs[1] - m)
    return e1 / (e0 + e1)


def fit(X, y, seed=0):
    return models.train("gaussian_nb", np.asarray(X, float),
                        np.asarray(y), seed=seed)


# -- the worked example -------------------------------------------------------

HAND_X = [[0.0], [1.0], [10.0], [11.0]]
HAND_Y = [0, 0, 1, 1]


def test_hand_example_statistics():
    m = fit(HAND_X, HAND_Y)
    p = m.params
    assert p["classes"] == [0, 1]
    assert p["priors"].tolist() == [0.5, 0.5]
    assert p["means"].tolist() == [[0.5], [10.5]]
    assert p["variances"].tolist() == [[0.25], [0.25]]


def test_hand_example_posteriors():
    m = fit(HAND_X, HAND_Y)
    q = np.array([[5.0], [5.5], [0.4], [10.6]])
    s = models.score_batch(m, q)
    # worked by hand: log-likelihood gap at 5.0 is exactly 20
    assert s[0] == pytest.approx(2.0611536181902033e-09, abs=1e-18)
    assert s[1] == pytest.approx(0.5, abs=1e-12)
    assert s[2] < 1e-12
    assert s[3] > 1.0 - 1e-12


def test_hand_example_labels():
    m = fit(HAND_X, HAND_Y)
    scores = models.score_batch(m, np.array([[0.4], [10.6]]))
    assert models.labels_from_scores(m, scores).tolist() == [False, True]  # benign, anomaly


# -- exhaustive agreement on every small dataset shape ------------------------

def _random_small_datasets(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 9))          # at most 8 points
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(0, 3, size=(n, d)), 3)
        y = np.zeros(n, dtype=np.int8)
        y[rng.permutation(n)[: int(rng.integers(1, n))] ] = 1
        if len(np.unique(y)) < 2:
            continue
        yield X, y


def test_matches_oracle_on_small_datasets(rng):
    checked = 0
    for X, y in _random_small_datasets(rng, 60):
        m = fit(X, y)
        queries = np.vstack([X, rng.normal(0, 3, size=(4, X.shape[1]))])
        got = models.score_batch(m, queries)
        for q, s in zip(queries, got):
            assert s == pytest.approx(oracle_posterior(X, y, q), abs=1e-9)
        checked += 1
    assert checked >= 40


def test_unbalanced_priors(rng):
    X = np.array([[0.0], [0.2], [0.4], [9.0]])
    y = np.array([0, 0, 0, 1])
    m = fit(X, y)
    assert m.params["priors"].tolist() == [0.75, 0.25]
    s = models.score_batch(m, np.array([[4.0]]))[0]
    assert s == pytest.approx(oracle_posterior(X, y, [4.0]), abs=1e-9)


def test_variance_floor_handles_constant_feature():
    # second feature is identical everywhere: floored, never a div-by-zero
    X = np.array([[0.0, 5.0], [1.0, 5.0], [10.0, 5.0], [11.0, 5.0]])
    y = np.array([0, 0, 1, 1])
    m = fit(X, y)
    assert m.params["variances"][0][1] == VAR_FLOOR
    s = models.score_batch(m, X)
    assert np.isfinite(s).all()
    assert (s[:2] < 0.5).all() and (s[2:] > 0.5).all()


def test_single_class_data_is_tolerated():
    # generative model: trainable on one class, scores are that class
    X = np.array([[1.0], [2.0], [3.0]])
    m = models.train("gaussian_nb", X, np.array([1, 1, 1]))
    assert np.all(models.score_batch(m, X) == 1.0)
    m = models.train("gaussian_nb", X, np.array([0, 0, 0]))
    assert np.all(models.score_batch(m, X) == 0.0)


def test_custom_variance_floor():
    X = np.array([[0.0, 5.0], [1.0, 5.0], [10.0, 5.0], [11.0, 5.0]])
    y = np.array([0, 0, 1, 1])
    m = models.train("gaussian_nb", X, y, config=GnbConfig(var_floor=1e-3))
    assert m.params["variances"][0][1] == 1e-3


def test_too_few_rows_rejected():
    with pytest.raises(InsufficientDataError):
        fit([[1.0]], [1])


def test_empty_rejected():
    with pytest.raises((EmptyDatasetError, InsufficientDataError)):
        fit(np.zeros((0, 2)), np.zeros(0, dtype=int))
