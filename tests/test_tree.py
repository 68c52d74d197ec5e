"""CART against an exhaustive split-enumeration oracle.

The oracle grows its own tree by brute force: every feature, every midpoint
between adjacent distinct values, weighted Gini computed by direct counting.
Nothing vectorized, nothing shared with the implementation.
"""

import numpy as np
import pytest

from maliot import models
from maliot.errors import SingleClassDataError
from maliot.models import TreeConfig
from maliot.models.tree import grow_tree


# -- oracle -------------------------------------------------------------------

def _gini(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    p = sum(labels) / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def oracle_best_split(X, y, rows):
    """(feature, threshold, score) by exhaustive enumeration.

    Strict-improvement scan in (feature asc, threshold asc) order, so ties
    resolve to the lowest feature index, then the lowest threshold.
    """
    best = None
    n = len(rows)
    for j in range(X.shape[1]):
        seen = sorted(set(float(X[r, j]) for r in rows))
        for lo, hi in zip(seen, seen[1:]):
            thr = (lo + hi) / 2.0
            left = [int(y[r]) for r in rows if X[r, j] <= thr]
            right = [int(y[r]) for r in rows if X[r, j] > thr]
            g = (len(left) * _gini(left) + len(right) * _gini(right)) / n
            if best is None or g < best[2]:
                best = (j, thr, g)
    return best


class OracleTree:
    def __init__(self, X, y, max_depth=16, min_samples_split=2):
        self.X, self.y = X, y
        self.max_depth = max_depth
        self.min_split = min_samples_split
        self.root = self._grow(list(range(len(y))), 0)

    def _grow(self, rows, depth):
        frac = sum(int(self.y[r]) for r in rows) / len(rows)
        if (frac in (0.0, 1.0) or depth >= self.max_depth
                or len(rows) < self.min_split):
            return ("leaf", frac)
        split = oracle_best_split(self.X, self.y, rows)
        if split is None:
            return ("leaf", frac)
        j, thr, _ = split
        left = [r for r in rows if self.X[r, j] <= thr]
        right = [r for r in rows if self.X[r, j] > thr]
        return ("node", j, thr,
                self._grow(left, depth + 1), self._grow(right, depth + 1))

    def score_one(self, x):
        node = self.root
        while node[0] == "node":
            _, j, thr, l, r = node
            node = l if x[j] <= thr else r
        return node[1]

    def scores(self, Q):
        return np.array([self.score_one(q) for q in Q])


# -- worked example -----------------------------------------------------------

def test_three_point_example():
    X = np.array([[1.0], [2.0], [10.0]])
    y = np.array([0, 0, 1])
    m = models.train("decision_tree", X, y)
    # the pure split {1,2} | {10} at midpoint 6 beats {1} | {2,10}
    assert m.params["feature"][0] == 0
    assert m.params["threshold"][0] == 6.0
    assert models.score_batch(m, X).tolist() == [0.0, 0.0, 1.0]


def test_root_split_matches_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(1, 5))
        X = np.round(rng.normal(0, 2, size=(n, d)), 2)
        y = (rng.random(n) < 0.4).astype(np.int8)
        if y.min() == y.max():
            continue
        want = oracle_best_split(X, y, list(range(n)))
        tree = grow_tree(X, y, TreeConfig())
        assert tree["feature"][0] == want[0]
        assert tree["threshold"][0] == pytest.approx(want[1], abs=1e-12)


def test_full_tree_matches_oracle(rng):
    checked = 0
    for _ in range(25):
        n = int(rng.integers(8, 51))
        d = int(rng.integers(1, 4))
        # coarse grid values force plenty of exact ties
        X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
        y = (rng.random(n) < 0.5).astype(np.int8)
        if y.min() == y.max():
            continue
        m = models.train("decision_tree", X, y)
        oracle = OracleTree(X, y)
        Q = np.vstack([X, rng.integers(-1, 6, size=(20, d)).astype(np.float64)])
        assert np.array_equal(models.score_batch(m, Q), oracle.scores(Q))
        checked += 1
    assert checked >= 15


def test_tie_breaks_lower_feature_index():
    # identical columns: both features give the same gini everywhere
    col = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1])
    tree = grow_tree(X, y, TreeConfig())
    assert tree["feature"][0] == 0
    assert tree["threshold"][0] == 1.5


def test_tie_breaks_lower_threshold():
    # symmetric data: splits at 0.5 and 2.5 tie; the lower one must win
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1, 0, 0, 1])
    tree = grow_tree(X, y, TreeConfig())
    assert tree["threshold"][0] == 0.5


def test_max_depth_limits_growth():
    rng = np.random.default_rng(5)
    X = rng.random((200, 3))
    y = (rng.random(200) < 0.5).astype(np.int8)
    shallow = models.train("decision_tree", X, y, config=TreeConfig(max_depth=2))

    def depth(params, node=0):
        if params["feature"][node] == -1:
            return 0
        return 1 + max(depth(params, params["left"][node]),
                       depth(params, params["right"][node]))

    assert depth(shallow.params) <= 2


def test_min_samples_split_makes_small_nodes_leaves():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1])
    m = models.train("decision_tree", X, y,
                     config=TreeConfig(min_samples_split=5))
    assert m.params["feature"].tolist() == [-1]
    assert m.params["value"][0] == 0.5


def test_pure_node_stops_immediately():
    X = np.array([[0.0], [5.0], [1.0], [6.0]])
    y = np.array([0, 1, 0, 1])
    m = models.train("decision_tree", X, y)
    p = m.params
    root_children = {p["left"][0], p["right"][0]}
    assert all(p["feature"][c] == -1 for c in root_children)


def test_constant_features_yield_single_leaf():
    X = np.ones((6, 2))
    y = np.array([0, 1, 0, 1, 0, 1])
    m = models.train("decision_tree", X, y)
    assert m.params["feature"].tolist() == [-1]
    assert models.score_batch(m, X).tolist() == [0.5] * 6


def test_single_class_rejected():
    X = np.array([[1.0], [2.0]])
    with pytest.raises(SingleClassDataError):
        models.train("decision_tree", X, np.array([1, 1]))


def test_deterministic_without_seed_dependence():
    rng = np.random.default_rng(7)
    X = rng.random((50, 4))
    y = (rng.random(50) < 0.5).astype(np.int8)
    a = models.train("decision_tree", X, y, seed=0)
    b = models.train("decision_tree", X, y, seed=999)
    assert np.array_equal(
        models.score_batch(a, X), models.score_batch(b, X))
