"""CART decision tree: Gini impurity, midpoint thresholds, flat node arrays.

The grown tree is stored as five parallel arrays (feature, threshold, left,
right, value) so it serializes to JSON directly and batch prediction can
walk all rows level by level without Python recursion.  A fitted model
keeps them as the node table ``pack`` builds, with one root; a forest keeps
all its trees in one such table.
"""

from __future__ import annotations

import numpy as np

from .base import TreeConfig, check_width

LEAF = -1

# A tree's arrays and their dtypes, in the order the model file lists them.
_ARRAYS = {
    "feature": np.int64,
    "threshold": np.float64,
    "left": np.int64,
    "right": np.int64,
    "value": np.float64,
}


def _gini_best_split(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gini) over the candidate features.

    Thresholds are midpoints between adjacent distinct sorted values.
    Ties go to the lower feature index, then to the lower threshold;
    ``features`` must therefore be sorted ascending.
    """
    n = rows.size
    ysub = y[rows].astype(np.float64)
    total_anom = ysub.sum()
    best: tuple[int, float, float] | None = None
    for j in features:
        vals = X[rows, j]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        ca = np.cumsum(ysub[order])
        left_n = np.arange(1, n, dtype=np.float64)
        left_a = ca[:-1]
        right_n = n - left_n
        right_a = total_anom - left_a
        valid = v[1:] != v[:-1]
        if not valid.any():
            continue
        gl = 1.0 - (left_a / left_n) ** 2 - ((left_n - left_a) / left_n) ** 2
        gr = 1.0 - (right_a / right_n) ** 2 - ((right_n - right_a) / right_n) ** 2
        g = (left_n * gl + right_n * gr) / n
        g[~valid] = np.inf
        i = int(np.argmin(g))  # first minimum = lowest threshold
        gi = float(g[i])
        if best is None or gi < best[2]:
            thr = float((v[i] + v[i + 1]) / 2.0)
            best = (int(j), thr, gi)
    return best


class _Builder:
    """Accumulates nodes while growing; order is deterministic (left first)."""

    def __init__(self, X, y, config, rng, n_candidates):
        self.X = X
        self.y = y
        self.config = config
        self.rng = rng
        self.n_candidates = n_candidates  # per-split feature pool size, or None
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(LEAF)
        self.threshold.append(0.0)
        self.left.append(LEAF)
        self.right.append(LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def grow(self, rows: np.ndarray, depth: int) -> int:
        node = self._new_node()
        ysub = self.y[rows]
        anom = int(ysub.sum())
        self.value[node] = anom / rows.size

        pure = anom == 0 or anom == rows.size
        if (
            pure
            or depth >= self.config.max_depth
            or rows.size < self.config.min_samples_split
        ):
            return node

        k = self.X.shape[1]
        if self.n_candidates is None or self.n_candidates >= k:
            features = np.arange(k)
        else:
            features = np.sort(
                self.rng.choice(k, size=self.n_candidates, replace=False)
            )
        split = _gini_best_split(self.X, self.y, rows, features)
        if split is None:
            return node
        j, thr, _ = split
        go_left = self.X[rows, j] <= thr
        self.feature[node] = j
        self.threshold[node] = thr
        self.left[node] = self.grow(rows[go_left], depth + 1)
        self.right[node] = self.grow(rows[~go_left], depth + 1)
        return node


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    config: TreeConfig,
    rng: np.random.Generator | None = None,
    n_candidates: int | None = None,
) -> dict:
    """Grow one tree and return its flat-array form (no width key)."""
    b = _Builder(X, y, config, rng, n_candidates)
    b.grow(np.arange(X.shape[0]), 0)
    return {key: np.asarray(getattr(b, key), dtype=dtype) for key, dtype in _ARRAYS.items()}


def walk(nodes: dict, roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Leaf id reached by every (row, root) pair, shape (rows, roots).

    ``nodes`` holds flat ``feature``/``threshold``/``left``/``right`` arrays
    (one tree, or many trees concatenated with their child indices offset);
    a node is a leaf when its feature is ``LEAF``.  All pairs descend one
    level per step, and pairs that reach a leaf drop out of the step.
    """
    n, k = X.shape[0], roots.size
    feature, threshold = nodes["feature"], nodes["threshold"]
    left, right = nodes["left"], nodes["right"]
    x = np.ascontiguousarray(X).ravel()
    leaves = np.empty(n * k, dtype=np.int64)
    pair = np.arange(n * k)
    node = np.tile(roots, n)
    base = np.repeat(np.arange(n) * X.shape[1], k)  # row start of each pair in x
    while pair.size:
        feat = feature[node]
        inner = feat >= 0
        if not inner.all():
            done = ~inner
            leaves[pair[done]] = node[done]
            pair, node, base, feat = pair[inner], node[inner], base[inner], feat[inner]
        go_left = x[base + feat] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return leaves.reshape(n, k)


def pack(trees: list[dict]) -> dict:
    """One node table holding every tree, in flat arrays.

    Child indices are offset by each tree's start, and ``roots`` holds
    those starts in tree order.
    """
    starts = np.cumsum([0] + [t["feature"].size for t in trees[:-1]])
    table = {key: np.concatenate([t[key] for t in trees]) for key in _ARRAYS}
    for key in ("left", "right"):
        table[key] = np.concatenate([np.where(t[key] == LEAF, LEAF, t[key] + s)
                                     for t, s in zip(trees, starts)])
    return {**table, "roots": starts}


def unpack(table: dict) -> list[dict]:
    """The per-tree arrays that ``pack`` was given, one dict per root."""
    roots = table["roots"].tolist()
    trees = []
    for s, e in zip(roots, roots[1:] + [table["feature"].size]):
        t = {key: table[key][s:e] for key in _ARRAYS}
        for key in ("left", "right"):
            t[key] = np.where(t[key] == LEAF, LEAF, t[key] - s)
        trees.append(t)
    return trees


def fit(X: np.ndarray, y: np.ndarray, config: TreeConfig, seed: int) -> dict:
    del seed  # a single CART fit is fully data-determined
    return {"width": int(X.shape[1]), **pack([grow_tree(X, y, config)])}


def score(params: dict, X: np.ndarray) -> np.ndarray:
    """Leaf anomaly fraction for every row."""
    check_width(params, X)
    return params["value"][walk(params, params["roots"], X)[:, 0]]


def tree_to_doc(t: dict) -> dict:
    return {key: t[key].tolist() for key in _ARRAYS}


def tree_from_doc(doc: dict) -> dict:
    return {key: np.asarray(doc[key], dtype=dtype) for key, dtype in _ARRAYS.items()}


def to_doc(params: dict) -> dict:
    return {**tree_to_doc(params), "width": params["width"]}


def from_doc(doc: dict) -> dict:
    return {"width": int(doc["width"]), **pack([tree_from_doc(doc)])}
