"""Random forest: bagged CART trees with per-split feature subsampling.

A forest keeps its trees only as one node table (``tree.pack``), the same
layout a decision tree uses with a single root.  Scoring walks that table,
so all (row, tree) pairs descend together instead of looping over trees in
Python (the QuickScorer layout idea: Lucchese et al., SIGIR 2015).
"""

from __future__ import annotations

import math

import numpy as np

from . import tree
from .base import ForestConfig, TreeConfig, check_width

# Rows per walk step: scratch memory is about BLOCK_ROWS x n_trees pairs.
BLOCK_ROWS = 256


def _n_candidates(width: int, max_features: str) -> int | None:
    if max_features == "all":
        return None
    if max_features == "sqrt":
        return max(1, int(round(math.sqrt(width))))
    raise ValueError(f"unknown max_features {max_features!r}")


def fit(X: np.ndarray, y: np.ndarray, config: ForestConfig, seed: int) -> dict:
    """Train ``n_trees`` CARTs on bootstrap resamples.

    Every tree gets its own spawned bit generator, so the forest is
    reproducible from the master seed alone and trees could in principle be
    grown in any order (each stream is independent).
    """
    n, width = X.shape
    tree_cfg = TreeConfig(
        max_depth=config.max_depth, min_samples_split=config.min_samples_split
    )
    n_cand = _n_candidates(width, config.max_features)
    children = np.random.SeedSequence(seed).spawn(config.n_trees)
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        if config.bootstrap:
            rows = rng.integers(0, n, size=n)
            Xb, yb = X[rows], y[rows]
        else:
            Xb, yb = X, y
        trees.append(tree.grow_tree(Xb, yb, tree_cfg, rng=rng, n_candidates=n_cand))
    return {"width": int(width), "tie_break": config.tie_break, **tree.pack(trees)}


def score(params: dict, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting anomaly (a leaf value of 0.5 or more).

    Votes are counted as integers, so each row's score is exact.
    """
    check_width(params, X)
    roots = params["roots"]
    votes = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], BLOCK_ROWS):
        leaves = tree.walk(params, roots, X[start:start + BLOCK_ROWS])
        votes[start:start + BLOCK_ROWS] = np.count_nonzero(
            params["value"][leaves] >= 0.5, axis=1)
    return votes / roots.size


def to_doc(params: dict) -> dict:
    return {
        "width": params["width"],
        "tie_break": params["tie_break"],
        "trees": [tree.tree_to_doc(t) for t in tree.unpack(params)],
    }


def from_doc(doc: dict) -> dict:
    return {
        "width": int(doc["width"]),
        "tie_break": str(doc["tie_break"]),
        **tree.pack([tree.tree_from_doc(t) for t in doc["trees"]]),
    }
