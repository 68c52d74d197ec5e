"""Random forest: vote semantics, bagging determinism, tie fail-open."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maliot import models
from maliot.models import ForestConfig, TreeConfig
from maliot.models import forest
from maliot.models.tree import LEAF, grow_tree, pack, unpack


def _toy(rng, n=120, d=5):
    X = rng.normal(0, 1, size=(n, d))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(np.int8)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


def test_degenerate_forest_equals_single_tree(rng):
    # one tree, no bootstrap, all features: exactly a CART fit
    X, y = _toy(rng)
    forest = models.train(
        "random_forest", X, y,
        config=ForestConfig(n_trees=1, bootstrap=False, max_features="all"))
    tree = models.train("decision_tree", X, y)
    q = rng.normal(0, 1, size=(300, X.shape[1]))
    tree_labels = models.score_batch(tree, q) >= 0.5
    forest_votes = models.score_batch(forest, q)
    assert set(np.unique(forest_votes)) <= {0.0, 1.0}
    assert np.array_equal(forest_votes == 1.0, tree_labels)


def test_score_is_vote_fraction(rng):
    X, y = _toy(rng)
    m = models.train("random_forest", X, y, config=ForestConfig(n_trees=10))
    s = models.score_batch(m, X)
    assert np.all((s >= 0.0) & (s <= 1.0))
    # votes quantized to tenths
    assert np.allclose(np.round(s * 10), s * 10, atol=1e-12)


def test_seed_determinism(rng):
    X, y = _toy(rng)
    a = models.train("random_forest", X, y, seed=42,
                     config=ForestConfig(n_trees=20))
    b = models.train("random_forest", X, y, seed=42,
                     config=ForestConfig(n_trees=20))
    c = models.train("random_forest", X, y, seed=43,
                     config=ForestConfig(n_trees=20))
    q = rng.normal(0, 1, size=(100, X.shape[1]))
    assert np.array_equal(models.score_batch(a, q), models.score_batch(b, q))
    assert not np.array_equal(models.score_batch(a, q),
                              models.score_batch(c, q))


def test_bootstrap_varies_trees(rng):
    X, y = _toy(rng, n=60)
    m = models.train("random_forest", X, y, seed=1,
                     config=ForestConfig(n_trees=12))
    docs = unpack(m.params)
    assert len(docs) == 12
    assert len({str(t["threshold"]) for t in docs}) > 1


def test_tied_vote_fails_open_to_benign(rng):
    X, y = _toy(rng)
    m = models.train("random_forest", X, y, config=ForestConfig(n_trees=2))
    # drive labels straight from scores: exactly 0.5 must stay benign
    labels = models.labels_from_scores(m, np.array([0.0, 0.5, 0.75, 1.0]))
    assert labels.tolist() == [0, 0, 1, 1]


def test_plain_threshold_is_inclusive_for_trees(rng):
    X, y = _toy(rng)
    tree = models.train("decision_tree", X, y)
    labels = models.labels_from_scores(tree, np.array([0.49, 0.5, 0.51]))
    assert labels.tolist() == [0, 1, 1]


def test_forest_beats_or_matches_stump_on_noise(rng):
    # sanity: bagging should not be catastrophically worse than one tree
    X, y = _toy(rng, n=400)
    noise = rng.normal(0, 1, size=(400, 5))
    Xn = np.hstack([X, noise])
    forest = models.train("random_forest", Xn, y, seed=3,
                          config=ForestConfig(n_trees=30))
    assert models.evaluate(forest, Xn, y).accuracy > 0.9


def test_sqrt_feature_subsampling_recorded(rng):
    X, y = _toy(rng, d=9)
    m = models.train("random_forest", X, y,
                     config=ForestConfig(n_trees=3))
    # subsampled trees can split on any feature; all indices must be valid
    for t in unpack(m.params):
        feats = [f for f in t["feature"] if f >= 0]
        assert all(0 <= f < 9 for f in feats)


def test_depth_config_propagates(rng):
    X, y = _toy(rng, n=300)
    m = models.train("random_forest", X, y, seed=0,
                     config=ForestConfig(n_trees=5, max_depth=1))
    for t in unpack(m.params):
        assert len(t["feature"]) <= 3  # root plus two leaves


def _per_tree_vote_counts(params, X):
    """Oracle: anomaly votes per row, one tree and one row at a time."""
    counts = np.zeros(X.shape[0], dtype=np.int64)
    for t in unpack(params):
        for i, x in enumerate(X):
            node = 0
            while t["feature"][node] != LEAF:
                j = t["feature"][node]
                node = (t["left"][node] if x[j] <= t["threshold"][node]
                        else t["right"][node])
            counts[i] += t["value"][node] >= 0.5
    return counts


@given(
    n_trees=st.integers(1, 12),
    n_rows=st.integers(4, 40),
    positive_share=st.floats(0.0, 1.0),
    batch=st.sampled_from([0, 1, 255, 256, 257, 1000]),
    seed=st.integers(0, 2**16),
)
@example(n_trees=12, n_rows=4, positive_share=0.0, batch=257, seed=0)
@example(n_trees=2, n_rows=40, positive_share=0.5, batch=256, seed=1)
@settings(max_examples=100, deadline=None)
def test_packed_walk_matches_per_tree_loop(tmp_path_factory, n_trees, n_rows,
                                          positive_share, batch, seed):
    rng = np.random.default_rng(seed)
    # Noise labels on a coarse grid: trees disagree (ties at even n_trees),
    # and with few positives some bootstrap samples are pure, so those
    # trees are a single root leaf.
    X = rng.integers(0, 4, size=(n_rows, 3)).astype(np.float64)
    y = (rng.random(n_rows) < positive_share).astype(np.int8)
    y[0], y[1] = 1, 0  # training needs both classes
    m = models.train("random_forest", X, y, seed=seed,
                     config=ForestConfig(n_trees=n_trees))
    # queries hit the grid and every threshold exactly (the <= boundary)
    thresholds = np.concatenate([t["threshold"] for t in unpack(m.params)])
    pool = np.concatenate([np.arange(-1.0, 5.0, 0.5), thresholds])
    q = rng.choice(pool, size=(batch, 3))

    counts = _per_tree_vote_counts(m.params, q)
    scores = models.score_batch(m, q)
    assert scores.shape == (batch,)
    assert np.array_equal(scores, counts / n_trees)
    # tie_break="benign": an exactly split vote stays benign
    assert np.array_equal(models.labels_from_scores(m, scores),
                          2 * counts > n_trees)

    path = tmp_path_factory.mktemp("forest") / "rf.json"
    models.save_model(m, path)
    assert np.array_equal(models.score_batch(models.load_model(path), q), scores)

    # The one node table holds exactly the trees fit grew, and nothing else.
    grown = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        tree_rng = np.random.default_rng(child)
        rows = tree_rng.integers(0, n_rows, size=n_rows)
        grown.append(grow_tree(X[rows], y[rows], TreeConfig(), rng=tree_rng,
                               n_candidates=2))  # round(sqrt(3 features))
    _assert_same_arrays(unpack(m.params), grown)
    _assert_same_arrays(unpack(pack(grown)), grown)
    table = {k: v for k, v in m.params.items() if k not in ("width", "tie_break")}
    _assert_same_arrays([pack(grown)], [table])
    _assert_same_arrays([forest.from_doc(forest.to_doc(m.params))], [m.params])


def _assert_same_arrays(got, want):
    """Dicts pairwise equal key for key, arrays equal in value and dtype."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key, value in w.items():
            if isinstance(value, np.ndarray):
                assert g[key].dtype == value.dtype, key
                assert np.array_equal(g[key], value), key
            else:
                assert g[key] == value, key
