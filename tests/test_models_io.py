"""Versioned model files: round trips, corruption detection, metrics."""

import json

import numpy as np
import pytest

from maliot import models
from maliot.errors import (
    CodecMismatchError,
    CorruptModelError,
    DimensionMismatchError,
    EmptyDatasetError,
    VersionMismatchError,
)
from maliot.models import ForestConfig, MlpConfig, metrics_from_confusion


def _fit_all(rng):
    X = rng.normal(0, 1, size=(80, 5))
    y = (X[:, 0] > 0).astype(np.int8)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    out = {}
    for kind in models.MODEL_KINDS:
        cfg = None
        if kind == "random_forest":
            cfg = ForestConfig(n_trees=5)
        elif kind == "ann":
            cfg = MlpConfig(n_epoch=2, dense_units=8)
        out[kind] = models.train(kind, X, y, config=cfg, seed=4,
                                 codec_fingerprint="cafe" * 16, version=3)
    return out, X


def test_round_trip_scores_bit_equal(tmp_path, rng):
    trained, X = _fit_all(rng)
    q = rng.normal(0, 1, size=(200, 5))
    for kind, model in trained.items():
        path = tmp_path / f"{kind}.json"
        models.save_model(model, path)
        back = models.load_model(path)
        assert back.kind == kind
        assert back.version == 3
        assert back.codec_fingerprint == "cafe" * 16
        assert np.array_equal(models.score_batch(model, q),
                              models.score_batch(back, q))


def test_tree_model_checksums_are_pinned(tmp_path):
    # Recorded before the forest kept its trees as one node table: the
    # saved params of both tree kinds must not change by a byte.
    rng = np.random.default_rng(2023)
    X = np.round(rng.normal(0, 1, size=(150, 4)), 2)
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0.3).astype(np.int8)
    pinned = {
        "random_forest": (ForestConfig(n_trees=6, max_depth=5),
                          "82cfd621e4feb60e68b34032b0d7ffc3"
                          "6768572e6717b2d1ac8d34386167f043"),
        "decision_tree": (None,
                          "39d5cac3823f4f620f5d816b71f47296"
                          "46c6cc11ba935a42da21c40de7fd86d6"),
    }
    for kind, (cfg, checksum) in pinned.items():
        path = tmp_path / f"{kind}.json"
        models.save_model(models.train(kind, X, y, config=cfg, seed=9), path)
        assert json.loads(path.read_text())["checksum"] == checksum, kind


def test_file_is_versioned_json_with_checksum(tmp_path, rng):
    trained, _ = _fit_all(rng)
    path = tmp_path / "m.json"
    models.save_model(trained["gaussian_nb"], path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["kind"] == "gaussian_nb"
    assert len(doc["checksum"]) == 64
    assert doc["version"] == 3
    assert "params" in doc and "trained_at" in doc


def test_truncated_file_rejected(tmp_path, rng):
    trained, _ = _fit_all(rng)
    path = tmp_path / "m.json"
    models.save_model(trained["decision_tree"], path)
    path.write_text(path.read_text()[:-40])
    with pytest.raises(CorruptModelError):
        models.load_model(path)


def test_flipped_param_bit_rejected(tmp_path, rng):
    trained, _ = _fit_all(rng)
    path = tmp_path / "m.json"
    models.save_model(trained["logistic_regression"], path)
    doc = json.loads(path.read_text())
    doc["params"]["bias"] = doc["params"]["bias"] + 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModelError):
        models.load_model(path)


def test_future_format_version_rejected(tmp_path, rng):
    trained, _ = _fit_all(rng)
    path = tmp_path / "m.json"
    models.save_model(trained["linear_svm"], path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatchError):
        models.load_model(path)


def test_unknown_kind_rejected(tmp_path, rng):
    trained, _ = _fit_all(rng)
    path = tmp_path / "m.json"
    models.save_model(trained["ann"], path)
    doc = json.loads(path.read_text())
    doc["kind"] = "transformer"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModelError):
        models.load_model(path)


def test_not_json_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("PK\x03\x04 definitely not json")
    with pytest.raises(CorruptModelError):
        models.load_model(path)


def test_checksum_covers_params_only(tmp_path, rng):
    # metadata edits (version stamp) without touching params break the doc
    # checksum contract only if load re-verifies params; it must not care
    # about whitespace
    trained, _ = _fit_all(rng)
    path = tmp_path / "m.json"
    models.save_model(trained["decision_tree"], path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc, indent=3))
    back = models.load_model(path)
    assert back.kind == "decision_tree"


def test_codec_binding(tmp_path, rng):
    trained, _ = _fit_all(rng)
    m = trained["decision_tree"]
    models.check_codec(m, "cafe" * 16)  # matching fingerprint passes
    with pytest.raises(CodecMismatchError):
        models.check_codec(m, "beef" * 16)


def test_score_rejects_wrong_width(rng):
    trained, _ = _fit_all(rng)
    with pytest.raises(DimensionMismatchError):
        models.score_batch(trained["gaussian_nb"], rng.normal(0, 1, (3, 7)))


# -- metrics ------------------------------------------------------------------

def test_metrics_identities():
    m = metrics_from_confusion(tp=1, fp=1, tn=0, fn=0)
    assert m.accuracy == 0.5
    assert m.precision == 0.5
    assert m.recall == 1.0
    assert m.f1 == pytest.approx(2 / 3)


def test_metrics_zero_denominators_are_zero():
    m = metrics_from_confusion(tp=0, fp=0, tn=5, fn=0)
    assert m.accuracy == 1.0
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.f1 == 0.0


def test_metrics_empty_rejected():
    with pytest.raises(EmptyDatasetError):
        metrics_from_confusion(0, 0, 0, 0)


def test_evaluate_ignores_unlabeled(rng):
    X = rng.normal(0, 1, size=(40, 5))
    y = (X[:, 0] > 0).astype(np.int8)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    m = models.train("decision_tree", X, y)
    y2 = y.copy().astype(np.int8)
    y2[:10] = -1  # unlabeled live rows do not count
    full = models.evaluate(m, X[10:], y[10:])
    masked = models.evaluate(m, X, y2)
    assert masked.confusion == full.confusion


def test_evaluate_all_unlabeled_rejected(rng):
    X = rng.normal(0, 1, size=(10, 5))
    y = (X[:, 0] > 0).astype(np.int8)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    m = models.train("decision_tree", X, y)
    with pytest.raises(EmptyDatasetError):
        models.evaluate(m, X, np.full(10, -1, dtype=np.int8))
