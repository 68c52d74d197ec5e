"""Featurization: fixed widths, de-identification, normalization."""

import numpy as np
import pytest

from maliot.errors import EmptyDatasetError
from maliot.features import (
    UNLABELED,
    FeatureCodec,
    encode_batch,
    fit_codec,
    numeric_feature_names,
)

from conftest import make_record

FULL_WIDTH = 40        # 14 numerics + 4 proto + 8 service + 14 conn_state
DEID_WIDTH = 34        # drops 6 endpoint-derived numerics


@pytest.fixture(scope="module")
def codecs(request):
    corpus = request.getfixturevalue("small_corpus")
    return {fs: fit_codec(corpus, fs) for fs in ("full", "de_identified")}


def test_widths_are_constants(codecs):
    assert codecs["full"].width == FULL_WIDTH
    assert codecs["de_identified"].width == DEID_WIDTH
    assert len(numeric_feature_names("full")) == 14
    assert len(numeric_feature_names("de_identified")) == 8


def test_deid_ignores_endpoints(codecs):
    a = make_record()
    b = make_record(src_ip="172.16.9.9", src_port=1, dst_ip="1.2.3.4",
                    dst_port=9999)
    deid = codecs["de_identified"]
    full = codecs["full"]
    assert np.array_equal(encode_batch([a], deid)[0], encode_batch([b], deid)[0])
    assert not np.array_equal(encode_batch([a], full)[0], encode_batch([b], full)[0])


def test_encode_never_produces_nan(codecs, small_corpus):
    records = small_corpus + [
        make_record(duration=None, orig_bytes=None, resp_bytes=None, label=None)]
    for codec in codecs.values():
        X, y = encode_batch(records, codec)
        assert X.shape == (len(records), codec.width)
        assert np.isfinite(X).all()


def test_missing_numeric_encodes_at_training_mean(codecs):
    # z-scored space: missing -> 0.0, exactly the fitted mean
    r = make_record(duration=None)
    v = encode_batch([r], codecs["de_identified"])[0][0]
    names = numeric_feature_names("de_identified")
    assert v[names.index("duration")] == 0.0


def test_batch_matches_single_row(codecs, small_corpus):
    sample = small_corpus[:257]
    for codec in codecs.values():
        X, y = encode_batch(sample, codec)
        for i in (0, 100, 256):
            single, _ = encode_batch([sample[i]], codec)
            assert np.array_equal(X[i], single[0])


def test_labels_encode_with_unlabeled_sentinel(codecs):
    records = [make_record(label="benign"), make_record(label="anomaly"),
               make_record(label=None)]
    _, y = encode_batch(records, codecs["full"])
    assert y.tolist() == [0, 1, UNLABELED]
    assert encode_batch([records[2]], codecs["full"])[1][0] == UNLABELED


def test_one_hot_unknowns_use_other_bucket(codecs):
    r = make_record(proto="icmp", service="irc", conn_state="RSTRH")
    codec = codecs["full"]
    v = encode_batch([r], codec)[0][0]
    k = len(codec.numeric_means)
    # exactly one 1.0 in each categorical block
    blocks = (
        v[k:k + len(codec.vocab_proto)],
        v[k + len(codec.vocab_proto):k + len(codec.vocab_proto) + len(codec.vocab_service)],
        v[k + len(codec.vocab_proto) + len(codec.vocab_service):],
    )
    for block in blocks:
        assert block.sum() == 1.0
        assert set(np.unique(block)) <= {0.0, 1.0}


def test_fit_is_deterministic(small_corpus):
    a = fit_codec(small_corpus, "full")
    b = fit_codec(list(small_corpus), "full")
    assert a.fingerprint() == b.fingerprint()
    X1, _ = encode_batch(small_corpus[:50], a)
    X2, _ = encode_batch(small_corpus[:50], b)
    assert np.array_equal(X1, X2)


def test_fingerprint_distinguishes_regimes(codecs):
    assert codecs["full"].fingerprint() != codecs["de_identified"].fingerprint()


def test_codec_round_trip(tmp_path, codecs, small_corpus):
    for name, codec in codecs.items():
        path = tmp_path / f"{name}.codec.json"
        codec.save(path)
        back = FeatureCodec.load(path)
        assert back.fingerprint() == codec.fingerprint()
        X1, _ = encode_batch(small_corpus[:20], codec)
        X2, _ = encode_batch(small_corpus[:20], back)
        assert np.array_equal(X1, X2)


def test_constant_column_encodes_to_zero():
    # zero-variance numeric must not blow up and encodes at the mean
    records = [make_record(missed_bytes=7, src_port=i) for i in range(5)]
    codec = fit_codec(records, "de_identified")
    X, _ = encode_batch(records, codec)
    names = numeric_feature_names("de_identified")
    col = names.index("missed_bytes")
    assert np.all(X[:, col] == 0.0)


def test_zscore_matches_population_stats():
    records = [make_record(orig_pkts=p) for p in (2, 4, 6, 8)]
    codec = fit_codec(records, "de_identified")
    names = numeric_feature_names("de_identified")
    col = names.index("orig_pkts")
    X, _ = encode_batch(records, codec)
    vals = np.array([2.0, 4.0, 6.0, 8.0])
    want = (vals - vals.mean()) / vals.std()
    assert np.allclose(X[:, col], want, atol=1e-12)


def test_fit_requires_two_records():
    with pytest.raises(EmptyDatasetError):
        fit_codec([make_record()], "full")


def test_unknown_feature_set_rejected(small_corpus):
    with pytest.raises(ValueError):
        fit_codec(small_corpus, "anonymized")
