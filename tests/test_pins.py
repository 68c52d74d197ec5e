"""Pinned digests of what one seed must always produce.

The determinism contract says one seed gives an identical corpus,
identical model parameters and identical verdict sets; these pins turn it
into a test, so a refactor of the broker, the wire or the engine that
changes any output by a byte fails here.  The digests were recorded with
Python 3.11.7 and numpy 2.4.6; a different numpy may round a trained
parameter differently, so re-record them only after checking that the
change is the platform's, not the code's.
"""

import hashlib
import json
import os

import pytest

from maliot import models, sim
from maliot.broker import Broker, InProcClient
from maliot.cli import main
from maliot.engine import EngineConfig, StreamEngine, codec_path_for, retrain_from_persisted
from maliot.features import encode_batch, fit_codec
from maliot.flows import format_row, write_records
from maliot.models import ForestConfig, LinearConfig, MlpConfig

CORPUS = sim.SimConfig(n_devices=4, duration_s=3.0, seed=7)

CORPUS_SHA = "a801a23b9b9cc7272211500f99692c2b33284fecad026e6022d742fc95b74196"
PARAMS_SHA = {
    "decision_tree": "18705ebe94fdadaac4606921215715402010444e4744d222a8c3db55f96f909b",
    "random_forest": "79b9306ebb98ff608568cf4942cb34a8797890c5dd0a874b9ebf8048d8cec730",
    "gaussian_nb": "d27b43e3f347e1f550cf2ee55ae1f238f54d20d2529b541b1f830ee92ad996f2",
    "logistic_regression": "d99625040b2816fde026922a30157769cabb1ab1744cc919707808c129ad046b",
    "linear_svm": "be2b224febccab98c16f3931fb96a242aae7e6195f50ca0327fc074ef1e787c5",
    "ann": "b3c8f071e2898f318e3762807a78fef3de8b66d12409fedab43c4105ba62f91a",
}
VERDICTS_SHA = {
    "decision_tree": "d32158c0a3351d164567c1e52337364414575900886ae4da69457993c7af465f",
    "random_forest": "09033f265a28dd8c43eafa2c8ef6820b68adb8000448c7bbfd3803063634963d",
}
PERSISTED_SHA = "bac9824751c5366b386458d7cf079a340e25e645a92d85177ba3778421421d9d"
RETRAINED_SHA = "182885f21f92a8f489964549febeae8158625051a4e1ca4b1248464adef299b4"
# `maliot train` on the corpus file: (model checksum, codec file sha256)
TRAINED_FILE_SHA = {
    "decision_tree": ("7738032cf5bd0646d91017bbe3e7c322d5bcfd770e99cafe70e4dec2dc746c96",
                      "425421545975352997539180abf738e8803ad9fdb8feb906ce6e1f435303ac44"),
    "random_forest": ("9f584fbe1230045255949b7f70b9245c7b5dda5c1584d9f1a99fb524ce1f415a",
                      "425421545975352997539180abf738e8803ad9fdb8feb906ce6e1f435303ac44"),
}

CONFIGS = {
    "random_forest": ForestConfig(n_trees=8, max_depth=8),
    "logistic_regression": LinearConfig(n_epoch=2),
    "linear_svm": LinearConfig(n_epoch=2),
    "ann": MlpConfig(n_epoch=1, dense_units=16),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _checksum(model, path) -> str:
    models.save_model(model, path)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["checksum"]


@pytest.fixture(scope="module")
def corpus():
    return sim.generate(CORPUS)


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    """Each kind fitted on the corpus, saved next to the shared codec."""
    codec = fit_codec(corpus, "full")
    X, y = encode_batch(corpus, codec)
    root = tmp_path_factory.mktemp("models")
    codec.save(str(root / "model.codec.json"))
    out = {}
    for kind in models.MODEL_KINDS:
        model = models.train(kind, X, y, config=CONFIGS.get(kind), seed=3,
                             codec_fingerprint=codec.fingerprint(),
                             trained_at=0.0)
        path = root / f"{kind}.json"
        out[kind] = (_checksum(model, path), str(path))
    return codec, out


@pytest.fixture(scope="module")
def drained(corpus, trained, tmp_path_factory):
    """One seeded replay, drained by two groups: the decision tree's engine
    also persists what it reads."""
    codec, paths = trained
    root = tmp_path_factory.mktemp("drain")
    lines = {}
    with Broker(str(root / "broker")) as broker:
        broker.create_topic("flows", 3)
        sim.replay(corpus, InProcClient(broker), "flows")
        for kind in VERDICTS_SHA:
            sink = root / f"{kind}.jsonl"
            config = EngineConfig(
                model_path=paths[kind][1],
                group=kind, sink_path=str(sink), batch_interval_ms=20,
                max_batch_rows=97,
                persist_dir=str(root / "persist") if kind == "decision_tree" else "")
            model = models.load_model(paths[kind][1])
            engine = StreamEngine(InProcClient(broker), config, model=model, codec=codec)
            engine.run(idle_limit=1)
            engine.close()
            with open(sink, encoding="utf-8") as fh:
                lines[kind] = [line[:line.rindex(',"latency_us":')] for line in fh]
    return lines, str(root / "persist")


def test_corpus_rows_are_pinned(corpus):
    text = "\n".join(format_row(r) for r in corpus)
    assert _sha(text.encode("utf-8")) == CORPUS_SHA


@pytest.mark.parametrize("kind", sorted(PARAMS_SHA))
def test_model_params_are_pinned(trained, kind):
    assert trained[1][kind][0] == PARAMS_SHA[kind]


@pytest.mark.parametrize("kind", sorted(VERDICTS_SHA))
def test_drained_verdicts_are_pinned(corpus, drained, kind):
    lines = drained[0][kind]
    assert len(lines) == len(corpus)
    assert _sha("\n".join(sorted(lines)).encode("utf-8")) == VERDICTS_SHA[kind]


def test_persisted_rows_and_retrained_model_are_pinned(drained, tmp_path):
    persist_dir = drained[1]
    digest = hashlib.sha256()
    for name in sorted(os.listdir(persist_dir)):
        with open(os.path.join(persist_dir, name), "rb") as fh:
            digest.update(name.encode("utf-8") + b"\0" + fh.read() + b"\0")
    assert digest.hexdigest() == PERSISTED_SHA
    model, _ = retrain_from_persisted(persist_dir, "random_forest", "full",
                                      config=CONFIGS["random_forest"])
    assert _checksum(model, tmp_path / "retrained.json") == RETRAINED_SHA


@pytest.mark.parametrize("kind", sorted(TRAINED_FILE_SHA))
def test_train_command_outputs_are_pinned(corpus, tmp_path, capsys, kind):
    data, out = tmp_path / "corpus.csv", tmp_path / f"{kind}.json"
    write_records(corpus, data)
    assert main(["train", "--model", kind, "--data", str(data), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        checksum = json.load(fh)["checksum"]
    with open(codec_path_for(str(out)), "rb") as fh:
        assert (checksum, _sha(fh.read())) == TRAINED_FILE_SHA[kind]
