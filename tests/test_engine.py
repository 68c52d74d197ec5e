"""Streaming engine: conservation, at-least-once, hot swap, retrain."""

import dataclasses
import json
import logging
import os
import threading
import time

import numpy as np
import pytest

from maliot import models, sim
from maliot.broker import Broker, BrokerConfig, InProcClient
from maliot.engine import (
    EngineConfig,
    StreamEngine,
    Verdict,
    codec_path_for,
    retrain_from_persisted,
)
from maliot.errors import (
    CodecMismatchError,
    ModelLoadError,
    VersionRegressionError,
)
from maliot.features import encode_batch, fit_codec
from maliot.flows import MALIOT_CSV_HEADER, format_row, read_dataset

from conftest import make_record


def _trained_model(records, tmp_path, version=1, kind="decision_tree",
                   name="model.json", feature_set="full"):
    codec = fit_codec(records, feature_set)
    X, y = encode_batch(records, codec)
    model = models.train(kind, X, y, seed=0,
                         codec_fingerprint=codec.fingerprint(), version=version)
    path = str(tmp_path / name)
    models.save_model(model, path)
    codec.save(codec_path_for(path))
    return path


@pytest.fixture
def stack(tmp_path, small_corpus):
    """Broker with a produced corpus plus a trained model on disk."""
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 3)
    for r in small_corpus:
        broker.produce("flows", r.device_id, format_row(r))
    model_path = _trained_model(small_corpus, tmp_path)
    yield broker, model_path
    broker.close()


def _engine(broker, model_path, tmp_path, **overrides):
    kw = dict(
        model_path=model_path,
        sink="jsonl_file",
        sink_path=str(tmp_path / "verdicts.jsonl"),
        batch_interval_ms=50.0,
        max_batch_rows=100000,
    )
    kw.update(overrides)
    config = EngineConfig(**kw)
    return StreamEngine(InProcClient(broker), config)


def _read_verdicts(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_every_produced_row_gets_a_verdict(stack, tmp_path, small_corpus):
    broker, model_path = stack
    engine = _engine(broker, model_path, tmp_path)
    engine.run(idle_limit=2)
    engine.close()
    verdicts = _read_verdicts(tmp_path / "verdicts.jsonl")
    assert len(verdicts) == len(small_corpus)
    assert engine.metrics.verdicts == len(small_corpus)
    assert engine.metrics.parse_errors == 0
    # verdicts carry provenance and positive latency
    v = verdicts[0]
    assert v["model_kind"] == "decision_tree"
    assert v["model_version"] == 1
    assert v["label"] in ("benign", "anomaly")
    assert v["latency_us"] > 0
    keys = {(v["partition"], v["offset"]) for v in verdicts}
    assert len(keys) == len(verdicts)          # no duplicates in a clean run
    # offsets fully committed
    done = broker.committed("engine", "flows")
    assert sum(done.values()) == len(small_corpus)


def test_stdout_sink_writes_one_verdict_json_per_line(
        stack, tmp_path, small_corpus, capsys):
    broker, model_path = stack
    engine = _engine(broker, model_path, tmp_path, sink="stdout")
    engine.run(idle_limit=2)
    engine.close()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == engine.metrics.verdicts == len(small_corpus)
    verdicts = [Verdict(**json.loads(line)) for line in lines]
    assert all(v.to_json() == line for v, line in zip(verdicts, lines))
    keys = {(v.partition, v.offset) for v in verdicts}
    assert len(keys) == len(small_corpus)


def test_malformed_rows_skipped_and_committed(tmp_path, small_corpus):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 2)
    good = small_corpus[:40]
    for i, r in enumerate(good):
        broker.produce("flows", r.device_id, format_row(r))
        if i % 4 == 0:
            broker.produce("flows", r.device_id, "not,a,flow")
    model_path = _trained_model(small_corpus, tmp_path)
    engine = _engine(broker, model_path, tmp_path)
    engine.run(idle_limit=2)
    engine.close()
    assert engine.metrics.verdicts == 40
    assert engine.metrics.parse_errors == 10
    assert engine.metrics.summary()["parse_error_reasons"] == {"malformed_row": 10}
    # bad rows advance offsets too: nothing left pending
    assert sum(broker.committed("engine", "flows").values()) == 50
    broker.close()


def test_poison_timestamp_counts_as_parse_error_and_commits(
        tmp_path, small_corpus):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 1)
    good = small_corpus[:20]
    poison = format_row(good[0]).replace(repr(float(good[0].ts)), "1e300", 1)
    for r in good[:10]:
        broker.produce("flows", r.device_id, format_row(r))
    broker.produce("flows", good[0].device_id, poison)
    for r in good[10:]:
        broker.produce("flows", r.device_id, format_row(r))
    model_path = _trained_model(small_corpus, tmp_path)
    persist = str(tmp_path / "persist")
    engine = _engine(broker, model_path, tmp_path, persist_dir=persist)
    engine.run(idle_limit=2)
    engine.close()
    assert engine.metrics.verdicts == 20
    assert engine.metrics.parse_errors == 1
    assert engine.metrics.parse_error_reasons == {"bad_numeric": 1}
    assert broker.committed("engine", "flows") == {0: 21}
    kept = [r for f in os.listdir(persist)
            for r in read_dataset(os.path.join(persist, f), "maliot_csv")[0]]
    assert len(kept) == 20
    broker.close()


def test_crash_before_commit_redelivers(stack, tmp_path, small_corpus):
    broker, model_path = stack

    class Boom(RuntimeError):
        pass

    def crash_once(engine):
        if not hasattr(crash_once, "fired"):
            crash_once.fired = True
            raise Boom()

    config = EngineConfig(
        model_path=model_path, sink="jsonl_file",
        sink_path=str(tmp_path / "v.jsonl"),
        batch_interval_ms=50.0, max_batch_rows=100000)
    engine = StreamEngine(InProcClient(broker), config,
                          on_before_commit=crash_once)
    with pytest.raises(Boom):
        while True:
            engine.run_cycle()
    engine.close()

    # the replacement consumer re-reads everything the crash left uncommitted
    engine2 = StreamEngine(InProcClient(broker), config)
    engine2.run(idle_limit=2)
    engine2.close()

    verdicts = _read_verdicts(tmp_path / "v.jsonl")
    assert len(verdicts) > len(small_corpus)   # duplicates prove redelivery
    dedup = {(v["partition"], v["offset"]) for v in verdicts}
    assert len(dedup) == len(small_corpus)     # and dedup recovers exactly all


def test_a_batch_whose_runs_span_partitions_commits_each_partitions_end(
        tmp_path, small_corpus):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 3)
    for i, r in enumerate(small_corpus[:12]):
        broker.produce("flows", f"k{i}", format_row(r))
    ends = {p: broker.partition_length("flows", p) for p in range(3)}
    assert all(ends.values())  # every partition holds rows
    config = EngineConfig(model_path=_trained_model(small_corpus, tmp_path),
                          sink_path=str(tmp_path / "v.jsonl"),
                          batch_interval_ms=20.0)
    engine = StreamEngine(InProcClient(broker), config)
    assert engine.run_cycle() == 12  # one batch, one run per partition
    assert broker.committed("engine", "flows") == {}  # it rides the next poll
    assert engine.run_cycle() == 0
    assert broker.committed("engine", "flows") == ends
    engine.close()
    verdicts = _read_verdicts(tmp_path / "v.jsonl")
    for p, end in ends.items():
        assert [v["offset"] for v in verdicts if v["partition"] == p] == list(range(end))
    broker.close()


def test_a_backlogs_last_partial_batch_is_not_held(tmp_path, small_corpus):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 3)
    for r in small_corpus[:25]:
        broker.produce("flows", r.device_id, format_row(r))
    config = EngineConfig(model_path=_trained_model(small_corpus, tmp_path),
                          sink_path=str(tmp_path / "v.jsonl"),
                          batch_interval_ms=2000.0, max_batch_rows=10)
    engine = StreamEngine(InProcClient(broker), config)
    assert [engine.run_cycle(), engine.run_cycle()] == [10, 10]
    t0 = time.perf_counter()
    assert engine.run_cycle() == 5  # the reply before it left 5 rows behind
    assert time.perf_counter() - t0 < 0.5
    t0 = time.perf_counter()
    assert engine.run_cycle() == 0  # drained: the next poll holds again
    assert time.perf_counter() - t0 >= 1.9
    engine.close()
    broker.close()


class CountingClient(InProcClient):
    """Records each poll's piggybacked commit, the rows it returned, and
    every separate commit call."""

    def __init__(self, broker):
        super().__init__(broker)
        self.polls, self.commits = [], []

    def poll(self, group, topic, *args, commit=None, **kwargs):
        runs = super().poll(group, topic, *args, commit=commit, **kwargs)
        ends = {run.partition: run.offset + len(run.values) for run in runs}
        self.polls.append((dict(commit or {}), ends))
        return runs

    def commit(self, group, topic, offsets):
        self.commits.append(dict(offsets))
        super().commit(group, topic, offsets)


def test_a_steady_stream_costs_one_poll_per_batch_carrying_the_commit(
        tmp_path, small_corpus):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 3)
    stream = small_corpus[:120]

    def produce():
        for r in stream:
            broker.produce("flows", r.device_id, format_row(r))
            time.sleep(0.002)

    client = CountingClient(broker)
    engine = StreamEngine(client, EngineConfig(
        model_path=_trained_model(small_corpus, tmp_path),
        sink_path=str(tmp_path / "v.jsonl"), batch_interval_ms=10.0))
    producer = threading.Thread(target=produce)
    producer.start()
    cycles = 0
    while engine.metrics.rows < len(stream):
        engine.run_cycle()
        cycles += 1
    producer.join()
    assert engine.metrics.batches > 5  # the stream spans many batches
    assert len(client.polls) == cycles  # one request per batch
    assert client.commits == []  # and no commit request of its own
    # each poll carries the commit of the batch before it
    assert client.polls[0][0] == {}
    for (_, before), (commit, _) in zip(client.polls, client.polls[1:]):
        assert commit == before
    last_ends = client.polls[-1][1]
    engine.close()
    assert client.commits == [last_ends]  # close sends the last one
    assert broker.committed("engine", "flows") == {
        p: broker.partition_length("flows", p) for p in range(3)
        if broker.partition_length("flows", p)}
    broker.close()


def test_a_crash_between_a_batch_and_the_next_poll_redelivers_it(
        stack, tmp_path, small_corpus):
    broker, model_path = stack
    engine = _engine(broker, model_path, tmp_path, max_batch_rows=50)
    assert engine.run_cycle() == 50
    first = {(v["partition"], v["offset"])
             for v in _read_verdicts(tmp_path / "verdicts.jsonl")}
    engine.sink.close()  # the engine dies here: no next poll, no close()
    assert broker.committed("engine", "flows") == {}

    engine2 = _engine(broker, model_path, tmp_path,
                      sink_path=str(tmp_path / "after.jsonl"))
    engine2.run(idle_limit=2)
    engine2.close()
    again = {(v["partition"], v["offset"])
             for v in _read_verdicts(tmp_path / "after.jsonl")}
    assert len(first) == 50
    assert first <= again  # the batch is redelivered
    assert len(again) == len(small_corpus)


def test_hot_swap_applies_at_batch_boundary(tmp_path, small_corpus):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 1)
    half = len(small_corpus) // 2
    for r in small_corpus[:half]:
        broker.produce("flows", r.device_id, format_row(r))
    v1 = _trained_model(small_corpus, tmp_path, version=1, name="m1.json")
    v2 = _trained_model(small_corpus, tmp_path, version=2, name="m2.json",
                        kind="gaussian_nb")

    engine = _engine(broker, v1, tmp_path)
    engine.run(idle_limit=1)
    ack = engine.hot_swap_model(v2, codec_path_for(v2))
    assert ack == {"old_version": 1, "new_version": 2, "kind": "gaussian_nb"}
    assert engine.model.version == 1           # staged, not yet active
    for r in small_corpus[half:]:
        broker.produce("flows", r.device_id, format_row(r))
    engine.run(idle_limit=1)
    engine.close()

    verdicts = _read_verdicts(tmp_path / "verdicts.jsonl")
    assert len(verdicts) == len(small_corpus)
    versions = [v["model_version"] for v in verdicts]
    flip = versions.index(2)
    assert all(v == 1 for v in versions[:flip])
    assert all(v == 2 for v in versions[flip:])
    broker.close()


def test_hot_swap_rejects_version_regression(stack, tmp_path, small_corpus):
    broker, model_path = stack
    engine = _engine(broker, model_path, tmp_path)
    same_version = _trained_model(small_corpus, tmp_path, version=1,
                                  name="again.json")
    with pytest.raises(VersionRegressionError):
        engine.hot_swap_model(same_version, codec_path_for(same_version))
    engine.close()


def test_hot_swap_rejects_wrong_feature_regime(stack, tmp_path, small_corpus):
    broker, model_path = stack
    engine = _engine(broker, model_path, tmp_path)
    deid = _trained_model(small_corpus, tmp_path, version=2, name="deid.json",
                          feature_set="de_identified")
    with pytest.raises(CodecMismatchError):
        engine.hot_swap_model(deid, codec_path_for(deid))
    engine.close()


def test_run_watches_the_model_file(tmp_path, small_corpus, caplog):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 1)
    third = len(small_corpus) // 3
    parts = [small_corpus[:third], small_corpus[third:2 * third],
             small_corpus[2 * third:]]
    model_path = _trained_model(small_corpus, tmp_path)
    engine = _engine(broker, model_path, tmp_path)
    swaps = []
    hot_swap = engine.hot_swap_model

    def counted_swap(*args):
        swaps.append(args)
        return hot_swap(*args)

    engine.hot_swap_model = counted_swap

    def produce(rows):
        for r in rows:
            broker.produce("flows", r.device_id, format_row(r))

    def rewrite_and_produce(step, version, kind, rows):
        _trained_model(small_corpus, tmp_path, version=version, kind=kind)
        os.utime(model_path, (step, step))  # a new mtime whatever the clock
        produce(rows)

    steps = iter(range(100))

    def should_stop():  # called before each cycle
        step = next(steps)
        if step == 2:
            rewrite_and_produce(step, 2, "gaussian_nb", parts[1])
        if step == 5:  # a lower version: refused, and never retried
            rewrite_and_produce(step, 1, "decision_tree", parts[2])
        return step == 10

    produce(parts[0])
    caplog.set_level(logging.INFO, logger="maliot.engine")
    engine.run(should_stop=should_stop, watch_model=True)
    engine.close()
    broker.close()

    verdicts = _read_verdicts(tmp_path / "verdicts.jsonl")
    assert [v["model_version"] for v in verdicts] == \
        [1] * len(parts[0]) + [2] * (len(parts[1]) + len(parts[2]))
    assert {v["model_kind"] for v in verdicts[len(parts[0]):]} == {"gaussian_nb"}
    assert engine.model.version == 2
    assert len(swaps) == 2
    logged = [(r.levelno, r.getMessage()) for r in caplog.records
              if r.getMessage().startswith("hot swap")]
    assert logged == [
        (logging.INFO, "hot swap accepted: v1 -> v2 (gaussian_nb)"),
        (logging.WARNING,
         "hot swap refused, v2 stays active: version 1 <= active 2"),
    ]


def test_watched_swap_to_a_corrupt_codec_is_refused(tmp_path, small_corpus, caplog):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 1)
    half = len(small_corpus) // 2
    model_path = _trained_model(small_corpus, tmp_path)
    engine = _engine(broker, model_path, tmp_path)

    def produce(rows):
        for r in rows:
            broker.produce("flows", r.device_id, format_row(r))

    steps = iter(range(100))

    def should_stop():  # called before each cycle
        step = next(steps)
        if step == 2:  # a v2 model whose codec file is cut short
            _trained_model(small_corpus, tmp_path, version=2, kind="gaussian_nb")
            with open(codec_path_for(model_path), "w") as fh:
                fh.write("{")
            os.utime(model_path, (step, step))
            produce(small_corpus[half:])
        return step == 6

    produce(small_corpus[:half])
    caplog.set_level(logging.INFO, logger="maliot.engine")
    engine.run(should_stop=should_stop, watch_model=True)
    engine.close()
    broker.close()

    verdicts = _read_verdicts(tmp_path / "verdicts.jsonl")
    assert len(verdicts) == len(small_corpus)
    assert {(v["model_version"], v["model_kind"]) for v in verdicts} == \
        {(1, "decision_tree")}
    logged = [(r.levelno, r.getMessage()) for r in caplog.records
              if r.getMessage().startswith("hot swap")]
    assert len(logged) == 1
    level, message = logged[0]
    assert level == logging.WARNING
    assert message.startswith("hot swap refused, v1 stays active: bad codec")


def test_engine_rejects_mismatched_codec_on_boot(tmp_path, small_corpus):
    model_path = _trained_model(small_corpus, tmp_path)
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 1)
    with pytest.raises(ModelLoadError):
        _engine(broker, model_path, tmp_path, feature_set="de_identified")
    broker.close()


def test_persisted_rows_survive_and_retrain_matches_offline(
        stack, tmp_path, small_corpus):
    broker, model_path = stack
    persist = str(tmp_path / "persist")
    engine = _engine(broker, model_path, tmp_path, persist_dir=persist)
    engine.run(idle_limit=2)
    engine.close()

    files = sorted(os.listdir(persist))
    assert files and all(f.endswith(".csv") for f in files)
    # hour buckets derive from record timestamps: topic-partition-YYYYMMDDHH
    assert all(f.startswith("flows-") for f in files)

    kept = []
    for f in files:
        rows, stats = read_dataset(os.path.join(persist, f), "maliot_csv")
        assert stats.rows_rejected == 0
        kept.extend(rows)
    assert len(kept) == len(small_corpus)

    model, codec = retrain_from_persisted(persist, "decision_tree", "full",
                                          seed=0, version=2)
    # bit-equivalent to training offline on the same rows in file order
    offline_codec = fit_codec(kept, "full")
    X, y = encode_batch(kept, offline_codec)
    offline = models.train("decision_tree", X, y, seed=0,
                           codec_fingerprint=offline_codec.fingerprint(),
                           version=2)
    assert codec.fingerprint() == offline_codec.fingerprint()
    q, _ = encode_batch(small_corpus, codec)
    assert np.array_equal(models.score_batch(model, q),
                          models.score_batch(offline, q))
    assert model.version == 2


def test_rows_are_persisted_as_received(tmp_path, small_corpus):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 2)
    values = [format_row(r) for r in small_corpus[:60]]
    values[3] = values[3].replace(",", " , ", 4)         # padding
    values[4] = values[4] + "\r\n"                     # one terminator
    values[5] = values[5].replace(",SF,", ", SF ,", 1)
    values[6] = values[6].replace(",0,", ",0.0,", 1)
    values[7] = values[7] + "\nGARBAGE,x"               # two lines: refused
    for v in values:
        broker.produce("flows", "k", v)
    model_path = _trained_model(small_corpus, tmp_path)
    persist = tmp_path / "persist"
    engine = _engine(broker, model_path, tmp_path, persist_dir=str(persist))
    engine.run(idle_limit=2)
    engine.close()
    broker.close()
    assert engine.metrics.parse_error_reasons == {"malformed_row": 1}
    [name] = os.listdir(persist)
    with open(persist / name, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    accepted = [v.rstrip("\r\n") for i, v in enumerate(values) if i != 7]
    assert lines == [MALIOT_CSV_HEADER] + accepted + [""]
    kept, _ = read_dataset(persist / name, "maliot_csv")
    assert kept == [r for i, r in enumerate(small_corpus[:60]) if i != 7]


@pytest.mark.parametrize("torn", [30, -2], ids=["mid_row", "inside_device_id"])
def test_a_torn_last_persisted_row_is_cut_before_the_next_append(
        tmp_path, small_corpus, torn):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 1)
    values = [format_row(r) for r in small_corpus[:7]]
    model_path = _trained_model(small_corpus, tmp_path)
    persist = tmp_path / "persist"
    for first, batch in ((True, values[:4]), (False, values[4:])):
        for v in batch:
            broker.produce("flows", "k", v)
        engine = _engine(broker, model_path, tmp_path, persist_dir=str(persist))
        engine.run(idle_limit=2)
        engine.close()
        [name] = os.listdir(persist)
        if first:
            # a crash tore row 4 as it was written; its batch never committed
            with open(persist / name, "a", encoding="utf-8") as fh:
                fh.write(values[4][:torn])
    broker.close()
    kept, stats = read_dataset(persist / name, "maliot_csv")
    assert stats.rows_rejected == 0
    assert kept == small_corpus[:7]


def _open_path(fd):
    try:
        return os.readlink(f"/proc/self/fd/{fd}")
    except OSError:  # the fd listdir itself used
        return ""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_persister_keeps_one_file_per_partition_open(tmp_path, small_corpus,
                                                     monkeypatch):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 2)
    model_path = _trained_model(small_corpus, tmp_path)
    persist = str(tmp_path / "persist")
    engine = _engine(broker, model_path, tmp_path, persist_dir=persist)

    def in_persist(paths):
        return sorted(os.path.basename(p) for p in paths if p.startswith(persist))

    synced = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(_open_path(fd)), fsync(fd))[1])
    for hour in range(30):
        ts = 1.6e9 + 3600 * hour
        for j, key in enumerate(("a", "b", "c", "d")):  # both partitions
            r = dataclasses.replace(small_corpus[hour * 4 + j], ts=ts + j)
            broker.produce("flows", key, format_row(r))
        synced.clear()
        assert engine.run_cycle() == 4
        stamp = time.strftime("%Y%m%d%H", time.gmtime(ts))
        assert in_persist(synced) == [f"flows-0-{stamp}.csv", f"flows-1-{stamp}.csv"]
        assert len(in_persist(map(_open_path, os.listdir("/proc/self/fd")))) <= 2
    engine.close()
    broker.close()
    assert len(os.listdir(persist)) == 60


def test_unlabeled_rows_score_but_are_dropped_from_retraining(
        tmp_path, small_corpus):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("flows", 1)
    live = [make_record(label=None, ts=1.6e9 + i) for i in range(25)]
    for r in small_corpus[:25] + live:
        broker.produce("flows", r.device_id, format_row(r))
    model_path = _trained_model(small_corpus, tmp_path)
    persist = str(tmp_path / "persist")
    engine = _engine(broker, model_path, tmp_path, persist_dir=persist)
    engine.run(idle_limit=2)
    engine.close()
    assert engine.metrics.verdicts == 50       # unlabeled rows still scored

    model, codec = retrain_from_persisted(persist, "gaussian_nb", "full")
    # only the 25 labeled records trained this model: 17 benign, 8 anomaly
    assert codec.fingerprint() == fit_codec(small_corpus[:25], "full").fingerprint()
    assert model.params["priors"].tolist() == [17 / 25, 8 / 25]
    broker.close()


def test_batching_amortizes_per_row_cost(stack, tmp_path, small_corpus):
    broker, model_path = stack
    engine = _engine(broker, model_path, tmp_path, max_batch_rows=100000)
    engine.run(idle_limit=2)
    engine.close()
    stats = engine.metrics.batch_stats
    big = [(n, t) for n, t in stats if n >= 100]
    assert big, "expected at least one large batch"
    n, t = max(big)
    per_row_big = t / n

    # same corpus, one-row batches
    broker2 = Broker(BrokerConfig(data_dir=str(tmp_path / "b2")))
    broker2.create_topic("flows", 3)
    for r in small_corpus[:50]:
        broker2.produce("flows", r.device_id, format_row(r))
    engine2 = _engine(broker2, model_path, tmp_path, max_batch_rows=1,
                      batch_interval_ms=5.0)
    engine2.run(idle_limit=2)
    engine2.close()
    ones = [t for n, t in engine2.metrics.batch_stats if n == 1]
    per_row_one = sum(ones) / len(ones)
    assert per_row_big < per_row_one
    broker2.close()


def test_metrics_summary_shape(stack, tmp_path):
    broker, model_path = stack
    engine = _engine(broker, model_path, tmp_path)
    engine.run(idle_limit=2)
    engine.close()
    s = engine.metrics.summary()
    for key in ("rows", "verdicts", "parse_errors", "batches",
                "mean_latency_us", "p95_latency_us"):
        assert key in s
    assert s["mean_latency_us"] > 0
    assert s["p95_latency_us"] >= 0
