"""Micro-batch inference engine: poll, featurize, score, emit, persist, commit.

A batch is one held poll: the broker returns it once the row cap is met
or the interval ends.  The commit is always last, after verdicts are out
and raw rows are flushed to disk, and it rides the next batch's poll (or
``close``), so a crash anywhere before that replays the batch rather than
losing it.  Verdicts carry (partition, offset), taken from the polled Run,
so downstream consumers can deduplicate those replays; a partition commits
its last Run's end.  ``StreamEngine.run`` is the one cycle loop; it also
watches the model file for hot swaps when asked.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import models
from .errors import (
    BadConfigError,
    CodecMismatchError,
    EmptyDatasetError,
    MaliotError,
    ModelLoadError,
    VersionRegressionError,
)
from .decode import decode_batch, read_labeled
from .features import FeatureCodec, encode_columns, fit_raw
from .flows import MALIOT_CSV_HEADER

log = logging.getLogger(__name__)

SINKS = ("jsonl_file", "stdout")


def codec_path_for(model_path: str) -> str:
    """Paired codec convention: rf.json sits next to rf.codec.json."""
    root, _ = os.path.splitext(str(model_path))
    return root + ".codec.json"


@dataclass(frozen=True)
class EngineConfig:
    model_path: str
    topic: str = "flows"
    group: str = "engine"
    feature_set: str = "full"
    codec_path: str = ""  # empty = derive from model_path
    persist_dir: str = ""  # empty = persistence off
    sink: str = "jsonl_file"
    sink_path: str = "verdicts.jsonl"
    batch_interval_ms: float = 1000.0
    max_batch_rows: int = 10000


@dataclass(frozen=True)
class Verdict:
    topic: str
    partition: int
    offset: int
    device_id: str
    ts: float
    label: str
    score: float
    model_kind: str
    model_version: int
    latency_us: float

    def to_json(self) -> str:
        return json.dumps(self.__dict__, separators=(",", ":"))


def _json_floats(a) -> list[str]:
    """json's text of each float (its repr, or NaN/Infinity), formatted
    once per distinct value."""
    a = np.asarray(a, dtype=np.float64)
    fmt = float.__repr__ if np.isfinite(a).all() else json.dumps
    bits = a.view(np.uint64).tolist()  # keys that tell -0.0 from 0.0
    text = {b: fmt(x) for b, x in dict(zip(bits, a.tolist())).items()}
    return [text[b] for b in bits]


def verdict_lines(topic: str, model, partitions, offsets, devices, ts,
                  scores, anomalous, latency_us) -> list[str]:
    """One batch's verdicts as JSON lines, each ending in a newline and
    equal to ``Verdict(...).to_json()`` for the same values, byte for byte."""
    head = '{"topic":%s,"partition":' % json.dumps(topic)
    tail = ',"model_kind":%s,"model_version":%s,"latency_us":' % (
        json.dumps(model.kind), json.dumps(model.version))
    device = {d: json.dumps(d) for d in set(devices)}
    label = ('"benign"', '"anomaly"')
    return [f'{head}{p},"offset":{o},"device_id":{device[d]},"ts":{t},'
            f'"label":{label[a]},"score":{s}{tail}{lat}}}\n'
            for p, o, d, t, a, s, lat in zip(
                partitions, offsets, devices, _json_floats(ts),
                np.asarray(anomalous, dtype=bool).tolist(),
                _json_floats(scores), _json_floats(latency_us))]


@dataclass
class EngineMetrics:
    rows: int = 0
    verdicts: int = 0
    parse_errors: int = 0
    parse_error_reasons: Counter = field(default_factory=Counter)
    batches: int = 0
    # (rows, wall seconds) per non-empty batch; amortized cost comes from here
    batch_stats: list = field(default_factory=list)
    latencies_us: list = field(default_factory=list)

    def summary(self) -> dict:
        lat = self.latencies_us
        return {
            "rows": self.rows,
            "verdicts": self.verdicts,
            "parse_errors": self.parse_errors,
            "parse_error_reasons": dict(self.parse_error_reasons),
            "batches": self.batches,
            "mean_latency_us": float(np.mean(lat)) if lat else 0.0,
            "p95_latency_us": float(np.percentile(lat, 95)) if lat else 0.0,
        }


class LineSink:
    """Writes a batch's verdict lines in one call; a durable one fsyncs."""

    def __init__(self, fh, durable: bool):
        self._fh, self._durable = fh, durable

    def emit(self, lines: list[str]) -> None:
        self._fh.write("".join(lines))

    def flush(self) -> None:
        self._fh.flush()
        if self._durable:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._durable:
            self._fh.close()


def make_sink(config: EngineConfig) -> LineSink:
    if config.sink == "jsonl_file":
        return LineSink(open(config.sink_path, "a", encoding="utf-8"), True)
    if config.sink == "stdout":
        return LineSink(sys.stdout, False)
    raise BadConfigError(f"sink {config.sink!r}, want one of {SINKS}")


def _open_appending(path: str):
    """Open a persisted file to append rows, with the header if it is new.
    A row a crash tore is cut at the last newline, as broker recovery does:
    its batch was never committed, so it is replayed.  A newline alone would
    keep the fragment, and one torn inside ``device_id`` parses as a row."""
    keep = 0
    with open(path, "a+b") as fh:
        if fh.seek(0, os.SEEK_END):
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as tail:
                keep = tail.rfind(b"\n") + 1
            fh.truncate(keep)
    out = open(path, "a", encoding="utf-8")
    if not keep:
        out.write(MALIOT_CSV_HEADER + "\n")
    return out


class _Persister:
    """Appends raw rows as received, one file per (topic, partition, hour).

    A flush fsyncs the files written since the last one and then closes,
    per partition, every file but that of the newest hour it wrote, so a
    long run keeps at most one file open per partition.
    """

    def __init__(self, root: str, topic: str):
        self.root = root
        self.topic = topic
        self._files: dict[tuple[int, int], object] = {}  # (partition, hour)
        self._written: set[tuple[int, int]] = set()
        os.makedirs(root, exist_ok=True)

    def append(self, partitions, values, ts) -> None:
        """Write each parsed value, ended by exactly one newline, to the
        file of its partition and of the UTC hour of its ts."""
        hours = (np.floor(ts).astype(np.int64) // 3600).tolist()
        groups: dict[tuple[int, int], list[str]] = {}
        for key, value in zip(zip(partitions, hours), values):
            groups.setdefault(key, []).append(value.rstrip("\r\n"))
        for (partition, hour), rows in groups.items():
            fh = self._files.get((partition, hour))
            if fh is None:
                stamp = time.strftime("%Y%m%d%H", time.gmtime(hour * 3600))
                path = os.path.join(self.root, f"{self.topic}-{partition}-{stamp}.csv")
                fh = self._files[partition, hour] = _open_appending(path)
            fh.write("\n".join(rows) + "\n")
            self._written.add((partition, hour))

    def flush(self) -> None:
        newest: dict[int, tuple[int, int]] = {}
        for key in self._written:
            fh = self._files[key]
            fh.flush()
            os.fsync(fh.fileno())
            newest[key[0]] = max(newest.get(key[0], key), key)
        self._written.clear()
        for key in [k for k in self._files if newest.get(k[0], k) != k]:
            self._files.pop(key).close()

    def close(self) -> None:
        for fh in self._files.values():
            fh.close()
        self._files.clear()


def _mtime(path: str) -> float | None:
    try:
        return os.path.getmtime(path)
    except OSError:
        return None


def load_model_and_codec(model_path: str, codec_path: str = "") -> tuple:
    """Load the model plus its paired codec and cross-check fingerprints."""
    codec_path = codec_path or codec_path_for(model_path)
    try:
        model = models.load_model(model_path)
    except OSError as exc:
        raise ModelLoadError(f"cannot read model: {exc}") from None
    try:
        codec = FeatureCodec.load(codec_path)
    except OSError as exc:
        raise ModelLoadError(f"cannot read codec: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ModelLoadError(f"bad codec {codec_path}: {exc!r}") from None
    models.check_codec(model, codec)
    return model, codec


class StreamEngine:
    """One consumer-group member running the poll/score/commit loop."""

    def __init__(self, client, config: EngineConfig,
                 model=None, codec=None, on_before_commit=None):
        if config.batch_interval_ms <= 0 or config.max_batch_rows <= 0:
            raise BadConfigError("batch_interval_ms and max_batch_rows must be positive")
        self.client = client
        self.config = config
        if model is None or codec is None:
            model, codec = load_model_and_codec(config.model_path, config.codec_path)
        else:
            models.check_codec(model, codec)
        if codec.feature_set != config.feature_set:
            raise ModelLoadError(
                f"codec feature_set {codec.feature_set!r} != engine "
                f"{config.feature_set!r}"
            )
        self.model = model
        self.codec = codec
        self.metrics = EngineMetrics()
        self.sink = make_sink(config)
        self.persister = (
            _Persister(config.persist_dir, config.topic) if config.persist_dir else None
        )
        self.on_before_commit = on_before_commit
        self._pending: tuple | None = None  # (model, codec) staged for swap
        self._ends: dict[int, int] = {}  # the last batch's commit, sent with the next poll
        client.subscribe(config.group, config.topic)

    # -- hot swap ---------------------------------------------------------

    def hot_swap_model(self, model_path: str, codec_path: str = "") -> dict:
        """Stage a replacement model; it takes effect at the next batch edge.

        The replacement must either share the active codec fingerprint or
        bring its own paired codec for the same feature set, and its
        version must strictly increase.
        """
        new_model, new_codec = load_model_and_codec(model_path, codec_path)
        if new_model.codec_fingerprint != self.codec.fingerprint():
            # different codec: acceptable only if it encodes the same regime
            if new_codec.feature_set != self.config.feature_set:
                raise CodecMismatchError(
                    f"v{new_model.version} codec feature_set "
                    f"{new_codec.feature_set!r}"
                )
        if new_model.version <= self.model.version:
            raise VersionRegressionError(
                f"version {new_model.version} <= active {self.model.version}"
            )
        old = self.model.version
        self._pending = (new_model, new_codec)
        return {
            "old_version": old,
            "new_version": new_model.version,
            "kind": new_model.kind,
        }

    def _apply_pending(self) -> None:
        if self._pending is not None:
            self.model, self.codec = self._pending
            self._pending = None

    # -- the micro-batch loop ---------------------------------------------

    def run_cycle(self) -> int:
        """One micro-batch; returns the number of rows consumed."""
        self._apply_pending()
        model, codec, cfg = self.model, self.codec, self.config
        runs = self.client.poll(cfg.group, cfg.topic, cfg.max_batch_rows,
                                cfg.batch_interval_ms, min_messages=cfg.max_batch_rows,
                                commit=self._ends)
        self._ends = {}
        if not runs:
            return 0
        t_start = time.perf_counter()  # the reply's arrival, for verdict latency

        values = list(chain.from_iterable(run.values for run in runs))
        lengths = [len(run.values) for run in runs]
        partitions = np.repeat([run.partition for run in runs], lengths)
        offsets = np.concatenate([np.arange(run.offset, run.offset + n)
                                  for run, n in zip(runs, lengths)])

        X, rows, ts, devices, errors = decode_batch(values, codec)
        for i, exc in errors:
            log.debug("skipping %s[%d]@%d: %s", cfg.topic,
                      partitions[i], offsets[i], exc)
        self.metrics.parse_error_reasons.update(exc.reason for _, exc in errors)

        latency_us: list[float] = []
        if rows:
            scores = models.score_batch(model, X)
            anomalous = models.labels_from_scores(model, scores)
            kept = partitions[rows].tolist()
            latency_us = [max((time.perf_counter() - t_start) * 1e6, 0.001)] * len(rows)
            self.sink.emit(verdict_lines(
                cfg.topic, model, kept, offsets[rows].tolist(),
                devices, ts, scores, anomalous, latency_us))
            self.sink.flush()
            if self.persister is not None:
                self.persister.append(kept, [values[i] for i in rows], ts)
                self.persister.flush()

        if self.on_before_commit is not None:
            self.on_before_commit(self)

        # a partition's runs arrive in offset order, so its last run ends it
        self._ends = {run.partition: run.offset + len(run.values) for run in runs}

        elapsed = time.perf_counter() - t_start
        m = self.metrics
        m.rows += len(values)
        m.verdicts += len(rows)
        m.parse_errors += len(errors)
        m.batches += 1
        m.batch_stats.append((len(values), elapsed))
        m.latencies_us.extend(latency_us)
        return len(values)

    def run(self, max_cycles: int | None = None, idle_limit: int | None = None,
            should_stop=None, watch_model: bool = False) -> EngineMetrics:
        """Loop run_cycle until told to stop.

        ``idle_limit`` consecutive empty cycles end the run (handy for
        drain-and-exit jobs); ``should_stop`` is checked between cycles.
        With ``watch_model``, a new mtime on ``config.model_path`` before a
        cycle stages a hot swap of that file.
        """
        seen = _mtime(self.config.model_path)
        cycles = 0
        idle = 0
        while should_stop is None or not should_stop():
            if max_cycles is not None and cycles >= max_cycles:
                break
            if watch_model:
                now = _mtime(self.config.model_path)
                if now is not None and now != seen:
                    seen = now  # so a refused file waits for its next change
                    self._swap_watched_model()
            n = self.run_cycle()
            cycles += 1
            idle = idle + 1 if n == 0 else 0
            if idle_limit is not None and idle >= idle_limit:
                break
        return self.metrics

    def _swap_watched_model(self) -> None:
        active = self.model.version
        try:
            ack = self.hot_swap_model(self.config.model_path, self.config.codec_path)
        except MaliotError as exc:
            log.warning("hot swap refused, v%d stays active: %s", active, exc)
        else:
            log.info("hot swap accepted: v%d -> v%d (%s)",
                     active, ack["new_version"], ack["kind"])

    def close(self) -> None:
        try:
            if self._ends:
                self.client.commit(self.config.group, self.config.topic, self._ends)
            self.client.leave(self.config.group, self.config.topic)
        except Exception:
            log.warning("commit or leave on close failed", exc_info=True)
        if self.persister is not None:
            self.persister.close()
        self.sink.close()


def retrain_from_persisted(persist_dir: str, kind: str, feature_set: str,
                           config=None, seed: int = 0, version: int = 1):
    """Fit a fresh codec and model on everything persisted so far.

    Exactly equivalent to concatenating the persisted files (sorted by
    name), dropping unlabeled rows, and calling train() offline: same
    codec, same parameters, same predictions.  Returns (model, codec).
    """
    names = sorted(
        n for n in os.listdir(persist_dir) if n.endswith(".csv")
    ) if os.path.isdir(persist_dir) else []
    cols, _, _ = read_labeled(
        [(os.path.join(persist_dir, n), "maliot_csv") for n in names], feature_set)
    if not len(cols.labels):
        raise EmptyDatasetError(f"no labeled rows under {persist_dir!r}")
    codec = fit_raw(cols.raw, feature_set)
    model = models.train(
        kind, encode_columns(cols, codec), cols.labels, config=config, seed=seed,
        codec_fingerprint=codec.fingerprint(), version=version,
    )
    return model, codec
