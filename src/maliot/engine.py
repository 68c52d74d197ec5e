"""Micro-batch inference engine: poll, featurize, score, emit, persist, commit.

The commit is always last, after verdicts are out and raw rows are flushed
to disk, so a crash anywhere in the cycle replays the batch rather than
losing it.  Verdicts carry (partition, offset) precisely so downstream
consumers can deduplicate those replays.  ``StreamEngine.run`` is the one
cycle loop; it also watches the model file for hot swaps when asked.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import (
    BadConfigError,
    CodecMismatchError,
    EmptyDatasetError,
    MaliotError,
    ModelLoadError,
    ParseError,
    VersionRegressionError,
)
from .features import FeatureCodec, encode_batch, fit_codec
from .flows import MALIOT_CSV_HEADER, format_row, parse_record, read_dataset

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


@dataclass
class EngineMetrics:
    rows: int = 0
    verdicts: int = 0
    parse_errors: int = 0
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
            "batches": self.batches,
            "mean_latency_us": float(np.mean(lat)) if lat else 0.0,
            "p95_latency_us": float(np.percentile(lat, 95)) if lat else 0.0,
        }


class JsonlFileSink:
    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")

    def emit(self, verdicts: list[Verdict]) -> None:
        for v in verdicts:
            self._fh.write(v.to_json() + "\n")

    def flush(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


class StdoutSink:
    def emit(self, verdicts: list[Verdict]) -> None:
        for v in verdicts:
            sys.stdout.write(v.to_json() + "\n")

    def flush(self) -> None:
        sys.stdout.flush()

    def close(self) -> None:
        pass


def make_sink(config: EngineConfig):
    if config.sink == "jsonl_file":
        return JsonlFileSink(config.sink_path)
    if config.sink == "stdout":
        return StdoutSink()
    raise BadConfigError(f"sink {config.sink!r}, want one of {SINKS}")


class _Persister:
    """Appends raw rows as maliot_csv, one file per (topic, partition, hour)."""

    def __init__(self, root: str, topic: str):
        self.root = root
        self.topic = topic
        self._files: dict[str, object] = {}
        os.makedirs(root, exist_ok=True)

    def append(self, partition: int, record) -> None:
        hour = time.strftime("%Y%m%d%H", time.gmtime(record.ts))
        name = f"{self.topic}-{partition}-{hour}.csv"
        fh = self._files.get(name)
        if fh is None:
            path = os.path.join(self.root, name)
            fresh = not os.path.exists(path) or os.path.getsize(path) == 0
            fh = open(path, "a", encoding="utf-8")
            if fresh:
                fh.write(MALIOT_CSV_HEADER + "\n")
            self._files[name] = fh
        fh.write(format_row(record) + "\n")

    def flush(self) -> None:
        for fh in self._files.values():
            fh.flush()
            os.fsync(fh.fileno())

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

    def _collect(self) -> list[tuple]:
        """Poll until the interval closes or the row cap fills.

        Returns (message, arrival perf_counter) pairs; arrival feeds the
        per-verdict latency figure.
        """
        cfg = self.config
        out: list[tuple] = []
        deadline = time.perf_counter() + cfg.batch_interval_ms / 1000.0
        while len(out) < cfg.max_batch_rows:
            remaining_ms = (deadline - time.perf_counter()) * 1000.0
            if remaining_ms <= 0:
                break
            msgs = self.client.poll(
                cfg.group, cfg.topic, cfg.max_batch_rows - len(out), remaining_ms
            )
            if not msgs:
                break
            arrival = time.perf_counter()
            out.extend((m, arrival) for m in msgs)
        return out

    def run_cycle(self) -> int:
        """One micro-batch; returns the number of rows consumed."""
        self._apply_pending()
        model, codec = self.model, self.codec
        batch = self._collect()
        if not batch:
            return 0
        t_start = time.perf_counter()

        parsed: list[tuple] = []  # (message, arrival, record)
        bad = 0
        for msg, arrival in batch:
            try:
                record = parse_record(msg.value, "maliot_csv")
            except ParseError as exc:
                bad += 1
                log.debug("skipping %s[%d]@%d: %s",
                          msg.topic, msg.partition, msg.offset, exc)
                continue
            parsed.append((msg, arrival, record))

        verdicts: list[Verdict] = []
        if parsed:
            X, _ = encode_batch([rec for _, _, rec in parsed], codec)
            scores = models.score_batch(model, X)
            anomalous = models.labels_from_scores(model, scores)
            emit_t = time.perf_counter()
            for (msg, arrival, rec), s, a in zip(parsed, scores, anomalous):
                verdicts.append(Verdict(
                    topic=msg.topic, partition=msg.partition, offset=msg.offset,
                    device_id=rec.device_id, ts=rec.ts,
                    label="anomaly" if a else "benign", score=float(s),
                    model_kind=model.kind, model_version=model.version,
                    latency_us=max((emit_t - arrival) * 1e6, 0.001),
                ))
            self.sink.emit(verdicts)
            self.sink.flush()
            if self.persister is not None:
                for (msg, _, rec) in parsed:
                    self.persister.append(msg.partition, rec)
                self.persister.flush()

        if self.on_before_commit is not None:
            self.on_before_commit(self)

        offsets: dict[int, int] = {}
        for msg, _ in batch:
            offsets[msg.partition] = max(offsets.get(msg.partition, -1), msg.offset + 1)
        self.client.commit(self.config.group, self.config.topic, offsets)

        elapsed = time.perf_counter() - t_start
        m = self.metrics
        m.rows += len(batch)
        m.verdicts += len(verdicts)
        m.parse_errors += bad
        m.batches += 1
        m.batch_stats.append((len(batch), elapsed))
        m.latencies_us.extend(v.latency_us for v in verdicts)
        return len(batch)

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
            self.client.leave(self.config.group, self.config.topic)
        except Exception:
            log.debug("leave on close failed", exc_info=True)
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
    records = []
    for name in names:
        rows, _ = read_dataset(os.path.join(persist_dir, name), "maliot_csv")
        records.extend(rows)
    records = [r for r in records if r.label is not None]
    if not records:
        raise EmptyDatasetError(f"no labeled rows under {persist_dir!r}")
    codec = fit_codec(records, feature_set)
    X, y = encode_batch(records, codec)
    model = models.train(
        kind, X, y, config=config, seed=seed,
        codec_fingerprint=codec.fingerprint(), version=version,
    )
    return model, codec
