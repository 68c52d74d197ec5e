"""Correctness oracle and the measurements read back from disk after a pass.

A verdict is correct when its label and score equal an offline reference:
``labels_from_scores(score_batch(encode_batch(rows)))`` with the same model
and codec, over the very rows the generator produced.  Produced offsets map
back to rows through the generator's produce replies.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from maliot import models
from maliot.broker import Broker
from maliot.engine import load_model_and_codec
from maliot.features import encode_batch

import corpus


@dataclass
class Reference:
    labels: list[str]
    scores: list[float]
    devices: list[str]


def reference(records, model_path: str) -> Reference:
    model, codec = load_model_and_codec(model_path)
    X, _ = encode_batch(records, codec)
    scores = models.score_batch(model, X)
    anomalous = models.labels_from_scores(model, scores)
    return Reference(
        labels=["anomaly" if a else "benign" for a in anomalous],
        scores=[float(s) for s in scores],
        devices=[r.device_id for r in records],
    )


class FlushClock:
    """Records when ``sink.flush()`` returns and how many verdicts it made
    durable; the sink writes verdicts in order, so the n-th mark covers the
    next ``count`` lines of the verdict file."""

    def __init__(self, sink):
        self.marks: list[tuple[float, int]] = []
        self._pending = 0
        emit, flush = sink.emit, sink.flush

        def counted_emit(verdicts):
            self._pending += len(verdicts)
            emit(verdicts)

        def timed_flush():
            flush()
            self.marks.append((time.monotonic(), self._pending))
            self._pending = 0

        sink.emit, sink.flush = counted_emit, timed_flush

    def line_times(self) -> np.ndarray:
        times = np.array([t for t, _ in self.marks], dtype=float)
        counts = np.array([n for _, n in self.marks], dtype=np.int64)
        return np.repeat(times, counts)


@dataclass
class LogState:
    high_water: dict[int, int]
    committed: dict[str, dict[int, int]]  # group -> partition -> offset
    log_bytes: int

    def lag_rows(self, group: str) -> int:
        done = self.committed[group]
        return sum(hw - done.get(p, 0) for p, hw in self.high_water.items())


def log_state(data_dir: str, groups: list[str]) -> LogState:
    """High-water marks and the given groups' commits, read by opening the
    stopped broker's data directory with the broker's own recovery."""
    with Broker(data_dir) as broker:
        high_water = {p: broker.partition_length(corpus.TOPIC, p)
                      for p in range(broker.partition_count(corpus.TOPIC))}
        committed = {g: broker.committed(g, corpus.TOPIC) for g in groups}
    log_bytes = sum(entry.stat().st_size for entry in os.scandir(data_dir)
                    if entry.is_file())
    return LogState(high_water, committed, log_bytes)


@dataclass
class Verdicts:
    """Oracle outcome of one engine pass."""
    attempted: int
    missing: int
    wrong: int
    duplicates: int
    lag_rows: int
    conserved: bool
    latency_ms: np.ndarray  # per unique verdict, from due time to durable
    due: np.ndarray  # when each of those rows was due
    batches: int

    @property
    def failed(self) -> int:
        return self.missing + self.wrong + self.lag_rows


def check_pass(sink_path: str, clock: FlushClock, produced: list[tuple[int, int]],
               due: np.ndarray, ref: Reference, parse_errors: int,
               lag_rows: int) -> Verdicts:
    """``produced[i]`` is the (partition, offset) reply for row i, ``due[i]``
    when row i was due.  Rows never produced count as missing."""
    row_of = {po: i for i, po in enumerate(produced)}
    with open(sink_path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    flushed_at = clock.line_times()
    if len(flushed_at) != len(lines):
        raise RuntimeError(
            f"{len(lines)} verdict lines but {len(flushed_at)} flushed")
    seen: set[int] = set()
    wrong = duplicates = 0
    latency, due_seen = [], []
    for v, t in zip(lines, flushed_at):
        i = row_of.get((v["partition"], v["offset"]))
        if i is None:
            wrong += 1
            continue
        if i in seen:
            duplicates += 1
            continue
        seen.add(i)
        latency.append((t - due[i]) * 1e3)
        due_seen.append(due[i])
        if (v["label"] != ref.labels[i] or v["score"] != ref.scores[i]
                or v["device_id"] != ref.devices[i]):
            wrong += 1
    n_rows = len(ref.labels)
    return Verdicts(
        attempted=n_rows,
        missing=n_rows - len(seen),
        wrong=wrong,
        duplicates=duplicates,
        lag_rows=lag_rows,
        conserved=len(produced) == len(seen) + parse_errors,
        latency_ms=np.array(latency, dtype=float),
        due=np.array(due_seen, dtype=float),
        batches=len(clock.marks),
    )
