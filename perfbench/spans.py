"""Layer spans recorded from outside the program.

The benchmark wraps each layer's public entry point as the engine reaches
it: the client's ``poll``/``commit``, the sink and persister methods, the
names the engine module binds (``parse_record``, ``encode_batch``), and
``maliot.models.score_batch`` and ``labels_from_scores``.  A name that no
longer exists is skipped, so it reports zero calls instead of crashing.

Spans share the engine cycle as their id.  Per-row calls are folded into
one record per (cycle, layer) so a 54k-row drain keeps a few hundred
records, all in memory until the run ends.  Self time is a span's duration
minus the time of the spans it encloses.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from maliot import engine as engine_mod
from maliot import models as models_mod

CALLS, TOTAL, SELF, ROWS, EMPTY = range(5)

# Stages of one engine cycle, in the order the engine runs them.
STAGES = (
    "broker.poll", "flows.parse", "features.encode", "models.score",
    "models.labels", "engine.verdict", "engine.sink_emit", "engine.sink_flush",
    "engine.persist_append", "engine.persist_flush", "broker.commit",
)


class Tracer:
    def __init__(self):
        self.cycles: list[dict[str, list]] = []
        self._current: dict[str, list] = {}
        self._stack: list[list[float]] = []
        self._open: tuple[str, float, list[float]] | None = None

    def begin_cycle(self) -> None:
        self._current = {}
        self.cycles.append(self._current)

    def _record(self, name: str, d: float, children: float):
        stack = self._stack
        if stack:
            stack[-1][0] += d
        rec = self._current.get(name)
        if rec is None:
            rec = self._current[name] = [0, 0.0, 0.0, 0, 0]
        rec[CALLS] += 1
        rec[TOTAL] += d
        rec[SELF] += d - children
        return rec

    def open_interval(self, name: str) -> None:
        """Start a span that is not one call: it ends at ``close_interval``."""
        children = [0.0]
        self._stack.append(children)
        self._open = (name, time.perf_counter(), children)

    def close_interval(self) -> None:
        if self._open is None:
            return
        name, t0, children = self._open
        d = time.perf_counter() - t0
        self._open = None
        self._stack.pop()
        self._record(name, d, children[0])

    def wrap(self, name: str, fn, rows=None):
        """``fn`` timed as span ``name``; ``rows(args, result)`` counts its
        rows when one call handles many."""
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                stack.pop()
                rec = self._record(name, d, children[0])
            n = 1 if rows is None else rows(args, result)
            rec[ROWS] += n
            rec[EMPTY] += n == 0
            return result

        return traced


class TracedClient:
    """Broker client whose ``poll`` and ``commit`` are spans."""

    def __init__(self, client, tracer: Tracer):
        self._client = client
        self.poll = tracer.wrap("broker.poll", client.poll,
                                rows=lambda a, r: len(r))
        self.commit = tracer.wrap("broker.commit", client.commit)

    def __getattr__(self, name):
        return getattr(self._client, name)


def _patch(obj, attr: str, tracer: Tracer, name: str, rows=None):
    fn = getattr(obj, attr, None)
    if fn is None:
        return None
    setattr(obj, attr, tracer.wrap(name, fn, rows))
    return obj, attr, fn


def _then(fn, after):
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        after()
        return result
    return call


def _first(before, fn):
    def call(*args, **kwargs):
        before()
        return fn(*args, **kwargs)
    return call


@contextmanager
def instrument(engine, tracer: Tracer):
    """Wrap the engine's layers for the duration of the block.

    Verdict building is the interval from ``labels_from_scores`` returning
    to ``sink.emit`` being called: the engine's loop that turns scores into
    ``Verdict`` objects, constructor calls and per-row conversions alike.
    """
    restore = [
        _patch(engine_mod, "parse_record", tracer, "flows.parse"),
        _patch(engine_mod, "encode_batch", tracer, "features.encode",
               rows=lambda a, r: len(a[0])),
        _patch(models_mod, "score_batch", tracer, "models.score",
               rows=lambda a, r: len(r)),
        _patch(models_mod, "labels_from_scores", tracer, "models.labels"),
    ]
    if restore[-1] is not None:
        models_mod.labels_from_scores = _then(
            models_mod.labels_from_scores,
            lambda: tracer.open_interval("engine.verdict"))
    _patch(engine.sink, "emit", tracer, "engine.sink_emit",
           rows=lambda a, r: len(a[0]))
    engine.sink.emit = _first(tracer.close_interval, engine.sink.emit)
    _patch(engine.sink, "flush", tracer, "engine.sink_flush")
    if engine.persister is not None:
        _patch(engine.persister, "append", tracer, "engine.persist_append")
        _patch(engine.persister, "flush", tracer, "engine.persist_flush")
    try:
        yield tracer.wrap("engine.cycle", engine.run_cycle)
    finally:
        for item in restore:
            if item is not None:
                obj, attr, fn = item
                setattr(obj, attr, fn)


def _sum(cycles, name: str, field: int) -> float:
    return sum(c[name][field] for c in cycles if name in c)


def _per_cycle(cycles, name: str, field: int) -> np.ndarray:
    return np.array([c[name][field] for c in cycles if name in c], dtype=float)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


UNITS = {
    "models.score_ms_per_call": "ms", "models.score_us_per_row": "us",
    "broker.commit_ms_p50": "ms", "engine.sink_flush_ms_p50": "ms",
    "engine.persist_flush_ms_p50": "ms", "flows.parse_us_per_row": "us",
    "features.encode_us_per_row": "us", "engine.verdict_us_per_row": "us",
    "engine.persist_append_us_per_row": "us", "engine.sink_emit_us_per_row": "us",
    "engine.self_us_per_row": "us", "broker.poll_us_per_row": "us",
    "broker.poll_empty_fraction": "ratio", "engine.batches": "count",
    "engine.rows_per_batch_p50": "rows", "engine.cycle_ms_p50": "ms",
    "engine.cycle_ms_p95": "ms", "engine.stage_coverage": "ratio",
}


def summarize(cycles: list[dict], passes: int) -> dict[str, float]:
    """Per-layer figures over every traced cycle of ``passes`` engine passes.

    Cycle figures cover only cycles that received rows; poll figures cover
    every poll, since on a paced stream poll time is mostly idle wait.
    """
    busy = [c for c in cycles if c.get("broker.poll", [0] * 5)[ROWS] > 0]
    rows = _sum(busy, "broker.poll", ROWS)
    cycle_s = _per_cycle(busy, "engine.cycle", TOTAL)
    cycle_total = float(cycle_s.sum())
    cycle_self = _sum(busy, "engine.cycle", SELF)
    polls = _sum(cycles, "broker.poll", CALLS)
    scored = _sum(busy, "models.score", ROWS)
    return {
        "models.score_ms_per_call": 1e3 * _ratio(
            _sum(busy, "models.score", TOTAL), _sum(busy, "models.score", CALLS)),
        "models.score_us_per_row": 1e6 * _ratio(
            _sum(busy, "models.score", TOTAL), scored),
        "broker.commit_ms_p50": 1e3 * _pct(
            _per_cycle(busy, "broker.commit", TOTAL), 50),
        "engine.sink_flush_ms_p50": 1e3 * _pct(
            _per_cycle(busy, "engine.sink_flush", TOTAL), 50),
        "engine.persist_flush_ms_p50": 1e3 * _pct(
            _per_cycle(busy, "engine.persist_flush", TOTAL), 50),
        "flows.parse_us_per_row": 1e6 * _ratio(
            _sum(busy, "flows.parse", TOTAL), rows),
        "features.encode_us_per_row": 1e6 * _ratio(
            _sum(busy, "features.encode", TOTAL), rows),
        "engine.verdict_us_per_row": 1e6 * _ratio(
            _sum(busy, "engine.verdict", TOTAL), rows),
        "engine.persist_append_us_per_row": 1e6 * _ratio(
            _sum(busy, "engine.persist_append", TOTAL), rows),
        "engine.sink_emit_us_per_row": 1e6 * _ratio(
            _sum(busy, "engine.sink_emit", TOTAL), rows),
        "engine.self_us_per_row": 1e6 * _ratio(cycle_self, rows),
        "broker.poll_us_per_row": 1e6 * _ratio(
            _sum(cycles, "broker.poll", TOTAL), rows),
        "broker.poll_empty_fraction": _ratio(
            _sum(cycles, "broker.poll", EMPTY), polls),
        "engine.batches": len(busy) / passes,
        "engine.rows_per_batch_p50": _pct(_per_cycle(busy, "broker.poll", ROWS), 50),
        "engine.cycle_ms_p50": 1e3 * _pct(cycle_s, 50),
        "engine.cycle_ms_p95": 1e3 * _pct(cycle_s, 95),
        "engine.stage_coverage": 1.0 - _ratio(cycle_self, cycle_total),
    }


def stage_shares(cycles: list[dict]) -> dict[str, float]:
    """Each stage's share of busy-cycle wall time, plus the engine's self."""
    busy = [c for c in cycles if c.get("broker.poll", [0] * 5)[ROWS] > 0]
    total = _sum(busy, "engine.cycle", TOTAL)
    shares = {s: _ratio(_sum(busy, s, TOTAL), total) for s in STAGES}
    shares["engine.self"] = _ratio(_sum(busy, "engine.cycle", SELF), total)
    return shares
