"""Columnar decode of maliot_csv values, for the engine and for training.

``decode_columns`` is the codec-free stage: for the values that parse it
gives what ``record_columns`` of their ``parse_record``s gives, bit for
bit, with no FlowRecord per row.  Clean values (no quote, no line break,
18 fields) are split on ``,`` and checked a column at a time under
NUMERIC_FIELDS; any other value, or row a check refuses, goes through
``parse_record``, so reject reasons stay exact.  ``decode_batch`` adds
``encode_columns`` for the engine; ``read_labeled`` reads training files.
"""

from __future__ import annotations

import logging
from itertools import chain, islice

import numpy as np

from .errors import ParseError
from .features import (LABEL_CODES, UNLABELED, Columns, concat_columns,
                       encode_columns, numeric_feature_names, record_columns)
from .flows import (
    MALIOT_CSV_COLUMNS, MISSING, NUMERIC_FIELDS,
    _norm_conn_state, _norm_label, _norm_proto, _norm_service, parse_record,
    read_dataset,
)
from .hashing import hash_to_unit, is_private_ip

log = logging.getLogger(__name__)

BLOCK_ROWS = 1024  # rows decoded together: bounds a block's split cells

# NUMERIC_FIELDS as columns, one row per field (a refused "-" reads as nan)
_WHOLE, _IF_MISSING, _LOW, _HIGH = (
    np.array([[rule[i]] for rule in NUMERIC_FIELDS.values()], dtype=np.float64)
    for i in range(4))
_MAY_MISS = np.array([[rule[1] is not None] for rule in NUMERIC_FIELDS.values()])
_ADDRESS = (lambda s: hash_to_unit(s.strip()), lambda s: float(is_private_ip(s.strip())))
_CATEGORIES = (("proto", _norm_proto), ("service", _norm_service),
               ("conn_state", _norm_conn_state))


def _float_or_nan(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        return float("nan")


def _numbers(cols: list[tuple[str, ...]]):
    """(values, ok) of the NUMERIC_FIELDS columns, one row per field; ok
    marks the cells parse_record takes."""
    cells = list(chain.from_iterable(cols))
    miss = False
    try:
        v = np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:  # a missing marker, or padding only strip() removes
        cells = [s.strip() for s in cells]
        v = np.array(list(map(_float_or_nan, cells)), dtype=np.float64)
        miss = np.array([s in ("", MISSING) for s in cells]).reshape(len(cols), -1)
    v = v.reshape(len(cols), -1)
    v = np.where(_WHOLE, np.trunc(v) + 0.0, v)  # int(float("-0.5")) is 0, not -0.0
    ok = np.where(miss, _MAY_MISS, (v >= _LOW) & (v <= _HIGH))
    return np.where(miss, _IF_MISSING, v), ok


def _memo(cells, fn) -> list:
    """``fn`` over a column, called once per distinct cell."""
    memo = {s: fn(s) for s in set(cells)}
    return list(map(memo.__getitem__, cells))


def _label(s: str) -> int:
    return LABEL_CODES[_norm_label(s)]


def _clean_block(rows: list[list[str]], feature_set: str):
    """(kept, Columns) of split clean rows: kept indexes the rows that pass
    every check, and the Columns cover those rows only."""
    c = dict(zip(MALIOT_CSV_COLUMNS, zip(*rows)))
    v, ok = _numbers([c[f] for f in NUMERIC_FIELDS])
    kept = np.flatnonzero(ok.all(axis=0)).tolist()
    c = {f: [col[i] for i in kept] for f, col in c.items()}
    num = dict(zip(NUMERIC_FIELDS, v[:, kept]))
    for end in ("src", "dst"):
        num[f"{end}_ip_hash"], num[f"{end}_ip_private"] = (
            _memo(c[f"{end}_ip"], fn) for fn in _ADDRESS)
    raw = np.array([num[f] for f in numeric_feature_names(feature_set)],
                   dtype=np.float64).T
    devices = [d.strip() or s.strip() for d, s in zip(c["device_id"], c["src_ip"])]
    return kept, Columns(raw, *(_memo(c[f], fn) for f, fn in _CATEGORIES),
                         np.array(_memo(c["label"], _label), dtype=np.int8),
                         num["ts"], devices)


def decode_columns(values: list[str], feature_set: str):
    """(Columns, rows, errors) of maliot_csv values: rows indexes the values
    that parse, the Columns are theirs, and errors holds (index, ParseError)
    of the rest.  Callers pass BLOCK_ROWS values at a time, which bounds
    the split cells held at once."""
    split = [v.split(",") for v in values]
    clean = [j for j, (v, f) in enumerate(zip(values, split))
             if len(f) == 18 and '"' not in v and "\n" not in v and "\r" not in v]
    kept, cols = (_clean_block([split[j] for j in clean], feature_set)
                  if clean else ([], record_columns([], feature_set)))
    fast = [clean[i] for i in kept]
    slow, records, errors = [], [], []
    for j in sorted(set(range(len(values))).difference(fast)):
        try:
            records.append(parse_record(values[j], "maliot_csv"))
            slow.append(j)
        except ParseError as exc:
            errors.append((j, exc))
    if records:
        cols = concat_columns([cols, record_columns(records, feature_set)]).take(
            np.argsort(np.array(fast + slow, dtype=np.int64), kind="stable"))
    return cols, sorted(fast + slow), errors


def decode_batch(values: list[str], codec):
    """(X, rows, ts, devices, errors) of values as ``decode_columns`` gives
    them, decoded and encoded a block at a time, so a batch never holds all
    its raw columns."""
    X = np.empty((len(values), codec.width), dtype=np.float64)
    ts = np.empty(len(values), dtype=np.float64)
    rows, devices, errors = [], [], []
    for start in range(0, len(values), BLOCK_ROWS):
        cols, r, e = decode_columns(values[start:start + BLOCK_ROWS], codec.feature_set)
        at, end = len(rows), len(rows) + len(r)
        X[at:end], ts[at:end] = encode_columns(cols, codec), cols.ts
        rows += [start + i for i in r]
        errors += [(start + i, exc) for i, exc in e]
        devices += cols.devices
    return X[:len(rows)], rows, ts[:len(rows)], devices, errors


def read_labeled(files, feature_set: str):
    """(Columns, rows, rejected) of (path, dialect) files: the labeled rows
    (unlabeled rows are scored, never trained on), rows read and rejected.
    maliot_csv lines are read as ``read_dataset`` reads them, less their
    terminator so clean rows stay columnar; other dialects use it."""
    parts, rejected = [record_columns([], feature_set)], 0
    for path, dialect in files:
        if dialect == "maliot_csv":
            blocks, bad = [parts[0]], 0
            with open(path, "r", encoding="utf-8") as fh:
                lines = (line.removesuffix("\n") for line in fh if line.strip())
                next(lines, None)  # the header
                while block := list(islice(lines, BLOCK_ROWS)):
                    cols, _, errors = decode_columns(block, feature_set)
                    blocks.append(cols)
                    bad += len(errors)
            cols = concat_columns(blocks)
        else:
            records, stats = read_dataset(path, dialect)
            cols, bad = record_columns(records, feature_set), stats.rows_rejected
        log.info("read %d rows from %s (%s, %d rejected)",
                 len(cols.labels), path, dialect, bad)
        parts.append(cols)
        rejected += bad
    cols = concat_columns(parts)
    return cols.take(np.flatnonzero(cols.labels != UNLABELED)), len(cols.labels), rejected
