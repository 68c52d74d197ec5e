"""Columnar decode of maliot_csv values straight into the feature matrix.

For the values that parse, ``decode_batch`` gives what ``encode_batch`` of
their ``parse_record``s gives, bit for bit, with no FlowRecord per row:
clean values (no quote, no line break, 18 fields) are split on ``,`` and
checked a column at a time under NUMERIC_FIELDS.  Any other value, or row a
check refuses, goes through ``parse_record``, so reject reasons stay exact.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ParseError
from .features import encode_batch, encode_columns, numeric_feature_names
from .flows import (
    MALIOT_CSV_COLUMNS, MISSING, NUMERIC_FIELDS,
    _norm_conn_state, _norm_proto, _norm_service, parse_record,
)
from .hashing import hash_to_unit, is_private_ip

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


def _memo(cells, memos: dict, fn) -> list:
    """``fn`` over a column, called once per distinct cell in the batch."""
    memo = memos.setdefault(fn, {})
    for s in set(cells).difference(memo):
        memo[s] = fn(s)
    return list(map(memo.__getitem__, cells))


def _clean_block(rows: list[list[str]], codec, memos: dict):
    """(kept, X, ts, devices) of split clean rows: kept indexes the rows
    that pass every check, and the rest covers those rows only."""
    c = dict(zip(MALIOT_CSV_COLUMNS, zip(*rows)))
    v, ok = _numbers([c[f] for f in NUMERIC_FIELDS])
    kept = np.flatnonzero(ok.all(axis=0)).tolist()
    c = {f: [col[i] for i in kept] for f, col in c.items()}
    num = dict(zip(NUMERIC_FIELDS, v[:, kept]))
    for end in ("src", "dst"):
        num[f"{end}_ip_hash"], num[f"{end}_ip_private"] = (
            _memo(c[f"{end}_ip"], memos, fn) for fn in _ADDRESS)
    raw = np.array([num[f] for f in numeric_feature_names(codec.feature_set)],
                   dtype=np.float64).T
    cats = [_memo(c[f], memos, fn) for f, fn in _CATEGORIES]
    devices = [d.strip() or s.strip() for d, s in zip(c["device_id"], c["src_ip"])]
    return kept, encode_columns(raw, *cats, codec), num["ts"], devices


def decode_batch(values: list[str], codec):
    """(X, rows, ts, devices, errors), BLOCK_ROWS values at a time: rows
    indexes the values that parse, X, ts and devices are theirs, and
    errors holds (index, ParseError) of the rest."""
    X = np.empty((len(values), codec.width), dtype=np.float64)
    ts = np.empty(len(values), dtype=np.float64)
    rows: list[int] = []
    devices_out: list[str] = []
    errors: list[tuple[int, ParseError]] = []
    memos: dict = {}
    for start in range(0, len(values), BLOCK_ROWS):
        block = values[start:start + BLOCK_ROWS]
        split = [v.split(",") for v in block]
        clean = [j for j, (v, f) in enumerate(zip(block, split))
                 if len(f) == 18 and '"' not in v and "\n" not in v and "\r" not in v]
        kept, x, t, devices = (_clean_block([split[j] for j in clean], codec, memos)
                               if clean else ([], X[:0], ts[:0], []))
        fast = [clean[i] for i in kept]
        slow, records = [], []
        for j in sorted(set(range(len(block))).difference(fast)):
            try:
                records.append(parse_record(block[j], "maliot_csv"))
                slow.append(j)
            except ParseError as exc:
                errors.append((start + j, exc))
        if records:
            x = np.concatenate([x, encode_batch(records, codec)[0]])
            t = np.concatenate([t, [r.ts for r in records]])
            devices += [r.device_id for r in records]
        order = np.argsort(np.array(fast + slow, dtype=np.int64), kind="stable")
        at, end = len(rows), len(rows) + len(order)
        X[at:end], ts[at:end] = x[order], t[order]
        devices_out.extend(devices[i] for i in order.tolist())
        rows.extend(start + j for j in sorted(fast + slow))
    return X[:len(rows)], rows, ts[:len(rows)], devices_out, errors
