"""Columnar decode and batch verdict lines against the per-row reference."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maliot import decode, flows, sim
from maliot.cli import main
from maliot.decode import BLOCK_ROWS, decode_batch, decode_columns
from maliot.engine import Verdict, retrain_from_persisted, verdict_lines
from maliot.errors import ParseError
from maliot.features import FEATURE_SETS, encode_batch, fit_codec, record_columns
from maliot.flows import format_row, parse_record, write_records

RECORDS = sim.generate(sim.SimConfig(n_devices=4, duration_s=2.0, seed=3))
CLEAN = [format_row(r) for r in RECORDS]
CODECS = {fs: fit_codec(RECORDS, fs) for fs in FEATURE_SETS}

ODD_CELLS = [
    "-", "", " 7 ", "\t8.5\x1c", "1e3", "-0.5", "-0.0", "-1", "1_000", "nan",
    "inf", "-inf", "1e400", "65535", "65536", "65535.9", "0x10", "x", "١٢",
    "1e300", "-62135596800.5", "-62135596800.0", "253402300800.0",
    " TCP ", "DNS", "rsto", "10.0.0.1 ", "ñandú", "设备-1", "a b",
    '"q""uote"', '"a,b"', 'q"', "\x00",
]


@st.composite
def odd_values(draw):
    """A clean row with one to three of its cells, its field count or its
    line structure changed."""
    cells = draw(st.sampled_from(CLEAN)).split(",")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(cells) - 1))
        cells[i] = draw(st.sampled_from(ODD_CELLS))
    if draw(st.booleans()):
        del cells[draw(st.integers(0, len(cells) - 1))]
    if draw(st.booleans()):
        cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(ODD_CELLS)))
    value = ",".join(cells)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(value)))
        brk = draw(st.sampled_from(["\n", "\r", "\r\n"]))
        value = value[:at] + brk + value[at:]
    return value


def reference(values, codec):
    records, rows, reasons = [], [], Counter()
    for i, v in enumerate(values):
        try:
            records.append(parse_record(v, "maliot_csv"))
            rows.append(i)
        except ParseError as exc:
            reasons[exc.reason] += 1
    return encode_batch(records, codec)[0], rows, reasons, records


def _with_cell(i, text):
    cells = CLEAN[0].split(",")
    cells[i] = text
    return ",".join(cells)


@given(
    n=st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
    odd=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), odd_values()),
                 max_size=12),
    feature_set=st.sampled_from(FEATURE_SETS),
)
@example(n=1, odd=[(0.0, _with_cell(11, "-0.5"))], feature_set="full")  # mean 0
@example(n=1, odd=[(0.0, _with_cell(17, '"q""uote"'))], feature_set="full")
@settings(max_examples=60, deadline=None)
def test_decode_equals_parse_then_encode(n, odd, feature_set):
    values = [CLEAN[i % len(CLEAN)] for i in range(n)]
    for where, value in odd if n else []:
        values[int(where * n)] = value
    codec = CODECS[feature_set]
    X, rows, reasons, records = reference(values, codec)
    got_X, got_rows, ts, devices, errors = decode_batch(values, codec)
    assert got_X.shape == X.shape
    assert np.array_equal(got_X.view(np.uint64), X.view(np.uint64))
    assert got_rows == rows
    assert Counter(exc.reason for _, exc in errors) == reasons
    assert sorted(i for i, _ in errors) == sorted(set(range(n)) - set(rows))
    assert ts.tolist() == [r.ts for r in records]
    assert devices == [r.device_id for r in records]
    # the codec-free stage against the records-to-columns helper
    cols, col_rows, col_errors = decode_columns(values, feature_set)
    assert col_rows == rows
    assert [(i, exc.reason) for i, exc in col_errors] == [
        (i, exc.reason) for i, exc in errors]
    for got, want in zip(cols, record_columns(records, feature_set)):
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        else:
            assert got == want


def test_clean_rows_never_reach_parse_record(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return parse_record(*args)

    monkeypatch.setattr(decode, "parse_record", counted)
    values = [CLEAN[i % len(CLEAN)] for i in range(10_000)]
    cells = values[7].split(",")
    cells[7] = "-"  # a missing marker is clean: the column path reads it
    values[7] = ",".join(cells)
    assert len(decode_batch(values, CODECS["full"])[1]) == 10_000
    assert calls == []
    values[5000] = values[5000].rsplit(",", 1)[0] + ',"dev,0"'
    assert len(decode_batch(values, CODECS["full"])[1]) == 10_000
    assert len(calls) == 1


def test_train_and_retrain_read_clean_files_without_parse_record(
        tmp_path, monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(args)
        return parse_record(*args)

    monkeypatch.setattr(decode, "parse_record", counted)
    monkeypatch.setattr(flows, "parse_record", counted)
    persist = tmp_path / "persist"
    persist.mkdir()
    for i, part in enumerate((RECORDS[::2], RECORDS[1::2])):
        write_records(part, persist / f"flows-{i}-2020091312.csv")
    model, codec = retrain_from_persisted(str(persist), "gaussian_nb", "full")
    assert codec.fingerprint() == fit_codec(RECORDS[::2] + RECORDS[1::2], "full").fingerprint()
    assert main(["train", "--model", "decision_tree", "--data",
                 str(persist / "flows-0-2020091312.csv"),
                 "--out", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    assert calls == []


class _Model:
    kind = "random_forest"
    version = 7


@given(st.lists(st.tuples(
    st.integers(0, 63), st.integers(0, 2**62), st.text(max_size=8),
    st.floats(-6e10, 2.5e11), st.floats(), st.floats(0.001, 1e12)),
    max_size=20))
@settings(max_examples=100, deadline=None)
def test_verdict_lines_equal_verdict_to_json(rows):
    cols = [list(c) for c in zip(*rows)] or [[] for _ in range(6)]
    parts, offs, devs, ts, scores, lat = cols
    flags = [s >= 0.5 for s in scores]
    lines = verdict_lines("flows", _Model, parts, offs, devs, ts,
                          np.array(scores), np.array(flags), lat)
    want = [Verdict("flows", p, o, d, t, "anomaly" if a else "benign", s,
                    "random_forest", 7, la).to_json() + "\n"
            for p, o, d, t, a, s, la in zip(parts, offs, devs, ts, flags, scores, lat)]
    assert lines == want
    assert all(json.loads(line)["device_id"] == d for line, d in zip(lines, devs))


@pytest.mark.parametrize("n", [0, 6])
def test_verdict_lines_of_an_empty_or_small_batch(n):
    lines = verdict_lines("t", _Model, [0] * n, list(range(n)), ["d"] * n,
                          np.zeros(n), np.zeros(n), np.zeros(n, bool), [1.5] * n)
    assert len(lines) == n
