"""Parsing, serialization, and dialect equivalence for flow records."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maliot.errors import ParseError
from maliot.flows import (
    DIALECTS,
    IOT23_COLUMNS,
    MALIOT_CSV_COLUMNS,
    MALIOT_CSV_HEADER,
    FlowRecord,
    format_row,
    parse_record,
    read_dataset,
    sniff_dialect,
    write_records,
)

from conftest import make_record


# -- round trip ---------------------------------------------------------------

def test_format_parse_identity_basic():
    r = make_record()
    assert parse_record(format_row(r), "maliot_csv") == r


def test_round_trip_preserves_missing_markers():
    r = make_record(duration=None, orig_bytes=None, resp_bytes=None, label=None)
    back = parse_record(format_row(r), "maliot_csv")
    assert back.duration is None
    assert back.orig_bytes is None
    assert back.resp_bytes is None
    assert back.label is None
    assert back == r


_ips = st.sampled_from(
    ["10.0.0.10", "192.168.1.44", "8.8.8.8", "203.0.113.7", "fe80::1", "0.0.0.0"])
_opt_count = st.one_of(st.none(), st.integers(0, 2**40))


@given(
    ts=st.floats(0, 4e9, allow_nan=False, allow_infinity=False),
    src_ip=_ips, dst_ip=_ips,
    src_port=st.integers(0, 65535), dst_port=st.integers(0, 65535),
    proto=st.sampled_from(["tcp", "udp", "icmp", "other"]),
    service=st.sampled_from(["http", "dns", "ssl", "ssh", "none", "other"]),
    duration=st.one_of(st.none(), st.floats(0, 1e6, allow_nan=False)),
    orig_bytes=_opt_count, resp_bytes=_opt_count,
    conn_state=st.sampled_from(["S0", "SF", "REJ", "OTH", "other"]),
    missed=st.integers(0, 1000),
    counts=st.tuples(*(st.integers(0, 2**32) for _ in range(4))),
    label=st.sampled_from(["benign", "anomaly", None]),
    device=st.sampled_from(["cam-1", "plug 2", "a,b", 'q"uote']),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_identity_property(ts, src_ip, dst_ip, src_port, dst_port,
                                      proto, service, duration, orig_bytes,
                                      resp_bytes, conn_state, missed, counts,
                                      label, device):
    r = FlowRecord(
        ts=ts, src_ip=src_ip, src_port=src_port, dst_ip=dst_ip,
        dst_port=dst_port, proto=proto, service=service, duration=duration,
        orig_bytes=orig_bytes, resp_bytes=resp_bytes, conn_state=conn_state,
        missed_bytes=missed, orig_pkts=counts[0], orig_ip_bytes=counts[1],
        resp_pkts=counts[2], resp_ip_bytes=counts[3],
        label=label, device_id=device,
    )
    assert parse_record(format_row(r), "maliot_csv") == r


def test_round_trip_through_file(tmp_path, small_corpus):
    path = tmp_path / "flows.csv"
    n = write_records(small_corpus, path)
    assert n == len(small_corpus)
    back, stats = read_dataset(path, "maliot_csv")
    assert back == small_corpus
    assert stats.rows_ok == n
    assert stats.rows_rejected == 0


# -- dialect equivalence ------------------------------------------------------

ZEEK_ROW = ("1600000000.25\tCuid1\t10.0.0.10\t49152\t93.184.216.34\t443\ttcp"
            "\tssl\t1.5\t512\t2048\tSF\tT\tF\t0\tShADad\t10\t900\t12\t2500"
            "\t-\tBenign\t-")
TON_ROW = ("1600000000.25,10.0.0.10,49152,93.184.216.34,443,tcp,ssl,1.5,512,"
           "2048,SF,0,10,900,12,2500,0")


def test_dialects_agree_on_shared_fields():
    z = parse_record(ZEEK_ROW, "iot23_conn_log")
    t = parse_record(TON_ROW, "ton_iot_csv")
    m = make_record(device_id="10.0.0.10")
    for name in MALIOT_CSV_COLUMNS:
        assert getattr(z, name) == getattr(m, name), name
        assert getattr(t, name) == getattr(m, name), name


def test_zeek_glued_label_tail():
    # labeled captures sometimes join the last three columns with spaces
    parts = ZEEK_ROW.split("\t")
    glued = "\t".join(parts[:20] + [" ".join(parts[20:])])
    assert glued.count("\t") + 1 == len(IOT23_COLUMNS) - 2
    r = parse_record(glued, "iot23_conn_log")
    assert r.label == "benign"
    assert r.resp_ip_bytes == 2500


def test_label_normalization():
    for raw, want in (("Benign", "benign"), ("0", "benign"), ("normal", "benign"),
                      ("Malicious", "anomaly"), ("ddos", "anomaly"),
                      ("1", "anomaly"), ("-", None), ("", None)):
        row = TON_ROW.rsplit(",", 1)[0] + "," + raw
        assert parse_record(row, "ton_iot_csv").label == want


def test_unknown_categoricals_collapse_to_other():
    row = ZEEK_ROW.replace("\ttcp\t", "\tsctp\t").replace("\tssl\t", "\tmqtt\t")
    r = parse_record(row, "iot23_conn_log")
    assert r.proto == "other"
    assert r.service == "other"


# -- malformed input ----------------------------------------------------------

@pytest.mark.parametrize("mutate", [
    lambda s: s.replace("1.5", "fast"),            # non-numeric duration
    lambda s: s.replace("1.5", "inf"),             # non-finite duration
    lambda s: s.replace("1.5", "-2.0"),            # negative duration
    lambda s: s.replace(",443,", ",70000,"),       # port out of range
    lambda s: s.replace("1600000000.25", "nan"),   # non-finite timestamp
    lambda s: s + ",extra",                        # wrong field count
    lambda s: s.rsplit(",", 3)[0],                 # short row
])
def test_bad_rows_raise_parse_error(mutate):
    row = format_row(make_record())
    with pytest.raises(ParseError):
        parse_record(mutate(row), "maliot_csv")


@pytest.mark.parametrize("dialect, row", [
    ("maliot_csv", format_row(make_record())),
    ("ton_iot_csv", TON_ROW),
], ids=["maliot_csv", "ton_iot_csv"])
def test_a_row_is_one_physical_line(dialect, row):
    for end in ("", "\n", "\r\n", "\r"):
        assert parse_record(row + end, dialect) == parse_record(row, dialect)
    for broken in (row + "\nGARBAGE,x", row + "\n\n", row[:9] + "\r" + row[9:],
                   row + "\r\r\n"):
        with pytest.raises(ParseError) as err:
            parse_record(broken, dialect)
        assert err.value.reason == "malformed_row"


@pytest.mark.parametrize("field", ["device_id", "src_ip", "label"])
@pytest.mark.parametrize("brk", ["\n", "\r"])
def test_format_row_refuses_a_line_break(field, brk):
    with pytest.raises(ValueError):
        format_row(make_record(**{field: f"dev{brk}0"}))


@pytest.mark.parametrize("ts, ok", [
    ("-62135596800.0", True),    # 0001-01-01T00:00:00Z
    ("-62135596800.5", False),
    ("253402300799.9", True),    # the last moment of 9999
    ("253402300800.0", False),
    ("1e300", False),
    ("-1e300", False),
])
def test_timestamp_must_fall_in_years_1_to_9999(ts, ok):
    row = format_row(make_record()).replace("1600000000.25", ts)
    if ok:
        assert parse_record(row, "maliot_csv").ts == float(ts)
    else:
        with pytest.raises(ParseError) as err:
            parse_record(row, "maliot_csv")
        assert err.value.reason == "bad_numeric"


def test_reader_skips_and_counts_bad_rows(tmp_path):
    good = format_row(make_record())
    bad = good.replace("1.5", "soon")
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join([MALIOT_CSV_HEADER, good, bad, good, "x", good]) + "\n")
    records, stats = read_dataset(path, "maliot_csv")
    assert len(records) == 3
    assert stats.rows_ok == 3
    assert stats.rows_rejected == 2
    assert stats.label_counts["benign"] == 3


def test_missing_counters_collapse_to_zero():
    row = ZEEK_ROW.replace("\t0\tShADad\t", "\t-\tShADad\t")
    assert parse_record(row, "iot23_conn_log").missed_bytes == 0


# -- sniffing -----------------------------------------------------------------

def test_sniff_dialect(tmp_path):
    cases = {
        "conn.log": "#separator \\x09\n#fields\t" + "\t".join(IOT23_COLUMNS)
                    + "\n" + ZEEK_ROW + "\n",
        "ton.csv": "ts,src_ip,src_port,dst_ip,dst_port,proto,service,duration,"
                   "src_bytes,dst_bytes,conn_state,missed_bytes,src_pkts,"
                   "src_ip_bytes,dst_pkts,dst_ip_bytes,label\n" + TON_ROW + "\n",
        "own.csv": MALIOT_CSV_HEADER + "\n" + format_row(make_record()) + "\n",
    }
    want = dict(zip(cases, DIALECTS))
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text)
        assert sniff_dialect(p) == want[name]
        records, stats = read_dataset(p, want[name])
        assert stats.rows_ok == 1, name
        assert records[0].src_ip == "10.0.0.10"


def test_header_without_a_flow_column_rejects_rows(tmp_path):
    cols = [c for c in IOT23_COLUMNS if c != "duration"]
    row = "\t".join(f for c, f in zip(IOT23_COLUMNS, ZEEK_ROW.split("\t"))
                    if c != "duration")
    p = tmp_path / "noduration.log"
    p.write_text("#fields\t" + "\t".join(cols) + "\n" + row + "\n")
    records, stats = read_dataset(p, "iot23_conn_log")
    assert records == [] and stats.rows_rejected == 1


def test_zeek_header_declares_column_order(tmp_path):
    # a conn.log without label columns still parses via its #fields header
    cols = IOT23_COLUMNS[:21]
    row = "\t".join(ZEEK_ROW.split("\t")[:21])
    p = tmp_path / "nolabel.log"
    p.write_text("#fields\t" + "\t".join(cols) + "\n" + row + "\n#close\t2020\n")
    records, stats = read_dataset(p, "iot23_conn_log")
    assert stats.rows_ok == 1
    assert records[0].label is None
    assert records[0].dst_port == 443
