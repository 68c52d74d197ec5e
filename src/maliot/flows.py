"""Unified flow-record schema and the three source dialects.

A FlowRecord is one summarized network connection. Three on-disk dialects
parse into it:

* ``iot23_conn_log`` -- Zeek conn.log TSV (``#``-prefixed header lines,
  23 canonical columns including labels).
* ``ton_iot_csv``    -- CSV with a header row; the 16 shared flow columns
  plus ``label`` are picked out by name, extra columns are ignored.
* ``maliot_csv``     -- this package's canonical persistence format:
  UTF-8 CSV, fixed 18-column header, ``-`` as the missing marker.

Parsers are pure and never abort a file on a bad row; readers count
rejects in ParseStats instead.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field

from .errors import ParseError

PROTOS = ("tcp", "udp", "icmp", "other")
SERVICES = ("http", "dns", "ssl", "ssh", "irc", "dhcp", "none", "other")
ZEEK_CONN_STATES = (
    "S0", "S1", "SF", "REJ", "S2", "S3", "RSTO", "RSTR",
    "RSTOS0", "RSTRH", "SH", "SHR", "OTH",
)
CONN_STATES = ZEEK_CONN_STATES + ("other",)

LABEL_BENIGN = "benign"
LABEL_ANOMALY = "anomaly"

MISSING = "-"

DIALECTS = ("iot23_conn_log", "ton_iot_csv", "maliot_csv")

# canonical Zeek conn.log column layout (labeled IoT-23 distribution)
IOT23_COLUMNS = (
    "ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p",
    "proto", "service", "duration", "orig_bytes", "resp_bytes",
    "conn_state", "local_orig", "local_resp", "missed_bytes", "history",
    "orig_pkts", "orig_ip_bytes", "resp_pkts", "resp_ip_bytes",
    "tunnel_parents", "label", "detailed-label",
)

# canonical column order when a ToN-style CSV row is parsed without a header
TON_IOT_COLUMNS = (
    "ts", "src_ip", "src_port", "dst_ip", "dst_port", "proto", "service",
    "duration", "src_bytes", "dst_bytes", "conn_state", "missed_bytes",
    "src_pkts", "src_ip_bytes", "dst_pkts", "dst_ip_bytes", "label",
)

MALIOT_CSV_COLUMNS = (
    "ts", "src_ip", "src_port", "dst_ip", "dst_port", "proto", "service",
    "duration", "orig_bytes", "resp_bytes", "conn_state", "missed_bytes",
    "orig_pkts", "orig_ip_bytes", "resp_pkts", "resp_ip_bytes",
    "label", "device_id",
)
MALIOT_CSV_HEADER = ",".join(MALIOT_CSV_COLUMNS)


@dataclass(slots=True)
class FlowRecord:
    """One unified network flow. ``None`` means the source marked the
    value missing; ``label`` is None for unlabeled live traffic."""

    ts: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: str
    service: str
    duration: float | None
    orig_bytes: int | None
    resp_bytes: int | None
    conn_state: str
    missed_bytes: int
    orig_pkts: int
    orig_ip_bytes: int
    resp_pkts: int
    resp_ip_bytes: int
    label: str | None
    device_id: str


@dataclass
class ParseStats:
    rows_ok: int = 0
    rows_rejected: int = 0
    label_counts: dict = field(default_factory=lambda: {
        LABEL_BENIGN: 0, LABEL_ANOMALY: 0, "unlabeled": 0,
    })

    def count(self, record: FlowRecord) -> None:
        self.rows_ok += 1
        self.label_counts[record.label or "unlabeled"] += 1


def _norm_proto(s: str) -> str:
    s = s.strip().lower()
    return s if s in PROTOS else "other"


def _norm_service(s: str) -> str:
    s = s.strip().lower()
    if s in ("", MISSING, "none"):
        return "none"
    return s if s in SERVICES else "other"


def _norm_conn_state(s: str) -> str:
    s = s.strip()
    return s if s in ZEEK_CONN_STATES else "other"


def _norm_label(s: str) -> str | None:
    s = s.strip().lower()
    if s in ("", MISSING):
        return None
    if s in ("benign", "normal", "0"):
        return LABEL_BENIGN
    return LABEL_ANOMALY


# Years 1-9999 UTC, so time.gmtime() works on every accepted row's ts.
_TS_MIN, _TS_END = -62135596800.0, 253402300800.0  # 0001-01-01, 10000-01-01
_TOP = sys.float_info.max
_COUNT = (True, 0, 0, _TOP)
# The numeric fields and their rules, shared with the columnar decoder:
# (read as int(float(s)), what "-"/empty reads as (nan: no value, None:
# refused), lowest, highest).  Ranges also refuse nan and inf.
NUMERIC_FIELDS = {
    "ts": (False, None, _TS_MIN, math.nextafter(_TS_END, 0.0)),
    "src_port": (True, 0, 0, 65535), "dst_port": (True, 0, 0, 65535),
    "duration": (False, math.nan, 0, _TOP),
    "orig_bytes": (True, math.nan, 0, _TOP), "resp_bytes": (True, math.nan, 0, _TOP),
    "missed_bytes": _COUNT, "orig_pkts": _COUNT, "orig_ip_bytes": _COUNT,
    "resp_pkts": _COUNT, "resp_ip_bytes": _COUNT,
}


def _number(s: str, name: str):
    """One numeric field under its NUMERIC_FIELDS rule; None for no value."""
    whole, missing, low, high = NUMERIC_FIELDS[name]
    s = s.strip()
    if s in ("", MISSING) and missing is not None:
        return None if math.isnan(missing) else missing
    try:
        v = int(float(s)) if whole else float(s)
    except (ValueError, OverflowError):
        raise ParseError("bad_numeric", f"{name}={s!r}") from None
    if not low <= v <= high:
        raise ParseError("bad_numeric", f"{name}={s!r} out of range")
    return v


def _split_tsv(line: str) -> list[str]:
    fields = line.rstrip("\n").rstrip("\r").split("\t")
    # Some labeled Zeek distributions glue "tunnel_parents label detailed-label"
    # into one whitespace-separated trailing field; recover it.
    if len(fields) == len(IOT23_COLUMNS) - 2:
        tail = fields[-1].split()
        if len(tail) == 3:
            fields = fields[:-1] + tail
    return fields


def _from_mapping(vals: dict[str, str]) -> FlowRecord:
    numbers = {name: _number(vals[name], name) for name in NUMERIC_FIELDS}
    src_ip = vals["src_ip"].strip()
    return FlowRecord(
        **numbers,
        src_ip=src_ip,
        dst_ip=vals["dst_ip"].strip(),
        proto=_norm_proto(vals["proto"]),
        service=_norm_service(vals["service"]),
        conn_state=_norm_conn_state(vals["conn_state"]),
        label=_norm_label(vals.get("label", MISSING)),
        # flow sources carry no device identity; the originator address
        # stands in for it (one address per device behind the gateway)
        device_id=vals.get("device_id", "").strip() or src_ip,
    )


_TON_RENAME = {
    "src_bytes": "orig_bytes", "dst_bytes": "resp_bytes",
    "src_pkts": "orig_pkts", "src_ip_bytes": "orig_ip_bytes",
    "dst_pkts": "resp_pkts", "dst_ip_bytes": "resp_ip_bytes",
}

_IOT23_RENAME = {
    "id.orig_h": "src_ip", "id.orig_p": "src_port",
    "id.resp_h": "dst_ip", "id.resp_p": "dst_port",
}


def _split_csv(line: str) -> list[str]:
    """The fields of one CSV row.  A row is one physical line: one trailing
    terminator is dropped, and any other line break is malformed."""
    line = line.removesuffix("\n").removesuffix("\r")
    if "\n" in line or "\r" in line:
        raise ParseError("malformed_row", "line break inside a row")
    try:
        return next(csv.reader(io.StringIO(line)))
    except (csv.Error, StopIteration):
        raise ParseError("malformed_row", "unparseable csv") from None


def parse_record(line: str, dialect: str, columns: tuple[str, ...] | None = None) -> FlowRecord:
    """Parse one non-header data row of the given dialect.

    ``columns`` overrides the dialect's canonical column order (used by
    read_dataset when a file carries its own header). Raises ParseError
    with reason ``malformed_row`` or ``bad_numeric``.
    """
    if dialect == "iot23_conn_log":
        fields, cols, rename = _split_tsv(line), columns or IOT23_COLUMNS, _IOT23_RENAME
    elif dialect == "ton_iot_csv":
        fields, cols, rename = _split_csv(line), columns or TON_IOT_COLUMNS, _TON_RENAME
    elif dialect == "maliot_csv":
        fields, cols, rename = _split_csv(line), MALIOT_CSV_COLUMNS, {}
    else:
        raise ValueError(f"unknown dialect {dialect!r}")
    if len(fields) != len(cols):
        raise ParseError(
            "malformed_row", f"expected {len(cols)} fields, got {len(fields)}")
    vals = {rename.get(k, k): v for k, v in zip(cols, fields)}
    missing = [c for c in MALIOT_CSV_COLUMNS[:16] if c not in vals]  # flow fields
    if missing:
        raise ParseError("malformed_row", f"missing columns {missing}")
    return _from_mapping(vals)


def _fmt_opt(v) -> str:
    if v is None:
        return MISSING
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_row(r: FlowRecord) -> str:
    """Serialize one record as a maliot_csv data row (no newline); a line
    break in a text field raises ValueError, as the row could not be read."""
    dur = MISSING if r.duration is None else repr(float(r.duration))
    cells = (
        repr(float(r.ts)), r.src_ip, str(r.src_port), r.dst_ip, str(r.dst_port),
        r.proto, r.service, dur, _fmt_opt(r.orig_bytes),
        _fmt_opt(r.resp_bytes), r.conn_state, str(r.missed_bytes),
        str(r.orig_pkts), str(r.orig_ip_bytes), str(r.resp_pkts),
        str(r.resp_ip_bytes), r.label or MISSING, r.device_id,
    )
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    row = buf.getvalue()
    if "\n" in row or "\r" in row:
        raise ValueError(f"a line break in a field would split the row: {row!r}")
    return row


def write_records(records, path) -> int:
    """Write records as a maliot_csv file; returns the row count.

    Round-trips through parse_record losslessly, missing markers included.
    """
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(MALIOT_CSV_HEADER + "\n")
        for r in records:
            fh.write(format_row(r) + "\n")
            n += 1
    return n


def read_dataset(path, dialect: str) -> tuple[list[FlowRecord], ParseStats]:
    """Read a whole file; returns (records, ParseStats).

    Blank lines are skipped, and so is the header: a csv dialect's first
    other line, or a conn.log's ``#`` lines, whose ``#fields`` line sets
    the column order.  Rejected rows are counted, not fatal.  Raises
    OSError if the file cannot be read.
    """
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
    stats, records, columns = ParseStats(), [], None
    header = dialect != "iot23_conn_log"
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            if dialect == "iot23_conn_log" and line.startswith("#"):
                if line.startswith("#fields"):
                    columns = tuple(line.rstrip("\n").split("\t")[1:])
            elif header:  # a csv header row is plain column names
                header, columns = False, tuple(s.strip() for s in _split_csv(line))
            else:
                try:
                    records.append(parse_record(line, dialect, columns))
                except ParseError:
                    stats.rows_rejected += 1
                    continue
                stats.count(records[-1])
    return records, stats


def sniff_dialect(path) -> str:
    """Guess the dialect from a file's first line."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if first.startswith("#"):
        return "iot23_conn_log"
    if "\t" in first:
        return "iot23_conn_log"
    names = set(s.strip() for s in first.split(","))
    if "device_id" in names:
        return "maliot_csv"
    return "ton_iot_csv"
