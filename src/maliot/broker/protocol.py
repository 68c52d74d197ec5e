"""Length-prefixed wire format shared by the TCP server and client, and the
log line both the partition files and POLL replies carry.

One frame is: 4-byte big-endian length, then that many bytes, of which the
first is the opcode and the rest are a UTF-8 JSON body, optionally followed
by a newline and a byte tail.  The length field therefore counts opcode +
body + tail, never itself.  Compact JSON never holds a raw newline byte, so
the first one ends the body.

A POLL reply's tail is the log lines of the rows it returns, copied from
the partition files: ``offset\\tappend_ts\\tkey\\tvalue\\n``, with ``\\``,
tab, newline and carriage return in key and value escaped as ``\\\\``,
``\\t``, ``\\n`` and ``\\r`` (PostgreSQL's COPY text format), and UTF-8
encoded with ``surrogatepass``, so any Python string round-trips.
"""

from __future__ import annotations

import json
import re
import struct
from functools import lru_cache

from ..errors import ProtocolError

OP_CREATE = 1
OP_PRODUCE = 2
OP_POLL = 3
OP_COMMIT = 4
OP_ACK = 5
OP_ERR = 6

OPCODES = (OP_CREATE, OP_PRODUCE, OP_POLL, OP_COMMIT, OP_ACK, OP_ERR)

MAX_FRAME = 16 * 1024 * 1024
_ENCODER = json.JSONEncoder(separators=(",", ":"))  # built once, not per frame

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {v[1]: k for k, v in _ESCAPES.items()}
_TO_ESCAPE = re.compile(r"[\\\t\n\r]")
_ESCAPED = re.compile(r"\\(.)", re.S)


def escape(text: str) -> bytes:
    """One key or value as it sits in a log line."""
    return _TO_ESCAPE.sub(lambda m: _ESCAPES[m[0]], text).encode("utf-8", "surrogatepass")


def unescape(field: str) -> str:
    return _ESCAPED.sub(lambda m: _UNESCAPES[m[1]], field)


def _json(doc) -> bytes:
    return _ENCODER.encode(doc).encode("utf-8")


def _frame(opcode: int, body: bytes, tail: bytes = b"") -> bytes:
    if tail:
        body += b"\n"
    length = 1 + len(body) + len(tail)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    return b"".join((struct.pack(">IB", length, opcode), body, tail))


def encode_frame(opcode: int, body: dict) -> bytes:
    if opcode not in OPCODES:
        raise ProtocolError(f"bad opcode {opcode}")
    return _frame(opcode, _json(body))


def encode_ack(body: dict, tail: bytes = b"") -> bytes:
    """ACK frame; a POLL reply's log lines go in ``tail``.  The broker has
    already sized them to fit (``poll_reply_room``), so only a single row
    produced under a larger cap raises ProtocolError here."""
    return _frame(OP_ACK, _json(body), tail)


@lru_cache(maxsize=None)
def _largest_poll_head(partitions: int) -> int:
    return len(_json({"runs": [[2**63 - 1] * 5] * partitions}))


def poll_reply_room(partitions: int) -> int:
    """Bytes of log lines a POLL reply on a topic of ``partitions`` can carry.

    That is MAX_FRAME less the opcode, the newline and the largest header:
    a ``[partition, offset, rows, nbytes, hw]`` run for every partition,
    each number at 2**63 - 1, which no log reaches.
    """
    return MAX_FRAME - 2 - _largest_poll_head(partitions)


def _read_exact(sock, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed mid-frame" if chunks else "peer closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> tuple[int, dict, bytes]:
    """Read one frame from a connected socket; blocks until complete.
    Returns the opcode, the JSON body and the tail (empty if none)."""
    (length,) = struct.unpack(">I", _read_exact(sock, 4))
    if length < 1 or length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} out of range")
    payload = _read_exact(sock, length)
    opcode = payload[0]
    if opcode not in OPCODES:
        raise ProtocolError(f"bad opcode {opcode}")
    nl = payload.find(b"\n", 1)
    head, tail = (payload[1:], b"") if nl < 0 else (payload[1:nl], payload[nl + 1:])
    try:
        body = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad body: {exc}") from None
    if not isinstance(body, dict):
        raise ProtocolError("body must be a JSON object")
    return opcode, body, tail
