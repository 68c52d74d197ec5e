"""Length-prefixed wire format shared by the TCP server and client.

One frame is: 4-byte big-endian length, then that many bytes, of which the
first is the opcode and the rest are a UTF-8 JSON body.  The length field
therefore counts opcode + body, never itself.
"""

from __future__ import annotations

import json
import struct

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


def _json(doc) -> bytes:
    return _ENCODER.encode(doc).encode("utf-8")


def _frame(opcode: int, body: bytes) -> bytes:
    length = 1 + len(body)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    return struct.pack(">IB", length, opcode) + body


def encode_frame(opcode: int, body: dict) -> bytes:
    if opcode not in OPCODES:
        raise ProtocolError(f"bad opcode {opcode}")
    return _frame(opcode, _json(body))


def encode_ack(body: dict) -> bytes:
    """ACK frame; a POLL reply's ``runs`` are cut to their first half of
    rows until it fits.

    The client advances only past what it receives, so the rest comes with
    its next fetch.  A first row that fits no frame raises ProtocolError.
    """
    while True:
        data = _json(body)
        runs = body.get("runs", ())
        n = sum(len(run[3]) for run in runs)
        if 1 + len(data) <= MAX_FRAME or n <= 1:
            return _frame(OP_ACK, data)
        n, cut = n // 2, []
        for partition, offset, keys, values in runs:
            if n > 0:
                cut.append([partition, offset, keys[:n], values[:n]])
            n -= len(values)
        body = {**body, "runs": cut}


def fits_a_poll_reply(key: str, value: str, partitions: int) -> bool:
    """Whether a POLL reply carrying only this row fits MAX_FRAME.

    The reply is sized for a consumer that owns all ``partitions``, the
    row sitting in the last one at offset 2**63 - 1, which no log reaches,
    so it holds wherever the row lands.  JSON escapes a char to at most
    12 bytes (a non-BMP one as two \\uXXXX), and the rest takes under 128
    bytes plus 64 per partition, so only a row near the cap pays for an
    exact encode.
    """
    if 12 * (len(key) + len(value)) + 128 + 64 * partitions <= MAX_FRAME:
        return True
    body = {"runs": [[partitions - 1, 2**63 - 1, [key], [value]]],
            "assigned": list(range(partitions))}
    return 1 + len(_json(body)) <= MAX_FRAME


def _read_exact(sock, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed mid-frame" if chunks else "peer closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> tuple[int, dict]:
    """Read one frame from a connected socket; blocks until complete."""
    (length,) = struct.unpack(">I", _read_exact(sock, 4))
    if length < 1 or length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} out of range")
    payload = _read_exact(sock, length)
    opcode = payload[0]
    if opcode not in OPCODES:
        raise ProtocolError(f"bad opcode {opcode}")
    try:
        body = json.loads(payload[1:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad body: {exc}") from None
    if not isinstance(body, dict):
        raise ProtocolError("body must be a JSON object")
    return opcode, body
