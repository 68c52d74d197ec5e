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
    """ACK frame; a POLL reply's ``messages`` are halved until it fits.

    The client advances only past what it receives, so the rest comes with
    its next fetch.  A first message that fits no frame raises ProtocolError.
    """
    while True:
        data = _json(body)
        messages = body.get("messages", ())
        if 1 + len(data) <= MAX_FRAME or len(messages) <= 1:
            return _frame(OP_ACK, data)
        body = {**body, "messages": messages[:len(messages) // 2]}


def poll_reply(messages, assigned: list[int]) -> dict:
    """A POLL ACK body: the messages, then the consumer's partitions."""
    return {
        "messages": [
            {"topic": m.topic, "partition": m.partition,
             "offset": m.offset, "key": m.key, "value": m.value}
            for m in messages
        ],
        "assigned": assigned,
    }


def fits_a_poll_reply(message, partitions: int) -> bool:
    """Whether a POLL reply carrying only ``message`` fits MAX_FRAME.

    The reply is sized for a consumer that owns all ``partitions``.  JSON
    escapes a char to at most 12 bytes (a non-BMP one as two \\uXXXX), and
    the rest of the reply takes under 128 bytes plus 64 per partition, so
    only a message near the cap pays for an exact encode.
    """
    chars = len(message.topic) + len(message.key) + len(message.value)
    if 12 * chars + 128 + 64 * partitions <= MAX_FRAME:
        return True
    body = poll_reply([message], list(range(partitions)))
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
