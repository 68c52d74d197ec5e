"""Producer/consumer clients: one in-process, one speaking the TCP frames.

Both expose the same calls (create_topic, produce, subscribe, poll, lag,
commit, leave) with the same error behavior, so everything downstream
takes "a client" and never cares which transport is underneath.  Both get
a fetch as the broker's log bytes and split them into Runs here, with one
function.  Both keep their read positions here, in the client, and advance
each past the end of the run the fetch returned for it (see core.py); the
broker keeps none.
"""

from __future__ import annotations

import socket
import time

from ..errors import ERROR_REGISTRY, BrokerUnreachableError, MaliotError
from .core import Broker, Fetched, Run
from .protocol import (
    OP_ACK,
    OP_COMMIT,
    OP_CREATE,
    OP_ERR,
    OP_POLL,
    OP_PRODUCE,
    ProtocolError,
    encode_frame,
    read_frame,
    unescape,
)


def split(fetched: Fetched) -> list[Run]:
    """A fetch's log lines as one Run per partition that has rows.

    Every line has three tabs and ends in a newline, and escaping keeps both
    out of key and value, so one split yields four fields per row.
    """
    fields = fetched.data.decode("utf-8", "surrogatepass").replace("\n", "\t").split("\t")
    if len(fields) != 4 * sum(run[2] for run in fetched.runs) + 1:
        raise ProtocolError("POLL reply rows do not match its header")
    if b"\\" in fetched.data:
        fields = [unescape(f) for f in fields]
    runs, i = [], 0
    for partition, offset, n, _, _ in fetched.runs:
        if n:
            j = i + 4 * n
            runs.append(Run(partition, offset, fields[i + 2:j:4], fields[i + 3:j:4]))
            i = j
    return runs


class _PositionKeeper:
    """Read positions per (group, topic), partition -> next offset.

    ``subscribe`` clears them, so a new session resumes from the committed
    offsets.  A fetch returns a run, maybe empty, for each partition it
    assigns, so each assigned partition gets a position, and partitions no
    longer assigned are dropped: a member keeps its position in the
    partitions it still owns, and a partition that changes owner starts
    from its committed offset.  A failed fetch moves nothing, so a retry
    returns the same rows.
    """

    def __init__(self, consumer_id: str):
        self.consumer_id = consumer_id
        self._positions: dict[tuple[str, str], dict[int, int]] = {}
        self._lag: dict[tuple[str, str], dict[int, int]] = {}

    def subscribe(self, group: str, topic: str) -> None:
        self._membership("subscribe", group, topic)
        self._positions.pop((group, topic), None)
        self._lag.pop((group, topic), None)

    def leave(self, group: str, topic: str) -> None:
        self._positions.pop((group, topic), None)
        self._lag.pop((group, topic), None)
        self._membership("leave", group, topic)

    def lag(self, group: str, topic: str) -> dict[int, int]:
        """Per assigned partition, the rows past this session's position at
        the last poll: its high-water mark less the position."""
        return dict(self._lag.get((group, topic), {}))

    def poll(self, group: str, topic: str, max_messages: int = 100,
             timeout_ms: float = 0.0, min_messages: int = 1,
             commit: dict[int, int] | None = None) -> list[Run]:
        """``Broker.fetch`` from the kept positions, then advance them."""
        pos = self._positions.setdefault((group, topic), {})
        fetched = self._fetch(group, topic, pos, max_messages, timeout_ms,
                              min_messages, commit or {})
        runs = split(fetched)
        ends = {p: offset + n for p, offset, n, _, _ in fetched.runs}
        for p in set(pos).difference(ends):
            del pos[p]
        pos.update(ends)
        self._lag[group, topic] = {p: hw - ends[p] for p, _, _, _, hw in fetched.runs}
        if pos:  # rotate, so the next capped fetch starts elsewhere
            first = next(iter(pos))
            pos[first] = pos.pop(first)
        return runs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class InProcClient(_PositionKeeper):
    """Thin veneer over a Broker object living in the same process."""

    def __init__(self, broker: Broker, consumer_id: str = "_default"):
        super().__init__(consumer_id)
        self.broker = broker

    def create_topic(self, topic: str, partitions: int) -> None:
        self.broker.create_topic(topic, partitions)

    def produce(self, topic: str, key: str, value: str) -> tuple[int, int]:
        return self.broker.produce(topic, key, value)

    def _membership(self, op: str, group: str, topic: str) -> None:
        getattr(self.broker, op)(group, topic, self.consumer_id)

    def _fetch(self, group, topic, positions, max_messages, timeout_ms,
               min_messages, commit):
        return self.broker.fetch(group, topic, positions, max_messages,
                                 timeout_ms, self.consumer_id, min_messages, commit)

    def commit(self, group: str, topic: str, offsets: dict[int, int]) -> None:
        self.broker.commit(group, topic, offsets)

    def close(self) -> None:
        pass


class TcpClient(_PositionKeeper):
    """Blocking single-connection client for the D-frame protocol.

    Connection establishment retries a few times with a flat delay and
    then gives up loudly; a lost connection mid-call surfaces as the same
    error so callers treat both as "broker gone".
    """

    def __init__(self, host: str, port: int, consumer_id: str = "_default",
                 connect_retries: int = 3, retry_delay_s: float = 0.2,
                 timeout_s: float = 30.0):
        super().__init__(consumer_id)
        self.host = host
        self.port = port
        self.connect_retries = connect_retries
        self.retry_delay_s = retry_delay_s
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        last: Exception | None = None
        for attempt in range(self.connect_retries):
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._sock = sock
                return sock
            except OSError as exc:
                last = exc
                if attempt + 1 < self.connect_retries:
                    time.sleep(self.retry_delay_s)
        raise BrokerUnreachableError(
            f"{self.host}:{self.port} after {self.connect_retries} attempts: {last}"
        )

    def _call(self, opcode: int, body: dict) -> tuple[dict, bytes]:
        """One request and its ACK: the reply's body and tail."""
        frame = encode_frame(opcode, body)
        sock = self._connect()
        # a held POLL is answered up to its timeout_ms late
        timeout = self.timeout_s + body.get("timeout_ms", 0) / 1000.0
        if sock.gettimeout() != timeout:
            sock.settimeout(timeout)
        try:
            sock.sendall(frame)
            op, reply, tail = read_frame(sock)
        except (ConnectionError, OSError) as exc:
            self._drop()
            raise BrokerUnreachableError(f"{self.host}:{self.port}: {exc}") from None
        except ProtocolError:
            self._drop()  # what is left of a bad frame would read as the next reply
            raise
        if op == OP_ERR:
            cls = ERROR_REGISTRY.get(reply.get("error", ""), MaliotError)
            raise cls(reply.get("message", ""))
        if op != OP_ACK:
            self._drop()
            raise ProtocolError(f"unexpected reply opcode {op}")
        return reply, tail

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def create_topic(self, topic: str, partitions: int) -> None:
        self._call(OP_CREATE, {"topic": topic, "partitions": partitions})

    def produce(self, topic: str, key: str, value: str) -> tuple[int, int]:
        r, _ = self._call(OP_PRODUCE, {"topic": topic, "key": key, "value": value})
        return int(r["partition"]), int(r["offset"])

    def _membership(self, op: str, group: str, topic: str) -> None:
        self._call(OP_POLL, {"group": group, "topic": topic,
                             "consumer": self.consumer_id, op: True})

    def _fetch(self, group, topic, positions, max_messages, timeout_ms,
               min_messages, commit):
        r, data = self._call(OP_POLL, {
            "group": group, "topic": topic, "consumer": self.consumer_id,
            "positions": positions, "max_messages": max_messages,
            "timeout_ms": timeout_ms, "min_messages": min_messages,
            "commit": commit,
        })
        return Fetched(r["runs"], data)

    def commit(self, group: str, topic: str, offsets: dict[int, int]) -> None:
        self._call(OP_COMMIT, {
            "group": group, "topic": topic,
            "offsets": {str(p): int(o) for p, o in offsets.items()},
        })

    def close(self) -> None:
        self._drop()
