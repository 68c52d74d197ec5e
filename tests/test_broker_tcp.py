"""Wire protocol framing and TCP/in-process transport equivalence."""

import json
import os
import socket
import struct
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maliot.broker import Broker, BrokerConfig, BrokerServer, InProcClient, TcpClient
from maliot.broker import protocol
from maliot.broker.client import split
from maliot.broker.protocol import (
    MAX_FRAME,
    OP_ACK,
    OP_COMMIT,
    OP_CREATE,
    OP_ERR,
    OP_POLL,
    OP_PRODUCE,
    ProtocolError,
    encode_ack,
    encode_frame,
    read_frame,
)
from maliot.errors import (
    BrokerUnreachableError,
    MessageTooLargeError,
    OffsetOutOfRangeError,
    TopicExistsError,
    UnknownTopicError,
)

from conftest import rows


# -- framing ------------------------------------------------------------------

def test_frame_byte_layout():
    frame = encode_frame(OP_PRODUCE, {})
    # 4-byte big-endian length (opcode + body), opcode 2, body "{}"
    assert frame == b"\x00\x00\x00\x03\x02{}"


def test_frame_length_counts_opcode_and_body():
    body = {"topic": "t"}
    frame = encode_frame(OP_POLL, body)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert frame[4] == OP_POLL


def test_opcode_values_are_stable():
    assert (OP_CREATE, OP_PRODUCE, OP_POLL, OP_COMMIT, OP_ACK, OP_ERR) \
        == (1, 2, 3, 4, 5, 6)


def test_round_trip_over_socketpair():
    a, b = socket.socketpair()
    try:
        body = {"topic": "flows", "key": "k", "value": "v" * 500}
        a.sendall(encode_frame(OP_PRODUCE, body))
        opcode, got, tail = read_frame(b)
        assert opcode == OP_PRODUCE
        assert got == body
        assert tail == b""
    finally:
        a.close()
        b.close()


def test_bad_opcode_rejected():
    with pytest.raises(ProtocolError):
        encode_frame(99, {})
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", 3) + b"\x63{}")
        with pytest.raises(ProtocolError):
            read_frame(b)
    finally:
        a.close()
        b.close()


def test_oversize_frame_rejected():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(ProtocolError):
            read_frame(b)
    finally:
        a.close()
        b.close()


def test_non_object_body_rejected():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", 5) + bytes([OP_ACK]) + b"[1]!"[:4])
        with pytest.raises(ProtocolError):
            read_frame(b)
    finally:
        a.close()
        b.close()


# -- server -------------------------------------------------------------------

@pytest.fixture
def served(tmp_path):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    server = BrokerServer(broker, port=0)
    server.start()
    yield broker, server
    server.close()
    broker.close()


def _ops(client):
    """Drive one canonical operation sequence; returns observable state."""
    client.create_topic("t", 2)
    placements = [client.produce("t", f"k{i}", f"v{i}") for i in range(12)]
    client.subscribe("g", "t")
    seen = []
    while True:
        batch = rows(client.poll("g", "t", max_messages=5))
        if not batch:
            break
        seen.extend(batch)
    by_part = {}
    for m in seen:
        by_part[m.partition] = max(by_part.get(m.partition, -1), m.offset + 1)
    client.commit("g", "t", by_part)
    return placements, [(m.partition, m.offset, m.key, m.value) for m in seen]


def test_tcp_matches_in_process(served, tmp_path):
    broker, server = served
    with TcpClient(server.host, server.port) as tcp:
        tcp_result = _ops(tcp)
    local = Broker(BrokerConfig(data_dir=str(tmp_path / "local")))
    try:
        inproc_result = _ops(InProcClient(local))
    finally:
        local.close()
    assert tcp_result == inproc_result


def test_tcp_errors_rehydrate_as_typed_exceptions(served):
    broker, server = served
    with TcpClient(server.host, server.port) as tcp:
        tcp.create_topic("t", 1)
        with pytest.raises(TopicExistsError):
            tcp.create_topic("t", 1)
        with pytest.raises(UnknownTopicError):
            tcp.produce("ghost", "k", "v")
        tcp.produce("t", "k", "v")
        with pytest.raises(OffsetOutOfRangeError):
            tcp.commit("g", "t", {0: 99})


def test_concurrent_tcp_clients(served):
    broker, server = served
    with TcpClient(server.host, server.port) as c:
        c.create_topic("t", 4)
    n_clients, per = 4, 50
    errors = []

    def work(i):
        try:
            with TcpClient(server.host, server.port) as c:
                for j in range(per):
                    c.produce("t", f"c{i}-{j}", f"{i}:{j}")
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    total = sum(broker.partition_length("t", p) for p in range(4))
    assert total == n_clients * per


def test_consumer_identity_rides_the_connection(served):
    broker, server = served
    with TcpClient(server.host, server.port) as c:
        c.create_topic("t", 2)
        for i in range(20):
            c.produce("t", f"k{i}", str(i))
    with TcpClient(server.host, server.port, consumer_id="a") as ca, \
            TcpClient(server.host, server.port, consumer_id="b") as cb:
        ca.subscribe("g", "t")
        cb.subscribe("g", "t")
        pa = {m.partition for m in rows(ca.poll("g", "t", 100))}
        pb = {m.partition for m in rows(cb.poll("g", "t", 100))}
        assert pa.isdisjoint(pb)
        assert pa | pb == {0, 1}


def test_unreachable_broker_raises(served):
    broker, server = served
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    client = TcpClient("127.0.0.1", dead_port, connect_retries=1,
                       retry_delay_s=0.01)
    with pytest.raises(BrokerUnreachableError):
        client.produce("t", "k", "v")


def test_close_does_not_wait_on_idle_clients(tmp_path):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("t", 1)
    server = BrokerServer(broker, port=0)
    server.start()
    clients = [TcpClient(server.host, server.port, consumer_id=f"c{i}")
               for i in range(3)]
    for c in clients:
        c.subscribe("g", "t")  # each connection thread now waits in read_frame
    t0 = time.perf_counter()
    server.close()
    elapsed = time.perf_counter() - t0
    for c in clients:
        c.close()
    broker.close()
    assert elapsed < 0.5


def test_close_returns_a_held_fetch(tmp_path):
    broker = Broker(BrokerConfig(data_dir=str(tmp_path / "b")))
    broker.create_topic("t", 1)
    server = BrokerServer(broker, port=0)
    server.start()
    client = TcpClient(server.host, server.port)
    client.subscribe("g", "t")

    def held_poll():
        try:
            client.poll("g", "t", 10, timeout_ms=5000.0)
        except BrokerUnreachableError:
            pass

    th = threading.Thread(target=held_poll)
    th.start()
    time.sleep(0.2)  # the handler thread is now held in Broker.fetch
    handlers = list(server._threads)
    t0 = time.perf_counter()
    server.close()
    elapsed = time.perf_counter() - t0
    th.join(6.0)
    client.close()
    broker.close()
    assert elapsed < 0.2
    assert handlers and not any(t.is_alive() for t in handlers)


def _consumer(served, transport):
    broker, server = served
    if transport == "tcp":
        return TcpClient(server.host, server.port)
    return InProcClient(broker)


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_a_held_fetch_returns_when_its_fifth_row_lands(served, transport):
    broker, _ = served
    broker.create_topic("t", 3)
    client = _consumer(served, transport)
    client.subscribe("g", "t")
    got = {}

    def held_poll():
        got["runs"] = client.poll("g", "t", 100, timeout_ms=5000.0, min_messages=5)
        got["at"] = time.perf_counter()

    th = threading.Thread(target=held_poll)
    th.start()
    for i in range(4):
        broker.produce("t", f"k{i}", str(i))
    time.sleep(0.1)
    assert th.is_alive()  # four rows do not fill it
    fifth = time.perf_counter()
    broker.produce("t", "k4", "4")
    th.join(2.0)
    client.close()
    assert not th.is_alive()
    assert got["at"] - fifth < 1.0  # long before the 5 s timeout
    assert sorted(m.value for m in rows(got["runs"])) == ["0", "1", "2", "3", "4"]


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_a_held_fetch_short_of_rows_returns_them_at_its_deadline(served, transport):
    broker, _ = served
    broker.create_topic("t", 3)
    for i in range(3):
        broker.produce("t", f"k{i}", str(i))
    client = _consumer(served, transport)
    client.subscribe("g", "t")
    t0 = time.perf_counter()
    runs = client.poll("g", "t", 100, timeout_ms=300.0, min_messages=5)
    elapsed = time.perf_counter() - t0
    client.close()
    assert sorted(m.value for m in rows(runs)) == ["0", "1", "2"]
    assert 0.29 <= elapsed < 1.0


def test_a_held_poll_longer_than_the_socket_timeout_returns(served):
    # the socket timeout bounds the broker's silence beyond the hold, not the hold
    broker, server = served
    broker.create_topic("t", 1)
    with TcpClient(server.host, server.port, timeout_s=0.5) as client:
        client.subscribe("g", "t")
        t0 = time.perf_counter()
        runs = client.poll("g", "t", 100, timeout_ms=1500.0, min_messages=10)
        elapsed = time.perf_counter() - t0
    assert runs == []
    assert 1.45 <= elapsed < 1.9


def test_server_keeps_only_live_connection_threads(served):
    broker, server = served
    broker.create_topic("t", 1)
    for i in range(50):
        with TcpClient(server.host, server.port) as c:
            c.produce("t", "k", str(i))
    with TcpClient(server.host, server.port) as c:  # one more accept prunes
        c.produce("t", "k", "last")
        assert len(server._threads) <= 10


# -- delivery over a lossy or capped wire -------------------------------------

def _recv_exactly(sock, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed")
        buf += chunk
    return buf


def _recv_frame_bytes(sock) -> bytes:
    head = _recv_exactly(sock, 4)
    return head + _recv_exactly(sock, struct.unpack(">I", head)[0])


class DroppingProxy:
    """Frame-level relay in front of a broker that can lose one reply.

    After ``drop_next_reply()``, the next request still reaches the broker
    and is handled, but the proxy closes the client's connection instead
    of relaying the reply.  ``upstream`` may be repointed after a broker
    restart.
    """

    def __init__(self, upstream_port: int):
        self.upstream = upstream_port
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._drop = threading.Event()
        threading.Thread(target=self._accept, daemon=True).start()

    def drop_next_reply(self) -> None:
        self._drop.set()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._relay, args=(conn,), daemon=True).start()

    def _relay(self, conn) -> None:
        try:
            with conn, socket.create_connection(("127.0.0.1", self.upstream)) as up:
                while True:
                    up.sendall(_recv_frame_bytes(conn))
                    reply = _recv_frame_bytes(up)
                    if self._drop.is_set():
                        self._drop.clear()
                        return
                    conn.sendall(reply)
        except OSError:
            return

    def close(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept thread
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def test_poll_retried_after_a_dropped_reply_returns_the_same_rows(served):
    broker, server = served
    with DroppingProxy(server.port) as proxy, \
            TcpClient("127.0.0.1", proxy.port) as c:
        c.create_topic("t", 2)
        for i in range(30):
            c.produce("t", f"k{i}", str(i))
        c.subscribe("ref", "t")
        c.poll("ref", "t", 10)
        want = rows(c.poll("ref", "t", 10))

        c.subscribe("g", "t")
        c.poll("g", "t", 10)
        proxy.drop_next_reply()
        with pytest.raises(BrokerUnreachableError):
            c.poll("g", "t", 10)  # handled by the broker, reply lost
        assert rows(c.poll("g", "t", 10)) == want


def test_oversized_reply_is_cut_and_the_poll_is_repeatable(served, monkeypatch):
    broker, server = served
    monkeypatch.setattr(protocol, "MAX_FRAME", 64 * 1024)
    broker.create_topic("t", 1)
    for i in range(2000):
        broker.produce("t", "k", f"{i:06d}" + "x" * 144)  # 150 B rows
    with TcpClient(server.host, server.port) as c:
        c.subscribe("g", "t")
        first = rows(c.poll("g", "t", max_messages=2000))
        assert 0 < len(first) < 2000
        assert [m.offset for m in first] == list(range(len(first)))
        with TcpClient(server.host, server.port) as again:
            again.subscribe("g", "t")  # a restarted consumer retries the poll
            assert rows(again.poll("g", "t", max_messages=2000)) == first
        got = list(first)
        while batch := rows(c.poll("g", "t", max_messages=2000)):
            got.extend(batch)
        assert [m.offset for m in got] == list(range(2000))


def test_message_too_big_for_a_frame_gets_err_and_the_connection_lives(
        served, monkeypatch):
    broker, server = served
    broker.create_topic("t", 1)
    broker.produce("t", "k", "x" * 2000)  # fits the cap it was produced under
    monkeypatch.setattr(protocol, "MAX_FRAME", 1024)
    with TcpClient(server.host, server.port) as c:
        c.subscribe("g", "t")
        sock = c._sock
        with pytest.raises(ProtocolError):
            c.poll("g", "t", 10)
        assert c.produce("t", "k", "small") == (0, 1)
        assert c._sock is sock


def _largest_head(partitions: int) -> int:
    """The largest POLL reply header: a run for every partition, each
    number at 2**63 - 1."""
    return len(json.dumps({"runs": [[2**63 - 1] * 5] * partitions},
                          separators=(",", ":")))


def _line_len(offset: int, key: str, value: str) -> int:
    """Bytes of the log line ``offset\tappend_ts\tkey\tvalue\n``: the stamp
    is %.6f seconds, and an escaped \\, tab, newline or CR takes one more byte."""
    def escaped(text):
        return (len(text.encode("utf-8", "surrogatepass"))
                + sum(text.count(c) for c in "\\\t\n\r"))
    return len(b"%d\t%.6f\t" % (offset, time.time())) + escaped(key) + 1 + escaped(value) + 1


def _reply_bound(partitions: int, line_bytes: int) -> int:
    """What the broker sizes a reply at: opcode, largest header, newline, lines."""
    return 2 + _largest_head(partitions) + line_bytes


def test_message_too_big_for_any_reply_is_refused_at_produce(served, monkeypatch):
    broker, server = served
    broker.create_topic("t", 1)
    with pytest.raises(MessageTooLargeError):
        broker.produce("t", "k", "\t" * 9_000_000)  # 18 MB once escaped
    monkeypatch.setattr(protocol, "MAX_FRAME", 1024)
    value = "x" * 985
    assert len(encode_frame(OP_PRODUCE, {"topic": "t", "key": "k", "value": value})) == 4 + 1020
    assert _reply_bound(1, _line_len(0, "k", value)) > 1024
    with TcpClient(server.host, server.port) as c:
        # a 1020-byte PRODUCE frame whose POLL reply could pass 1024 bytes
        with pytest.raises(MessageTooLargeError):  # rehydrated over TCP
            c.produce("t", "k", value)
        assert c.produce("t", "k", "next") == (0, 0)
        c.subscribe("g", "t")
        assert [m.value for m in rows(c.poll("g", "t", 10))] == ["next"]


@pytest.mark.parametrize("char", ["x", "\x01", "\t", "\U0001f600"])  # 1, 1, 2 (escaped), 4 bytes
def test_largest_message_that_fits_a_reply_round_trips(served, monkeypatch, char):
    broker, server = served
    monkeypatch.setattr(protocol, "MAX_FRAME", 2048)
    broker.create_topic("t", 1)
    n = max(n for n in range(2048)
            if _reply_bound(1, _line_len(0, "k", char * n)) <= 2048)
    with pytest.raises(MessageTooLargeError):
        broker.produce("t", "k", char * (n + 1))
    assert broker.produce("t", "k", char * n) == (0, 0)
    with TcpClient(server.host, server.port) as c:
        c.subscribe("g", "t")
        assert [m.value for m in rows(c.poll("g", "t", 10))] == [char * n]


# any code point: control, non-BMP, lone surrogates
_TEXT = st.text(st.characters(exclude_categories=()), max_size=120)


def _log_lines(data_dir, topic, partitions):
    """Each partition's log lines, newline included, read from its file."""
    out = []
    for p in range(partitions):
        with open(os.path.join(data_dir, f"{topic}-{p}.log"), "rb") as fh:
            out.append([line + b"\n" for line in fh.read().split(b"\n")[:-1]])
    return out


@given(cap=st.integers(64, 3000), partitions=st.integers(1, 3),
       produced=st.lists(st.tuples(_TEXT.map(lambda t: t[:8]), _TEXT), max_size=25),
       max_messages=st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_fetch_reply_fits_the_frame_cap(cap, partitions, produced, max_messages):
    with tempfile.TemporaryDirectory() as data_dir:
        with Broker(data_dir) as broker:
            broker.create_topic("t", partitions)
            placed = [[] for _ in range(partitions)]
            for key, value in produced:
                p, o = broker.produce("t", key, value)
                placed[p].append((p, o, key, value))
            old = protocol.MAX_FRAME
            protocol.MAX_FRAME = cap
            try:
                fetched = broker.fetch("g", "t", {}, max_messages)
                try:
                    frame = encode_ack({"runs": fetched.runs}, fetched.data)
                except ProtocolError:
                    frame = None
            finally:
                protocol.MAX_FRAME = old
            lines = [line for part in _log_lines(data_dir, "t", partitions) for line in part]
    # a fresh consumer reads its partitions in order: the reply is the
    # longest prefix of their rows that fits the room, and at least one row
    want = [row for part in placed for row in part]
    room, fit = cap - 2 - _largest_head(partitions), 0
    while (fit < min(len(want), max_messages)
           and sum(map(len, lines[:fit + 1])) <= room):
        fit += 1
    assert rows(split(fetched)) == want[:max(fit, min(len(want), 1))]
    if frame is None:  # only a first row that fits no room
        assert fit == 0
        return
    assert len(frame) - 4 <= cap
    a, b = socket.socketpair()
    try:
        a.sendall(frame)
        opcode, body, tail = read_frame(b)
    finally:
        a.close()
        b.close()
    assert opcode == OP_ACK
    assert (body, tail) == ({"runs": fetched.runs}, fetched.data)


def test_backfill_sized_reply_fits_one_frame(tmp_path):
    row = ("1600000000.25,10.0.0.10,49152,93.184.216.34,443,tcp,ssl,1.5,512,"
           "2048,SF,0,10,900,12,2500,benign,dev-0") + "x" * 80
    with Broker(str(tmp_path / "b")) as broker:
        broker.create_topic("t", 3)
        for i in range(10_000):
            broker.produce("t", f"dev-{i % 9}", row)
        fetched = broker.fetch("g", "t", {}, 10_000)
    frame = encode_ack({"runs": fetched.runs}, fetched.data)
    assert sum(run[2] for run in fetched.runs) == 10_000  # one reply holds the batch
    assert len(frame) > 1_900_000
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4 <= MAX_FRAME


@given(produced=st.lists(st.tuples(_TEXT.map(lambda t: t[:8]), _TEXT),
                         min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_any_text_round_trips_through_a_restart_and_a_tcp_poll(produced):
    """Tab, newline, CR, backslash, non-BMP and lone surrogates in keys and
    values come back byte for byte: produced, recovered, fetched over TCP."""
    for key, value in produced[:1]:
        produced.append(("\\t\t\n\r\\" + key, "\\n\\\\\n\t\r\U0001f600\udc80" + value))
    with tempfile.TemporaryDirectory() as data_dir:
        with Broker(data_dir) as broker:
            broker.create_topic("t", 2)
            placed = {p: [] for p in range(2)}
            for key, value in produced:
                p, _ = broker.produce("t", key, value)
                placed[p].append((key, value))
        with Broker(data_dir) as broker, BrokerServer(broker) as server, \
                TcpClient(server.host, server.port) as client:
            client.subscribe("g", "t")
            got = {p: [] for p in range(2)}
            while batch := rows(client.poll("g", "t", 7)):
                for m in batch:
                    got[m.partition].append((m.key, m.value))
    assert got == placed


class _BadLengthServer:
    """Answers its first request with a length field over MAX_FRAME followed
    by four bytes, and every later one with a valid PRODUCE ACK."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._replies = [struct.pack(">I", MAX_FRAME + 1) + b"xxxx"]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn:
            try:
                while True:
                    _recv_frame_bytes(conn)
                    conn.sendall(self._replies.pop() if self._replies else
                                 encode_ack({"partition": 0, "offset": 7}))
            except OSError:
                return

    def close(self):
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()


def test_a_bad_reply_frame_drops_the_connection():
    server = _BadLengthServer()
    try:
        with TcpClient("127.0.0.1", server.port) as c:
            with pytest.raises(ProtocolError, match="out of range"):
                c.produce("t", "k", "v")
            # the old socket still holds b"xxxx"; read as a length it fails
            assert c.produce("t", "k", "v") == (0, 7)
    finally:
        server.close()
