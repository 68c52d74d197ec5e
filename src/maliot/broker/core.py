"""Partitioned, durable, at-least-once message log with consumer groups.

Semantics in brief: a topic is N append-only partitions; a message lands on
partition crc32(key) mod N, getting the next contiguous offset; consumer
groups own a committed offset per partition, and anything at or past the
committed mark is redelivered after a restart.  The broker keeps no read
position: each fetch names the offset every partition starts from, and
returns per partition the byte range of its log that holds the rows read,
as the bytes themselves; the client keeps the positions and splits the
bytes into Runs (see client.py).  The broker holds no Python object per
row, only where each log line starts.  A fetch may carry a commit, and be
held until enough rows arrive, so one request serves one consumer batch.
"""

from __future__ import annotations

import errno
import json
import os
import re
import threading
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import (
    BackpressureTimeoutError,
    BadConfigError,
    BadPartitionCountError,
    LogFormatError,
    MessageTooLargeError,
    OffsetOutOfRangeError,
    ProtocolError,
    TopicExistsError,
    UnknownTopicError,
)
from ..hashing import stable_hash32
from . import protocol
from .protocol import OP_COMMIT, OP_CREATE, OP_POLL, OP_PRODUCE

_TOPIC_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")

FSYNC_POLICIES = ("every_message", "interval")
_BLOCK = 1 << 20  # recovery reads a log this many bytes at a time


class Run(NamedTuple):
    """Consecutive rows of one partition; row i sits at ``offset + i``."""
    partition: int
    offset: int
    keys: list[str]
    values: list[str]


class Fetched(NamedTuple):
    """A fetch as the POLL reply carries it.

    ``runs`` holds ``[partition, offset, rows, nbytes, hw]`` for every
    assigned partition, in the order read, ``rows`` possibly 0 and ``hw``
    the partition's high-water mark; ``data`` is those runs' log lines,
    ``nbytes`` of them per run, one run after another.
    """
    runs: list[list[int]]
    data: bytes


@dataclass(frozen=True)
class BrokerConfig:
    data_dir: str
    fsync: str = "interval"
    fsync_interval_ms: float = 50.0
    # Producers block once a partition holds this many messages past the
    # slowest group's commit, and fail after the timeout.
    max_partition_backlog: int = 1_000_000
    produce_timeout_ms: float = 1000.0


def partition_for_key(key: str, partition_count: int) -> int:
    return stable_hash32(key) % partition_count


def _atomic_write_json(path: str, doc) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _Partition:
    """One append-only log file and where each of its lines starts.

    Line i holds offset i, as ``protocol`` lays it out.  No row is kept in
    memory: a fetch reads its lines back from the file with ``os.pread``.
    """

    def __init__(self, path: str):
        self.path = path
        self._starts = array("q")  # line i's first byte in the file
        self._size = 0  # bytes of whole lines; the file's length
        self._last_sync = 0.0
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            self._recover()
        except BaseException:
            os.close(self._fd)
            raise

    def _recover(self) -> None:
        """Index the file a block at a time, and cut it after the last whole
        line that holds its own offset: a torn final write goes."""
        starts, base, size = self._starts, 0, _BLOCK
        while True:
            block = os.pread(self._fd, size, base)
            if base == 0 and block.startswith(b"{"):
                raise LogFormatError(
                    f"{self.path} is a JSON-lines log from an older maliot; "
                    "this broker reads only tab-separated logs")
            start = 0
            while ((end := block.find(b"\n", start)) >= 0
                   and block.startswith(b"%d\t" % len(starts), start)
                   and block.count(b"\t", start, end) == 3):
                starts.append(base + start)
                start = end + 1
            base += start
            if end >= 0 or len(block) < size:
                break  # a line not holding its offset, or the file's end
            del block  # before the next read, so one block is held at a time
            size = _BLOCK if start else 2 * size  # a line longer than the read
        self._size = base
        if os.fstat(self._fd).st_size != base:
            os.ftruncate(self._fd, base)

    def __len__(self) -> int:
        return len(self._starts)

    def _at(self, offset: int) -> int:
        """Where the line of ``offset`` starts; the file's end past the last."""
        return self._starts[offset] if offset < len(self._starts) else self._size

    def line(self, key: str, value: str) -> bytes:
        """The line that would hold (key, value) at the next offset."""
        return b"%d\t%.6f\t%s\t%s\n" % (len(self._starts), time.time(),
                                        protocol.escape(key), protocol.escape(value))

    def append(self, line: bytes, fsync_now: bool) -> int:
        offset = len(self._starts)
        if os.write(self._fd, line) != len(line):
            os.ftruncate(self._fd, self._size)  # leave no torn line to append to
            raise OSError(errno.EIO, f"short write to {self.path}")
        self._starts.append(self._size)
        self._size += len(line)
        if fsync_now:
            self.sync()
        return offset

    def fit(self, start: int, end: int, room: int) -> int:
        """The last e <= end whose lines from ``start`` take at most ``room`` bytes."""
        limit = self._at(start) + max(room, 0)
        if self._at(end) <= limit:
            return end
        return bisect_right(self._starts, limit, start, end) - 1

    def nbytes(self, start: int, end: int) -> int:
        return self._at(end) - self._at(start)

    def read(self, start: int, end: int) -> bytes:
        if start == end:
            return b""
        return os.pread(self._fd, self.nbytes(start, end), self._at(start))

    def maybe_sync(self, interval_s: float) -> None:
        if time.monotonic() - self._last_sync >= interval_s:
            self.sync()

    def sync(self) -> None:
        os.fsync(self._fd)
        self._last_sync = time.monotonic()

    def close(self) -> None:
        if self._fd is not None:
            self.sync()
            os.close(self._fd)
            self._fd = None


class Broker:
    """In-process broker core; both transports reach it through ``handle``."""

    def __init__(self, config: BrokerConfig | str):
        if isinstance(config, str):
            config = BrokerConfig(data_dir=config)
        if config.fsync not in FSYNC_POLICIES:
            raise BadConfigError(f"fsync policy {config.fsync!r}")
        self.config = config
        self._lock = threading.RLock()
        self._data_arrived = threading.Condition(self._lock)
        self._space_freed = threading.Condition(self._lock)
        self._topics: dict[str, list[_Partition]] = {}
        # group -> topic -> {partition: next offset}, persisted on commit
        self._committed: dict[str, dict[str, dict[int, int]]] = {}
        # (group, topic) -> consumer ids in join order; volatile
        self._members: dict[tuple[str, str], list[str]] = {}
        # topic -> per held fetch, the topic row count that would fill it
        self._marks: dict[str, list[int]] = {}
        self._released = 0  # bumped by release_fetches()
        self._closed = False
        os.makedirs(config.data_dir, exist_ok=True)
        self._topics_path = os.path.join(config.data_dir, "topics.json")
        self._offsets_path = os.path.join(config.data_dir, "offsets.json")
        try:
            self._load()
        except BaseException:
            self.close()  # the partitions opened so far
            raise

    # -- persistence ------------------------------------------------------

    def _load(self) -> None:
        if os.path.exists(self._topics_path):
            with open(self._topics_path, encoding="utf-8") as fh:
                for name, count in json.load(fh).items():
                    parts = self._topics[name] = []
                    for p in range(count):
                        parts.append(_Partition(self._log_path(name, p)))
        if os.path.exists(self._offsets_path):
            # Commits are always fsynced but appends may not be, so after an
            # OS crash a commit can name an offset past the recovered log;
            # clamp it, or new produces would land below the commit.
            with open(self._offsets_path, encoding="utf-8") as fh:
                for gid, topics in json.load(fh).items():
                    self._committed[gid] = {
                        t: {int(p): min(o, len(self._topics[t][int(p)]))
                            for p, o in offs.items()}
                        for t, offs in topics.items()
                    }

    def _log_path(self, topic: str, partition: int) -> str:
        return os.path.join(self.config.data_dir, f"{topic}-{partition}.log")

    # -- topics -----------------------------------------------------------

    def create_topic(self, name: str, partition_count: int) -> None:
        if not _TOPIC_RE.match(name or ""):
            raise BadConfigError(f"bad topic name {name!r}")
        if partition_count < 1:
            raise BadPartitionCountError(f"partition_count={partition_count}")
        with self._lock:
            if name in self._topics:
                raise TopicExistsError(name)
            self._topics[name] = [
                _Partition(self._log_path(name, p)) for p in range(partition_count)
            ]
            _atomic_write_json(self._topics_path, self.topics())

    def _parts(self, topic: str) -> list[_Partition]:
        try:
            return self._topics[topic]
        except KeyError:
            raise UnknownTopicError(topic) from None

    def topics(self) -> dict[str, int]:
        with self._lock:
            return {name: len(parts) for name, parts in self._topics.items()}

    def partition_count(self, topic: str) -> int:
        with self._lock:
            return len(self._parts(topic))

    def partition_length(self, topic: str, partition: int) -> int:
        with self._lock:
            return len(self._parts(topic)[partition])

    # -- produce ----------------------------------------------------------

    def _in_flight(self, topic: str, partition: int) -> int:
        """Messages past the slowest commit among the topic's own groups.

        Only groups that subscribed to or committed on ``topic`` count; with
        none, the whole partition is in flight.
        """
        length = len(self._topics[topic][partition])
        groups = {g for g, t in self._members if t == topic}
        groups.update(g for g, topics in self._committed.items() if topic in topics)
        floor = min((self._committed.get(g, {}).get(topic, {}).get(partition, 0)
                     for g in groups), default=0)
        return length - floor

    def produce(self, topic: str, key: str, value: str) -> tuple[int, int]:
        """Durably append one message; returns (partition, offset)."""
        with self._lock:
            parts = self._parts(topic)
            partition = partition_for_key(key, len(parts))
            deadline = time.monotonic() + self.config.produce_timeout_ms / 1000.0
            while self._in_flight(topic, partition) >= self.config.max_partition_backlog:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BackpressureTimeoutError(
                        f"{topic}[{partition}] backlog over "
                        f"{self.config.max_partition_backlog}"
                    )
                self._space_freed.wait(remaining)
                self._parts(topic)  # re-raise if topic vanished
            part = parts[partition]
            line = part.line(key, value)
            if len(line) > protocol.poll_reply_room(len(parts)):
                # it could never be fetched over TCP, and would wedge the partition
                raise MessageTooLargeError(f"{topic}[{partition}] message of "
                                           f"{len(line)} bytes fits no POLL reply")
            offset = part.append(line, self.config.fsync == "every_message")
            if self.config.fsync == "interval":
                part.maybe_sync(self.config.fsync_interval_ms / 1000.0)
            marks = self._marks.get(topic)
            if marks and min(marks) <= sum(map(len, parts)):
                self._data_arrived.notify_all()
            return partition, offset

    # -- consume ----------------------------------------------------------

    def _assignment(self, group_id: str, topic: str, consumer_id: str) -> list[int]:
        """Join if needed; members split partitions round-robin by join order."""
        n = len(self._parts(topic))
        members = self._members.setdefault((group_id, topic), [])
        if consumer_id not in members:
            members.append(consumer_id)
        rank = members.index(consumer_id)
        return [p for p in range(n) if p % len(members) == rank]

    def subscribe(self, group_id: str, topic: str,
                  consumer_id: str = "_default") -> None:
        """Join the group's membership for ``topic``."""
        with self._lock:
            self._assignment(group_id, topic, consumer_id)

    def leave(self, group_id: str, topic: str,
              consumer_id: str = "_default") -> None:
        with self._lock:
            members = self._members.get((group_id, topic), [])
            if consumer_id in members:
                members.remove(consumer_id)

    def fetch(self, group_id: str, topic: str, positions: dict[int, int],
              max_messages: int = 100, timeout_ms: float = 0.0,
              consumer_id: str = "_default", min_messages: int = 1,
              commit: dict[int, int] | None = None) -> Fetched:
        """Read up to max_messages rows from this consumer's partitions.

        ``commit``, when given, is applied first, as ``commit()`` applies it.
        Each assigned partition starts at ``positions[p]``, or at the
        group's committed offset when the caller names none.  Unnamed
        partitions are read first, then named ones in the caller's order,
        so a client that rotates its positions gets fair turns under the
        cap.  The rows also stop where the next would take the reply past
        ``protocol.poll_reply_room``; the first row always goes.  Held
        until it has min_messages rows or its reply is full, or until
        timeout_ms with whatever it has (no rows is normal); only a
        produce that can fill it, or ``release_fetches``, wakes it.  Keeps
        no state.
        """
        if max_messages < 0:
            raise BadConfigError(f"max_messages={max_messages}")
        deadline = time.monotonic() + timeout_ms / 1000.0
        wanted = min(min_messages, max_messages)
        with self._lock:
            if commit:
                self.commit(group_id, topic, commit)
            released = self._released
            while True:
                parts = self._parts(topic)
                assigned = self._assignment(group_id, topic, consumer_id)
                committed = self._committed.get(group_id, {}).get(topic, {})
                order = [p for p in assigned if p not in positions]
                order += [p for p in positions if p in assigned]
                spans, got, full = [], 0, False
                room = protocol.poll_reply_room(len(parts))
                for p in order:
                    part = parts[p]
                    start = positions.get(p, committed.get(p, 0))
                    if not 0 <= start <= len(part):
                        raise OffsetOutOfRangeError(
                            f"{topic}[{p}] position {start} > high water {len(part)}"
                        )
                    end = min(len(part), start + max_messages - got)
                    stop = part.fit(start, end, room)
                    if stop < end:
                        full = True
                        if not got:  # one too big for the frame then gets an ERR
                            stop = max(stop, start + 1)
                    spans.append((p, part, start, stop))
                    got += stop - start
                    # a full reply takes no row from a later partition either
                    room = 0 if full else room - part.nbytes(start, stop)
                remaining = deadline - time.monotonic()
                if got >= wanted or full or remaining <= 0 or released != self._released:
                    if self._closed:  # its files are shut; the rows wait for a restart
                        spans = [(p, part, start, start) for p, part, start, _ in spans]
                    return Fetched(
                        [[p, start, stop - start, part.nbytes(start, stop), len(part)]
                         for p, part, start, stop in spans],
                        b"".join(part.read(start, stop) for _, part, start, stop in spans))
                # any row of the topic may be one of ours: wake at the total
                mark = sum(map(len, parts)) + wanted - got
                self._marks.setdefault(topic, []).append(mark)
                self._data_arrived.wait(remaining)
                self._marks[topic].remove(mark)

    def release_fetches(self) -> None:
        """Return every held fetch now, with the rows it has."""
        with self._lock:
            self._released += 1
            self._data_arrived.notify_all()

    def commit(self, group_id: str, topic: str, offsets: dict[int, int]) -> None:
        """Persist per-partition resume points (offset = next to read)."""
        with self._lock:
            parts = self._parts(topic)
            for p, off in offsets.items():
                if not 0 <= p < len(parts):
                    raise OffsetOutOfRangeError(f"partition {p}")
                if not 0 <= off <= len(parts[p]):
                    raise OffsetOutOfRangeError(
                        f"{topic}[{p}] offset {off} > high water {len(parts[p])}"
                    )
            topic_offsets = self._committed.setdefault(group_id, {}).setdefault(topic, {})
            for p, off in offsets.items():
                topic_offsets[p] = int(off)
            _atomic_write_json(self._offsets_path, self._committed)
            self._space_freed.notify_all()

    def committed(self, group_id: str, topic: str) -> dict[int, int]:
        with self._lock:
            return dict(self._committed.get(group_id, {}).get(topic, {}))

    # -- requests ---------------------------------------------------------

    def handle(self, opcode: int, body: dict) -> tuple[dict, bytes]:
        """One request as the clients build it (see client.py): the ACK's
        body and tail.  The TCP server and the in-process client both call it."""
        if opcode == OP_CREATE:
            self.create_topic(body["topic"], int(body["partitions"]))
            return {"topic": body["topic"], "partitions": int(body["partitions"])}, b""
        if opcode == OP_PRODUCE:
            partition, offset = self.produce(
                body["topic"], str(body["key"]), str(body["value"])
            )
            return {"partition": partition, "offset": offset}, b""
        if opcode == OP_POLL:
            group, topic = body["group"], body["topic"]
            consumer = str(body.get("consumer", "_default"))
            for op in ("subscribe", "leave"):
                if body.get(op):
                    getattr(self, op)(group, topic, consumer)
                    return {}, b""
            positions = {int(p): int(o) for p, o in body.get("positions", {}).items()}
            commit = {int(p): int(o) for p, o in body.get("commit", {}).items()}
            fetched = self.fetch(
                group, topic, positions, int(body.get("max_messages", 100)),
                float(body.get("timeout_ms", 0.0)), consumer,
                int(body.get("min_messages", 1)), commit)
            return {"runs": fetched.runs}, fetched.data
        if opcode == OP_COMMIT:
            offsets = {int(p): int(o) for p, o in body["offsets"].items()}
            self.commit(body["group"], body["topic"], offsets)
            return {}, b""
        raise ProtocolError(f"unexpected opcode {opcode}")

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.release_fetches()
            for parts in self._topics.values():
                for part in parts:
                    part.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
