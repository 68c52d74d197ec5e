"""Partitioned, durable, at-least-once message log with consumer groups.

Semantics in brief: a topic is N append-only partitions; a message lands on
partition crc32(key) mod N, getting the next contiguous offset; consumer
groups own a committed offset per partition, and anything at or past the
committed mark is redelivered after a restart.  The broker keeps no read
position: each fetch names the offset every partition starts from, and
returns one Run per partition read, with no object per row; the client
keeps the positions (see client.py).  A fetch may carry a commit, and be
held until enough rows arrive, so one request serves one consumer batch.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import (
    BackpressureTimeoutError,
    BadConfigError,
    BadPartitionCountError,
    MessageTooLargeError,
    OffsetOutOfRangeError,
    TopicExistsError,
    UnknownTopicError,
)
from ..hashing import stable_hash32
from . import protocol

_TOPIC_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")

FSYNC_POLICIES = ("every_message", "interval")


class Run(NamedTuple):
    """Consecutive rows of one partition; row i sits at ``offset + i``."""
    partition: int
    offset: int
    keys: list[str]
    values: list[str]


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
    """One append-only log: keys and values in memory (offset = index) plus its file."""

    def __init__(self, path: str):
        self.path = path
        self.keys: list[str] = []
        self.values: list[str] = []
        self._fh = None
        self._last_sync = 0.0
        self._recover()

    def _recover(self) -> None:
        if os.path.exists(self.path):
            good_end = 0
            with open(self.path, "rb") as fh:
                for line in fh:
                    if not line.endswith(b"\n"):
                        break  # torn final write
                    try:
                        doc = json.loads(line)
                        if doc["offset"] != len(self.values):
                            break
                        key, value = doc["key"], doc["value"]
                    except (ValueError, KeyError, TypeError):
                        break
                    self.keys.append(key)
                    self.values.append(value)
                    good_end += len(line)
            size = os.path.getsize(self.path)
            if good_end != size:
                with open(self.path, "r+b") as fh:
                    fh.truncate(good_end)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, key: str, value: str, fsync_now: bool) -> int:
        offset = len(self.values)
        line = json.dumps(
            {"offset": offset, "key": key, "value": value},
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        if fsync_now:
            os.fsync(self._fh.fileno())
            self._last_sync = time.monotonic()
        self.keys.append(key)
        self.values.append(value)
        return offset

    def maybe_sync(self, interval_s: float) -> None:
        now = time.monotonic()
        if now - self._last_sync >= interval_s:
            os.fsync(self._fh.fileno())
            self._last_sync = now

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._last_sync = time.monotonic()

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None


class Broker:
    """In-process broker core; both transports drive this object."""

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
        self._load()

    # -- persistence ------------------------------------------------------

    def _load(self) -> None:
        if os.path.exists(self._topics_path):
            with open(self._topics_path, encoding="utf-8") as fh:
                for name, count in json.load(fh).items():
                    self._topics[name] = [
                        _Partition(self._log_path(name, p)) for p in range(count)
                    ]
        if os.path.exists(self._offsets_path):
            # Commits are always fsynced but appends may not be, so after an
            # OS crash a commit can name an offset past the recovered log;
            # clamp it, or new produces would land below the commit.
            with open(self._offsets_path, encoding="utf-8") as fh:
                for gid, topics in json.load(fh).items():
                    self._committed[gid] = {
                        t: {int(p): min(o, len(self._topics[t][int(p)].values))
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
            return len(self._parts(topic)[partition].values)

    # -- produce ----------------------------------------------------------

    def _in_flight(self, topic: str, partition: int) -> int:
        """Messages past the slowest commit among the topic's own groups.

        Only groups that subscribed to or committed on ``topic`` count; with
        none, the whole partition is in flight.
        """
        length = len(self._topics[topic][partition].values)
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
            if not protocol.fits_a_poll_reply(key, value, len(parts)):
                # it could never be fetched over TCP, and would wedge the partition
                raise MessageTooLargeError(f"{topic}[{partition}] message of "
                                           f"{len(value)} chars fits no POLL reply")
            offset = part.append(key, value, self.config.fsync == "every_message")
            if self.config.fsync == "interval":
                part.maybe_sync(self.config.fsync_interval_ms / 1000.0)
            marks = self._marks.get(topic)
            if marks and min(marks) <= sum(len(q.values) for q in parts):
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
              commit: dict[int, int] | None = None
              ) -> tuple[list[Run], list[int]]:
        """Read up to max_messages rows from this consumer's partitions.

        ``commit``, when given, is applied first, as ``commit()`` applies it.
        Each assigned partition starts at ``positions[p]``, or at the
        group's committed offset when the caller names none.  Unnamed
        partitions are read first, then named ones in the caller's order,
        so a client that rotates its positions gets fair turns under the
        cap.  Held until it has min_messages rows, or until timeout_ms
        with whatever it has (an empty list is normal); only a produce
        that can fill it, or ``release_fetches``, wakes it.  Returns a Run
        per partition read, in that order, and the partitions now assigned
        to this consumer.  Keeps no state.
        """
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
                runs, room = [], max_messages
                for p in order:
                    keys, values = parts[p].keys, parts[p].values
                    start = positions.get(p, committed.get(p, 0))
                    if not 0 <= start <= len(values):
                        raise OffsetOutOfRangeError(
                            f"{topic}[{p}] position {start} > high water {len(values)}"
                        )
                    end = min(len(values), start + room)
                    if end > start:
                        runs.append(Run(p, start, keys[start:end], values[start:end]))
                        room -= end - start
                remaining = deadline - time.monotonic()
                got = max_messages - room
                if got >= wanted or remaining <= 0 or released != self._released:
                    return runs, assigned
                # any row of the topic may be one of ours: wake at the total
                mark = sum(len(q.values) for q in parts) + wanted - got
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
                if not 0 <= off <= len(parts[p].values):
                    raise OffsetOutOfRangeError(
                        f"{topic}[{p}] offset {off} > high water {len(parts[p].values)}"
                    )
            topic_offsets = self._committed.setdefault(group_id, {}).setdefault(topic, {})
            for p, off in offsets.items():
                topic_offsets[p] = int(off)
            _atomic_write_json(self._offsets_path, self._committed)
            self._space_freed.notify_all()

    def committed(self, group_id: str, topic: str) -> dict[int, int]:
        with self._lock:
            return dict(self._committed.get(group_id, {}).get(topic, {}))

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
