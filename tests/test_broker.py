"""Durable partitioned log: ordering, groups, redelivery, recovery."""

import os
import sys
import threading
import time
import tracemalloc
import zlib

import pytest

from maliot.broker import Broker, BrokerConfig, InProcClient, partition_for_key
from maliot.broker.client import split
from maliot.errors import (
    BackpressureTimeoutError,
    BadConfigError,
    BadPartitionCountError,
    LogFormatError,
    OffsetOutOfRangeError,
    TopicExistsError,
    UnknownTopicError,
)

from conftest import rows


@pytest.fixture
def broker(tmp_path):
    with Broker(BrokerConfig(data_dir=str(tmp_path / "b"))) as b:
        yield b


@pytest.fixture
def client(broker):
    return InProcClient(broker)


def test_partitioner_is_stable_crc32():
    key = "device-0"
    want = (zlib.crc32(key.encode()) & 0xFFFFFFFF) % 7
    assert partition_for_key(key, 7) == want
    assert all(partition_for_key(f"k{i}", 5) in range(5) for i in range(100))


def test_produce_assigns_contiguous_offsets(broker):
    broker.create_topic("t", 3)
    key = "fixed"
    placements = [broker.produce("t", key, f"v{i}") for i in range(5)]
    parts = {p for p, _ in placements}
    assert len(parts) == 1                      # key affinity
    assert [o for _, o in placements] == [0, 1, 2, 3, 4]


def test_poll_preserves_partition_order(client):
    client.create_topic("t", 4)
    sent = {}
    for i in range(200):
        key = f"k{i % 17}"
        p, o = client.produce("t", key, str(i))
        sent.setdefault(p, []).append((o, str(i)))
    client.subscribe("g", "t")
    got = {}
    while True:
        batch = rows(client.poll("g", "t", max_messages=33))
        if not batch:
            break
        for m in batch:
            got.setdefault(m.partition, []).append((m.offset, m.value))
    assert got == sent
    for p, pairs in got.items():
        assert [o for o, _ in pairs] == list(range(len(pairs)))  # gap-free


def test_commit_and_resume(broker, client):
    client.create_topic("t", 1)
    for i in range(10):
        client.produce("t", "k", str(i))
    client.subscribe("g", "t")
    first = rows(client.poll("g", "t", max_messages=4))
    client.commit("g", "t", {0: first[-1].offset + 1})
    assert broker.committed("g", "t") == {0: 4}
    # a fresh session resumes exactly at the commit point
    client.subscribe("g", "t")
    rest = rows(client.poll("g", "t", max_messages=100))
    assert [m.value for m in rest] == [str(i) for i in range(4, 10)]


def test_uncommitted_messages_redelivered_on_resubscribe(client):
    client.create_topic("t", 1)
    for i in range(6):
        client.produce("t", "k", str(i))
    client.subscribe("g", "t")
    seen = rows(client.poll("g", "t", max_messages=100))
    assert len(seen) == 6
    # consumer dies without committing; its replacement sees everything again
    client.subscribe("g", "t")
    again = rows(client.poll("g", "t", max_messages=100))
    assert [(m.partition, m.offset) for m in again] == \
           [(m.partition, m.offset) for m in seen]


def test_two_consumers_split_partitions_disjointly(broker):
    broker.create_topic("t", 4)
    for i in range(100):
        broker.produce("t", f"k{i}", str(i))
    a, b = InProcClient(broker, "a"), InProcClient(broker, "b")
    a.subscribe("g", "t")
    b.subscribe("g", "t")
    pa = {m.partition for m in rows(a.poll("g", "t", 1000))}
    pb = {m.partition for m in rows(b.poll("g", "t", 1000))}
    assert pa and pb
    assert pa.isdisjoint(pb)
    assert pa | pb == {0, 1, 2, 3}


def test_single_member_owns_everything_after_peer_leaves(broker):
    broker.create_topic("t", 4)
    a, b = InProcClient(broker, "a"), InProcClient(broker, "b")
    a.subscribe("g", "t")
    b.subscribe("g", "t")
    b.leave("g", "t")
    for i in range(40):
        broker.produce("t", f"k{i}", str(i))
    got = rows(a.poll("g", "t", 1000))
    assert {m.partition for m in got} == {0, 1, 2, 3}
    assert len(got) == 40


def test_groups_are_independent(client):
    client.create_topic("t", 1)
    client.produce("t", "k", "x")
    client.subscribe("g1", "t")
    client.subscribe("g2", "t")
    assert len(rows(client.poll("g1", "t", 10))) == 1
    assert len(rows(client.poll("g2", "t", 10))) == 1  # both groups see the message


def test_restart_preserves_log_and_commits(tmp_path):
    data = str(tmp_path / "b")
    with Broker(BrokerConfig(data_dir=data)) as b:
        b.create_topic("t", 2)
        for i in range(20):
            b.produce("t", f"k{i}", str(i))
        c = InProcClient(b)
        c.subscribe("g", "t")
        batch = rows(c.poll("g", "t", 7))
        by_part = {}
        for m in batch:
            by_part[m.partition] = m.offset + 1
        b.commit("g", "t", by_part)
        committed_before = b.committed("g", "t")

    with Broker(BrokerConfig(data_dir=data)) as b:
        assert b.topics() == {"t": 2}
        assert b.committed("g", "t") == committed_before
        c = InProcClient(b)
        c.subscribe("g", "t")
        rest = rows(c.poll("g", "t", 100))
        total = sum(committed_before.values()) + len(rest)
        assert total == 20


def test_torn_tail_truncated_on_recovery(tmp_path):
    data = str(tmp_path / "b")
    with Broker(BrokerConfig(data_dir=data)) as b:
        b.create_topic("t", 1)
        for i in range(5):
            b.produce("t", "k", str(i))
    log_path = os.path.join(data, "t-0.log")
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write("5\t1600000000.25")  # simulated torn write
    with Broker(BrokerConfig(data_dir=data)) as b:
        assert b.partition_length("t", 0) == 5
        p, o = b.produce("t", "k", "5")
        assert o == 5
        c = InProcClient(b)
        c.subscribe("g", "t")
        vals = [m.value for m in rows(c.poll("g", "t", 100))]
        assert vals == ["0", "1", "2", "3", "4", "5"]


def test_commit_past_recovered_log_is_clamped(tmp_path):
    # commits are fsynced, appends may not be: an OS crash can leave
    # offsets.json naming an offset the recovered log does not reach
    data = str(tmp_path / "b")
    with Broker(BrokerConfig(data_dir=data)) as b:
        b.create_topic("t", 1)
        for i in range(6):
            b.produce("t", "k", str(i))
        b.commit("g", "t", {0: 6})
    log_path = os.path.join(data, "t-0.log")
    with open(log_path) as fh:
        lines = fh.readlines()
    with open(log_path, "w") as fh:
        fh.writelines(lines[:4])
    with Broker(BrokerConfig(data_dir=data)) as b:
        assert b.committed("g", "t") == {0: 4}
        assert b.produce("t", "k", "new") == (0, 4)
        c = InProcClient(b)
        c.subscribe("g", "t")
        assert [(m.offset, m.value) for m in rows(c.poll("g", "t", 10))] == [(4, "new")]


def test_fetch_starts_where_the_caller_says(broker):
    broker.create_topic("t", 2)
    for i in range(10):
        broker.produce("t", f"k{i}", str(i))
    sizes = [broker.partition_length("t", p) for p in (0, 1)]
    broker.commit("g", "t", {0: 1})
    fetched = broker.fetch("g", "t", {1: 2}, 100)
    # a run per assigned partition, the unnamed one first, with its high water
    assert [(p, hw) for p, _, _, _, hw in fetched.runs] == [(0, sizes[0]), (1, sizes[1])]
    got = {}
    for m in rows(split(fetched)):
        got.setdefault(m.partition, []).append(m.offset)
    assert got[0] == list(range(1, sizes[0]))  # committed offset
    assert got.get(1, []) == list(range(2, sizes[1]))  # caller's position
    # the broker keeps nothing: the same fetch returns the same rows
    assert broker.fetch("g", "t", {1: 2}, 100) == fetched
    with pytest.raises(OffsetOutOfRangeError):
        broker.fetch("g", "t", {0: sizes[0] + 1}, 100)


def test_capped_polls_take_turns_across_partitions(client):
    client.create_topic("t", 3)
    for i in range(300):
        client.produce("t", f"k{i}", str(i))
    client.subscribe("g", "t")
    order = [rows(client.poll("g", "t", max_messages=1))[0].partition for _ in range(9)]
    assert set(order[:3]) == set(order[3:6]) == set(order[6:]) == {0, 1, 2}


def test_rebalance_keeps_positions_in_owned_partitions(broker):
    broker.create_topic("t", 2)
    for i in range(40):
        broker.produce("t", f"k{i}", str(i))
    a, b = InProcClient(broker, "a"), InProcClient(broker, "b")
    a.subscribe("g", "t")
    first = rows(a.poll("g", "t", 1000))
    assert {m.partition for m in first} == {0, 1}
    b.subscribe("g", "t")  # takes partition 1; nothing was committed
    assert rows(a.poll("g", "t", 1000)) == []  # a keeps its position in 0
    got = rows(b.poll("g", "t", 1000))
    assert {m.partition for m in got} == {1}
    assert got[0].offset == 0  # a moved partition starts at its commit
    b.leave("g", "t")
    back = rows(a.poll("g", "t", 1000))  # partition 1 returns, from its commit
    assert {m.partition for m in back} == {1}
    assert back[0].offset == 0


def test_backpressure_blocks_then_times_out(tmp_path):
    config = BrokerConfig(data_dir=str(tmp_path / "b"),
                          max_partition_backlog=3, produce_timeout_ms=80.0)
    with Broker(config) as b:
        b.create_topic("t", 1)
        for i in range(3):
            b.produce("t", "k", str(i))
        with pytest.raises(BackpressureTimeoutError):
            b.produce("t", "k", "overflow")
        # consuming frees space for a blocked producer
        c = InProcClient(b)
        c.subscribe("g", "t")
        got = rows(c.poll("g", "t", 2))
        unblocked = []

        def producer():
            unblocked.append(b.produce("t", "k", "late"))

        th = threading.Thread(target=producer)
        th.start()
        b.commit("g", "t", {0: got[-1].offset + 1})
        th.join(timeout=2)
        assert unblocked == [(0, 3)]


def test_backpressure_ignores_groups_on_other_topics(tmp_path):
    config = BrokerConfig(data_dir=str(tmp_path / "b"),
                          max_partition_backlog=5, produce_timeout_ms=80.0)
    with Broker(config) as b:
        b.create_topic("a", 1)
        b.create_topic("b", 1)
        c = InProcClient(b)
        c.subscribe("gb", "b")  # never touches topic a
        c.subscribe("ga", "a")
        for i in range(12):  # well past the backlog, "ga" keeping up
            b.produce("a", "k", str(i))
            got = rows(c.poll("ga", "a", 10))
            b.commit("ga", "a", {0: got[-1].offset + 1})
        assert b.partition_length("a", 0) == 12
        # a group that lags on its own topic still holds producers back
        for i in range(5):
            b.produce("b", "k", str(i))
        with pytest.raises(BackpressureTimeoutError):
            b.produce("b", "k", "overflow")


def test_poll_blocks_until_data_arrives(broker, client):
    broker.create_topic("t", 1)
    client.subscribe("g", "t")

    def later():
        broker.produce("t", "k", "ping")

    th = threading.Timer(0.05, later)
    th.start()
    got = rows(client.poll("g", "t", 10, timeout_ms=2000.0))
    th.join()
    assert [m.value for m in got] == ["ping"]


def test_poll_timeout_returns_empty(client):
    client.create_topic("t", 1)
    client.subscribe("g", "t")
    assert rows(client.poll("g", "t", 10, timeout_ms=30.0)) == []


def _until_held(broker, topic):
    """Wait until a fetch is held on ``topic``."""
    deadline = time.monotonic() + 2.0
    while not broker._marks.get(topic):
        assert time.monotonic() < deadline, "no fetch was held"
        time.sleep(0.005)


def test_a_produce_below_a_held_fetchs_mark_wakes_nothing(broker, client):
    broker.create_topic("t", 3)
    client.subscribe("g", "t")
    cond = broker._data_arrived
    notify_all, wakes = cond.notify_all, []
    cond.notify_all = lambda: (wakes.append(1), notify_all())
    got = []
    th = threading.Thread(target=lambda: got.extend(
        client.poll("g", "t", 100, timeout_ms=5000.0, min_messages=5)))
    th.start()
    _until_held(broker, "t")
    for i in range(4):
        broker.produce("t", f"k{i}", str(i))
    assert wakes == []
    broker.produce("t", "k4", "4")
    th.join(2.0)
    assert not th.is_alive()
    assert wakes == [1]
    assert sorted(m.value for m in rows(got)) == ["0", "1", "2", "3", "4"]


def test_held_fetches_lose_no_wake_up_under_contention(broker):
    """Four groups hold fetches for 7 rows while three producers race; a
    lost wake-up would leave a fetch short until its 5 s timeout."""
    broker.create_topic("t", 3)
    n_rows, produced = 3 * 200, threading.Event()
    seen = {g: [] for g in "abcd"}
    short_early = []

    def produce(i):
        for j in range(200):
            broker.produce("t", f"k{i}-{j % 5}", f"{i}:{j}")

    def consume(group):
        c = InProcClient(broker, consumer_id=group)
        c.subscribe(group, "t")
        while len(seen[group]) < n_rows:
            wait_ms = 50.0 if produced.is_set() else 5000.0  # the tail is short of 7
            got = rows(c.poll(group, "t", 1000, timeout_ms=wait_ms, min_messages=7))
            if len(got) < 7 and not produced.is_set():
                short_early.append((group, len(got)))
            seen[group].extend(m.value for m in got)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        consumers = [threading.Thread(target=consume, args=(g,)) for g in seen]
        producers = [threading.Thread(target=produce, args=(i,)) for i in range(3)]
        for t in consumers + producers:
            t.start()
        for t in producers:
            t.join(10.0)
        produced.set()
        broker.release_fetches()
        for t in consumers:
            t.join(10.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in consumers + producers)
    assert short_early == []
    assert all(sorted(v) == sorted(f"{i}:{j}" for i in range(3) for j in range(200))
               for v in seen.values())


def test_broker_close_returns_a_held_fetch(broker, client):
    broker.create_topic("t", 1)
    client.subscribe("g", "t")
    got = []
    th = threading.Thread(target=lambda: got.append(
        client.poll("g", "t", 10, timeout_ms=5000.0)))
    th.start()
    _until_held(broker, "t")
    t0 = time.perf_counter()
    broker.close()
    th.join(2.0)
    assert time.perf_counter() - t0 < 0.2
    assert got == [[]]


def test_error_conditions(broker, tmp_path):
    broker.create_topic("t", 1)
    with pytest.raises(TopicExistsError):
        broker.create_topic("t", 1)
    with pytest.raises(BadPartitionCountError):
        broker.create_topic("u", 0)
    with pytest.raises(BadConfigError):
        broker.create_topic("bad name!", 1)
    with pytest.raises(UnknownTopicError):
        broker.produce("ghost", "k", "v")
    with pytest.raises(UnknownTopicError):
        broker.fetch("g", "ghost", {})
    broker.produce("t", "k", "v")
    with pytest.raises(OffsetOutOfRangeError):
        broker.commit("g", "t", {0: 2})
    with pytest.raises(OffsetOutOfRangeError):
        broker.commit("g", "t", {0: -1})
    with pytest.raises(BadConfigError):
        Broker(BrokerConfig(data_dir=str(tmp_path / "x"), fsync="sometimes"))


def test_fsync_every_message_durable(tmp_path):
    data = str(tmp_path / "b")
    with Broker(BrokerConfig(data_dir=data, fsync="every_message")) as b:
        b.create_topic("t", 1)
        b.produce("t", "k", "precious")
        with open(os.path.join(data, "t-0.log"), encoding="utf-8") as fh:
            offset, _, key, value = fh.readline().rstrip("\n").split("\t")
    assert (offset, key, value) == ("0", "k", "precious")


def test_a_tail_torn_at_every_byte_of_the_last_record_recovers_the_one_before(tmp_path):
    data = str(tmp_path / "b")
    with Broker(data) as b:
        b.create_topic("t", 1)
        for i in range(3):
            b.produce("t", "k", f"v\t{i}")
    log_path = os.path.join(data, "t-0.log")
    with open(log_path, "rb") as fh:
        whole = fh.read()
    last = whole.rindex(b"\n", 0, len(whole) - 1) + 1  # where the third line starts
    for cut in range(last, len(whole)):
        with open(log_path, "wb") as fh:
            fh.write(whole[:cut])
        with Broker(data) as b:
            assert b.partition_length("t", 0) == 2
            assert os.path.getsize(log_path) == last
            assert [m.value for m in rows(split(b.fetch("g", "t", {}, 10)))] == \
                ["v\t0", "v\t1"]
            assert b.produce("t", "k", "again") == (0, 2)


def test_a_json_lines_log_is_refused_not_truncated(tmp_path):
    data = tmp_path / "b"
    data.mkdir()
    (data / "topics.json").write_text('{"t": 1}')
    old = '{"offset":0,"key":"k","value":"v"}\n'
    (data / "t-0.log").write_text(old)
    with pytest.raises(LogFormatError, match="t-0.log"):
        Broker(str(data))
    assert (data / "t-0.log").read_text() == old


def test_a_poll_reports_each_assigned_partitions_lag(broker, client):
    broker.create_topic("t", 3)
    for i in range(30):
        broker.produce("t", f"k{i}", str(i))
    client.subscribe("g", "t")
    assert client.lag("g", "t") == {}
    client.poll("g", "t", 10)
    lag = client.lag("g", "t")
    assert set(lag) == {0, 1, 2} and sum(lag.values()) == 20
    while client.poll("g", "t", 10):
        pass
    assert client.lag("g", "t") == {0: 0, 1: 0, 2: 0}
    broker.produce("t", "k0", "late")
    client.poll("g", "t", 10, timeout_ms=0)
    assert client.lag("g", "t") == {0: 0, 1: 0, 2: 0}  # a poll under the cap drains
    client.subscribe("g", "t")  # a new session knows nothing yet
    assert client.lag("g", "t") == {}


def test_the_broker_keeps_no_heap_per_row(tmp_path):
    """Producing 50k rows retains about their 8-byte line index and nothing
    per row else; so does recovering their log, whose transient peak is
    about one read block however long the log is."""
    from maliot.broker.core import _BLOCK
    row = ("1600000000.25,10.0.0.10,49152,93.184.216.34,443,tcp,ssl,1.5,512,"
           "2048,SF,0,10,900,12,2500,benign,dev-0")
    n, data = 50_000, str(tmp_path / "b")
    tracemalloc.start()
    try:
        with Broker(data) as b:
            b.create_topic("t", 1)
            b.produce("t", "dev-0", row)  # the first produce's one-off costs
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                b.produce("t", "dev-0", row)
            produced = tracemalloc.get_traced_memory()[0] - before
        del b
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with Broker(data) as b:
            retained, peak = (x - before for x in tracemalloc.get_traced_memory())
            assert b.partition_length("t", 0) == n + 1
    finally:
        tracemalloc.stop()
    assert produced / n <= 16
    assert retained / n <= 16
    assert peak - retained <= _BLOCK + 64 * 1024
    assert os.path.getsize(os.path.join(data, "t-0.log")) > 2 * peak
