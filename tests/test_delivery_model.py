"""Model-based check of at-least-once delivery over both clients.

A Hypothesis state machine drives a real broker, its TCP server and both
client kinds through produces, polls, commits, polls that carry a commit,
held polls, consumer crashes, replies lost on the wire, replies cut by the
frame cap and broker restarts.  Every
step is checked against a plain-dict model: the log of (key, value) rows
per partition, and per group its committed offsets and its session's read
positions.  Group "h" consumes another topic beside group "g"; since each
group's rows are checked against its own topic's model alone, a group on
another topic can never change what a group receives.
"""

import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from maliot.broker import (
    Broker,
    BrokerServer,
    InProcClient,
    TcpClient,
    partition_for_key,
)
from maliot.broker import protocol
from maliot.errors import BrokerUnreachableError

from conftest import rows
from test_broker_tcp import DroppingProxy

TOPICS = {"t": 3, "u": 2}
GROUPS = {"g": "t", "h": "u"}
TRANSPORTS = ("inproc", "tcp")
KEYS = [f"dev-{i}" for i in range(6)]
# Values are at most 30 code points, so any one message fits in this cap.
SMALL_FRAME = 512

groups = st.sampled_from(sorted(GROUPS))


class DeliveryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp(prefix="maliot-model-")
        self.broker = Broker(self.data_dir)
        for topic, n in TOPICS.items():
            self.broker.create_topic(topic, n)
        self.server = BrokerServer(self.broker, port=0)
        self.server.start()
        self.proxy = DroppingProxy(self.server.port)
        self.clients = {}
        self.log = {t: [[] for _ in range(n)] for t, n in TOPICS.items()}
        self.committed = {g: {} for g in GROUPS}
        self.position = {g: {} for g in GROUPS}  # the session's next offsets
        self.delivered = {g: set() for g in GROUPS}

    # -- sessions -------------------------------------------------------

    def _start_session(self, group, transport):
        old = self.clients.get(group)
        if old is not None:
            old.close()
        if transport == "tcp":
            client = TcpClient("127.0.0.1", self.proxy.port)
        else:
            client = InProcClient(self.broker)
        client.subscribe(group, GROUPS[group])
        self.clients[group] = client
        self.position[group] = dict(self.committed[group])

    @initialize(transports=st.tuples(*(st.sampled_from(TRANSPORTS)
                                       for _ in GROUPS)))
    def connect(self, transports):
        for group, transport in zip(sorted(GROUPS), transports):
            self._start_session(group, transport)

    def _unread(self, group):
        topic = GROUPS[group]
        return sum(len(log) - self.position[group].get(p, 0)
                   for p, log in enumerate(self.log[topic]))

    def _poll_and_check(self, group, max_messages, **kwargs):
        topic = GROUPS[group]
        unread = self._unread(group)
        runs = self.clients[group].poll(group, topic, max_messages, **kwargs)
        assert len(rows(runs)) <= max_messages
        assert bool(runs) == bool(unread)
        for run in runs:
            # each run continues its partition exactly at the session's
            # position, and holds that topic's log from there: a row of
            # another topic would fail the comparison
            start = self.position[group].get(run.partition, 0)
            assert run.offset == start
            end = start + len(run.values)
            assert end > start
            assert list(zip(run.keys, run.values)) == \
                self.log[topic][run.partition][start:end]
            self.position[group][run.partition] = end
            self.delivered[group].update((run.partition, o) for o in range(start, end))
        return runs

    # -- rules ----------------------------------------------------------

    @rule(group=groups, rows=st.lists(
        st.tuples(st.sampled_from(KEYS), st.text(max_size=30)), max_size=8))
    def produce(self, group, rows):
        topic = GROUPS[group]
        for key, value in rows:
            p, o = self.clients[group].produce(topic, key, value)
            assert p == partition_for_key(key, TOPICS[topic])
            assert o == len(self.log[topic][p])
            self.log[topic][p].append((key, value))

    @rule(group=groups, max_messages=st.integers(1, 20))
    def poll(self, group, max_messages):
        self._poll_and_check(group, max_messages)

    @rule(group=groups)
    def poll_under_a_small_frame_cap(self, group):
        old = protocol.MAX_FRAME
        protocol.MAX_FRAME = SMALL_FRAME
        try:
            self._poll_and_check(group, 1000)
        finally:
            protocol.MAX_FRAME = old

    @rule(group=groups)
    def commit(self, group):
        topic = GROUPS[group]
        self.clients[group].commit(group, topic, self.position[group])
        self.committed[group].update(self.position[group])
        assert self.broker.committed(group, topic) == self.committed[group]

    @rule(group=groups, max_messages=st.integers(1, 20))
    def poll_carrying_a_commit(self, group, max_messages):
        done = dict(self.position[group])
        self._poll_and_check(group, max_messages, commit=done)
        self.committed[group].update(done)
        assert self.broker.committed(group, GROUPS[group]) == self.committed[group]

    @rule(group=groups)
    def held_poll_short_of_rows(self, group):
        # more rows wanted than there are: it returns every unread row at
        # its deadline
        unread = self._unread(group)
        runs = self._poll_and_check(group, 1000, timeout_ms=5.0,
                                    min_messages=unread + 1)
        assert len(rows(runs)) == unread

    @rule(group=groups, transport=st.sampled_from(TRANSPORTS + ("same",)))
    def consumer_crashes_before_commit(self, group, transport):
        if transport == "same":
            self.clients[group].subscribe(group, GROUPS[group])
            self.position[group] = dict(self.committed[group])
        else:
            self._start_session(group, transport)

    @precondition(lambda self: any(isinstance(c, TcpClient)
                                   for c in self.clients.values()))
    @rule(data=st.data(), carries_commit=st.booleans())
    def reply_lost_after_the_broker_handled_the_poll(self, data, carries_commit):
        tcp = sorted(g for g, c in self.clients.items() if isinstance(c, TcpClient))
        group = data.draw(st.sampled_from(tcp))
        done = dict(self.position[group]) if carries_commit else {}
        self.proxy.drop_next_reply()
        try:
            self.clients[group].poll(group, GROUPS[group], 20, commit=done)
        except BrokerUnreachableError:
            pass
        else:
            raise AssertionError("the proxy relayed a reply it should drop")
        # the broker applied the commit; the positions did not move, which
        # the next poll's check of each run's start confirms
        self.committed[group].update(done)
        assert self.broker.committed(group, GROUPS[group]) == self.committed[group]

    @rule()
    def broker_restarts(self):
        for client in self.clients.values():
            if isinstance(client, TcpClient):
                client.close()  # keeps its positions; reconnects on next call
        self.server.close()
        self.broker.close()
        self.broker = Broker(self.data_dir)
        self.server = BrokerServer(self.broker, port=0)
        self.server.start()
        self.proxy.upstream = self.server.port
        for client in self.clients.values():
            if isinstance(client, InProcClient):
                client.broker = self.broker
        for group, topic in GROUPS.items():
            assert self.broker.committed(group, topic) == self.committed[group]
            for p, rows in enumerate(self.log[topic]):
                assert self.broker.partition_length(topic, p) == len(rows)

    # -- invariants -----------------------------------------------------

    @invariant()
    def commits_never_pass_the_high_water_mark(self):
        for group, topic in GROUPS.items():
            for p, off in self.broker.committed(group, topic).items():
                assert off <= self.broker.partition_length(topic, p)

    def teardown(self):
        try:
            if self.clients:
                for group, topic in GROUPS.items():
                    while self._poll_and_check(group, 50):
                        pass
                    produced = {(p, o) for p, rows in enumerate(self.log[topic])
                                for o in range(len(rows))}
                    assert produced <= self.delivered[group]
        finally:
            for client in self.clients.values():
                client.close()
            self.proxy.close()
            self.server.close()
            self.broker.close()
            shutil.rmtree(self.data_dir, ignore_errors=True)


DeliveryMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
    report_multiple_bugs=False, suppress_health_check=[HealthCheck.too_slow],
)
test_delivery_matches_the_model = DeliveryMachine.TestCase
