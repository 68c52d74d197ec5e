"""The two workloads, each driving the real process layout from outside.

- broker: ``maliot broker`` in a child process;
- load generator: ``gen.py`` in a child process (one thread, one connection);
- engine: a ``StreamEngine`` over a ``TcpClient`` in this process, looped on
  ``run_cycle()`` the way ``maliot serve`` loops it.

A workload returns per-pass measurements; the oracle and every file read
happen only after the engine's peak RSS has been sampled.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from maliot import sim
from maliot.broker import TcpClient
from maliot.engine import EngineConfig, StreamEngine
from maliot.errors import TopicExistsError
from maliot.flows import read_dataset

import corpus
import oracle
import prepare
import spans
from harness import BrokerProcess, Children, self_cpu_s, self_peak_rss_mb

BATCH_INTERVAL_MS = 10.0
MAX_BATCH_ROWS = 10_000  # `maliot serve` default
SETUPS = 7  # paper-fleet set-ups per run; the median is reported
MIN_DRAINS = 3  # backfill drains per run, at least
IDLE_GIVE_UP_S = 5.0  # no rows for this long after the last produce: lost
TRAIN_TIMEOUT_S = 600.0


@dataclass
class Pass:
    """One engine pass: set-up, the measured stream or drain, its oracle."""
    traced: bool
    setup_s: float
    rows: int = 0
    window_s: float = 0.0
    engine_cpu_s: float = 0.0
    broker_cpu_s: float = 0.0
    parse_errors: int = 0
    verdicts: oracle.Verdicts | None = None
    cycles: list = field(default_factory=list)


@dataclass
class Result:
    workload: str
    passes: list[Pass]
    setup_s: list[float]
    broker_ready_s: list[float]
    replay_rows_per_s: float
    write_cpu_s_per_row: float  # broker CPU while the backfill log was written
    engine_rss_mb: float
    broker_rss_mb: float
    late_ms: np.ndarray
    produce_us: np.ndarray
    log_bytes_per_row: float
    produced: int


class Context:
    def __init__(self, root: str, work: str, children: Children, seed: int):
        self.work = work
        self.children = children
        self.seed = seed
        self.cache = corpus.cache_dir(root, seed)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def ensure_models(self) -> float | None:
        """Train once per seed; training is outside every metric.  Returns
        the training time, or None when the models were cached."""
        if os.path.isdir(self.cache):
            return None
        os.makedirs(os.path.dirname(self.cache), exist_ok=True)
        t0 = time.monotonic()
        proc = self.children.spawn(
            [os.path.join(os.path.dirname(__file__), "prepare.py"),
             str(self.seed), self.cache], "prepare.log")
        proc.wait(TRAIN_TIMEOUT_S)
        if not os.path.isdir(self.cache):
            raise RuntimeError("training failed, see prepare.log")
        return time.monotonic() - t0

    def model(self, kind: str) -> str:
        return prepare.model_path(self.cache, kind)

    def generator(self, args: list[str], name: str):
        proc = self.children.spawn(
            [os.path.join(os.path.dirname(__file__), "gen.py"), *args,
             "--out", self.path(f"{name}.json")],
            f"{name}.log", stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1)
        expect_line(proc, "ready", 120.0)
        return proc


def expect_line(proc, word: str, timeout_s: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith(word):
        raise RuntimeError(f"generator said {line!r}, expected {word!r}")
    return line


def read_generator(path: str) -> dict:
    """The generator's results.  A produce that raised ended its send loop;
    the rows it never produced then count as missing in the oracle."""
    with open(path, encoding="utf-8") as fh:
        g = json.load(fh)
    if g["error"]:
        print(f"perfbench: produce failed after {len(g['offset'])} of "
              f"{g['rows']} rows: {g['error']}", file=sys.stderr)
    return g


def engine_config(model_path: str, pass_dir: str, group: str) -> EngineConfig:
    return EngineConfig(
        model_path=model_path, topic=corpus.TOPIC, group=group,
        feature_set="full", persist_dir=os.path.join(pass_dir, "persist"),
        sink="jsonl_file", sink_path=os.path.join(pass_dir, "verdicts.jsonl"),
        batch_interval_ms=BATCH_INTERVAL_MS, max_batch_rows=MAX_BATCH_ROWS,
    )


class EnginePass:
    """Broker start, topic, model load and engine construction, timed from
    the broker launch until the engine is ready to issue its first poll."""

    def __init__(self, ctx: Context, data_dir: str, name: str,
                 config: EngineConfig, tracer: spans.Tracer | None):
        os.makedirs(os.path.dirname(config.sink_path), exist_ok=True)
        t0 = time.monotonic()
        self.broker = BrokerProcess(ctx.children, data_dir, name)
        self.tcp = TcpClient("127.0.0.1", self.broker.port)
        try:
            self.tcp.create_topic(corpus.TOPIC, corpus.PARTITIONS)
        except TopicExistsError:
            pass  # recovered from the log
        client = self.tcp if tracer is None else spans.TracedClient(self.tcp, tracer)
        self.engine = StreamEngine(client, config)
        self.setup_s = time.monotonic() - t0
        self.config = config
        self.data_dir = data_dir
        self.clock = oracle.FlushClock(self.engine.sink)

    def close(self) -> None:
        self.engine.close()
        self.tcp.close()
        self.broker.stop()


def _drive(ep: EnginePass, tracer, done) -> None:
    """``run_cycle()`` until ``done(rows_so_far)`` says the pass is over."""
    instrument = spans.instrument(ep.engine, tracer) if tracer else nullcontext()
    with instrument as traced_cycle:
        cycle = traced_cycle or ep.engine.run_cycle
        while True:
            if tracer is not None:
                tracer.begin_cycle()
            cycle()
            if done(ep.engine.metrics.rows):
                return


# -- paper-fleet ------------------------------------------------------------

def paper_fleet(ctx: Context, seconds: float, traced: bool) -> Result:
    """9 devices x 50 flows/s sent open loop on their own timestamps;
    forest model, persistence on, 10 ms batch interval.

    With ``traced`` a plain pass runs first, then a traced one; the plain
    pass gives the trace overhead and the CPU figures.
    """
    plain = _fleet_pass(ctx, seconds, None)
    if not traced:
        return plain
    t = _fleet_pass(ctx, seconds, spans.Tracer())
    return replace(plain, passes=plain.passes + t.passes,
                   late_ms=np.concatenate([plain.late_ms, t.late_ms]),
                   produce_us=t.produce_us)


def _fleet_pass(ctx: Context, seconds: float, tracer: spans.Tracer | None) -> Result:
    model = ctx.model("random_forest")
    tag = "plain" if tracer is None else "traced"
    gen = ctx.generator(["paced", "--seed", str(ctx.seed), "--seconds",
                         str(seconds)], f"gen-{tag}")
    setups, ready = [], []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        pass_dir = ctx.path(f"fleet-{tag}-{i}")
        ep = EnginePass(ctx, os.path.join(pass_dir, "broker"), f"broker-{tag}-{i}",
                        engine_config(model, pass_dir, "engine"),
                        tracer if last else None)
        setups.append(ep.setup_s)
        ready.append(ep.broker.ready_s)
        if not last:
            ep.close()
    p = Pass(traced=tracer is not None, setup_s=setups[-1])

    start = time.monotonic() + 0.3  # time for the generator to connect
    gen.stdin.write(f"go {ep.broker.port} {start!r}\n")
    gen.stdin.flush()
    cpu0, bcpu0 = self_cpu_s(), ep.broker.cpu_s()
    expected = None
    last = [0, start]

    def done(rows: int) -> bool:
        nonlocal expected
        now = time.monotonic()
        if rows != last[0]:
            last[:] = [rows, now]
        if expected is None and gen.poll() is not None:
            expected = int(expect_line(gen, "done", 5.0).split()[1])
        return expected is not None and (
            rows >= expected or now - last[1] > IDLE_GIVE_UP_S)

    _drive(ep, tracer, done)
    p.window_s = time.monotonic() - start
    p.engine_cpu_s = self_cpu_s() - cpu0
    p.broker_cpu_s = ep.broker.cpu_s() - bcpu0
    p.rows = ep.engine.metrics.rows
    p.parse_errors = ep.engine.metrics.parse_errors
    engine_rss = self_peak_rss_mb()
    broker_rss = ep.broker.peak_rss_mb()
    ep.close()
    if tracer is not None:
        p.cycles = tracer.cycles

    # -- everything below reads back and checks; nothing here is timed --
    g = read_generator(ctx.path(f"gen-{tag}.json"))
    records = sim.generate(corpus.stream_config(ctx.seed, seconds))
    ref = oracle.reference(records, model)
    produced = list(zip(g["partition"], g["offset"]))
    state = oracle.log_state(ep.data_dir, [ep.config.group])
    p.verdicts = oracle.check_pass(ep.config.sink_path, ep.clock, produced,
                                   np.array(g["due"]), ref, p.parse_errors,
                                   state.lag_rows(ep.config.group))
    return Result(
        workload="paper-fleet", passes=[p], setup_s=setups, broker_ready_s=ready,
        replay_rows_per_s=0.0,  # paper-fleet never calls sim.replay
        write_cpu_s_per_row=0.0, engine_rss_mb=engine_rss,
        broker_rss_mb=broker_rss,
        late_ms=np.array(g["late_ms"]), produce_us=np.array(g["produce_us"]),
        log_bytes_per_row=state.log_bytes / max(len(produced), 1),
        produced=len(produced),
    )


# -- backfill ---------------------------------------------------------------

def backfill(ctx: Context, seconds: float, traced: bool) -> Result:
    """Write the 9 x 120 s corpus with ``sim.replay`` at full speed, then
    restart the broker on the full log and drain it with a decision tree,
    once per drain, each drain a fresh consumer group.

    With ``traced`` the drains alternate plain and traced, so the plain
    ones give the trace overhead and the CPU figures.
    """
    data_dir = ctx.path("backfill-broker")
    gen = ctx.generator(["replay", "--data", prepare.backfill_path(ctx.cache)],
                        "gen-write")
    writer = BrokerProcess(ctx.children, data_dir, "broker-write")
    t_measure = time.monotonic()
    bcpu0 = writer.cpu_s()
    gen.stdin.write(f"go {writer.port} 0\n")
    gen.stdin.flush()
    produced = int(expect_line(gen, "done", 150.0).split()[1])
    gen.wait()
    write_cpu = writer.cpu_s() - bcpu0
    broker_rss = writer.peak_rss_mb()
    writer.stop()

    model = ctx.model("decision_tree")
    drains: list[tuple[Pass, EnginePass, float]] = []
    while (len(drains) < MIN_DRAINS + traced
           or time.monotonic() - t_measure < seconds):
        k = len(drains)
        tracer = spans.Tracer() if traced and k % 2 else None
        ep = EnginePass(ctx, data_dir, f"broker-drain-{k}",
                        engine_config(model, ctx.path(f"drain-{k}"), f"drain-{k}"),
                        tracer)
        p = Pass(traced=tracer is not None, setup_s=ep.setup_s)
        start = time.monotonic()
        cpu0, bcpu0 = self_cpu_s(), ep.broker.cpu_s()
        last = [0, start]

        def done(rows: int) -> bool:
            now = time.monotonic()
            if rows != last[0]:
                last[:] = [rows, now]
            return rows >= produced or now - last[1] > IDLE_GIVE_UP_S

        _drive(ep, tracer, done)
        p.window_s = time.monotonic() - start
        p.engine_cpu_s = self_cpu_s() - cpu0
        p.broker_cpu_s = ep.broker.cpu_s() - bcpu0
        p.rows = ep.engine.metrics.rows
        p.parse_errors = ep.engine.metrics.parse_errors
        broker_rss = max(broker_rss, ep.broker.peak_rss_mb())
        ep.close()
        if tracer is not None:
            p.cycles = tracer.cycles
        if not drains:
            # sampled once: later drains would add allocator growth to the
            # peak, and how many fit in the run depends on speed
            engine_rss = self_peak_rss_mb()
        drains.append((p, ep, start))

    # -- everything below reads back and checks; nothing here is timed --
    g = read_generator(ctx.path("gen-write.json"))
    records, _ = read_dataset(prepare.backfill_path(ctx.cache), "maliot_csv")
    ref = oracle.reference(records, model)
    pairs = list(zip(g["partition"], g["offset"]))
    state = oracle.log_state(data_dir, [ep.config.group for _, ep, _ in drains])
    for p, ep, start in drains:
        # every row of the backlog is due when the drain starts
        p.verdicts = oracle.check_pass(
            ep.config.sink_path, ep.clock, pairs, np.full(len(pairs), start),
            ref, p.parse_errors, state.lag_rows(ep.config.group))
    return Result(
        workload="backfill", passes=[p for p, _, _ in drains],
        setup_s=[p.setup_s for p, _, _ in drains],
        broker_ready_s=[ep.broker.ready_s for _, ep, _ in drains],
        replay_rows_per_s=len(pairs) / g["elapsed_s"],
        write_cpu_s_per_row=write_cpu / max(len(pairs), 1),
        engine_rss_mb=engine_rss, broker_rss_mb=broker_rss,
        late_ms=np.array(g["late_ms"]), produce_us=np.array(g["produce_us"]),
        log_bytes_per_row=state.log_bytes / max(len(pairs), 1),
        produced=len(pairs),
    )


WORKLOADS = {"paper-fleet": paper_fleet, "backfill": backfill}
