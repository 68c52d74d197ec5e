"""Load generator: one process, one thread, one TCP connection.

Two modes:

``paced --seed N --seconds S``
    The paper fleet, open loop: each flow is sent at its own timestamp on
    an absolute schedule (start + ts offset), so a slow broker makes the
    generator late rather than slowing the offered load.
``replay --data CSV``
    ``sim.replay`` at an unlimited rate over the corpus file: the
    ``maliot replay`` path, timed as a whole.

Handshake on stdin/stdout: the generator builds its rows, prints ``ready``,
then waits for ``go PORT START`` (START on the ``time.monotonic`` clock,
which is shared by all processes on one host).  Results go to ``--out`` as
JSON, with each produce round trip; a produce that raises is recorded and
ends the send loop.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from maliot import sim
from maliot.broker import TcpClient
from maliot.errors import MaliotError, TopicExistsError
from maliot.flows import format_row, read_dataset

import corpus


class RecordingClient:
    """Forwards produce() and keeps each reply and its round-trip time."""

    def __init__(self, client: TcpClient):
        self._client = client
        self.partitions: list[int] = []
        self.offsets: list[int] = []
        self.produce_us: list[float] = []

    def produce(self, topic: str, key: str, value: str) -> tuple[int, int]:
        t0 = time.perf_counter()
        p, o = self._client.produce(topic, key, value)
        self.produce_us.append((time.perf_counter() - t0) * 1e6)
        self.partitions.append(p)
        self.offsets.append(o)
        return p, o


def _handshake() -> tuple[int, float]:
    print("ready", flush=True)
    word, port, start = sys.stdin.readline().split()
    if word != "go":
        raise SystemExit(f"bad handshake {word!r}")
    return int(port), float(start)


def run_paced(seed: int, seconds: float) -> dict:
    config = corpus.stream_config(seed, seconds)
    records = sim.generate(config)
    rows = [(r.device_id, format_row(r), r.ts - config.base_ts) for r in records]
    port, start = _handshake()
    due: list[float] = []
    late_ms: list[float] = []
    error = None
    with TcpClient("127.0.0.1", port) as tcp:
        client = RecordingClient(tcp)
        for key, value, offset_s in rows:
            t_due = start + offset_s
            wait = t_due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            late_ms.append((time.monotonic() - t_due) * 1e3)
            try:
                client.produce(corpus.TOPIC, key, value)
            except (MaliotError, OSError) as exc:
                error = repr(exc)
                break
            due.append(t_due)
    return {"rows": len(rows), "partition": client.partitions,
            "offset": client.offsets, "due": due, "late_ms": late_ms,
            "produce_us": client.produce_us, "error": error}


def run_replay(path: str) -> dict:
    records, _ = read_dataset(path, "maliot_csv")
    port, _ = _handshake()
    t_go = time.monotonic()
    error = None
    with TcpClient("127.0.0.1", port) as tcp:
        try:
            tcp.create_topic(corpus.TOPIC, corpus.PARTITIONS)
        except TopicExistsError:
            pass
        client = RecordingClient(tcp)
        t0 = time.monotonic()
        try:
            sim.replay(records, client, corpus.TOPIC, math.inf)
        except (MaliotError, OSError) as exc:
            error = repr(exc)
        elapsed = time.monotonic() - t0
    # no schedule here: the only lateness is how long after "go" sending began
    return {"rows": len(records), "partition": client.partitions,
            "offset": client.offsets, "elapsed_s": elapsed,
            "late_ms": [(t0 - t_go) * 1e3],
            "produce_us": client.produce_us, "error": error}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["paced", "replay"])
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--seed", type=int, help="paced: corpus seed")
    parser.add_argument("--seconds", type=float, help="paced: schedule length")
    parser.add_argument("--data", help="replay: maliot_csv corpus file")
    args = parser.parse_args()
    if args.mode == "paced":
        result = run_paced(args.seed, args.seconds)
    else:
        result = run_replay(args.data)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(f"done {len(result['offset'])}", flush=True)


if __name__ == "__main__":
    main()
