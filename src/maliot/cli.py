"""maliot command line: one binary driving the whole pipeline.

Exit codes: 0 success, 2 usage/config, 3 data error, 4 I/O, 5 network.
Logs go to stderr; result data goes to files or stdout, never mixed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import signal
import sys
import threading

from . import bench as bench_mod
from . import models, sim
from .broker import Broker, BrokerConfig, BrokerServer, TcpClient
from .broker.protocol import ProtocolError
from .engine import EngineConfig, StreamEngine, codec_path_for, retrain_from_persisted
from .errors import (
    BadConfigError,
    BrokerUnreachableError,
    MaliotError,
    ModelLoadError,
)
from .features import encode_batch, fit_codec
from .flows import read_dataset, sniff_dialect, write_records
from .models import LinearConfig, MlpConfig

log = logging.getLogger("maliot")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_NETWORK = 5

_KIND_CHOICES = list(models.MODEL_KINDS)
_FEATURE_ALIASES = {"full": "full", "deid": "de_identified",
                    "de_identified": "de_identified"}


def _read_config_file(path: str) -> dict[str, str]:
    """key = value lines; '#' comments; keys may carry a subcommand prefix
    like serve.batch-interval-ms."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise BadConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _as_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise BadConfigError(f"not a boolean: {s!r}")


class Settings:
    """Flag > config file > built-in default, resolved per lookup."""

    def __init__(self, args: argparse.Namespace, file_values: dict[str, str]):
        self.args = args
        self.file_values = file_values
        self.sub = args.command

    def get(self, name: str, default=None, cast=str):
        dest = name.replace("-", "_")
        value = getattr(self.args, dest, None)
        if value is not None:
            if isinstance(value, str) and cast is not str:
                return _cast(name, value, cast)
            return value
        for key in (f"{self.sub}.{name}", name):
            if key in self.file_values:
                return _cast(key, self.file_values[key], cast)
        return default


def _cast(key: str, raw: str, cast):
    try:
        return _as_bool(raw) if cast is bool else cast(raw)
    except ValueError:
        raise BadConfigError(f"{key} = {raw!r} is not a valid {cast.__name__}") from None


def _parse_sweep(text: str) -> list[int]:
    """Device sweeps: '1:9' is an inclusive range, '1,3,5' a list."""
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",") if p.strip()]


def _feature_set(name: str) -> str:
    try:
        return _FEATURE_ALIASES[name]
    except KeyError:
        raise BadConfigError(
            f"unknown feature set {name!r}, want full or deid") from None


def _sim_config(s: Settings, seed: int) -> sim.SimConfig:
    return sim.SimConfig(
        n_devices=s.get("devices", 9, int),
        duration_s=s.get("duration", 120.0, float),
        anomaly_device_fraction=s.get("fraction", 0.349, float),
        seed=seed,
        rate_flows_per_s=s.get("rate", 50.0, float),
        overlap=s.get("overlap", 0.0, float),
        cnc_fixed_size=s.get("cnc-fixed-size", False, bool),
    )


def _split_addr(key: str, addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdecimal() or not 1 <= int(port) <= 65535:
        raise BadConfigError(f"{key}: bad address {addr!r}, want host:port "
                             "with port 1-65535")
    return host, int(port)


# -- subcommands --------------------------------------------------------------

def cmd_gen(s: Settings, seed: int) -> int:
    out = s.get("out")
    to_broker = s.get("to-broker")
    if not out and not to_broker:
        raise BadConfigError("one of --out or --to-broker is required")
    config = _sim_config(s, seed)
    records = sim.generate(config)
    if out:
        if out == "-":
            from .flows import MALIOT_CSV_HEADER, format_row
            sys.stdout.write(MALIOT_CSV_HEADER + "\n")
            for r in records:
                sys.stdout.write(format_row(r) + "\n")
        else:
            write_records(records, out)
        log.info("wrote %d rows to %s", len(records), out)
    if to_broker:
        host, port = _split_addr("to-broker", to_broker)
        topic = s.get("topic", "flows")
        with TcpClient(host, port) as client:
            _ensure_topic(client, topic, s.get("partitions", 3, int))
            n = sim.replay(records, client, topic)
        log.info("produced %d rows to %s/%s", n, to_broker, topic)
    return EXIT_OK


def _load_training_files(paths: list[str]):
    records = []
    rejected = 0
    for path in paths:
        dialect = sniff_dialect(path)
        rows, stats = read_dataset(path, dialect)
        records.extend(rows)
        rejected += stats.rows_rejected
        log.info("read %d rows from %s (%s, %d rejected)",
                 len(rows), path, dialect, stats.rows_rejected)
    return records, rejected


def _model_config_for(kind: str, epochs: int | None):
    if epochs is None:
        return None
    if kind == "ann":
        return MlpConfig(n_epoch=epochs)
    if kind in ("logistic_regression", "linear_svm"):
        return LinearConfig(n_epoch=epochs)
    return None


def cmd_train(s: Settings, seed: int) -> int:
    kind = s.get("model")
    feature_set = _feature_set(s.get("features", "full"))
    out = s.get("out")
    records, rejected = _load_training_files(s.args.data)
    train_recs, test_recs = bench_mod.split_records(records, 0.8, seed)
    codec = fit_codec(train_recs, feature_set)
    Xtr, ytr = encode_batch(train_recs, codec)
    model = models.train(
        kind, Xtr, ytr,
        config=_model_config_for(kind, s.get("epochs", None, int)),
        seed=seed, codec_fingerprint=codec.fingerprint(),
        version=s.get("version", 1, int),
    )
    # codec first: `serve --watch-model` watches the model file
    codec.save(codec_path_for(out))
    models.save_model(model, out)
    Xte, yte = encode_batch(test_recs, codec)
    metrics = models.evaluate(model, Xte, yte)
    print(json.dumps({
        "kind": kind, "feature_set": feature_set, "version": model.version,
        "rows": len(records), "rejected": rejected,
        "accuracy": metrics.accuracy, "precision": metrics.precision,
        "recall": metrics.recall, "f1": metrics.f1,
        "confusion": metrics.confusion,
        "model": out, "codec": codec_path_for(out),
    }))
    return EXIT_OK


@contextlib.contextmanager
def _stop_on_signals():
    """Yield an event that SIGINT and SIGTERM set; restore the old handlers
    on the way out, so an in-process caller keeps its own."""
    stop = threading.Event()
    previous = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread (tests drive this in workers)
    try:
        yield stop
    finally:
        for sig, handler in previous.items():
            # None: the old handler was not installed from Python
            signal.signal(sig, signal.SIG_DFL if handler is None else handler)


def cmd_broker(s: Settings, seed: int) -> int:
    del seed
    data_dir = s.get("data-dir")
    if not data_dir:
        raise BadConfigError("--data-dir is required")
    port = s.get("port", 9092, int)
    if not 0 <= port <= 65535:
        raise BadConfigError(f"port: {port} is outside 0-65535")
    config = BrokerConfig(
        data_dir=data_dir,
        fsync=s.get("fsync", "interval"),
        fsync_interval_ms=s.get("fsync-interval-ms", 50.0, float),
        max_partition_backlog=s.get("max-backlog", 1_000_000, int),
    )
    with _stop_on_signals() as stop, Broker(config) as broker:
        for spec_str in s.args.create_topic or []:
            name, _, parts = spec_str.partition(":")
            broker.create_topic(name, int(parts) if parts else 3)
        server = BrokerServer(
            broker,
            host=s.get("host", "127.0.0.1"),
            port=port,
        )
        with server:
            log.info("broker listening on %s:%d data_dir=%s",
                     server.host, server.port, data_dir)
            while not stop.wait(0.2):
                pass
    log.info("broker stopped")
    return EXIT_OK


def _ensure_topic(client, topic: str, partitions: int) -> None:
    from .errors import TopicExistsError
    try:
        client.create_topic(topic, partitions)
    except TopicExistsError:
        pass


def cmd_replay(s: Settings, seed: int) -> int:
    del seed
    host, port = _split_addr("broker", s.get("broker", "127.0.0.1:9092"))
    path = s.get("data")
    dialect = s.get("dialect") or sniff_dialect(path)
    records, stats = read_dataset(path, dialect)
    rate_mult = s.get("rate-mult", math.inf, float)
    with TcpClient(host, port) as client:
        _ensure_topic(client, s.get("topic", "flows"), s.get("partitions", 3, int))
        n = sim.replay(records, client, s.get("topic", "flows"), rate_mult)
    print(json.dumps({"produced": n, "rejected": stats.rows_rejected}))
    return EXIT_OK


def cmd_serve(s: Settings, seed: int) -> int:
    del seed
    host, port = _split_addr("broker", s.get("broker", "127.0.0.1:9092"))
    model_path = s.get("model")
    if not model_path:
        raise BadConfigError("--model is required")
    config = EngineConfig(
        model_path=model_path,
        codec_path=s.get("codec", ""),
        topic=s.get("topic", "flows"),
        group=s.get("group", "engine"),
        feature_set=_feature_set(s.get("features", "full")),
        persist_dir=s.get("persist-dir", ""),
        sink=s.get("sink", "jsonl_file"),
        sink_path=s.get("sink-path", "verdicts.jsonl"),
        batch_interval_ms=s.get("batch-interval-ms", 1000.0, float),
        max_batch_rows=s.get("max-batch-rows", 10000, int),
    )
    max_cycles = s.get("max-cycles", None, int)
    idle_limit = s.get("idle-limit", None, int)
    watch = s.get("watch-model", False, bool)
    with _stop_on_signals() as stop:
        client = TcpClient(host, port, consumer_id=s.get("consumer-id", "_default"))
        engine = StreamEngine(client, config)
        log.info("serving %s v%d (%s/%s) from %s:%d",
                 engine.model.kind, engine.model.version,
                 config.topic, config.group, host, port)
        try:
            engine.run(max_cycles, idle_limit, stop.is_set, watch)
        finally:
            engine.close()
            client.close()
            summary = engine.metrics.summary()
            log.info("engine summary: %s", json.dumps(summary))
            print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def cmd_bench(s: Settings, seed: int) -> int:
    experiment = s.get("experiment")
    out_dir = s.get("out-dir", "bench_out")
    reps = s.get("reps", 5, int)
    kinds = [k.strip() for k in s.get("kinds", ",".join(_KIND_CHOICES)).split(",")]
    feature_sets = [_feature_set(f.strip())
                    for f in s.get("features", "full,deid").split(",")]
    if experiment == "accuracy":
        config = _sim_config(s, seed)
        report = bench_mod.bench_accuracy(kinds, feature_sets, config, seed=seed)
    elif experiment == "inference":
        config = sim.SimConfig(
            n_devices=s.get("devices", 9, int),
            duration_s=s.get("duration", 5.0, float),
            seed=seed,
        )
        records = sim.generate(config)
        train_recs, _ = bench_mod.split_records(records, 0.8, seed)
        trained = []
        codecs = []
        for fs in feature_sets:
            codec = fit_codec(train_recs, fs)
            X, y = encode_batch(train_recs, codec)
            codecs.append(codec)
            for kind in kinds:
                trained.append(models.train(
                    kind, X, y,
                    config=bench_mod.DEFAULT_BENCH_MODEL_CONFIGS.get(kind),
                    seed=seed, codec_fingerprint=codec.fingerprint()))
        report = bench_mod.bench_inference(trained, codecs, records,
                                           repetitions=reps, seed=seed)
    elif experiment == "scalability":
        sweep = _parse_sweep(s.get("devices", "1,3,5,7,9"))
        work = os.path.join(out_dir, "scale-work")
        os.makedirs(work, exist_ok=True)
        fs = feature_sets[0]
        train_cfg = sim.SimConfig(n_devices=9, duration_s=5.0, seed=seed)
        train_recs = sim.generate(train_cfg)
        codec = fit_codec(train_recs, fs)
        X, y = encode_batch(train_recs, codec)
        kind = kinds[0]
        model = models.train(kind, X, y, seed=seed,
                             codec_fingerprint=codec.fingerprint())
        model_path = os.path.join(work, "scale-model.json")
        models.save_model(model, model_path)
        codec.save(codec_path_for(model_path))
        report = bench_mod.bench_scalability(
            model_path, work, n_devices_sweep=sweep,
            sim_config=sim.SimConfig(
                duration_s=s.get("duration", 2.0, float), seed=seed),
            feature_set=fs,
            rate_multiplier=s.get("rate-mult", 1.0, float),
            seed=seed,
        )
    else:
        raise BadConfigError(f"unknown experiment {experiment!r}")
    jsonl_path, csv_path = bench_mod.emit_report(report, out_dir)
    print(json.dumps({"jsonl": jsonl_path, "csv": csv_path,
                      "rows": len(report.rows)}))
    return EXIT_OK


def cmd_retrain(s: Settings, seed: int) -> int:
    persist_dir = s.get("persist-dir")
    kind = s.get("model")
    out = s.get("out")
    if not persist_dir or not out:
        raise BadConfigError("--persist-dir and --out are required")
    feature_set = _feature_set(s.get("features", "full"))
    version = s.get("version", None, int)
    if version is None:
        version = 1
        if os.path.exists(out):
            version = models.load_model(out).version + 1
    model, codec = retrain_from_persisted(
        persist_dir, kind, feature_set,
        config=_model_config_for(kind, s.get("epochs", None, int)),
        seed=seed, version=version,
    )
    codec.save(codec_path_for(out))  # before the watched model file
    models.save_model(model, out)
    print(json.dumps({"kind": kind, "version": version, "model": out,
                      "codec": codec_path_for(out)}))
    return EXIT_OK


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maliot",
        description="Real-time malicious IoT traffic detection pipeline.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="master RNG seed (default: 0)")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key = value config file; flags override it")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="stderr log verbosity (default: info)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", help="generate synthetic flow traffic")
    p.add_argument("--devices", type=int, default=None,
                   help="fleet size (default: 9)")
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds (default: 120)")
    p.add_argument("--rate", type=float, default=None,
                   help="flows per device per second (default: 50)")
    p.add_argument("--fraction", type=float, default=None,
                   help="malicious device fraction (default: 0.349)")
    p.add_argument("--overlap", type=float, default=None,
                   help="probability a malicious flow mimics benign traffic "
                        "(default: 0)")
    p.add_argument("--cnc-fixed-size", action="store_true", default=None,
                   help="constant beacon sizes instead of benign-like draws")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output csv path, or - for stdout")
    p.add_argument("--to-broker", default=None, metavar="HOST:PORT",
                   help="produce rows to a broker instead of / besides a file")
    p.add_argument("--topic", default=None, help="topic name (default: flows)")
    p.add_argument("--partitions", type=int, default=None,
                   help="partitions when creating the topic (default: 3)")

    p = sub.add_parser("train", help="fit a model offline and save it")
    p.add_argument("--model", required=True, choices=_KIND_CHOICES,
                   help="classifier kind")
    p.add_argument("--features", default=None, choices=["full", "deid"],
                   help="feature regime (default: full)")
    p.add_argument("--data", nargs="+", required=True, metavar="FILE",
                   help="input datasets; dialects are sniffed per file")
    p.add_argument("--out", required=True, metavar="MODEL.json",
                   help="model output path; codec lands next to it")
    p.add_argument("--epochs", type=int, default=None,
                   help="epoch override for ann and the linear models")
    p.add_argument("--version", type=int, default=None,
                   help="model version stamp (default: 1)")

    p = sub.add_parser("broker", help="run the message broker")
    p.add_argument("--data-dir", default=None, help="durable log directory")
    p.add_argument("--host", default=None, help="bind host (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port (default: 9092)")
    p.add_argument("--fsync", default=None, choices=["every_message", "interval"],
                   help="durability policy (default: interval)")
    p.add_argument("--fsync-interval-ms", type=float, default=None,
                   help="fsync cadence for interval policy (default: 50)")
    p.add_argument("--max-backlog", type=int, default=None,
                   help="per-partition backpressure bound (default: 1000000)")
    p.add_argument("--create-topic", action="append", default=None,
                   metavar="NAME[:PARTITIONS]",
                   help="create topic(s) at startup; repeatable")

    p = sub.add_parser("serve", help="run the streaming inference engine")
    p.add_argument("--broker", default=None, metavar="HOST:PORT",
                   help="broker address (default: 127.0.0.1:9092)")
    p.add_argument("--model", default=None, metavar="MODEL.json",
                   help="trained model file (codec expected alongside)")
    p.add_argument("--codec", default=None, metavar="CODEC.json",
                   help="codec path override")
    p.add_argument("--features", default=None, choices=["full", "deid"],
                   help="feature regime the engine expects (default: full)")
    p.add_argument("--topic", default=None, help="topic to consume (default: flows)")
    p.add_argument("--group", default=None,
                   help="consumer group (default: engine)")
    p.add_argument("--consumer-id", default=None,
                   help="member id within the group (default: _default)")
    p.add_argument("--persist-dir", default=None,
                   help="directory for raw-row retention (default: off)")
    p.add_argument("--sink", default=None, choices=["jsonl_file", "stdout"],
                   help="verdict sink (default: jsonl_file)")
    p.add_argument("--sink-path", default=None,
                   help="verdict file for jsonl_file (default: verdicts.jsonl)")
    p.add_argument("--batch-interval-ms", type=float, default=None,
                   help="micro-batch window (default: 1000)")
    p.add_argument("--max-batch-rows", type=int, default=None,
                   help="micro-batch row cap (default: 10000)")
    p.add_argument("--watch-model", action="store_true", default=None,
                   help="hot-swap when the model file changes on disk")
    p.add_argument("--max-cycles", type=int, default=None,
                   help="stop after N cycles (default: run until signal)")
    p.add_argument("--idle-limit", type=int, default=None,
                   help="stop after N consecutive empty cycles")

    p = sub.add_parser("replay", help="produce a dataset file to the broker")
    p.add_argument("--broker", default=None, metavar="HOST:PORT",
                   help="broker address (default: 127.0.0.1:9092)")
    p.add_argument("--data", required=True, metavar="FILE", help="dataset to send")
    p.add_argument("--dialect", default=None,
                   choices=["iot23_conn_log", "ton_iot_csv", "maliot_csv"],
                   help="input dialect (default: sniffed)")
    p.add_argument("--topic", default=None, help="topic name (default: flows)")
    p.add_argument("--partitions", type=int, default=None,
                   help="partitions when creating the topic (default: 3)")
    p.add_argument("--rate-mult", type=float, default=None,
                   help="timestamp-gap speedup; default replays "
                        "as fast as possible")

    p = sub.add_parser("bench", help="run a measurement experiment")
    p.add_argument("experiment", choices=["inference", "accuracy", "scalability"],
                   help="which experiment to run")
    p.add_argument("--out-dir", default=None,
                   help="report directory (default: bench_out)")
    p.add_argument("--kinds", default=None,
                   help="comma list of model kinds (default: all)")
    p.add_argument("--features", default=None,
                   help="comma list of feature regimes (default: full,deid)")
    p.add_argument("--devices", default=None,
                   help="device count, or sweep like 1:9 or 1,3,5 "
                        "(scalability default: 1,3,5,7,9)")
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds per run (experiment-specific default)")
    p.add_argument("--rate", type=float, default=None,
                   help="flows per device per second (default: 50)")
    p.add_argument("--fraction", type=float, default=None,
                   help="malicious device fraction (default: 0.349)")
    p.add_argument("--overlap", type=float, default=None,
                   help="benign-mimicry probability (default: 0)")
    p.add_argument("--cnc-fixed-size", action="store_true", default=None,
                   help="constant beacon sizes instead of benign-like draws")
    p.add_argument("--rate-mult", type=float, default=None,
                   help="replay speedup for scalability (default: 1.0)")
    p.add_argument("--reps", type=int, default=None,
                   help="timing repetitions (default: 5)")

    p = sub.add_parser("retrain", help="retrain from engine-persisted rows")
    p.add_argument("--persist-dir", default=None,
                   help="directory the engine persisted rows into")
    p.add_argument("--model", required=True, choices=_KIND_CHOICES,
                   help="classifier kind")
    p.add_argument("--features", default=None, choices=["full", "deid"],
                   help="feature regime (default: full)")
    p.add_argument("--out", default=None, metavar="MODEL.json",
                   help="model output path; codec lands next to it")
    p.add_argument("--epochs", type=int, default=None,
                   help="epoch override for ann and the linear models")
    p.add_argument("--version", type=int, default=None,
                   help="version stamp (default: bump the existing file)")

    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "broker": cmd_broker,
    "serve": cmd_serve,
    "replay": cmd_replay,
    "bench": cmd_bench,
    "retrain": cmd_retrain,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        file_values = _read_config_file(args.config) if args.config else {}
    except OSError as exc:
        print(f"maliot: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except BadConfigError as exc:
        print(f"maliot: {exc}", file=sys.stderr)
        return EXIT_USAGE

    settings = Settings(args, file_values)
    level = settings.get("log-level", "info")
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level.upper(), logging.INFO),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )

    try:
        return _COMMANDS[args.command](settings, settings.get("seed", 0, int))
    except KeyboardInterrupt:
        return EXIT_OK
    except BadConfigError as exc:
        print(f"maliot: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BrokerUnreachableError, ProtocolError, ConnectionError) as exc:
        print(f"maliot: network: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except ModelLoadError as exc:
        print(f"maliot: {exc}", file=sys.stderr)
        return EXIT_IO
    except MaliotError as exc:
        print(f"maliot: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"maliot: i/o: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
