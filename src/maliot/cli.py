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

# Only what the parser and `broker` need is imported here; each handler
# imports the inference modules it runs, so `maliot broker` loads no numpy.
from .broker.protocol import ProtocolError
from .errors import (
    BadConfigError,
    BrokerUnreachableError,
    MaliotError,
    ModelLoadError,
    TopicExistsError,
)
from .kinds import MODEL_KINDS

log = logging.getLogger("maliot")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_NETWORK = 5

_FEATURE_ALIASES = {"full": "full", "deid": "de_identified",
                    "de_identified": "de_identified"}
# Options a config file may not set: a file picks settings, not inputs.
_FLAG_ONLY = ("config", "data", "create-topic", "experiment")
# bench experiment -> (device sweep, simulated seconds) when the flags are unset
_BENCH_CORPUS = {
    "inference": ([9], 5.0),
    "accuracy": ([9], 120.0),
    "scalability": ([1, 3, 5, 7, 9], 2.0),
}


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
    raise argparse.ArgumentTypeError(f"not a boolean: {s!r}")


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A parser's options by config key: the long flag without its dashes."""
    return {a.option_strings[-1].lstrip("-"): a for a in parser._actions
            if a.option_strings and a.default is not argparse.SUPPRESS}


def _convert(key: str, action: argparse.Action, raw: str):
    """A config-file value through the same type and choice check as its flag."""
    try:
        value = _as_bool(raw) if action.nargs == 0 else (action.type or str)(raw)
    except argparse.ArgumentTypeError as exc:
        raise BadConfigError(f"{key}: {exc}") from None
    except ValueError:
        raise BadConfigError(
            f"{key} = {raw!r} is not a valid {action.type.__name__}") from None
    if action.choices is not None and value not in action.choices:
        raise BadConfigError(
            f"{key}: unknown {key.rpartition('.')[2]} {raw!r}, "
            f"want one of {', '.join(action.choices)}")
    return value


def _install_config(parser: argparse.ArgumentParser, command: str,
                    values: dict[str, str]) -> None:
    """Make config-file values the parser defaults for `command`.

    Bare keys go in before `command.key` ones, so argparse itself resolves
    flag > command.key > key > built-in default.  A bare key that `command`
    does not take is left for the commands that do.
    """
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    # (command, key) -> (parser that holds the option, option); globals too
    table = {(c, key): (owner, action) for c, p in commands.items()
             for owner in (parser, p) for key, action in _options(owner).items()}
    defaults: dict[argparse.ArgumentParser, dict] = {}
    for key in sorted(values, key=lambda k: "." in k):
        scope, _, name = key.rpartition(".")
        if name in _FLAG_ONLY:
            raise BadConfigError(f"{key}: can only be given on the command line")
        if not any((c, name) in table for c in commands if scope in ("", c)):
            raise BadConfigError(f"unknown config key {key!r}")
        if scope in ("", command) and (command, name) in table:
            owner, action = table[command, name]
            value = _convert(key, action, values[key])
            defaults.setdefault(owner, {})[action.dest] = value
    for owner, values_of in defaults.items():
        owner.set_defaults(**values_of)


def _parse_sweep(text: str) -> list[int]:
    """Device sweeps: '1:9' is an inclusive range, '1,3,5' a list."""
    lo, colon, hi = text.partition(":")
    if colon:
        sweep = list(range(int(lo), int(hi) + 1))
    else:
        sweep = [int(p) for p in text.split(",") if p.strip()]
    if not sweep:
        raise argparse.ArgumentTypeError(f"empty device sweep {text!r}")
    return sweep


def _feature_set(name: str) -> str:
    try:
        return _FEATURE_ALIASES[name]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown feature set {name!r}, want full or deid") from None


def _feature_sets(text: str) -> list[str]:
    return [_feature_set(f.strip()) for f in text.split(",")]


def _model_kinds(text: str) -> list[str]:
    kinds = [k.strip() for k in text.split(",")]
    if not set(kinds) <= set(MODEL_KINDS):
        raise argparse.ArgumentTypeError(
            f"unknown model kind in {text!r}, want {', '.join(MODEL_KINDS)}")
    return kinds


def _topic_spec(text: str) -> tuple[str, int]:
    name, _, parts = text.partition(":")
    return name, int(parts) if parts else 3


def _sim_config(args: argparse.Namespace, n_devices: int,
                duration_s: float) -> sim.SimConfig:
    from . import sim
    return sim.SimConfig(
        n_devices=n_devices, duration_s=duration_s, seed=args.seed,
        anomaly_device_fraction=args.fraction, rate_flows_per_s=args.rate,
        overlap=args.overlap, cnc_fixed_size=args.cnc_fixed_size)


def _split_addr(key: str, addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdecimal() or not 1 <= int(port) <= 65535:
        raise BadConfigError(f"{key}: bad address {addr!r}, want host:port "
                             "with port 1-65535")
    return host, int(port)


# -- subcommands --------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    from . import sim
    from .broker import TcpClient
    from .flows import MALIOT_CSV_HEADER, format_row, write_records
    out, to_broker = args.out, args.to_broker
    if not out and not to_broker:
        raise BadConfigError("one of --out or --to-broker is required")
    records = sim.generate(_sim_config(args, args.devices, args.duration))
    if out:
        if out == "-":
            sys.stdout.write(MALIOT_CSV_HEADER + "\n")
            for r in records:
                sys.stdout.write(format_row(r) + "\n")
        else:
            write_records(records, out)
        log.info("wrote %d rows to %s", len(records), out)
    if to_broker:
        host, port = _split_addr("to-broker", to_broker)
        with TcpClient(host, port) as client:
            _ensure_topic(client, args.topic, args.partitions)
            n = sim.replay(records, client, args.topic)
        log.info("produced %d rows to %s/%s", n, to_broker, args.topic)
    return EXIT_OK


def _model_config_for(kind: str, epochs: int | None):
    from .models import LinearConfig, MlpConfig
    if epochs is None:
        return None
    if kind == "ann":
        return MlpConfig(n_epoch=epochs)
    if kind in ("logistic_regression", "linear_svm"):
        return LinearConfig(n_epoch=epochs)
    return None


def cmd_train(args: argparse.Namespace) -> int:
    from . import bench as bench_mod
    from . import models
    from .decode import read_labeled
    from .engine import codec_path_for
    from .features import encode_columns, fit_raw
    from .flows import sniff_dialect
    kind, out = args.model, args.out
    if not out:
        raise BadConfigError("--out is required")
    cols, rows, rejected = read_labeled(
        [(path, sniff_dialect(path)) for path in args.data], args.features)
    # split_records over a range gives the two row index lists
    train_idx, test_idx = bench_mod.split_records(range(len(cols.labels)), 0.8, args.seed)
    train, test = cols.take(train_idx), cols.take(test_idx)
    codec = fit_raw(train.raw, args.features)
    model = models.train(
        kind, encode_columns(train, codec), train.labels,
        config=_model_config_for(kind, args.epochs),
        seed=args.seed, codec_fingerprint=codec.fingerprint(),
        version=args.version,
    )
    # codec first: `serve --watch-model` watches the model file
    codec.save(codec_path_for(out))
    models.save_model(model, out)
    metrics = models.evaluate(model, encode_columns(test, codec), test.labels)
    print(json.dumps({
        "kind": kind, "feature_set": args.features, "version": model.version,
        "rows": rows, "rejected": rejected,
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


def cmd_broker(args: argparse.Namespace) -> int:
    from .broker import Broker, BrokerConfig, BrokerServer
    if not args.data_dir:
        raise BadConfigError("--data-dir is required")
    if not 0 <= args.port <= 65535:
        raise BadConfigError(f"port: {args.port} is outside 0-65535")
    config = BrokerConfig(
        data_dir=args.data_dir,
        fsync=args.fsync,
        fsync_interval_ms=args.fsync_interval_ms,
        max_partition_backlog=args.max_backlog,
    )
    with _stop_on_signals() as stop, Broker(config) as broker:
        for name, partitions in args.create_topic or []:
            broker.create_topic(name, partitions)
        with BrokerServer(broker, host=args.host, port=args.port) as server:
            log.info("broker listening on %s:%d data_dir=%s",
                     server.host, server.port, args.data_dir)
            while not stop.wait(0.2):
                pass
    log.info("broker stopped")
    return EXIT_OK


def _ensure_topic(client, topic: str, partitions: int) -> None:
    try:
        client.create_topic(topic, partitions)
    except TopicExistsError:
        pass


def cmd_replay(args: argparse.Namespace) -> int:
    from . import sim
    from .broker import TcpClient
    from .flows import read_dataset, sniff_dialect
    host, port = _split_addr("broker", args.broker)
    records, stats = read_dataset(args.data, args.dialect or sniff_dialect(args.data))
    with TcpClient(host, port) as client:
        _ensure_topic(client, args.topic, args.partitions)
        n = sim.replay(records, client, args.topic, args.rate_mult)
    print(json.dumps({"produced": n, "rejected": stats.rows_rejected}))
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    from .broker import TcpClient
    from .engine import EngineConfig, StreamEngine
    host, port = _split_addr("broker", args.broker)
    if not args.model:
        raise BadConfigError("--model is required")
    config = EngineConfig(
        model_path=args.model,
        codec_path=args.codec,
        topic=args.topic,
        group=args.group,
        feature_set=args.features,
        persist_dir=args.persist_dir,
        sink=args.sink,
        sink_path=args.sink_path,
        batch_interval_ms=args.batch_interval_ms,
        max_batch_rows=args.max_batch_rows,
    )
    with _stop_on_signals() as stop:
        client = TcpClient(host, port, consumer_id=args.consumer_id)
        engine = StreamEngine(client, config)
        log.info("serving %s v%d (%s/%s) from %s:%d",
                 engine.model.kind, engine.model.version,
                 config.topic, config.group, host, port)
        try:
            engine.run(args.max_cycles, args.idle_limit, stop.is_set,
                       args.watch_model)
        finally:
            engine.close()
            client.close()
            summary = engine.metrics.summary()
            log.info("engine summary: %s", json.dumps(summary))
            print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench as bench_mod
    from . import models, sim
    from .engine import codec_path_for
    experiment, seed, kinds = args.experiment, args.seed, args.kinds
    default_sweep, default_duration = _BENCH_CORPUS[experiment]
    sweep = default_sweep if args.devices is None else args.devices
    duration = default_duration if args.duration is None else args.duration
    if experiment != "scalability" and len(sweep) != 1:
        raise BadConfigError(f"devices: {experiment} takes one device count")
    # scalability swaps in each sweep point's device count
    config = _sim_config(args, sweep[0], duration)
    if experiment == "accuracy":
        report = bench_mod.bench_accuracy(kinds, args.features, config, seed=seed)
    elif experiment == "inference":
        records = sim.generate(config)
        train_recs, _ = bench_mod.split_records(records, 0.8, seed)
        fits = [bench_mod.fit_kinds(kinds, train_recs, fs, seed) for fs in args.features]
        trained = [model for _, fitted in fits for model in fitted]
        report = bench_mod.bench_inference(trained, [codec for codec, _ in fits], records,
                                           repetitions=args.reps, seed=seed)
    else:
        work = os.path.join(args.out_dir, "scale-work")
        os.makedirs(work, exist_ok=True)
        fs = args.features[0]
        train_cfg = sim.SimConfig(n_devices=9, duration_s=5.0, seed=seed)
        train_recs = sim.generate(train_cfg)
        codec, [model] = bench_mod.fit_kinds(kinds[:1], train_recs, fs, seed, {})
        model_path = os.path.join(work, "scale-model.json")
        models.save_model(model, model_path)
        codec.save(codec_path_for(model_path))
        report = bench_mod.bench_scalability(
            model_path, work, n_devices_sweep=sweep, sim_config=config,
            feature_set=fs, rate_multiplier=args.rate_mult, seed=seed,
        )
    jsonl_path, csv_path = bench_mod.emit_report(report, args.out_dir)
    print(json.dumps({"jsonl": jsonl_path, "csv": csv_path,
                      "rows": len(report.rows)}))
    return EXIT_OK


def cmd_retrain(args: argparse.Namespace) -> int:
    from . import models
    from .engine import codec_path_for, retrain_from_persisted
    kind, out = args.model, args.out
    if not args.persist_dir or not out:
        raise BadConfigError("--persist-dir and --out are required")
    version = args.version
    if version is None:
        version = 1
        if os.path.exists(out):
            version = models.load_model(out).version + 1
    model, codec = retrain_from_persisted(
        args.persist_dir, kind, args.features,
        config=_model_config_for(kind, args.epochs),
        seed=args.seed, version=version,
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
    parser.add_argument("--seed", type=int, default=0,
                        help="master RNG seed (default: %(default)s)")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key = value config file; flags override it")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"],
                        help="stderr log verbosity (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # options several subcommands take, attached through `parents`
    corpus, broker_addr, topic, partitions, features, fit = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    corpus.add_argument("--rate", type=float, default=50.0,
                        help="flows per device per second (default: %(default)s)")
    corpus.add_argument("--fraction", type=float, default=0.349,
                        help="malicious device fraction (default: %(default)s)")
    corpus.add_argument("--overlap", type=float, default=0.0,
                        help="probability a malicious flow mimics benign traffic "
                             "(default: %(default)s)")
    corpus.add_argument("--cnc-fixed-size", action="store_true",
                        help="constant beacon sizes instead of benign-like draws")
    broker_addr.add_argument("--broker", default="127.0.0.1:9092",
                             metavar="HOST:PORT",
                             help="broker address (default: %(default)s)")
    topic.add_argument("--topic", default="flows",
                       help="topic name (default: %(default)s)")
    partitions.add_argument("--partitions", type=int, default=3,
                            help="partitions of a new topic (default: %(default)s)")
    features.add_argument("--features", type=_feature_set, default="full",
                          help="feature regime, full or deid (default: %(default)s)")
    fit.add_argument("--model", required=True, choices=MODEL_KINDS,
                     help="classifier kind")
    fit.add_argument("--epochs", type=int, default=None,
                     help="epoch override for ann and the linear models")
    fit.add_argument("--out", default=None, metavar="MODEL.json",
                     help="model output path; codec lands next to it")

    p = sub.add_parser("gen", parents=[corpus, topic, partitions],
                       help="generate synthetic flow traffic")
    p.set_defaults(handler=cmd_gen)
    p.add_argument("--devices", type=int, default=9,
                   help="fleet size (default: %(default)s)")
    p.add_argument("--duration", type=float, default=120.0,
                   help="simulated seconds (default: %(default)s)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output csv path, or - for stdout")
    p.add_argument("--to-broker", default=None, metavar="HOST:PORT",
                   help="produce rows to a broker instead of / besides a file")

    p = sub.add_parser("train", parents=[fit, features],
                       help="fit a model offline and save it")
    p.set_defaults(handler=cmd_train)
    p.add_argument("--data", nargs="+", required=True, metavar="FILE",
                   help="input datasets; dialects are sniffed per file")
    p.add_argument("--version", type=int, default=1,
                   help="model version stamp (default: %(default)s)")

    p = sub.add_parser("broker", help="run the message broker")
    p.set_defaults(handler=cmd_broker)
    p.add_argument("--data-dir", default=None, help="durable log directory")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind host (default: %(default)s)")
    p.add_argument("--port", type=int, default=9092,
                   help="bind port (default: %(default)s)")
    p.add_argument("--fsync", default="interval", choices=["every_message", "interval"],
                   help="durability policy (default: %(default)s)")
    p.add_argument("--fsync-interval-ms", type=float, default=50.0,
                   help="fsync cadence for interval policy (default: %(default)s)")
    p.add_argument("--max-backlog", type=int, default=1_000_000,
                   help="per-partition backpressure bound (default: %(default)s)")
    p.add_argument("--create-topic", type=_topic_spec, action="append",
                   metavar="NAME[:PARTITIONS]",
                   help="create a topic at startup, default 3 partitions; repeatable")

    p = sub.add_parser("serve", parents=[broker_addr, features, topic],
                       help="run the streaming inference engine")
    p.set_defaults(handler=cmd_serve)
    p.add_argument("--model", default=None, metavar="MODEL.json",
                   help="trained model file (codec expected alongside)")
    p.add_argument("--codec", default="", metavar="CODEC.json",
                   help="codec path override")
    p.add_argument("--group", default="engine",
                   help="consumer group (default: %(default)s)")
    p.add_argument("--consumer-id", default="_default",
                   help="member id within the group (default: %(default)s)")
    p.add_argument("--persist-dir", default="",
                   help="directory for raw-row retention (default: off)")
    p.add_argument("--sink", default="jsonl_file", choices=["jsonl_file", "stdout"],
                   help="verdict sink (default: %(default)s)")
    p.add_argument("--sink-path", default="verdicts.jsonl",
                   help="verdict file for jsonl_file (default: %(default)s)")
    p.add_argument("--batch-interval-ms", type=float, default=1000.0,
                   help="micro-batch window (default: %(default)s)")
    p.add_argument("--max-batch-rows", type=int, default=10000,
                   help="micro-batch row cap (default: %(default)s)")
    p.add_argument("--watch-model", action="store_true",
                   help="hot-swap when the model file changes on disk")
    p.add_argument("--max-cycles", type=int, default=None,
                   help="stop after N cycles (default: run until signal)")
    p.add_argument("--idle-limit", type=int, default=None,
                   help="stop after N consecutive empty cycles")

    p = sub.add_parser("replay", parents=[broker_addr, topic, partitions],
                       help="produce a dataset file to the broker")
    p.set_defaults(handler=cmd_replay)
    p.add_argument("--data", required=True, metavar="FILE", help="dataset to send")
    p.add_argument("--dialect", default=None,
                   choices=["iot23_conn_log", "ton_iot_csv", "maliot_csv"],
                   help="input dialect (default: sniffed)")
    p.add_argument("--rate-mult", type=float, default=math.inf,
                   help="timestamp-gap speedup (default: %(default)s, "
                        "as fast as possible)")

    corpora = "; ".join(f"{name} {','.join(map(str, devices))} for {seconds:g} s"
                        for name, (devices, seconds) in _BENCH_CORPUS.items())
    p = sub.add_parser("bench", parents=[corpus],
                       help="run a measurement experiment")
    p.set_defaults(handler=cmd_bench)
    p.add_argument("experiment", choices=list(_BENCH_CORPUS),
                   help="which experiment to run")
    p.add_argument("--out-dir", default="bench_out",
                   help="report directory (default: %(default)s)")
    p.add_argument("--kinds", type=_model_kinds,
                   default=", ".join(MODEL_KINDS),
                   help="comma list of model kinds; scalability runs the first "
                        "(default: %(default)s)")
    p.add_argument("--features", type=_feature_sets, default="full,deid",
                   help="comma list of feature regimes; scalability runs the "
                        "first (default: %(default)s)")
    p.add_argument("--devices", type=_parse_sweep, default=None,
                   help="device count, or for scalability a sweep like 1:9 or "
                        f"1,3,5 (default: {corpora})")
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds per run (default: see --devices)")
    p.add_argument("--rate-mult", type=float, default=1.0,
                   help="replay speedup; scalability only (default: %(default)s)")
    p.add_argument("--reps", type=int, default=5,
                   help="timing repetitions; inference only (default: %(default)s)")

    p = sub.add_parser("retrain", parents=[fit, features],
                       help="retrain from engine-persisted rows")
    p.set_defaults(handler=cmd_retrain)
    p.add_argument("--persist-dir", default=None,
                   help="directory the engine persisted rows into")
    p.add_argument("--version", type=int, default=None,
                   help="version stamp (default: bump the existing file)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _install_config(parser, args.command, _read_config_file(args.config))
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        print(f"maliot: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except BadConfigError as exc:
        print(f"maliot: {exc}", file=sys.stderr)
        return EXIT_USAGE

    logging.basicConfig(
        stream=sys.stderr,
        level=args.log_level.upper(),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )

    try:
        return args.handler(args)
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
