"""Measurement harness: per-row inference cost, accuracy by feature set,
and the device-count scalability sweep, reported as JSONL plus CSV.

Absolute timings depend entirely on the host, so every built-in assertion
elsewhere in the suite compares medians, ratios, or orderings, never
milliseconds.  The harness validates itself by timing a no-op model
through the identical code path.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import models, sim
from .broker import Broker, BrokerConfig, BrokerServer, TcpClient
from .engine import EngineConfig, StreamEngine
from .errors import InsufficientDataError
from .features import encode_batch, fit_codec
from .models import MlpConfig

# Stable CSV projection; every experiment fills the columns that apply.
CSV_COLUMNS = (
    "experiment", "model_kind", "feature_set", "n_devices", "batch_size",
    "featurize_us_per_row", "mean_us_per_row", "median_us_per_row",
    "p95_us_per_row", "std_us_per_row", "throughput_rows_per_s",
    "produced", "verdicts", "parse_errors",
    "accuracy", "precision", "recall", "f1",
)

MIN_BENCH_ROWS = 1000


@dataclass
class BenchReport:
    experiment: str
    rows: list = field(default_factory=list)
    platform: str = ""
    seed: int = 0
    timestamp: float = 0.0


def describe_platform() -> str:
    return (
        f"{platform.platform()} python={platform.python_version()} "
        f"numpy={np.__version__} cpus={os.cpu_count()}"
    )


def _new_report(experiment: str, seed: int) -> BenchReport:
    return BenchReport(
        experiment=experiment,
        platform=describe_platform(),
        seed=seed,
        timestamp=time.time(),
    )


# -- timing primitives ------------------------------------------------------

def _time_single(score, X: np.ndarray, sample: np.ndarray,
                 repetitions: int) -> tuple[list[float], list[float]]:
    """Per-repetition mean us/row for one-at-a-time calls, plus the pooled
    per-call durations for percentile work."""
    rep_means = []
    pool = []
    for _ in range(repetitions):
        durs = []
        for i in sample:
            t0 = time.perf_counter()
            score(X[i])
            durs.append((time.perf_counter() - t0) * 1e6)
        rep_means.append(float(np.mean(durs)))
        pool.extend(durs)
    return rep_means, pool


def _time_batch(score, X: np.ndarray, repetitions: int) -> list[float]:
    """Per-repetition amortized us/row for one call over the whole slab."""
    out = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        score(X)
        out.append((time.perf_counter() - t0) * 1e6 / X.shape[0])
    return out


def _timing_row(kind: str, feature_set: str, batch_size: int,
                rep_values: list[float], pool: list[float] | None,
                featurize_us: float | None) -> dict:
    values = pool if pool is not None else rep_values
    return {
        "experiment": "inference_time",
        "model_kind": kind,
        "feature_set": feature_set,
        "batch_size": batch_size,
        "featurize_us_per_row": featurize_us,
        "mean_us_per_row": float(np.median(rep_values)),
        "median_us_per_row": float(np.median(values)),
        "p95_us_per_row": float(np.percentile(values, 95)),
        "std_us_per_row": float(np.std(rep_values)),
        "reps_us_per_row": [float(v) for v in rep_values],
    }


def bench_inference(trained: list, codecs: list, records: list,
                    repetitions: int = 5, seed: int = 0,
                    single_sample: int = 200) -> BenchReport:
    """Featurization and per-row inference cost for each trained model.

    ``codecs`` must contain the codec each model was trained against
    (matched by fingerprint).  Single-row cost is measured over a fixed
    row sample; batch cost over slabs of 1 and 1000 rows.  One untimed
    warm-up pass precedes every measurement.
    """
    if len(records) < MIN_BENCH_ROWS:
        raise InsufficientDataError(
            f"need >= {MIN_BENCH_ROWS} rows, got {len(records)}"
        )
    by_fp = {c.fingerprint(): c for c in codecs}
    report = _new_report("inference_time", seed)
    rng = np.random.default_rng(seed)

    encoded: dict[str, tuple] = {}  # fingerprint -> (X, featurize_us)
    for fp, codec in by_fp.items():
        encode_batch(records[:100], codec)  # warm-up (hash caches etc.)
        reps = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            X, _ = encode_batch(records, codec)
            reps.append((time.perf_counter() - t0) * 1e6 / len(records))
        encoded[fp] = (X, float(np.median(reps)))

    timed = []  # (kind, feature set, X, featurize us, scoring fn)
    for model in trained:
        codec = by_fp.get(model.codec_fingerprint)
        if codec is None:
            raise ValueError(f"no codec provided for {model.kind}")
        X, featurize_us = encoded[codec.fingerprint()]
        # the calls the engine makes on a batch
        timed.append((model.kind, codec.feature_set, X, featurize_us,
                      lambda XX, m=model: models.labels_from_scores(
                          m, models.score_batch(m, XX))))
    # harness self-check rows: a model that does nothing at all
    timed.append(("noop", "", timed[0][2], None, lambda XX: XX))
    for kind, feature_set, X, featurize_us, score in timed:
        sample = rng.choice(X.shape[0], size=min(single_sample, X.shape[0]),
                            replace=False)
        score(X[0])  # warm-up
        score(X[:MIN_BENCH_ROWS])
        rep_means, pool = _time_single(score, X, sample, repetitions)
        report.rows.append(_timing_row(
            kind, feature_set, 1, rep_means, pool, featurize_us))
        batch_reps = _time_batch(score, X[:MIN_BENCH_ROWS], repetitions)
        report.rows.append(_timing_row(
            kind, feature_set, MIN_BENCH_ROWS, batch_reps, None, featurize_us))
    return report


# -- accuracy ----------------------------------------------------------------

DEFAULT_BENCH_MODEL_CONFIGS = {
    # one epoch underfits desk-scale synthetic data badly; the knob exists
    # for exactly this use
    "ann": MlpConfig(n_epoch=30),
}


def fit_kinds(kinds, records, feature_set: str, seed: int,
              configs=DEFAULT_BENCH_MODEL_CONFIGS) -> tuple:
    """(codec, models): a codec fitted on the records, and each kind
    trained on them with its config from ``configs`` (default if absent)."""
    codec = fit_codec(records, feature_set)
    X, y = encode_batch(records, codec)
    return codec, [models.train(kind, X, y, config=configs.get(kind), seed=seed,
                                codec_fingerprint=codec.fingerprint())
                   for kind in kinds]


def split_records(records: list, split: float, seed: int) -> tuple[list, list]:
    idx = np.random.default_rng(seed).permutation(len(records))
    cut = int(split * len(records))
    return [records[i] for i in idx[:cut]], [records[i] for i in idx[cut:]]


def bench_accuracy(kinds: list[str], feature_sets: list[str],
                   sim_config: sim.SimConfig, split: float = 0.8,
                   seed: int = 0, model_configs: dict | None = None) -> BenchReport:
    """Held-out metrics for every (kind, feature set) pair on one corpus."""
    if model_configs is None:
        model_configs = DEFAULT_BENCH_MODEL_CONFIGS
    records = sim.generate(sim_config)
    train_recs, test_recs = split_records(records, split, seed)
    report = _new_report("accuracy", seed)
    for fs in feature_sets:
        codec, fitted = fit_kinds(kinds, train_recs, fs, seed, model_configs)
        Xte, yte = encode_batch(test_recs, codec)
        for kind, model in zip(kinds, fitted):
            m = models.evaluate(model, Xte, yte)
            report.rows.append({
                "experiment": "accuracy",
                "model_kind": kind,
                "feature_set": fs,
                "n_devices": sim_config.n_devices,
                "accuracy": m.accuracy,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
            })
    return report


# -- scalability --------------------------------------------------------------

def _run_one_scale(n_devices: int, model_path: str, work_dir: str,
                   sim_config: sim.SimConfig, feature_set: str,
                   rate_multiplier: float, partitions: int = 3) -> dict:
    data_dir = os.path.join(work_dir, f"broker-{n_devices}")
    records = sim.generate(replace(sim_config, n_devices=n_devices))
    with Broker(BrokerConfig(data_dir=data_dir)) as broker:
        with BrokerServer(broker) as server:
            producer = TcpClient("127.0.0.1", server.port, consumer_id="prod")
            producer.create_topic("flows", partitions)

            def _produce():
                sim.replay(records, producer, "flows", rate_multiplier)

            prod_thread = threading.Thread(target=_produce, daemon=True)
            consumer = TcpClient("127.0.0.1", server.port, consumer_id="eng")
            engine = StreamEngine(
                consumer,
                EngineConfig(
                    model_path=model_path,
                    feature_set=feature_set,
                    sink="jsonl_file",
                    sink_path=os.path.join(work_dir, f"verdicts-{n_devices}.jsonl"),
                    batch_interval_ms=250.0,
                    max_batch_rows=100000,
                ),
            )
            t0 = time.perf_counter()
            prod_thread.start()
            metrics = engine.run(idle_limit=4)
            wall = time.perf_counter() - t0
            prod_thread.join()
            engine.close()
            producer.close()
            consumer.close()
    per_batch = [(r, e) for r, e in metrics.batch_stats if r > 0]
    total_rows = sum(r for r, _ in per_batch)
    total_elapsed = sum(e for _, e in per_batch)
    per_row = [1e6 * e / r for r, e in per_batch]
    return {
        "experiment": "scalability",
        "model_kind": models.load_model(model_path).kind,
        "feature_set": feature_set,
        "n_devices": n_devices,
        "mean_us_per_row": 1e6 * total_elapsed / total_rows if total_rows else 0.0,
        "median_us_per_row": float(np.median(per_row)) if per_row else 0.0,
        "p95_us_per_row": float(np.percentile(per_row, 95)) if per_row else 0.0,
        "std_us_per_row": float(np.std(per_row)) if per_row else 0.0,
        "throughput_rows_per_s": total_rows / wall if wall > 0 else 0.0,
        "produced": len(records),
        "verdicts": metrics.verdicts,
        "parse_errors": metrics.parse_errors,
    }


def bench_scalability(model_path: str, work_dir: str,
                      n_devices_sweep=(1, 3, 5, 7, 9),
                      sim_config: sim.SimConfig | None = None,
                      feature_set: str = "full",
                      rate_multiplier: float = 1.0,
                      seed: int = 0) -> BenchReport:
    """End-to-end per-row latency as the simulated fleet grows.

    Each sweep point replays N devices of traffic through a TCP broker
    into one engine at a fixed per-device rate, so offered load scales
    with N while the micro-batch overhead stays constant.
    """
    if sim_config is None:
        sim_config = sim.SimConfig(duration_s=2.0, seed=seed)
    report = _new_report("scalability", seed)
    for n in n_devices_sweep:
        report.rows.append(_run_one_scale(
            n, model_path, work_dir, sim_config, feature_set, rate_multiplier))
    return report


# -- report emission ----------------------------------------------------------

def emit_report(report: BenchReport, out_dir: str,
                run_id: str | None = None) -> tuple[str, str]:
    """Write report.jsonl and report.csv under out_dir/<run-id>/."""
    if run_id is None:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(report.timestamp))
        run_id = f"{stamp}-{report.experiment}"
    dest = os.path.join(out_dir, run_id)
    os.makedirs(dest, exist_ok=True)
    jsonl_path = os.path.join(dest, "report.jsonl")
    csv_path = os.path.join(dest, "report.csv")
    meta = {
        "experiment": report.experiment,
        "platform": report.platform,
        "seed": report.seed,
        "timestamp": report.timestamp,
    }
    with open(jsonl_path, "a", encoding="utf-8") as fh:
        for row in report.rows:
            fh.write(json.dumps({**meta, **row}, separators=(",", ":")) + "\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS),
                                extrasaction="ignore")
        writer.writeheader()
        for row in report.rows:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
    return jsonl_path, csv_path
