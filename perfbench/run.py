"""maliot pipeline benchmark: produce -> verdict latency, drain and replay
throughput, CPU and memory per process, and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-fleet --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Lines before it name each metric with its unit
and sample count.  Exit codes: 0 ok, 1 the oracle found a lost or wrong
verdict, 2 usage or a checkout without ``src/maliot``, 3 the run is correct
but invalid because the generator fell behind its schedule.

All times come from ``time.monotonic`` on one host; latency figures mix the
generator's and the engine's clocks and are not valid across hosts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NAMES = ("paper-fleet", "backfill")
# A run is cut off after passes * (--seconds + RUN_MARGIN_S), counted once
# the models are ready: the margin covers set-ups, backfill's write phase and
# last drain, and the oracle.  Training has a limit of its own.
RUN_MARGIN_S = 120
# A paper-fleet run whose generator sent its p99 flow later than this is invalid:
# it could not hold the offered load, which would then be what is measured.
# The limit is above one paper-fleet engine cycle (about 35 ms).
LATE_LIMIT_MS = 50.0
# Latency percentiles are taken per window of due time and the median over
# windows is reported, so a few seconds of host contention move it less.
# A 10 s paper-fleet window holds about 300 batches, 15 of them beyond p95.
WINDOW_S = 10.0


def _median(values) -> float:
    return float(statistics.median(values))


def latency_windows(verdicts) -> list:
    """A pass's latencies split into consecutive WINDOW_S windows by due
    time; the last window takes the remainder.  A backfill drain, whose
    rows are all due at once, is one window."""
    import numpy as np

    rel = verdicts.due - verdicts.due.min()
    n = max(1, int(rel.max() // WINDOW_S))
    idx = np.minimum((rel // WINDOW_S).astype(int), n - 1)
    return [verdicts.latency_ms[idx == k] for k in range(n)]


def end_to_end(result) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample note), from the untraced passes only."""
    import numpy as np

    plain = [p for p in result.passes if not p.traced]
    lat = [w for p in plain for w in latency_windows(p.verdicts)]
    rows = sum(p.rows for p in plain)
    batches = sum(p.verdicts.batches for p in plain)
    note = (f"median over {len(lat)} window(s); n={rows} rows in "
            f"{batches} batches over {len(plain)} pass(es)")
    cpu = [(p.engine_cpu_s + p.broker_cpu_s) / p.rows
           + result.write_cpu_s_per_row for p in plain]
    return {
        "setup_s": (_median(result.setup_s), "s",
                    f"median of n={len(result.setup_s)} set-ups"),
        "latency_p50_ms": (_median([np.percentile(x, 50) for x in lat]), "ms", note),
        "latency_p95_ms": (_median([np.percentile(x, 95) for x in lat]), "ms", note),
        "drain_rows_per_s": (_median([p.rows / p.window_s for p in plain]),
                             "rows/s", f"median of n={len(plain)} pass(es)"),
        "cpu_ms_per_1k_rows": (_median(cpu) * 1e6, "ms",
                               f"broker + engine, median of n={len(plain)} pass(es)"),
        "broker_rss_mb": (result.broker_rss_mb, "MB", "peak over broker processes"),
        "engine_rss_mb": (result.engine_rss_mb, "MB", "peak, before the oracle"),
    }


def per_layer(result) -> dict[str, tuple[float, str, str]]:
    import numpy as np
    import spans

    plain = [p for p in result.passes if not p.traced]
    traced = [p for p in result.passes if p.traced]
    cycles = [c for p in traced for c in p.cycles]
    layers = spans.summarize(cycles, len(traced))
    out = {name: (value, spans.UNITS[name], f"traced, {len(cycles)} cycles")
           for name, value in layers.items()}

    def cpu_per_1k(ps, attr):
        return _median([getattr(p, attr) / p.rows for p in ps]) * 1e6

    engine_plain = cpu_per_1k(plain, "engine_cpu_s")
    engine_traced = cpu_per_1k(traced, "engine_cpu_s")
    produce = result.produce_us
    recovery = result.broker_ready_s
    out.update({
        "sim.replay_rows_per_s": (
            result.replay_rows_per_s, "rows/s",
            f"n={result.produced} rows produced" if result.replay_rows_per_s
            else "sim.replay not called"),
        "broker.produce_us_p50": (float(np.percentile(produce, 50)), "us",
                                  f"n={produce.size} produces"),
        "broker.produce_us_p95": (float(np.percentile(produce, 95)), "us",
                                  f"n={produce.size} produces"),
        "broker.log_bytes_per_row": (result.log_bytes_per_row, "B",
                                     "broker data directory"),
        "broker.recovery_s": (_median(recovery), "s",
                              f"launch to listening, median of n={len(recovery)}"),
        "broker.cpu_ms_per_1k_rows": (
            cpu_per_1k(plain, "broker_cpu_s") + result.write_cpu_s_per_row * 1e6,
            "ms",
            "untraced passes"),
        "engine.cpu_ms_per_1k_rows": (engine_plain, "ms", "untraced passes"),
        "sim.late_ms_p99": (float(np.percentile(result.late_ms, 99)), "ms",
                            f"n={result.late_ms.size} sends"),
        "broker.lag_end_rows": (float(sum(p.verdicts.lag_rows for p in result.passes)),
                                "rows", "all passes"),
        "engine.duplicate_verdicts": (
            float(sum(p.verdicts.duplicates for p in result.passes)), "count",
            "all passes"),
        "engine.parse_errors": (float(sum(p.parse_errors for p in result.passes)),
                                "count", "all passes"),
        "trace.overhead_pct": (100.0 * (engine_traced / engine_plain - 1.0), "%",
                               "engine CPU per row, traced vs untraced"),
    })
    return out


def environment() -> str:
    import platform

    import numpy

    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return (f"commit {commit}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, nproc {os.cpu_count()}")


def _raise(exc):
    def handler(signum, frame):
        raise exc
    return handler


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import numpy as np

    import harness
    import spans
    import workloads

    signal.signal(signal.SIGTERM, _raise(SystemExit(143)))
    signal.signal(signal.SIGALRM, _raise(TimeoutError("run took too long")))
    passes = 2 if args.trace and args.workload == "paper-fleet" else 1
    work = harness.make_workdir(ROOT)
    children = harness.Children(ROOT, work)
    try:
        ctx = workloads.Context(ROOT, work, children, args.seed)
        train_s = ctx.ensure_models()
        signal.alarm(int(passes * (args.seconds + RUN_MARGIN_S)))
        result = workloads.WORKLOADS[args.workload](ctx, args.seconds, args.trace)
    finally:
        children.close()
        shutil.rmtree(work, ignore_errors=True)
        signal.alarm(0)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}; {environment()}")
    print("# models: " + ("cached" if train_s is None
                          else f"trained in {train_s:.1f} s (outside every metric)"))
    attempted = sum(p.verdicts.attempted for p in result.passes)
    failed = min(attempted, sum(p.verdicts.failed for p in result.passes))
    conserved = all(p.verdicts.conserved for p in result.passes)
    correct = failed == 0 and conserved
    print(f"failed_fraction = {failed / attempted:.6g} "
          f"({failed} of {attempted} rows lost, wrong or uncommitted; "
          f"produced = verdicts + parse errors: {conserved})")
    late_p99 = float(np.percentile(result.late_ms, 99))
    invalid = result.workload == "paper-fleet" and late_p99 > LATE_LIMIT_MS
    metrics = per_layer(result) if args.trace else end_to_end(result)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    if args.trace:
        shares = spans.stage_shares([c for p in result.passes for c in p.cycles])
        print("stage shares of busy cycle time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    if invalid:
        print(f"INVALID: generator p99 lateness {late_p99:.1f} ms "
              f"> {LATE_LIMIT_MS} ms; not scored")
    print(json.dumps({
        "correct": correct and not invalid, "attempted": attempted,
        "failed": failed,
        "metrics": {} if invalid else {
            k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    if not correct:
        return 1  # a lost or wrong verdict wins over lateness
    return 3 if invalid else 0


def run_all(args) -> int:
    codes = [subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(int(args.trace))]).returncode for name in NAMES]
    # an oracle failure in any workload is never hidden behind an invalid run
    return 1 if 1 in codes else max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "maliot")):
        print(f"perfbench: no src/maliot under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
