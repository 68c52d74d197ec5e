"""Workload parameters and the corpora they are built from.

Shared by the benchmark process and its children, so both sides derive the
same rows from the same seed.
"""

from __future__ import annotations

import hashlib
import os

from maliot import sim

TOPIC = "flows"
PARTITIONS = 3
DEVICES = 9
RATE_PER_DEVICE = 50.0  # flows/s, the paper's per-device rate
# Share of malicious flows camouflaged as benign.  With 0 the classes split
# cleanly and forest trees stay tiny, which understates scoring cost.
OVERLAP = 0.1
BACKFILL_DURATION_S = 120.0  # `maliot gen` default corpus
TRAIN_DURATION_S = 20.0
TRAIN_SEED_OFFSET = 1_000_003  # training corpus never equals a streamed one


def stream_config(seed: int, duration_s: float) -> sim.SimConfig:
    return sim.SimConfig(n_devices=DEVICES, duration_s=duration_s, seed=seed,
                         rate_flows_per_s=RATE_PER_DEVICE, overlap=OVERLAP)


def train_config(seed: int) -> sim.SimConfig:
    return stream_config(seed + TRAIN_SEED_OFFSET, TRAIN_DURATION_S)


def cache_dir(root: str, seed: int) -> str:
    """Per-seed cache, keyed also by the program's and the benchmark's
    source, so a changed trainer or simulator never reuses stale files."""
    h = hashlib.sha256()
    for top in (os.path.join(root, "src", "maliot"), os.path.dirname(__file__)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return os.path.join(root, ".bench_cache", f"{h.hexdigest()[:16]}-seed{seed}")
