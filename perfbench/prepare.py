"""Train both models and write the backfill corpus for one seed.

Runs as a child process so training never counts toward the benchmark
process's memory.  Usage: ``prepare.py SEED OUT_DIR``; writes into a
temporary sibling and renames it, so a half-written cache never exists.
"""

from __future__ import annotations

import os
import shutil
import sys

from maliot import models, sim
from maliot.engine import codec_path_for
from maliot.features import encode_batch, fit_codec

import corpus

MODEL_KINDS = ("random_forest", "decision_tree")


def model_path(cache: str, kind: str) -> str:
    return os.path.join(cache, f"{kind}.json")


def backfill_path(cache: str) -> str:
    return os.path.join(cache, "backfill.csv")


def prepare(seed: int, out: str) -> None:
    tmp = f"{out}.tmp-{os.getpid()}"
    os.makedirs(tmp)
    try:
        records = sim.generate(corpus.train_config(seed))
        codec = fit_codec(records, "full")
        X, y = encode_batch(records, codec)
        for kind in MODEL_KINDS:
            model = models.train(kind, X, y, seed=seed,
                                 codec_fingerprint=codec.fingerprint())
            models.save_model(model, model_path(tmp, kind))
            codec.save(codec_path_for(model_path(tmp, kind)))
        sim.generate_to_file(
            corpus.stream_config(seed, corpus.BACKFILL_DURATION_S),
            backfill_path(tmp))
        os.rename(tmp, out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


if __name__ == "__main__":
    prepare(int(sys.argv[1]), sys.argv[2])
