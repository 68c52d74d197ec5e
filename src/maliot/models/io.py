"""Versioned JSON model files with a parameter checksum.

Layout: {format_version, kind, codec_fingerprint, version, trained_at,
checksum, params}.  The checksum is the SHA-256 of the canonical JSON
encoding of ``params`` alone, so truncation and bit rot are caught while
the mutable header fields stay editable by tooling.
"""

from __future__ import annotations

import hashlib
import json
import os

from ..errors import CorruptModelError, ModelLoadError, VersionMismatchError
from .base import TrainedModel
from .registry import KINDS

FORMAT_VERSION = 1


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _params_checksum(params_doc: dict) -> str:
    return hashlib.sha256(_canonical(params_doc).encode("utf-8")).hexdigest()


def save_model(model: TrainedModel, path: str | os.PathLike) -> None:
    if model.kind not in KINDS:
        raise ModelLoadError(f"unknown model kind {model.kind!r}")
    params_doc = KINDS[model.kind].to_doc(model.params)
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "codec_fingerprint": model.codec_fingerprint,
        "version": model.version,
        "trained_at": model.trained_at,
        "checksum": _params_checksum(params_doc),
        "params": params_doc,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    os.replace(tmp, path)


def load_model(path: str | os.PathLike) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorruptModelError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise CorruptModelError(f"{path}: expected a JSON object")
    fv = doc.get("format_version")
    if fv != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: format_version {fv!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise CorruptModelError(f"{path}: unknown kind {kind!r}")
    for key in ("checksum", "params", "codec_fingerprint", "version"):
        if key not in doc:
            raise CorruptModelError(f"{path}: missing {key!r}")
    if _params_checksum(doc["params"]) != doc["checksum"]:
        raise CorruptModelError(f"{path}: checksum mismatch")
    try:
        params = KINDS[kind].from_doc(doc["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelError(f"{path}: bad params ({exc})") from None
    return TrainedModel(
        kind=kind,
        params=params,
        codec_fingerprint=str(doc["codec_fingerprint"]),
        version=int(doc["version"]),
        trained_at=float(doc.get("trained_at", 0.0)),
    )
