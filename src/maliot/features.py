"""Flow-record featurization with fitted normalization statistics.

Two regimes:

* ``full``          -- every flow field except the timestamp. Endpoint
  addresses are encoded privacy-stably as (CRC-32 hash scaled to [0,1],
  private-range indicator) pairs so the width never depends on which IPs
  a capture happens to contain.
* ``de_identified`` -- additionally drops the originator/responder
  addresses and ports (every endpoint-derived dimension).

Numerics are z-scored with statistics fitted on training data; missing
values encode as 0.0, i.e. at the training mean. Categoricals one-hot
onto fixed vocabularies with an ``other`` bucket for unknowns, so the
encoded width is a constant per regime (40 full, 34 de-identified).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError
from .flows import CONN_STATES, PROTOS, SERVICES, FlowRecord, LABEL_ANOMALY
from .hashing import hash_to_unit, is_private_ip

FEATURE_SETS = ("full", "de_identified")

# unlabeled records encode with this label value in batch arrays
UNLABELED = -1

CODEC_FORMAT_VERSION = 1

_ENDPOINT_NUMERICS = (
    "src_ip_hash", "src_ip_private", "src_port",
    "dst_ip_hash", "dst_ip_private", "dst_port",
)
_COMMON_NUMERICS = (
    "duration", "orig_bytes", "resp_bytes", "missed_bytes",
    "orig_pkts", "orig_ip_bytes", "resp_pkts", "resp_ip_bytes",
)


def numeric_feature_names(feature_set: str) -> tuple[str, ...]:
    if feature_set == "full":
        return _ENDPOINT_NUMERICS + _COMMON_NUMERICS
    if feature_set == "de_identified":
        return _COMMON_NUMERICS
    raise ValueError(f"unknown feature set {feature_set!r}")


def _numeric_columns(records: list[FlowRecord], feature_set: str) -> np.ndarray:
    """Raw numeric matrix (n, k) with NaN for missing values."""
    def column(name: str) -> list[float]:
        if name.endswith(("_hash", "_private")):
            ip, kind = name.rsplit("_", 1)
            fn = hash_to_unit if kind == "hash" else is_private_ip
            return [float(fn(getattr(r, ip))) for r in records]
        values = [getattr(r, name) for r in records]
        return [float("nan") if v is None else float(v) for v in values]
    return np.array([column(f) for f in numeric_feature_names(feature_set)],
                    dtype=np.float64).T


@dataclass
class FeatureCodec:
    """Immutable after fit; encoding is pure and thread-safe."""

    feature_set: str
    vocab_proto: tuple[str, ...]
    vocab_service: tuple[str, ...]
    vocab_conn_state: tuple[str, ...]
    numeric_means: np.ndarray
    numeric_stddevs: np.ndarray

    def __post_init__(self):
        self.numeric_means = np.asarray(self.numeric_means, dtype=np.float64)
        self.numeric_stddevs = np.asarray(self.numeric_stddevs, dtype=np.float64)
        self._proto_idx = {v: i for i, v in enumerate(self.vocab_proto)}
        self._service_idx = {v: i for i, v in enumerate(self.vocab_service)}
        self._state_idx = {v: i for i, v in enumerate(self.vocab_conn_state)}

    @property
    def width(self) -> int:
        return (len(self.numeric_means) + len(self.vocab_proto)
                + len(self.vocab_service) + len(self.vocab_conn_state))

    def to_doc(self) -> dict:
        return {
            "format_version": CODEC_FORMAT_VERSION,
            "feature_set": self.feature_set,
            "numeric_features": list(numeric_feature_names(self.feature_set)),
            "vocab_proto": list(self.vocab_proto),
            "vocab_service": list(self.vocab_service),
            "vocab_conn_state": list(self.vocab_conn_state),
            "numeric_means": [float(x) for x in self.numeric_means],
            "numeric_stddevs": [float(x) for x in self.numeric_stddevs],
            "width": self.width,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FeatureCodec":
        return cls(
            feature_set=doc["feature_set"],
            vocab_proto=tuple(doc["vocab_proto"]),
            vocab_service=tuple(doc["vocab_service"]),
            vocab_conn_state=tuple(doc["vocab_conn_state"]),
            numeric_means=np.array(doc["numeric_means"], dtype=np.float64),
            numeric_stddevs=np.array(doc["numeric_stddevs"], dtype=np.float64),
        )

    def fingerprint(self) -> str:
        doc = json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_doc(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FeatureCodec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_doc(json.load(fh))


def fit_codec(records: list[FlowRecord], feature_set: str) -> FeatureCodec:
    """Fit normalization statistics; deterministic for a given sequence.

    Means/stddevs are computed over non-missing values only; columns with
    zero variance (or no observed values) store stddev 1 so encoding never
    divides by zero.
    """
    records = list(records)
    if len(records) < 2:
        raise EmptyDatasetError("fit_codec needs at least 2 records")
    if feature_set not in FEATURE_SETS:
        raise ValueError(f"unknown feature set {feature_set!r}")
    raw = _numeric_columns(records, feature_set)
    with np.errstate(invalid="ignore"):
        means = np.nanmean(raw, axis=0)
        stds = np.nanstd(raw, axis=0)
    means = np.nan_to_num(means, nan=0.0)
    stds = np.nan_to_num(stds, nan=0.0)
    stds[stds < 1e-12] = 1.0
    return FeatureCodec(
        feature_set=feature_set,
        vocab_proto=PROTOS,
        vocab_service=SERVICES,
        vocab_conn_state=CONN_STATES,
        numeric_means=means,
        numeric_stddevs=stds,
    )


def encode_batch(records: list[FlowRecord], codec: FeatureCodec):
    """Encode records to (X, y) arrays.

    X is (n, codec.width) float64 with no NaN/Inf; y is (n,) int8 with
    0 benign, 1 anomaly, UNLABELED (-1) for records without a label.
    Row i depends only on records[i], so it equals a 1-row encode exactly.
    """
    records = list(records)
    n = len(records)
    X = encode_columns(_numeric_columns(records, codec.feature_set),
                       [r.proto for r in records], [r.service for r in records],
                       [r.conn_state for r in records], codec)
    y = np.fromiter(
        (UNLABELED if r.label is None else int(r.label == LABEL_ANOMALY)
         for r in records),
        dtype=np.int8, count=n)
    return X, y


def encode_columns(raw, protos, services, states, codec: FeatureCodec) -> np.ndarray:
    """X from the raw numeric matrix (NaN for missing, columns as
    ``numeric_feature_names``) and the normalized categorical columns."""
    n = len(protos)
    k = len(codec.numeric_means)
    X = np.zeros((n, codec.width), dtype=np.float64)
    if n == 0:
        return X
    z = (raw - codec.numeric_means) / codec.numeric_stddevs
    z[~np.isfinite(z)] = 0.0
    X[:, :k] = z
    rows = np.arange(n)
    off = k
    for names, vocab, index in (
            (protos, codec.vocab_proto, codec._proto_idx),
            (services, codec.vocab_service, codec._service_idx),
            (states, codec.vocab_conn_state, codec._state_idx)):
        other = index["other"]
        X[rows, off + np.fromiter(
            (index.get(s, other) for s in names), dtype=np.int64, count=n)] = 1.0
        off += len(vocab)
    return X
