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
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import EmptyDatasetError
from .flows import CONN_STATES, LABEL_ANOMALY, LABEL_BENIGN, PROTOS, SERVICES, FlowRecord
from .hashing import hash_to_unit, is_private_ip

FEATURE_SETS = ("full", "de_identified")

# unlabeled records encode with this label value in batch arrays
UNLABELED = -1
LABEL_CODES = {None: UNLABELED, LABEL_BENIGN: 0, LABEL_ANOMALY: 1}

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


class Columns(NamedTuple):
    """Rows as columns: raw numerics (n, k) in ``numeric_feature_names``
    order with NaN for missing, the normalized proto/service/conn_state
    columns, labels (0, 1 or UNLABELED), ts and device ids."""

    raw: np.ndarray
    protos: list
    services: list
    states: list
    labels: np.ndarray
    ts: np.ndarray
    devices: list

    def take(self, idx) -> "Columns":
        """The rows at ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        picks = idx.tolist()
        return Columns(*(c[idx] if isinstance(c, np.ndarray) else [c[i] for i in picks]
                         for c in self))


def concat_columns(parts) -> Columns:
    return Columns(*(np.concatenate(c) if isinstance(c[0], np.ndarray)
                     else list(chain.from_iterable(c)) for c in zip(*parts)))


def record_columns(records: list[FlowRecord], feature_set: str) -> Columns:
    def column(name: str) -> list[float]:
        if name.endswith(("_hash", "_private")):
            ip, kind = name.rsplit("_", 1)
            fn = hash_to_unit if kind == "hash" else is_private_ip
            return [float(fn(getattr(r, ip))) for r in records]
        values = [getattr(r, name) for r in records]
        return [float("nan") if v is None else float(v) for v in values]
    raw = np.array([column(f) for f in numeric_feature_names(feature_set)],
                   dtype=np.float64).T
    return Columns(raw, [r.proto for r in records], [r.service for r in records],
                   [r.conn_state for r in records],
                   np.array([LABEL_CODES[r.label] for r in records], dtype=np.int8),
                   np.array([r.ts for r in records], dtype=np.float64),
                   [r.device_id for r in records])


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
    """``fit_raw`` of the records' raw numeric columns."""
    return fit_raw(record_columns(list(records), feature_set).raw, feature_set)


def fit_raw(raw: np.ndarray, feature_set: str) -> FeatureCodec:
    """Fit normalization statistics; deterministic for a given matrix.

    Means/stddevs are computed over non-missing values only; columns with
    zero variance (or no observed values) store stddev 1 so encoding never
    divides by zero.
    """
    if len(raw) < 2:
        raise EmptyDatasetError("fitting a codec needs at least 2 rows")
    if feature_set not in FEATURE_SETS:
        raise ValueError(f"unknown feature set {feature_set!r}")
    raw = np.asfortranarray(raw)  # numpy's float sum of a column depends on the layout
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
    cols = record_columns(list(records), codec.feature_set)
    return encode_columns(cols, codec), cols.labels


def encode_columns(cols: Columns, codec: FeatureCodec) -> np.ndarray:
    """X from Columns whose raw matrix has the codec's feature set."""
    n = len(cols.protos)
    k = len(codec.numeric_means)
    X = np.zeros((n, codec.width), dtype=np.float64)
    if n == 0:
        return X
    z = X[:, :k]  # z-scores go straight into X: no temporary the size of raw
    np.subtract(cols.raw, codec.numeric_means, out=z)
    z /= codec.numeric_stddevs
    z[~np.isfinite(z)] = 0.0
    rows = np.arange(n)
    off = k
    for names, vocab, index in (
            (cols.protos, codec.vocab_proto, codec._proto_idx),
            (cols.services, codec.vocab_service, codec._service_idx),
            (cols.states, codec.vocab_conn_state, codec._state_idx)):
        other = index["other"]
        X[rows, off + np.fromiter(
            (index.get(s, other) for s in names), dtype=np.int64, count=n)] = 1.0
        off += len(vocab)
    return X
