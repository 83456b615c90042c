"""Spatial correlation tensor: per-attribute MIC degrees between all sensor pairs.

One static tensor over the full series, and the softmax-normalized top-U
mixing matrix consumed by the correlation attention layer.
Every degree is a MIC score at the fixed grid bound m^0.6 (`mic.ETA`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import SpatioTemporalTensor
from .errors import ConfigError, DataError, DimensionError
from .mic import MicStats, pairwise_mic

_SCOR_MAGIC = b"SCOR"
_SCOR_VERSION = 1


@dataclass(frozen=True)
class SCorrTensor:
    """N x N x C correlation degrees in [0, 1], symmetric per attribute."""

    degrees: np.ndarray

    def __post_init__(self):
        d = self.degrees
        if d.ndim != 3 or d.shape[0] != d.shape[1]:
            raise DimensionError(f"degrees must be N x N x C, got {d.shape}")
        # written so that NaN, which fails every comparison, is refused too
        if not np.all((d >= 0.0) & (d <= 1.0)):
            raise DataError("correlation degrees NaN or outside [0, 1]")

    @property
    def n_sensors(self) -> int:
        return self.degrees.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.degrees.shape[2]


def compute_scorr(x: SpatioTemporalTensor, workers: int = 1, *,
                  stats: MicStats | None = None) -> SCorrTensor:
    """MIC between the full T-length series of every sensor pair, per attribute.

    Diagonal is 1 by convention; pairs involving a flatlined (zero-variance)
    sensor are 0. All attributes share one pool of forked workers, sized by
    `mic.pool_workers`, and output is bit-identical for any worker count.
    `stats`, when given, counts the pairs scored.
    """
    return SCorrTensor(pairwise_mic(x.data, workers=workers, stats=stats))


def top_u_normalize(s: SCorrTensor, u: int) -> np.ndarray:
    """The (N, N) row-stochastic top-U mixing matrix: per (sensor,
    attribute) the u largest degrees, ties to the lower sensor index so that
    runs agree, are softmaxed, and row i holds the attribute-averaged weights
    of sensor i's peers, so mixed[i] = sum_j R[i, j] * original[j]."""
    n, c = s.n_sensors, s.n_attributes
    if not 1 <= u <= n:
        raise ConfigError(f"top-u must be in [1, {n}], got {u}")
    # stable argsort on negated degrees: equal degrees keep ascending index
    indices = np.argsort(-s.degrees, axis=1, kind="stable")[:, :u, :]
    exps = np.exp(np.take_along_axis(s.degrees, indices, axis=1))
    weights = exps / exps.sum(axis=1, keepdims=True)
    mixing = np.zeros((n, n), dtype=np.float64)
    rows = np.repeat(np.arange(n), u * c)
    np.add.at(mixing, (rows, indices.reshape(-1)), weights.reshape(-1) / c)
    return mixing


# ---------------------------------------------------------------------------
# storage

def save_scorr(s: SCorrTensor, path) -> None:
    """Binary layout: 'SCOR', version u32, N u32, C u32, flags u32, then
    attribute-major little-endian float64 degrees."""
    n, c = s.n_sensors, s.n_attributes
    payload = np.ascontiguousarray(np.transpose(s.degrees, (2, 0, 1)), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIII", _SCOR_MAGIC, _SCOR_VERSION, n, c, 0))
        fh.write(payload.tobytes())


def load_scorr(path) -> SCorrTensor:
    with open(path, "rb") as fh:
        header = fh.read(20)
        if len(header) != 20:
            raise DataError(f"{path}: truncated header")
        magic, version, n, c, _flags = struct.unpack("<4sIIII", header)
        if magic != _SCOR_MAGIC:
            raise DataError(f"{path}: not a SCOR file (magic {magic!r})")
        if version != _SCOR_VERSION:
            raise DataError(f"{path}: unsupported SCOR version {version}")
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if raw.size != n * n * c:
        raise DataError(f"{path}: expected {n * n * c} values, got {raw.size}")
    try:
        s = SCorrTensor(np.transpose(raw.reshape(c, n, n), (1, 2, 0)).copy())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    # every pair's degree is one MIC score, stored at (i, j) and (j, i)
    if not np.array_equal(s.degrees, s.degrees.transpose(1, 0, 2)):
        raise DataError(f"{path}: correlation degrees are not symmetric "
                        f"per attribute")
    return s


def export_scorr_csv(s: SCorrTensor, path) -> None:
    with open(path, "w") as fh:
        fh.write("sensor_i,sensor_j,attribute,degree\n")
        for i in range(s.n_sensors):
            for j in range(s.n_sensors):
                for c in range(s.n_attributes):
                    fh.write(f"{i},{j},{c},{float(s.degrees[i, j, c])!r}\n")
