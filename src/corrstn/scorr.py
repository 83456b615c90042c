"""Spatial correlation tensor: per-attribute MIC degrees between all sensor pairs.

One static tensor over the full series, and the softmax-normalized top-U
mixing matrix consumed by the correlation attention layer.
Every degree is a MIC score at the fixed grid bound m^0.6 (`mic.ETA`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (SpatioTemporalTensor, naming, read_header, read_values,
                   write_binary, write_csv)
from .errors import ConfigError, DataError, DimensionError
from .mic import MicStats, pairwise_mic

_SCOR_MAGIC = b"SCOR"


@dataclass(frozen=True)
class SCorrTensor:
    """N x N x C correlation degrees in [0, 1], symmetric per attribute."""

    degrees: np.ndarray

    def __post_init__(self):
        d = self.degrees
        if d.ndim != 3 or d.shape[0] != d.shape[1]:
            raise DimensionError(f"degrees must be N x N x C, got {d.shape}")
        if min(d.shape) < 1:
            raise DimensionError(f"empty axis in shape {d.shape}")
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
    """Binary layout: 'SCOR', version u32, N u32, C u32, flags u32 (0), then
    attribute-major little-endian float64 degrees, one attribute at a time."""
    write_binary(path, _SCOR_MAGIC, (s.n_sensors, s.n_attributes, 0),
                 (s.degrees[:, :, a] for a in range(s.n_attributes)))


def load_scorr(path) -> SCorrTensor:
    """The tensor `save_scorr` wrote, as a (N, N, C) view of the (C, N, N)
    values read. An empty axis, a degree NaN or outside [0, 1] and degrees
    that are not symmetric per attribute are each a DataError."""
    with open(path, "rb") as fh:
        n, c, _flags = read_header(fh, path, _SCOR_MAGIC, 3)
        values = read_values(fh, path, (c, n, n), last=True)
    s = naming(path, SCorrTensor, np.moveaxis(values, 0, -1))
    # every pair's degree is one MIC score, stored at (i, j) and (j, i)
    if not np.array_equal(s.degrees, s.degrees.transpose(1, 0, 2)):
        raise DataError(f"{path}: correlation degrees are not symmetric "
                        f"per attribute")
    return s


def export_scorr_csv(s: SCorrTensor, path) -> None:
    n, c = s.n_sensors, s.n_attributes
    write_csv(path, "sensor_i,sensor_j,attribute,degree",
              ((i, j, a, s.degrees[i, j, a])
               for i in range(n) for j in range(n) for a in range(c)))
