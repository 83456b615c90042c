"""Dataset ingestion, normalization, splitting, sample assembly, synthesis.

Assembled samples copy nothing from the series: decoder inputs and targets
are read-only sliding-window views, and the encoder input (the period blocks
side by side) is gathered per batch or chunk from the rows it is indexed with.

Synthetic series are sums of seeded sines. By sin(w t + phi) =
sin(w t) cos(phi) + cos(w t) sin(phi) they come from one (T, 2K) basis of
the K harmonics shared by every series, times each series' 2K coefficients:
one matrix product instead of a sine pass per harmonic and series. Values
agree with the per-sine sum to within 1e-11 (rounding only), and the random
draws keep the per-sine form's order: per series, its phases, then its noise.

Binary series layout (.sttf): 'STTF', version u32, T u32, N u32, C u32,
interval_minutes u32, then timestamp-major little-endian float64 values.
"""

from __future__ import annotations

import math
import numbers
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, DimensionError

_STTF_MAGIC = b"STTF"
_STTF_VERSION = 1


@dataclass
class SpatioTemporalTensor:
    """T x N x C float64 block: timestamps x sensors x attributes."""

    data: np.ndarray
    interval_minutes: int = 5

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise DimensionError(f"expected T x N x C, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise DimensionError(f"empty axis in shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise DataError("series contains NaN or infinite values")
        if self.interval_minutes < 1:
            raise ConfigError(f"interval_minutes must be >= 1, got {self.interval_minutes}")

    @property
    def n_timestamps(self) -> int:
        return self.data.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.data.shape[1]

    @property
    def n_attributes(self) -> int:
        return self.data.shape[2]


@dataclass
class TrafficDataset:
    tensor: SpatioTemporalTensor
    adjacency: np.ndarray
    sensor_ids: list[str] = field(default_factory=list)
    # per-attribute (min, max) fitted on the training split; None until fitted
    norm_params: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.tensor.n_sensors
        self.adjacency = np.asarray(self.adjacency, dtype=np.float64)
        if self.adjacency.shape != (n, n):
            raise DimensionError(
                f"adjacency must be {n} x {n}, got {self.adjacency.shape}")
        if not self.sensor_ids:
            self.sensor_ids = [str(i) for i in range(n)]
        if len(self.sensor_ids) != n:
            raise DataError(f"{len(self.sensor_ids)} sensor ids for {n} sensors")


# ---------------------------------------------------------------------------
# series IO

def save_tensor(x: SpatioTemporalTensor, path) -> None:
    t, n, c = x.data.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIIII", _STTF_MAGIC, _STTF_VERSION, t, n, c,
                             x.interval_minutes))
        fh.write(np.ascontiguousarray(x.data, dtype="<f8").tobytes())


def load_tensor(path) -> SpatioTemporalTensor:
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) != 24 or header[:4] != _STTF_MAGIC:
            raise DataError(f"{path}: not an STTF file")
        _, version, t, n, c, interval = struct.unpack("<4sIIIII", header)
        if version != _STTF_VERSION:
            raise DataError(f"{path}: unsupported STTF version {version}")
        if interval < 1 or 60 % interval != 0:
            raise DataError(f"{path}: interval_minutes must divide 60, got {interval}")
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if raw.size != t * n * c:
        raise DataError(f"{path}: expected {t * n * c} values, got {raw.size}")
    return SpatioTemporalTensor(raw.reshape(t, n, c).copy(), interval_minutes=interval)


@contextmanager
def _utf8_text(path):
    """path as UTF-8 text; a byte in it that does not decode is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc})") from exc


def _load_tensor_csv(path) -> tuple[SpatioTemporalTensor, list[str]]:
    """CSV rows: timestamp,sensor,attr0[,attr1...]. Sensors are ordered by id
    (lexicographic) so the layout does not depend on row order. A repeated
    (timestamp, sensor) row is a DataError."""
    rows = {}
    with _utf8_text(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) < 3 or header[0] != "timestamp" or header[1] != "sensor":
            raise DataError(f"{path}: expected header timestamp,sensor,attr...")
        n_attr = len(header) - 2
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2 + n_attr:
                raise DataError(f"{path}:{lineno}: expected {2 + n_attr} fields")
            try:
                key = (int(parts[0]), parts[1])
                values = [float(v) for v in parts[2:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if key in rows:
                raise DataError(f"{path}:{lineno}: duplicate row for timestamp "
                                f"{key[0]}, sensor {key[1]}")
            rows[key] = values
    if not rows:
        raise DataError(f"{path}: no data rows")
    sensor_ids = sorted({sensor for _, sensor in rows})
    sensor_pos = {s: i for i, s in enumerate(sensor_ids)}
    n_t = max(t for t, _ in rows) + 1
    if min(t for t, _ in rows) < 0:
        raise DataError(f"{path}: negative timestamp")
    # rows are unique, so a hole is a grid cell no row fills; a NaN value
    # read from the file is not a hole and fails the finiteness check below
    if len(rows) != n_t * len(sensor_ids):
        raise DataError(f"{path}: missing (timestamp, sensor) combinations")
    data = np.empty((n_t, len(sensor_ids), n_attr))
    for (t, sensor), values in rows.items():
        data[t, sensor_pos[sensor], :] = values
    return SpatioTemporalTensor(data), sensor_ids


def save_edges(path, adjacency: np.ndarray, sensor_ids: list[str]) -> None:
    """The nonzero upper triangle of a symmetric adjacency as an undirected
    edge list CSV, which `load_edges` reads back."""
    with open(path, "w") as fh:
        fh.write("# directed=false\nfrom,to,weight\n")
        n = len(sensor_ids)
        for i in range(n):
            for j in range(i + 1, n):
                if adjacency[i, j] != 0:
                    fh.write(f"{sensor_ids[i]},{sensor_ids[j]},{adjacency[i, j]}\n")


def load_edges(path, sensor_ids: list[str]) -> np.ndarray:
    """Edge list CSV: from,to[,weight]. A '# directed=true|false' comment line
    before the header controls symmetrization (default: undirected)."""
    pos = {s: i for i, s in enumerate(sensor_ids)}
    adj = np.zeros((len(sensor_ids), len(sensor_ids)), dtype=np.float64)
    directed = False
    saw_header = False
    with _utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                flag = line[1:].replace(" ", "").lower()
                if flag.startswith("directed="):
                    value = flag.split("=", 1)[1]
                    if value not in ("true", "false"):
                        raise DataError(f"{path}:{lineno}: directed must be true or false")
                    directed = value == "true"
                continue
            if not saw_header:
                saw_header = True
                fields = line.split(",")
                if fields[:2] != ["from", "to"]:
                    raise DataError(f"{path}:{lineno}: expected header from,to[,weight]")
                continue
            parts = line.split(",")
            if len(parts) not in (2, 3):
                raise DataError(f"{path}:{lineno}: expected 2 or 3 fields")
            src, dst = parts[0], parts[1]
            if src not in pos or dst not in pos:
                raise DataError(f"{path}:{lineno}: unknown sensor in edge {src}->{dst}")
            try:
                weight = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad weight") from exc
            if not np.isfinite(weight):
                raise DataError(f"{path}:{lineno}: weight {weight} is not finite")
            if weight < 0:
                raise DataError(f"{path}:{lineno}: weight {weight} is negative")
            adj[pos[src], pos[dst]] = weight
            if not directed:
                adj[pos[dst], pos[src]] = weight
    if not saw_header:
        raise DataError(f"{path}: empty edge file")
    return adj


def load_dataset(tensor_path, edges_path=None) -> TrafficDataset:
    tensor_path = str(tensor_path)
    if tensor_path.endswith(".csv"):
        tensor, sensor_ids = _load_tensor_csv(tensor_path)
    else:
        tensor = load_tensor(tensor_path)
        sensor_ids = [str(i) for i in range(tensor.n_sensors)]
    if edges_path is not None:
        adjacency = load_edges(edges_path, sensor_ids)
    else:
        adjacency = np.zeros((tensor.n_sensors, tensor.n_sensors))
    return TrafficDataset(tensor=tensor, adjacency=adjacency, sensor_ids=sensor_ids)


# ---------------------------------------------------------------------------
# normalization and splitting

def split_ranges(n_timestamps: int,
                 ratios=(0.6, 0.2, 0.2)) -> tuple[tuple[int, int], ...]:
    """Contiguous (start, end) half-open index ranges for train/val/test."""
    if len(ratios) != 3 or not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ConfigError(f"need three positive finite ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")
    b1 = int(n_timestamps * ratios[0])
    b2 = int(n_timestamps * (ratios[0] + ratios[1]))
    if not 0 < b1 < b2 < n_timestamps:
        raise DataError(f"{n_timestamps} timestamps cannot be split {ratios}")
    return (0, b1), (b1, b2), (b2, n_timestamps)


def fit_normalization(x: SpatioTemporalTensor, train_range: tuple[int, int]) -> np.ndarray:
    """Per-attribute (min, max) over training rows only, shape (C, 2)."""
    s0, s1 = train_range
    block = x.data[s0:s1]
    lo = block.min(axis=(0, 1))
    hi = block.max(axis=(0, 1))
    if np.any(hi - lo <= 0):
        flat = int(np.argmax(hi - lo <= 0))
        raise DataError(f"attribute {flat} is constant on the training split")
    return np.stack([lo, hi], axis=1)


def normalize(values: np.ndarray, norm_params: np.ndarray) -> np.ndarray:
    """Map each attribute (last axis) to [-1, 1] via 2*(x-min)/(max-min) - 1."""
    lo = norm_params[:, 0]
    hi = norm_params[:, 1]
    return 2.0 * (values - lo) / (hi - lo) - 1.0


def denormalize(values: np.ndarray, norm_params: np.ndarray,
                attribute: int) -> np.ndarray:
    lo, hi = norm_params[attribute]
    return (values + 1.0) * (hi - lo) / 2.0 + lo


# ---------------------------------------------------------------------------
# sample assembly

class EncoderWindows:
    """Read-only (S, P * L, N, C) encoder input that stays in the series.

    Sample s is the L rows starting at starts[p] + s for each period p, side
    by side along the time axis. Indexing the sample axis (an int, a slice, an
    int or bool array; never a tuple) gathers the selected samples into a fresh
    C-contiguous array; `np.asarray` gathers them all. `nbytes` is the size a
    gathered copy of the whole set would have, as numpy reports it for a view.
    """

    ndim = 4

    def __init__(self, series: np.ndarray, starts, length: int, count: int):
        # steps[p * length + j] = starts[p] + j: sample s reads series[s + steps]
        self._series = series
        self._steps = (np.asarray(starts)[:, None] + np.arange(length)).ravel()
        self.shape = (count, self._steps.size) + series.shape[1:]
        self.dtype = series.dtype

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize

    def __getitem__(self, key):
        if isinstance(key, tuple):
            raise IndexError("encoder windows index the sample axis only")
        return self._series[np.add.outer(np.arange(self.shape[0])[key], self._steps)]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("encoder windows cannot be read without a copy")
        out = self[:]
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass
class SampleSet:
    """Stacked training samples. encoder_input is the concatenation of the
    selected period blocks in slow-to-fast order (weekly, daily, hourly).
    decoder_input covers [t, t+L-1]; target holds attribute 0 over [t+1, t+L].
    From assemble_samples nothing is copied: encoder_input is an
    EncoderWindows that gathers the rows of the samples it is indexed with,
    and decoder_input and target are read-only views of the series. Any
    field may also be a plain ndarray."""

    encoder_input: np.ndarray | EncoderWindows   # (S, T_enc, N, C)
    decoder_input: np.ndarray   # (S, L, N, C)
    target: np.ndarray          # (S, L, N, 1)
    anchors: np.ndarray         # (S,) anchor timestamps
    periods: tuple[str, ...]

    def __len__(self) -> int:
        return self.encoder_input.shape[0]


_PERIOD_RANK = {"weekly": 0, "daily": 1, "hourly": 2}


def assemble_samples(x: SpatioTemporalTensor, split_range: tuple[int, int],
                     periods, offsets: dict, horizon: int) -> SampleSet:
    """Build every sample whose target block lies inside split_range.

    Lookback windows may reach back across the split boundary (into earlier
    data); targets may not. Sample anchors advance one timestamp at a time.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    periods = tuple(sorted(set(periods), key=lambda p: _PERIOD_RANK[p]))
    if "hourly" not in periods:
        raise ConfigError("encoder input must include the hourly block")
    for p in periods:
        if p not in offsets:
            raise ConfigError(f"no offset for period {p!r}")
        if offsets[p] < horizon:
            raise ConfigError(f"{p} offset {offsets[p]} shorter than horizon {horizon}")
    s0, s1 = split_range
    t_total = x.data.shape[0]
    if not 0 <= s0 < s1 <= t_total:
        raise DataError(f"split range {split_range} outside [0, {t_total}]")
    deepest = max(offsets[p] for p in periods)
    first = max(s0 - 1, deepest - 1)
    last = s1 - 1 - horizon
    if last < first:
        raise DataError(
            f"split {split_range} yields no samples: lookback {deepest} and "
            f"horizon {horizon} leave no admissible anchor")
    # windows[t] is the read-only view x[t:t + horizon], (L, N, C)
    windows = np.moveaxis(sliding_window_view(x.data, horizon, axis=0), -1, 1)
    encoder = EncoderWindows(x.data, [first - offsets[p] + 1 for p in periods],
                             horizon, last - first + 1)
    return SampleSet(encoder_input=encoder,
                     decoder_input=windows[first:last + 1],
                     target=windows[first + 1:last + 2, ..., :1],
                     anchors=np.arange(first, last + 1), periods=periods)


def iterate_batches(samples: SampleSet, batch_size: int, rng=None):
    """Yield (encoder, decoder, target) batches; shuffled when rng is given."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(samples))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        sel = order[start:start + batch_size]
        yield (samples.encoder_input[sel], samples.decoder_input[sel],
               samples.target[sel])


# ---------------------------------------------------------------------------
# synthetic traffic

# daily harmonics skip multiples of 24 (those repeat every hour); weekly
# harmonics skip multiples of 7 (those repeat every day). High harmonics are
# included so correlation shows up inside short rank windows.
_DAILY_HARMONICS = (1, 2, 3, 5, 7, 11, 13, 23, 29, 41, 47)
_WEEKLY_HARMONICS = (1, 3, 5, 9, 27, 81, 165, 243, 339, 453)


# bytes of one row block's basis and product together; kept small so the
# working space adds little to peak memory even when the series is small
_SYNTH_BLOCK_BYTES = 1 << 17


def generate_synthetic(n_sensors: int, weeks: int, daily_amplitude: float = 1.0,
                       weekly_amplitude: float = 0.0, noise_sigma: float = 0.1,
                       seed: int = 0, interval_minutes: int = 5,
                       n_attributes: int = 1, base: float = 10.0) -> TrafficDataset:
    """Ring-graph dataset whose dominant periodicity is controlled by the two
    amplitudes. Deterministic for a given seed.

    Series (s, a) is base + sum_k scale * sin(w_k t + phi_k) + noise, with
    scale = amplitude / sqrt(K) for each of the K daily (then weekly)
    harmonics, skipped when its amplitude is 0. It is built through
    sin(w t + phi) = sin(w t) cos(phi) + cos(w t) sin(phi): one shared
    (T, 2K) basis of sin(w t) and cos(w t), made block by block over the
    rows, times a (2K, N * C) matrix of scale * cos(phi) and scale * sin(phi).
    This agrees with summing one sine per harmonic to within 1e-11 at a few
    weeks, and is bit-equal to it when both amplitudes are 0.

    Draw order: series by series (sensor-major, then attribute), each draws
    its daily phases, then its weekly phases (one `uniform(0, 2 pi, K)` for
    all K, which draws what K scalar calls would), then its T noise values
    (one `normal(0, noise_sigma, T)`, skipped when noise_sigma is 0).
    """
    for name, value, low in (("n_sensors", n_sensors, 1), ("weeks", weeks, 2),
                             ("interval_minutes", interval_minutes, 1),
                             ("n_attributes", n_attributes, 1)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    if 60 % interval_minutes != 0:
        raise ConfigError(f"interval_minutes must divide 60, got {interval_minutes}")
    for name, value in (("daily_amplitude", daily_amplitude),
                        ("weekly_amplitude", weekly_amplitude), ("base", base)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    per_day = 24 * 60 // interval_minutes
    per_week = 7 * per_day
    t_total = weeks * per_week
    # per active harmonic: 2 pi k, its period in steps and its scale
    two_pi_k, periods, scales = [], [], []
    for amplitude, harmonics, period in (
            (daily_amplitude, _DAILY_HARMONICS, per_day),
            (weekly_amplitude, _WEEKLY_HARMONICS, per_week)):
        if amplitude != 0.0:
            ks = [k for k in harmonics if k <= period // 3]
            two_pi_k += [2.0 * np.pi * k for k in ks]
            periods += [period] * len(ks)
            scales += [amplitude / np.sqrt(len(ks))] * len(ks)
    # column s * C + a of out is series (s, a); noise lands in it as drawn
    n_series = n_sensors * n_attributes
    phases = np.empty((n_series, len(scales)))
    noisy = noise_sigma > 0.0
    out = (np.empty if noisy else np.zeros)((t_total, n_series))
    rng = np.random.default_rng(seed)
    for j in range(n_series):
        phases[j] = rng.uniform(0.0, 2.0 * np.pi, len(scales))
        if noisy:
            out[:, j] = rng.normal(0.0, noise_sigma, t_total)
    coef = np.concatenate([scales * np.cos(phases), scales * np.sin(phases)], axis=1)
    _add_waves(out, base, np.array(two_pi_k), np.array(periods, dtype=np.float64),
               np.ascontiguousarray(coef.T))
    data = out.reshape(t_total, n_sensors, n_attributes)
    adjacency = np.zeros((n_sensors, n_sensors))
    if n_sensors > 1:
        for i in range(n_sensors):
            j = (i + 1) % n_sensors
            adjacency[i, j] = adjacency[j, i] = 1.0
    tensor = SpatioTemporalTensor(data, interval_minutes=interval_minutes)
    return TrafficDataset(tensor=tensor, adjacency=adjacency)


def _add_waves(out, base, two_pi_k, periods, coef):
    """Add base + basis @ coef to the (T, S) array out in place, one block
    of rows at a time, where basis row t is [sin(w t), cos(w t)] with
    w t = two_pi_k * t / periods, rounded as the per-sine form rounds it."""
    t_total, n_series = out.shape
    n_waves = two_pi_k.size
    rows = min(t_total, max(1, _SYNTH_BLOCK_BYTES // (8 * (n_series + 2 * n_waves))))
    basis = np.empty((rows, 2 * n_waves))
    waves = np.empty((rows, n_series))
    for r0 in range(0, t_total, rows):
        n = min(rows, t_total - r0)
        angles = np.multiply.outer(np.arange(r0, r0 + n, dtype=np.float64), two_pi_k)
        angles /= periods
        np.sin(angles, out=basis[:n, :n_waves])
        np.cos(angles, out=basis[:n, n_waves:])
        block = np.matmul(basis[:n], coef, out=waves[:n])
        block += base
        out[r0:r0 + n] += block
