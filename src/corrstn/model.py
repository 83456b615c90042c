"""Encoder-decoder forecaster over correlation attention and graph layers.

Layout conventions: batches are (B, T, N, C) and activations (B, T, N,
d_model). Linear maps run there, one (N, d) product per position, each one
fused node; attention keys and values stay in that layout too, and the
attention node splits them and the queries into heads (B, N, H, L, d_head)
as views inside itself, so the graph holds no layout ops for heads. The
graph layer runs per time step over sensors. Training uses teacher forcing;
inference, validation included, rolls the decoder autoregressively from the
last observed step.
The encoder output and each decoder layer's cross-attention keys and values
do not change during a rollout, so inference computes them once per batch
chunk; a teacher-forced pass uses each layer's once, and computes them just
before that layer runs. The decoder computes every row independently of the
others, and its self-attention always spans all horizon key rows, masked
causally: a forward pass over a shorter prefix pads the decoder input with
zero rows, and a rollout step attends over cached keys and values, zero
where not yet written. So each rollout step decodes only the new position
and still matches a forward pass over its prefix bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import metrics as metrics_mod
from .autodiff import Module, Parameter, Tensor, mae_loss
from .data import SampleSet, denormalize, iterate_batches
from .errors import ComputeError, ConfigError, DataError, DimensionError
from .neural import (CIATT, CIGNN, LayerNorm, Linear, NormalizedAdjacency,
                     causal_mask)
from .scorr import SCorrTensor, top_u_normalize

_CKPT_MAGIC = b"CSTN"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    encoder_layers: int = 2
    decoder_layers: int = 2
    d_model: int = 32
    heads: int = 4
    top_u: int = 2
    kernel_size: int = 3
    periods: tuple = ("hourly",)
    tau: int = 12
    horizon: int = 12
    learning_rate: float = 0.001
    batch_size: int = 16
    qk_conv: bool = False

    def __post_init__(self):
        for name in ("encoder_layers", "decoder_layers", "d_model", "heads",
                     "top_u", "kernel_size", "tau", "horizon", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.learning_rate, bool) \
                or not isinstance(self.learning_rate, (int, float)):
            raise ConfigError(
                f"learning_rate must be a number, got {self.learning_rate!r}")
        if not isinstance(self.qk_conv, bool):
            raise ConfigError(f"qk_conv must be true or false, got {self.qk_conv!r}")
        for name in ("encoder_layers", "decoder_layers", "d_model", "heads",
                     "top_u", "batch_size", "tau"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd positive, got {self.kernel_size}")
        # the forecasting contract fixes a 12-step horizon
        if self.horizon != 12:
            raise ConfigError(f"horizon is fixed at 12, got {self.horizon}")
        # each period block of the encoder input is horizon steps long
        if self.tau != self.horizon:
            raise ConfigError(f"tau must equal the horizon {self.horizon}, "
                              f"got {self.tau}")
        if not 0 < self.learning_rate < float("inf"):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        periods = tuple(self.periods)
        if "hourly" not in periods or not set(periods) <= {"hourly", "daily", "weekly"}:
            raise ConfigError(f"periods must include hourly, got {periods}")
        object.__setattr__(self, "periods", periods)

    @property
    def encoder_length(self) -> int:
        return len(self.periods) * self.tau

    def to_dict(self) -> dict:
        """The fields, with `"dropout": 0.0` before `qk_conv`: `config_hash`,
        which every checkpoint stores, hashes that key, and saved configs
        keep their bytes."""
        d = asdict(self)
        qk_conv = d.pop("qk_conv")
        d.update(periods=list(self.periods), dropout=0.0, qk_conv=qk_conv)
        return d

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        """A config from `to_dict`'s keys; `dropout` may be left out, and
        anything but 0 is refused, since the model has no dropout."""
        if not isinstance(payload, dict):
            raise TypeError(f"a config must be a JSON object, not {type(payload).__name__}")
        payload = dict(payload)
        dropout = payload.pop("dropout", 0.0)
        if isinstance(dropout, bool) or dropout != 0:
            raise ConfigError(f"dropout is not supported and must be 0, got {dropout!r}")
        payload["periods"] = tuple(payload.get("periods", ("hourly",)))
        return cls(**payload)


PRESETS = {
    # appendix-style hyperparameters for the PEMS08 road-traffic benchmark
    "pems08": ModelConfig(encoder_layers=4, decoder_layers=4, d_model=64,
                          heads=8, top_u=4, kernel_size=3, batch_size=16,
                          periods=("hourly", "daily", "weekly"), qk_conv=True),
}


def config_hash(config: ModelConfig) -> bytes:
    canon = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(canon).digest()


def save_config(config: ModelConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")


def load_config(path) -> ModelConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            return ModelConfig.from_dict(json.load(fh))
        except (ConfigError, TypeError, UnicodeDecodeError,
                json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc


# Bytes that one forecast chunk may add to the process's peak. Its windows
# come from `chunk_windows`.
CHUNK_BYTES = 256 << 20
# What one window of a rollout adds to the peak RSS, in encoder activations
# (L, N, d). An activation is the widest per-window array a rollout holds
# whole: the attention scores (L·N·H·L) and the graph weights (L·N·N) run in
# blocks of at most 1 MiB. Decoding sets the peak, since every decoder
# layer's cross-attention keys and values and self-attention caches live
# through all 12 steps. Measured as the peak RSS a forecast adds per window
# (2 vCPUs, numpy 2.4.6, one OpenBLAS thread): 11.5 for the pems08 preset at
# N=170 over 64 chunks of 4, 7.2 for the default config with all three
# periods and 9.6 for the default config, both at N=16 over 16 chunks of 64.
# 24 was sized while each chunk's arrays stayed alive into the next (22.6 for
# the pems08 preset), and is kept because every chunk size follows from it.
_WINDOW_ACTIVATIONS = 24


def chunk_windows(config: ModelConfig, n_sensors: int) -> int:
    """Windows per forecast chunk: CHUNK_BYTES over what one window of a
    rollout takes, and at least one. 3 windows for the pems08 preset at
    N=170 and 6 at N=96, 75 for the default config with all three periods at
    N=16 and 227 for the default config at N=16. Every window's bits are the
    same for any chunk, so the count only sets the peak."""
    activation = 8 * config.encoder_length * n_sensors * config.d_model
    return max(1, CHUNK_BYTES // (_WINDOW_ACTIVATIONS * activation))


# ---------------------------------------------------------------------------
# network

class EncoderLayer(Module):
    def __init__(self, config, mixing, stack, adj, rng):
        kernel = config.kernel_size if config.qk_conv else None
        self.attn = CIATT(config.d_model, config.heads, mixing, rng, conv_kernel=kernel)
        self.norm_attn = LayerNorm(config.d_model)
        self.graph = CIGNN(config.d_model, stack, adj, rng)
        self.norm_graph = LayerNorm(config.d_model)

    def __call__(self, x):
        # x: (B, T, N, d)
        x = self.norm_attn(ad.add(x, self.attn(x, x)))
        x = self.norm_graph(ad.add(x, self.graph(x)))
        return x


class DecoderLayer(Module):
    def __init__(self, config, mixing, stack, adj, rng):
        # the centered Q/K conv reads one step ahead, which in the decoder
        # would let teacher-forced training peek at the label; decoder
        # attention therefore never convolves
        self.self_attn = CIATT(config.d_model, config.heads, mixing, rng)
        self.norm_self = LayerNorm(config.d_model)
        self.cross_attn = CIATT(config.d_model, config.heads, mixing, rng)
        self.norm_cross = LayerNorm(config.d_model)
        self.graph = CIGNN(config.d_model, stack, adj, rng)
        self.norm_graph = LayerNorm(config.d_model)

    def __call__(self, y, memory_kv, mask, start=0, cache=None):
        """Decoder rows [start, start + L) of y (B, L, N, d). Self-attention
        spans mask.shape[1] key rows, which y itself must supply unless a
        cache is given. A cache is a list that the first call fills with
        zeroed key and value buffers (B, mask.shape[1], N, d), laid out as
        the keys and values themselves; every call writes its rows into them
        and attends over them whole, the rows not yet written masked.
        Attention runs row-independently, so each output row has the same
        bits whichever rows are decoded with it."""
        kv = self.self_attn.keys_values(y)
        if cache is not None:
            if not cache:
                cache.extend(np.zeros((t.shape[0], mask.shape[1]) + t.shape[2:])
                             for t in kv)
            for buffer, new in zip(cache, kv):
                buffer[:, start:start + y.shape[1]] = new.data
            kv = tuple(Tensor(buffer) for buffer in cache)
        att = self.self_attn.attend(y, kv, mask=mask, rowwise=True)
        y = self.norm_self(ad.add(y, att))
        att = self.cross_attn.attend(y, memory_kv, rowwise=True)
        y = self.norm_cross(ad.add(y, att))
        y = self.norm_graph(ad.add(y, self.graph(y)))
        return y


class CorrSTN(Module):
    """Correlation-informed spatiotemporal transformer. Only it turns SCorr
    into operators: one mixing matrix and one degree stack for all layers."""

    def __init__(self, config: ModelConfig, scorr: SCorrTensor,
                 adj: NormalizedAdjacency, n_sensors: int, seed: int = 0):
        if scorr.n_sensors != n_sensors:
            raise DimensionError(
                f"scorr is for {scorr.n_sensors} sensors, expected {n_sensors}")
        if adj.matrix.shape != (n_sensors, n_sensors):
            raise DimensionError(
                f"adjacency {adj.matrix.shape} vs {n_sensors} sensors")
        if config.top_u > n_sensors:
            raise ConfigError(f"top_u {config.top_u} exceeds {n_sensors} sensors")
        rng = np.random.default_rng(seed)
        n_attr = scorr.n_attributes
        d = config.d_model
        self.config = config
        self.n_sensors = n_sensors
        self.n_attributes = n_attr
        mixing = top_u_normalize(scorr, config.top_u)
        # the degrees stacked attribute-first (C, N, N), contiguous so that the
        # graph layer's product runs as fast backward as one (N, N) product each
        stack = np.ascontiguousarray(np.moveaxis(scorr.degrees, 2, 0))
        self.enc_proj = Linear(n_attr, d, rng)
        self.dec_proj = Linear(n_attr, d, rng)
        self.spatial_emb = Parameter(ad.xavier_uniform(rng, (n_sensors, d), d, d))
        self.enc_pos = Parameter(ad.xavier_uniform(rng, (config.encoder_length, d), d, d))
        self.dec_pos = Parameter(ad.xavier_uniform(rng, (config.horizon, d), d, d))
        self.encoder = [EncoderLayer(config, mixing, stack, adj, rng)
                        for _ in range(config.encoder_layers)]
        self.decoder = [DecoderLayer(config, mixing, stack, adj, rng)
                        for _ in range(config.decoder_layers)]
        self.head = Linear(d, 1, rng)
        self.causal = causal_mask(config.horizon)

    def _embed(self, raw, proj, pos: Parameter, start: int = 0) -> Tensor:
        length = raw.shape[1]
        x = proj(Tensor(raw))
        pos_slice = ad.narrow(pos, 0, start, length)
        pos_bcast = ad.reshape(pos_slice, (length, 1, pos.shape[1]))
        return ad.add(ad.add(x, self.spatial_emb), pos_bcast)

    def _check_input(self, arr, lengths: range, what):
        """arr, a 4-D ndarray or an EncoderWindows, its shape checked and
        returned as it is, so no encoder rows are gathered here."""
        if getattr(arr, "ndim", None) != 4 or arr.shape[1] not in lengths \
                or arr.shape[2:] != (self.n_sensors, self.n_attributes):
            span = lengths[0] if len(lengths) == 1 else f"{lengths[0]}..{lengths[-1]}"
            raise DimensionError(
                f"{what} must be (B, {span}, {self.n_sensors}, "
                f"{self.n_attributes}), got "
                f"{getattr(arr, 'shape', type(arr).__name__)}")
        return arr

    def forward(self, encoder_input, decoder_input) -> Tensor:
        """Teacher-forced pass. decoder_input may be any length 1..horizon;
        outputs align one step ahead of decoder positions. Each decoder
        layer's cross-attention keys and values are computed from the
        memory just before that layer runs, not all up front: its attention
        node keeps only their recipes, so each layer's pair is freed once
        that layer is done, with the same bits as the eager `_memory_kv`
        list that `forecast` reuses."""
        enc_len = self.config.encoder_length
        enc = self._check_input(encoder_input, range(enc_len, enc_len + 1),
                                "encoder input")
        dec = self._check_input(decoder_input, range(1, self.config.horizon + 1),
                                "decoder input")
        memory = self._encode(enc)
        # self-attention spans the whole horizon: rows past the prefix are
        # zero input, masked from the prefix's rows, and cut off again
        length = dec.shape[1]
        padded = np.zeros((dec.shape[0], self.config.horizon) + dec.shape[2:])
        padded[:, :length] = dec
        memory_kv = (layer.cross_attn.keys_values(memory)
                     for layer in self.decoder)
        return ad.narrow(self._decode(padded, memory_kv), 1, 0, length)

    def _encode(self, enc) -> Tensor:
        x = self._embed(enc, self.enc_proj, self.enc_pos)
        for layer in self.encoder:
            x = layer(x)
        return x

    def _memory_kv(self, memory: Tensor) -> list:
        return [layer.cross_attn.keys_values(memory) for layer in self.decoder]

    def _decode(self, dec, memory_kv, start=0, cache=None) -> Tensor:
        """Outputs of decoder positions [start, start + L) for dec (B, L, N, C).
        memory_kv is any iterable of one (keys, values) pair per decoder
        layer, taken one layer at a time as the layers run: a list that a
        rollout reuses, or a generator that computes each pair when its
        layer comes. Self-attention spans all horizon positions, masked
        causally: without caches dec holds all of them, with caches (one list
        per layer, see DecoderLayer) earlier positions' keys and values come
        from those."""
        mask = self.causal[start:start + dec.shape[1]]
        y = self._embed(dec, self.dec_proj, self.dec_pos, start)
        caches = [None] * len(self.decoder) if cache is None else cache
        for layer, kv, layer_cache in zip(self.decoder, memory_kv, caches):
            y = layer(y, kv, mask, start=start, cache=layer_cache)
        return self.head(y)

    def forecast(self, encoder_input) -> np.ndarray:
        """Autoregressive rollout, normalized space, shape (B, L, N, 1).

        The decoder starts from the last encoder timestamp (the current
        observation); predictions fill attribute 0 of the next step and the
        remaining attributes are held at their last observed values.

        Each chunk of the batch is encoded once, and each decoder layer's
        cross-attention keys and values are computed once from that memory.
        Each step then decodes only the new position: its self-attention
        keys and values are written into per-layer buffers, from which it
        reads those of the earlier positions. Every decoder op gives a row
        the same bits however many rows it is computed with, so the result
        is bit-identical to calling `forward` on each prefix.
        No autograph is built. The input may be an EncoderWindows: only its
        shape is read up front, and each chunk's rows are gathered when that
        chunk is encoded, so at most one chunk of encoder input is held.

        A chunk has `chunk_windows` windows, from the CHUNK_BYTES budget
        (256 MiB): 3 for the pems08 preset at N=170, and 75 for the default
        config with all three periods at N=16. Each chunk's arrays are freed
        before the next chunk encodes, so the peak does not grow with the
        chunk count: at N=170 a forecast over 258 windows peaked at 190 MB
        of RSS, 38 MB of it the dense input, and took 0.47 s per window (64
        windows in one chunk took 2,149 MB and 0.70 s per window).
        """
        chunk = chunk_windows(self.config, self.n_sensors)
        enc_len = self.config.encoder_length
        enc = self._check_input(encoder_input, range(enc_len, enc_len + 1),
                                "encoder input")
        outputs = np.empty((enc.shape[0], self.config.horizon, self.n_sensors, 1))
        with ad.no_grad():
            for start in range(0, enc.shape[0], chunk):
                self._roll_out(enc[start:start + chunk],
                               outputs[start:start + chunk])
        return outputs

    def _roll_out(self, windows, out) -> None:
        """One chunk's rollout, written into out (B, L, N, 1). Its memory,
        cross-attention keys and values and decoder caches are locals, so
        they are freed before the next chunk encodes."""
        block = np.asarray(windows, dtype=np.float64)
        memory_kv = self._memory_kv(self._encode(block))
        cache = [[] for _ in self.decoder]
        row = block[:, -1:].copy()
        for step in range(self.config.horizon):
            pred = self._decode(row, memory_kv, start=step, cache=cache).data
            out[:, step] = pred[:, 0]
            row[:, 0, :, 0] = pred[:, 0, :, 0]

    def state_dict(self) -> dict:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        if set(own) != set(state):
            missing = set(own) - set(state)
            extra = set(state) - set(own)
            raise DataError(f"state mismatch: missing {sorted(missing)}, "
                            f"unexpected {sorted(extra)}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise DataError(f"{name}: shape {arr.shape} != {p.data.shape}")
            p.data = arr.copy()


def build_model(config: ModelConfig, scorr: SCorrTensor, adj: NormalizedAdjacency,
                n_sensors: int, seed: int = 0) -> CorrSTN:
    return CorrSTN(config, scorr, adj, n_sensors, seed=seed)


# ---------------------------------------------------------------------------
# optimization

class Adam:
    """Adam, betas 0.9 and 0.999, eps 1e-8. Each parameter must have a gradient."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - 0.9 ** self.t
        bc2 = 1.0 - 0.999 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m += (1.0 - 0.9) * (g - m)
            v += (1.0 - 0.999) * (g * g - v)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainingData:
    train: SampleSet
    val: SampleSet
    norm_params: np.ndarray


@dataclass
class EpochRow:
    epoch: int
    train_mae: float
    val_mae: float
    val_rmse: float
    val_mape: float
    seconds: float


@dataclass
class TrainingLog:
    rows: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_mae: float = float("inf")
    stopped_early: bool = False

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,train_mae,val_mae,val_rmse,val_mape,seconds\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{r.train_mae!r},{r.val_mae!r},"
                         f"{r.val_rmse!r},{r.val_mape!r},{r.seconds:.3f}\n")


def check_schedule(epochs: int, patience: int) -> None:
    """Refuses fewer than one epoch or one epoch of patience."""
    if epochs < 1 or patience < 1:
        raise ConfigError(f"need epochs >= 1 and patience >= 1, got {epochs}, {patience}")


def train(model: CorrSTN, data: TrainingData, config: ModelConfig,
          epochs: int = 100, patience: int = 20, seed: int = 0,
          log_path=None, on_epoch=None) -> TrainingLog:
    """MAE loss, Adam, teacher forcing. Each epoch is scored on data.val by
    `metrics.evaluate`, the autoregressive rollout that `corrstn evaluate`
    reports; keeps and restores the parameters of the epoch with the lowest
    validation MAE; stops after `patience` epochs without improvement.
    Shuffling draws from default_rng(seed). Deterministic for fixed seed and
    data. `on_epoch`, if given, is called with each EpochRow as soon as the
    epoch is scored."""
    check_schedule(epochs, patience)
    if len(data.train) == 0 or len(data.val) == 0:
        raise DataError("empty training or validation sample set")
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    # MAE is linear in scale, so the normalized loss converts exactly
    lo, hi = data.norm_params[0]
    scale = (hi - lo) / 2.0
    log = TrainingLog()
    best_state = model.state_dict()
    since_best = 0
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        loss_sum = 0.0
        seen = 0
        for enc, dec, target in iterate_batches(data.train, config.batch_size, rng):
            model.zero_grad()
            pred = model.forward(enc, dec)
            loss = mae_loss(pred, target)
            if not np.isfinite(loss.data):
                raise ComputeError(
                    f"training diverged: non-finite loss at epoch {epoch}")
            loss.backward()
            optimizer.step()
            loss_sum += float(loss.data) * enc.shape[0]
            seen += enc.shape[0]
            # free this step's autograph before the next forward builds one
            del pred, loss
        val = metrics_mod.evaluate(model, data.val, data).overall
        row = EpochRow(epoch=epoch, train_mae=float(loss_sum / seen * scale),
                       val_mae=val["mae"], val_rmse=val["rmse"],
                       val_mape=val["mape"],
                       seconds=time.perf_counter() - started)
        log.rows.append(row)
        if on_epoch is not None:
            on_epoch(row)
        if row.val_mae < log.best_val_mae:
            log.best_val_mae = row.val_mae
            log.best_epoch = epoch
            best_state = model.state_dict()
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                log.stopped_early = True
                break
    model.load_state_dict(best_state)
    if log_path is not None:
        log.to_csv(log_path)
    return log


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: CorrSTN, config: ModelConfig, path) -> None:
    """Layout: 'CSTN', version u32, sha256 of the canonical config (32 bytes),
    block count u32, then per parameter: name length u32, utf-8 name,
    ndim u32, extents u32..., little-endian float64 payload."""
    state = model.state_dict()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _CKPT_MAGIC, _CKPT_VERSION))
        fh.write(config_hash(config))
        fh.write(struct.pack("<I", len(state)))
        for name, arr in state.items():
            encoded = name.encode()
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, config: ModelConfig) -> dict:
    """Parameters saved by `save_checkpoint`. A file that is not a checkpoint,
    ends early or holds a name that is not UTF-8 is a DataError; a
    checkpoint of another config is a ConfigError."""
    with open(path, "rb") as fh:
        def read(size: int, what: str) -> bytes:
            raw = fh.read(size)
            if len(raw) != size:
                raise DataError(f"{path}: truncated checkpoint ({what})")
            return raw

        def unpack(count: int, what: str) -> tuple:
            return struct.unpack(f"<{count}I", read(4 * count, what))

        header = fh.read(8)
        if len(header) != 8 or header[:4] != _CKPT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        version = struct.unpack("<I", header[4:])[0]
        if version != _CKPT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        if read(32, "config hash") != config_hash(config):
            raise ConfigError(
                f"{path}: checkpoint was produced by a different model config")
        state = {}
        for _ in range(unpack(1, "block count")[0]):
            raw = read(unpack(1, "name length")[0], "name")
            try:
                name = raw.decode()
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: parameter name is not UTF-8 ({exc})") from exc
            shape = unpack(unpack(1, f"{name} rank")[0], f"{name} shape")
            size = int(np.prod(shape)) if shape else 1
            payload = np.frombuffer(read(8 * size, f"block {name}"), dtype="<f8")
            state[name] = payload.reshape(shape).copy()
    return state


def predict(model: CorrSTN, encoder_input, norm_params) -> np.ndarray:
    """Denormalized autoregressive forecasts, shape (B, L, N, 1)."""
    if norm_params is None:
        raise ConfigError("normalization parameters are required for prediction")
    out = model.forecast(encoder_input)
    return denormalize(out, np.asarray(norm_params), attribute=0)
