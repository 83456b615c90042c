import csv
import hashlib
import json
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from corrstn import (Adam, ModelConfig, PRESETS, SCorrTensor, Tensor,
                     TrainingData, add_self_loops, assemble_samples,
                     build_model, denormalize, fit_normalization,
                     generate_synthetic, laplacian_normalize, load_checkpoint,
                     load_config, mae_loss, normalize, predict,
                     save_checkpoint, save_config, split_ranges,
                     top_u_normalize, train)
from corrstn import autodiff
from corrstn import metrics as metrics_mod
from corrstn import model as model_mod
from corrstn.autodiff import Parameter
from corrstn.data import EncoderWindows, SampleSet, SpatioTemporalTensor
from corrstn.errors import ConfigError, DataError, DimensionError
from corrstn.model import config_hash
from oracles import graph_nodes, kept_values, traced_peak


def _scorr(n, c, seed=0):
    rng = np.random.default_rng(seed)
    deg = rng.uniform(0.1, 0.9, size=(n, n, c))
    deg = (deg + deg.transpose(1, 0, 2)) / 2
    for a in range(c):
        np.fill_diagonal(deg[:, :, a], 1.0)
    return SCorrTensor(deg)


def _adj(n):
    return laplacian_normalize(add_self_loops(np.ones((n, n)) - np.eye(n)))


_TINY = dict(encoder_layers=1, decoder_layers=1, d_model=8, heads=2, top_u=2,
             periods=("hourly",))


def _tiny_model(seed=1, n=3, c=2, **overrides):
    cfg = ModelConfig(**{**_TINY, **overrides})
    return cfg, build_model(cfg, _scorr(n, c), _adj(n), n, seed=seed)


@pytest.mark.parametrize("fields", [
    {"d_model": 32.0}, {"d_model": True, "heads": True}, {"qk_conv": "no"},
    {"qk_conv": 1}, {"encoder_layers": 2.5}, {"kernel_size": 3.0},
    {"tau": "12"}, {"horizon": 12.0}, {"batch_size": None}, {"top_u": False},
])
def test_config_refuses_non_integer_fields(tmp_path, fields):
    with pytest.raises(ConfigError):
        ModelConfig(**fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("fields", [
    {"learning_rate": True}, {"learning_rate": False}, {"learning_rate": "0.1"},
    {"learning_rate": "1"}, {"learning_rate": None}, {"learning_rate": [0.1]},
    {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
])
def test_config_refuses_non_numeric_rates(tmp_path, fields):
    with pytest.raises(ConfigError):
        ModelConfig(**fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    with pytest.raises(ConfigError):
        load_config(path)
    # an integer rate is a number
    assert ModelConfig(learning_rate=1).learning_rate == 1


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(horizon=6)             # the forecast contract is 12 steps
    with pytest.raises(ConfigError):
        ModelConfig(tau=6)                 # period blocks are horizon-long
    with pytest.raises(ConfigError):
        ModelConfig(d_model=30, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(kernel_size=4)
    with pytest.raises(ConfigError):
        ModelConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(periods=("daily",))
    assert ModelConfig(periods=["daily", "hourly"]).periods == ("daily", "hourly")


def test_encoder_length_counts_period_blocks():
    assert ModelConfig(periods=("hourly",)).encoder_length == 12
    assert ModelConfig(periods=("hourly", "daily", "weekly")).encoder_length == 36


def test_pems08_preset():
    cfg = PRESETS["pems08"]
    assert (cfg.encoder_layers, cfg.decoder_layers) == (4, 4)
    assert (cfg.d_model, cfg.heads, cfg.top_u) == (64, 8, 4)
    assert cfg.kernel_size == 3 and cfg.batch_size == 16
    assert cfg.periods == ("hourly", "daily", "weekly")
    assert cfg.qk_conv


# the pems08 preset's config.json as `save_config` has always written it,
# from when dropout was a field; checkpoints store the sha256 of its
# canonical JSON as their header
_SAVED_CONFIG = """{
  "encoder_layers": 4,
  "decoder_layers": 4,
  "d_model": 64,
  "heads": 8,
  "top_u": 4,
  "kernel_size": 3,
  "periods": [
    "hourly",
    "daily",
    "weekly"
  ],
  "tau": 12,
  "horizon": 12,
  "learning_rate": 0.001,
  "batch_size": 16,
  "dropout": 0.0,
  "qk_conv": true
}
"""


def test_saved_config_format_is_pinned(tmp_path):
    payload = json.loads(_SAVED_CONFIG)
    cfg = ModelConfig.from_dict(payload)
    assert cfg == PRESETS["pems08"]
    canon = json.dumps(payload, sort_keys=True).encode()
    assert config_hash(cfg) == hashlib.sha256(canon).digest()
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert path.read_text() == _SAVED_CONFIG
    # a config without the key loads too; any dropout but 0 is refused
    del payload["dropout"]
    assert ModelConfig.from_dict(payload) == cfg
    for value in (0.1, 1, -0.5, "0", False, None):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({**payload, "dropout": value})
        path.write_text(json.dumps({**payload, "dropout": value}))
        with pytest.raises(ConfigError):
            load_config(path)


def test_config_hash_and_io(tmp_path):
    a = ModelConfig()
    b = ModelConfig()
    c = ModelConfig(d_model=64)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    path = tmp_path / "config.json"
    save_config(c, path)
    assert load_config(path) == c
    path.write_text("{broken")
    with pytest.raises(ConfigError):
        load_config(path)


def test_parameter_count_hand_derived():
    _, model = _tiny_model()
    # embeddings: 2 input projections (2*8+8), spatial 3*8, positions 2*12*8
    emb = 2 * 24 + 24 + 192
    attn = 4 * (64 + 8)                     # wq/wk/wv/w_out with bias
    gnn = 64 + 2 + 1                        # w, psi (C=2), omega
    norm = 16
    enc = attn + norm + gnn + norm
    dec = 2 * (attn + norm) + gnn + norm
    head = 8 + 1
    want = emb + enc + dec + head
    got = sum(p.data.size for p in model.parameters())
    assert got == want == 1351


def test_build_is_deterministic_per_seed():
    _, m1 = _tiny_model(seed=4)
    _, m2 = _tiny_model(seed=4)
    _, m3 = _tiny_model(seed=5)
    s1, s2, s3 = m1.state_dict(), m2.state_dict(), m3.state_dict()
    assert all(np.array_equal(s1[k], s2[k]) for k in s1)
    assert any(not np.array_equal(s1[k], s3[k]) for k in s1)


def test_forward_shapes_and_input_checks():
    cfg, model = _tiny_model()
    rng = np.random.default_rng(0)
    enc = rng.normal(size=(2, 12, 3, 2))
    dec = rng.normal(size=(2, 12, 3, 2))
    assert model.forward(enc, dec).shape == (2, 12, 3, 1)
    assert model.forward(enc, dec[:, :5]).shape == (2, 5, 3, 1)   # short decode
    with pytest.raises(DimensionError):
        model.forward(enc[0], dec[0])       # no batch axis
    with pytest.raises(DimensionError):
        model.forward(enc.tolist(), dec)    # not an array
    with pytest.raises(DimensionError):
        model.forward(enc[:, :7], dec)
    with pytest.raises(DimensionError):
        model.forward(enc, dec[:, :, :2])   # wrong sensor count
    with pytest.raises(DimensionError):
        model.forward(enc, np.zeros((2, 13, 3, 2)))


def test_forecast_builds_no_mixing_matrix(monkeypatch):
    # the model builds its one top-U mixing matrix once, when made
    calls = []

    def counted(scorr, u):
        calls.append(u)
        return top_u_normalize(scorr, u)

    monkeypatch.setattr(model_mod, "top_u_normalize", counted)
    cfg, n, c = ModelConfig(), 4, 2    # 2 encoder and 2 decoder layers
    model = build_model(cfg, _scorr(n, c), _adj(n), n, seed=0)
    assert len(calls) == 1
    calls.clear()
    enc = np.random.default_rng(0).normal(size=(1, cfg.encoder_length, n, c))
    model.forecast(enc)
    assert calls == []


@pytest.mark.parametrize("cfg, n, c", [(ModelConfig(), 4, 2),
                                       (PRESETS["pems08"], 8, 2)])
def test_layers_share_one_mixing_matrix_and_one_degree_stack(cfg, n, c):
    model = build_model(cfg, _scorr(n, c), _adj(n), n, seed=0)
    attns = [layer.attn for layer in model.encoder]
    attns += [a for layer in model.decoder
              for a in (layer.self_attn, layer.cross_attn)]
    graphs = [layer.graph for layer in model.encoder + model.decoder]
    assert len(attns) == cfg.encoder_layers + 2 * cfg.decoder_layers
    assert all(a.mixing.data is attns[0].mixing.data for a in attns)
    assert all(g.stack is graphs[0].stack for g in graphs)
    assert attns[0].mixing.data.shape == (n, n)
    assert graphs[0].stack.shape == (c, n, n)
    assert not hasattr(model, "topu")


_GRADIENT_OPS = ("add", "matmul", "linear", "attention", "graph_layer",
                 "layer_norm", "linear_conv1d_temporal")


@pytest.mark.parametrize("cfg, n, c", [
    (ModelConfig(periods=("hourly", "daily", "weekly")), 16, 2),
    (PRESETS["pems08"], 12, 3)])
def test_only_linear_and_matmul_get_a_constant_operand(monkeypatch, cfg, n, c):
    # the fused nodes compute every operand's gradient, so a constant handed
    # to one would cost a gradient nobody reads. A training step and a
    # grad-mode forward over a decoder prefix hand a constant only to
    # linear (the raw input) and matmul (the mixing matrix), first operand
    seen = {name: set() for name in _GRADIENT_OPS}

    def recorded(name, op):
        def call(*args, **kwargs):
            if autodiff._grad_enabled:
                seen[name].add(tuple(a.requires_grad for a in args
                                     if isinstance(a, Tensor)))
            return op(*args, **kwargs)
        return call
    for name in _GRADIENT_OPS:
        monkeypatch.setattr(autodiff, name, recorded(name, getattr(autodiff, name)))
    model = build_model(cfg, _scorr(n, c), _adj(n), n, seed=0)
    rng = np.random.default_rng(6)
    enc = rng.normal(size=(1, cfg.encoder_length, n, c))
    dec = rng.normal(size=(1, cfg.horizon, n, c))
    out = model.forward(enc, dec)
    mae_loss(out, np.zeros(out.shape)).backward()
    model.forward(enc, dec[:, :3])
    # the Q/K conv runs only with qk_conv
    assert all(seen[name] for name in _GRADIENT_OPS
               if cfg.qk_conv or name != "linear_conv1d_temporal")
    for name, patterns in seen.items():
        for flags in patterns:
            trainable = flags[1:] if name in ("linear", "matmul") else flags
            assert all(trainable), (name, flags)
    assert (False, True, True) in seen["linear"] and (False, True) in seen["matmul"]


def test_decoder_is_causal_even_with_qk_conv():
    cfg, model = _tiny_model(encoder_layers=2, decoder_layers=2, qk_conv=True)
    rng = np.random.default_rng(3)
    enc = rng.normal(size=(1, 12, 3, 2))
    dec = rng.normal(size=(1, 12, 3, 2))
    base = model.forward(enc, dec).data
    for bump in (1, 5, 11):
        moved = dec.copy()
        moved[:, bump] += 10.0
        diff = np.abs(model.forward(enc, moved).data - base).max(axis=(0, 2, 3))
        assert np.all(diff[:bump] < 1e-12), bump
        assert diff[bump] > 1e-9, bump


def test_forecast_matches_manual_rollout(monkeypatch):
    cfg, model = _tiny_model(seed=7)
    rng = np.random.default_rng(8)
    enc = rng.normal(size=(3, 12, 3, 2))
    got = model.forecast(enc)
    assert got.shape == (3, 12, 3, 1)
    dec = enc[:, -1:].copy()
    for step in range(12):
        pred = model.forward(enc, dec).data
        assert np.array_equal(got[:, step], pred[:, -1])
        nxt = dec[:, -1:].copy()
        nxt[:, 0, :, 0] = pred[:, -1, :, 0]
        dec = np.concatenate([dec, nxt], axis=1)[:, :12]
        if dec.shape[1] == 12 and step >= 11:
            break
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", _budget_for(2, cfg, 3))
    assert np.array_equal(model.forecast(enc), got)


_ALL_PERIODS = dict(periods=("hourly", "daily", "weekly"), qk_conv=True,
                    encoder_layers=2, decoder_layers=2)


def _prefix_rollout(model, enc):
    """The rollout as forward passes over the rebuilt prefix, step by step."""
    dec = enc[:, -1:].copy()
    steps = []
    for step in range(12):
        pred = model.forward(enc, dec).data
        steps.append(pred[:, -1])
        nxt = dec[:, -1:].copy()
        nxt[:, 0, :, 0] = pred[:, -1, :, 0]
        dec = np.concatenate([dec, nxt], axis=1)
    return np.stack(steps, axis=1)


def test_forecast_matches_prefix_rollout_with_qk_conv_and_all_periods():
    cfg, model = _tiny_model(seed=21, **_ALL_PERIODS)
    enc = np.random.default_rng(22).normal(size=(2, 36, 3, 2))
    assert np.array_equal(model.forecast(enc), _prefix_rollout(model, enc))


def test_forecast_matches_prefix_rollout_across_chunks(monkeypatch):
    cfg, model = _tiny_model(seed=23, **_ALL_PERIODS)
    enc = np.random.default_rng(24).normal(size=(5, 36, 3, 2))
    # chunks of 2, 2 and 1 samples
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", _budget_for(2, cfg, 3))
    assert np.array_equal(model.forecast(enc), _prefix_rollout(model, enc))


def _budget_for(windows, cfg, n):
    """A CHUNK_BYTES under which `chunk_windows` gives `windows` windows."""
    return windows * model_mod._WINDOW_ACTIVATIONS * 8 * cfg.encoder_length * n \
        * cfg.d_model


def test_chunk_windows_follow_the_byte_budget(monkeypatch):
    # the default config at N=16, with the hourly period alone and with all
    # three, gets at least the 64 windows a forecast chunk used to have
    for periods in (("hourly",), ("hourly", "daily", "weekly")):
        assert model_mod.chunk_windows(ModelConfig(periods=periods), 16) >= 64
    # the pems08 preset at N=170 gets a few, and far more sensors still one
    pems08 = PRESETS["pems08"]
    assert 1 < model_mod.chunk_windows(pems08, 170) <= 8
    assert model_mod.chunk_windows(pems08, 10_000) == 1
    counts = [model_mod.chunk_windows(pems08, n) for n in (16, 96, 170, 307)]
    assert counts == sorted(counts, reverse=True)
    # the budget is read at call time
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", _budget_for(3, pems08, 170))
    assert model_mod.chunk_windows(pems08, 170) == 3


def test_forecast_is_byte_equal_across_budgets(monkeypatch):
    cfg, model = _tiny_model(seed=43, **_ALL_PERIODS)
    enc = np.random.default_rng(44).normal(size=(5, 36, 3, 2))
    sizes = []
    encode = model_mod.CorrSTN._encode

    def recorded(net, block):
        sizes.append(len(block))
        return encode(net, block)
    monkeypatch.setattr(model_mod.CorrSTN, "_encode", recorded)
    want = model.forecast(enc)
    assert sizes == [5]
    for windows, chunks in ((1, [1] * 5), (2, [2, 2, 1]), (4, [4, 1])):
        sizes.clear()
        monkeypatch.setattr(model_mod, "CHUNK_BYTES", _budget_for(windows, cfg, 3))
        assert model.forecast(enc).tobytes() == want.tobytes()
        assert sizes == chunks
    # a budget below one window still runs one window per chunk
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", 1)
    assert model.forecast(enc).tobytes() == want.tobytes()


def test_blocked_attention_cores_leave_the_model_bits_unchanged(monkeypatch):
    # every attention core of a qk_conv, 3-attribute model runs in blocks
    # of one or two score slices: the graph layers' plain core, the
    # encoder's headed core and the decoder's masked and unmasked rowwise
    # cores, in training and in the rollout
    cfg, model = _tiny_model(seed=41, n=4, c=3, qk_conv=True)
    rng = np.random.default_rng(42)
    enc = rng.normal(size=(3, cfg.encoder_length, 4, 3))
    dec = rng.normal(size=(3, 12, 4, 3))
    target = rng.normal(size=(3, 12, 4, 1))
    counts = []
    blocks = autodiff._blocks

    def counted(lead, slice_bytes):
        found = blocks(lead, slice_bytes)
        counts.append(len(found))
        return found
    monkeypatch.setattr(autodiff, "_blocks", counted)

    def run(block_bytes):
        monkeypatch.setattr(autodiff, "_BLOCK_BYTES", block_bytes)
        counts.clear()
        model.zero_grad()
        pred = model.forward(enc, dec)
        mae_loss(pred, target).backward()
        bits = [pred.data.tobytes()] + [p.grad.tobytes() for p in model.parameters()]
        return bits + [model.forecast(enc).tobytes()], list(counts)
    whole, whole_counts = run(1 << 40)
    blocked, blocked_counts = run(200)
    assert set(whole_counts) == {1} and min(blocked_counts) >= 3
    assert len(blocked_counts) == len(whole_counts) > 30
    assert blocked == whole


def _held_arrays(fn):
    """Every array a closure holds, through tuples, lists and the closures
    of the functions it holds."""
    arrays, stack, seen = [], [fn], set()
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif getattr(value, "__closure__", None):
            stack.extend(cell.cell_contents for cell in value.__closure__)
    return arrays


def test_training_graph_keeps_no_weights_of_the_non_rowwise_cores(monkeypatch):
    # no core keeps an (L_q, L_k) array, nor a view of one, after its
    # forward: not the graph layers' plain cores, the encoder's headed core
    # or the decoder's rowwise cores. A graph layer's (N, N) scores have the
    # shape of the degree stack and the adjacency it shares with the model,
    # which do not count
    cfg, model = _tiny_model(seed=51, n=4, c=3, qk_conv=True)
    rng = np.random.default_rng(52)
    enc = rng.normal(size=(2, cfg.encoder_length, 4, 3))
    dec = rng.normal(size=(2, 12, 4, 3))
    cores = []
    attention, graph_layer = autodiff.attention, autodiff.graph_layer

    def recorded(q, k, v, weight, bias, heads, mask=None, rowwise=False):
        out = attention(q, k, v, weight, bias, heads=heads, mask=mask,
                        rowwise=rowwise)
        cores.append((out._node, rowwise, (q.shape[-3], k.shape[-3])))
        return out

    def recorded_graph(z, *operands):
        out = graph_layer(z, *operands)
        cores.append((out._node, False, (z.shape[-2],) * 2))
        return out
    monkeypatch.setattr(autodiff, "attention", recorded)
    monkeypatch.setattr(autodiff, "graph_layer", recorded_graph)
    pred = model.forward(enc, dec)
    constants = [a for layer in model.encoder + model.decoder
                 for a in (layer.graph.stack, layer.graph.adj)]
    kept = {False: 0, True: 0}
    for node, rowwise, scores in cores:
        arrays = _held_arrays(node.backward)
        weights = [a for a in arrays + [a.base for a in arrays if a.base is not None]
                   if a.dtype == np.float64 and a.shape[-2:] == scores
                   and not any(np.shares_memory(a, c) for c in constants)]
        kept[rowwise] += bool(weights)
    # the encoder's headed core and both layers' graph cores
    assert sum(not rowwise for _, rowwise, _ in cores) == 3
    # each decoder layer's self- and cross-attention
    assert sum(rowwise for _, rowwise, _ in cores) == 2
    assert kept == {False: 0, True: 0}
    mae_loss(pred, np.zeros(pred.shape)).backward()
    assert all(np.isfinite(p.grad).all() for p in model.parameters())


@pytest.mark.parametrize("overrides", [{}, _ALL_PERIODS], ids=["tiny", "all-periods"])
def test_decoder_rows_do_not_depend_on_prefix_length(overrides):
    cfg, model = _tiny_model(seed=31, **overrides)
    rng = np.random.default_rng(32)
    enc = rng.normal(size=(2, cfg.encoder_length, 3, 2))
    dec = rng.normal(size=(2, 12, 3, 2))
    full = model.forward(enc, dec).data
    for length in range(1, 13):
        assert np.array_equal(model.forward(enc, dec[:, :length]).data,
                              full[:, :length]), length


def test_forecast_decodes_one_row_per_step(monkeypatch):
    cfg, model = _tiny_model(seed=33, **_ALL_PERIODS)
    shapes = []
    original = model_mod.CorrSTN._decode

    def recorded(net, dec, *args, **kwargs):
        shapes.append(np.shape(dec))
        return original(net, dec, *args, **kwargs)

    monkeypatch.setattr(model_mod.CorrSTN, "_decode", recorded)
    enc = np.random.default_rng(34).normal(size=(5, 36, 3, 2))
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", _budget_for(3, cfg, 3))
    model.forecast(enc)
    assert shapes == [(3, 1, 3, 2)] * 12 + [(2, 1, 3, 2)] * 12


def test_forecast_encodes_once_per_chunk(monkeypatch):
    cfg, model = _tiny_model(seed=27, **_ALL_PERIODS)
    calls = []
    original = model_mod.EncoderLayer.__call__

    def counted(layer, *args, **kwargs):
        calls.append(layer)
        return original(layer, *args, **kwargs)

    monkeypatch.setattr(model_mod.EncoderLayer, "__call__", counted)
    enc = np.random.default_rng(28).normal(size=(5, 36, 3, 2))
    model.forecast(enc)
    assert len(calls) == cfg.encoder_layers
    calls.clear()
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", _budget_for(2, cfg, 3))
    model.forecast(enc)
    assert len(calls) == cfg.encoder_layers * 3     # 3 chunks, not 3 x 12


def test_forecast_frees_each_chunk_before_the_next(monkeypatch):
    # the pems08 preset at N=8 in 2-window chunks, traced in encoder
    # activations (encoder_length, N, d_model): 8 chunks peaked at 42.1
    # against one chunk's 22.3 while each chunk's memory keys and values and
    # decoder caches stayed alive as the next chunk encoded
    n = 8
    cfg = PRESETS["pems08"]
    model = build_model(cfg, _scorr(n, 3), _adj(n), n, seed=59)
    enc = np.random.default_rng(60).normal(size=(16, cfg.encoder_length, n, 3))
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", _budget_for(2, cfg, n))
    one, first = traced_peak(lambda: model.forecast(enc[:2]))
    eight, out = traced_peak(lambda: model.forecast(enc))
    assert eight <= 1.05 * one
    assert out[:2].tobytes() == first.tobytes()


def test_forecast_and_validation_build_no_autograph(monkeypatch):
    cfg, model = _tiny_model(seed=29)
    outputs = []
    original = model_mod.CorrSTN._decode

    def recorded(net, *args, **kwargs):
        out = original(net, *args, **kwargs)
        outputs.append(out)
        return out

    monkeypatch.setattr(model_mod.CorrSTN, "_decode", recorded)
    rng = np.random.default_rng(30)
    enc = rng.normal(size=(2, 12, 3, 2))
    dec = rng.normal(size=(2, 12, 3, 2))
    model.forecast(enc)
    samples = SampleSet(encoder_input=enc, decoder_input=dec,
                        target=rng.normal(size=(2, 12, 3, 1)),
                        anchors=np.arange(2), periods=("hourly",))
    # validation is `evaluate`, one more 12-step rollout
    metrics_mod.evaluate(model, samples, SimpleNamespace(
        norm_params=np.array([[0.0, 2.0], [0.0, 2.0]])))
    assert len(outputs) == 24
    assert all(not out.requires_grad and not graph_nodes(out) for out in outputs)
    # outside those passes the model still builds its graph
    assert model.forward(enc, dec).requires_grad


def test_forecast_request_op_budget(monkeypatch):
    # one default-config single-window request at N=16 ran 1,242 autograph
    # ops before linear was fused and heads were split inside the attention
    # node, and 645 before each graph layer's routes became one node; every
    # op costs per-op overhead, so the count may not creep back
    n = 16
    config = ModelConfig()
    model = build_model(config, _scorr(n, 2), _adj(n), n)
    window = np.random.default_rng(33).normal(size=(1, config.encoder_length, n, 2))
    count = 0
    original = autodiff._result

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(autodiff, "_result", counted)
    predict(model, window, np.array([[0.0, 2.0], [0.0, 2.0]]))
    assert 0 < count <= 541


def test_training_graph_keeps_arrays_not_tensors():
    # a backward closure keeps the arrays it reads, never an operand tensor,
    # so an output that no backward reads is freed with its tensor
    _, model = _tiny_model(seed=31)
    rng = np.random.default_rng(32)
    pred = model.forward(rng.normal(size=(2, 12, 3, 2)),
                         rng.normal(size=(2, 12, 3, 2)))
    nodes = graph_nodes(mae_loss(pred, rng.normal(size=(2, 12, 3, 1))))
    kept = [value for node in nodes for value in kept_values(node)]
    # 39 nodes of the forward and the loss's one: 42 before each of the
    # three attention blocks ran its output projection inside its
    # attention node
    assert len(nodes) == 40
    assert not any(isinstance(value, Tensor) for value in kept)


def _kept_bases(node):
    """The base arrays of the arrays a node keeps."""
    bases = []
    for value in kept_values(node):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            bases.append(value)
    return bases


def test_training_graph_keeps_at_most_its_pinned_activations():
    # one pems08-preset step at N=8, B=1: the bytes the graph keeps after
    # forward, each base array counted once and parameters left out, in
    # encoder activations (encoder_length, N, d_model). It read 59.8 when
    # each layer norm kept xhat beside the output its consumer keeps and each
    # attention block's output projection kept the head outputs, 41.2 once
    # neither did, and 15.9 once each attention node kept recipes of q, k
    # and v in place of their arrays
    n = 8
    cfg = PRESETS["pems08"]
    model = build_model(cfg, _scorr(n, 3), _adj(n), n, seed=40)
    rng = np.random.default_rng(41)
    loss = mae_loss(model.forward(rng.normal(size=(1, cfg.encoder_length, n, 3)),
                                  rng.normal(size=(1, 12, n, 3))),
                    rng.normal(size=(1, 12, n, 1)))
    parameters = {id(p.data) for p in model.parameters()}
    bases = {id(a): a for node in graph_nodes(loss) for a in _kept_bases(node)
             if id(a) not in parameters}
    activation = 8 * cfg.encoder_length * n * cfg.d_model
    assert sum(a.nbytes for a in bases.values()) <= 16 * activation


def test_attention_nodes_keep_recipes_not_their_operands():
    # one pems08-preset forward (Q/K conv on) at N=6, B=1: each of the 12
    # attention nodes keeps q, k and v as recipes of the nodes that made
    # them, which read arrays those nodes keep anyway. So no array that only
    # an attention node keeps is as large as its smallest operand, a
    # (1, horizon, N, d_model) query of the decoder
    n = 6
    cfg = PRESETS["pems08"]
    model = build_model(cfg, _scorr(n, 3), _adj(n), n, seed=48)
    rng = np.random.default_rng(49)
    loss = mae_loss(model.forward(rng.normal(size=(1, cfg.encoder_length, n, 3)),
                                  rng.normal(size=(1, 12, n, 3))),
                    rng.normal(size=(1, 12, n, 1)))
    nodes = graph_nodes(loss)
    attentions = [node for node in nodes
                  if node.backward.__qualname__ == "attention.<locals>.backward"]
    assert len(attentions) == cfg.encoder_layers + 2 * cfg.decoder_layers
    shared = {id(p.data) for p in model.parameters()}
    shared.update(id(a) for node in nodes if node not in attentions
                  for a in _kept_bases(node))
    operand = cfg.horizon * n * cfg.d_model
    for node in attentions:
        own = [a for a in _kept_bases(node) if id(a) not in shared]
        assert own and all(a.size < operand for a in own)
    # a recipe reads arrays and parameters, never a tensor
    makers = [node for node in nodes if node.recipe is not None]
    assert len(makers) >= 3 * len(attentions)
    assert not any(isinstance(value, Tensor)
                   for node in makers for value in kept_values(node))


def test_backward_leaves_no_array_in_the_step_graph():
    # one pems08-preset step (Q/K conv on) at N=4: once the
    # loss's backward has run, no node of its graph keeps an array, a
    # parent, a recipe or, apart from the root, a gradient
    n = 4
    cfg = PRESETS["pems08"]
    model = build_model(cfg, _scorr(n, 2), _adj(n), n, seed=36)
    rng = np.random.default_rng(37)
    loss = mae_loss(model.forward(rng.normal(size=(1, cfg.encoder_length, n, 2)),
                                  rng.normal(size=(1, 12, n, 2))),
                    rng.normal(size=(1, 12, n, 1)))
    nodes = graph_nodes(loss)
    # 121 nodes, each graph layer one of them, and each of the 12 attention
    # blocks one attention node with its output projection (133 before)
    assert len(nodes) > 120
    assert any(isinstance(value, np.ndarray)
               for node in nodes for value in kept_values(node))
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())
    assert not any(isinstance(value, np.ndarray)
                   for node in nodes for value in kept_values(node))
    assert all(node.parents == () for node in nodes)
    assert all(node.recipe is None for node in nodes)
    assert all(node.grad is None for node in nodes if node is not loss._node)


def _pems08_loss(model, seed):
    """The loss of one B=1 forward of model over inputs drawn from seed."""
    n, length = model.n_sensors, model.config.encoder_length
    rng = np.random.default_rng(seed)
    return mae_loss(model.forward(rng.normal(size=(1, length, n, 3)),
                                  rng.normal(size=(1, 12, n, 3))),
                    rng.normal(size=(1, 12, n, 1)))


def test_backward_runs_cross_attention_producers_before_the_layer_below(
        monkeypatch):
    # once a decoder layer's cross-attention node has run, the walk runs the
    # producers of its keys and values (the value projection, the mixing
    # product and the key projection under it), so their gradients fold
    # into the memory's before any node of the decoder layer below runs.
    # The reversed depth-first order left all of them for after the decoder
    n = 4
    model = build_model(PRESETS["pems08"], _scorr(n, 3), _adj(n), n, seed=53)
    made, layer_nodes, producers, order = [], {}, {}, {}
    result, consume = autodiff._result, autodiff._consume
    layer_call = model_mod.DecoderLayer.__call__
    keys_values = model_mod.CIATT.keys_values

    def recorded_result(*args, **kwargs):
        out = result(*args, **kwargs)
        made.append(out._node)
        return out

    def recorded_layer(layer, *args, **kwargs):
        first = len(made)
        out = layer_call(layer, *args, **kwargs)
        layer_nodes[len(layer_nodes)] = made[first:]
        return out

    def recorded_keys_values(attn, x):
        k, v = keys_values(attn, x)
        if attn in [layer.cross_attn for layer in model.decoder]:
            producers[len(producers)] = [k._node, k._node.parents[1], v._node]
        return k, v

    def recorded_consume(node, keep_grad):
        order[id(node)] = len(order)
        return consume(node, keep_grad)
    monkeypatch.setattr(autodiff, "_result", recorded_result)
    monkeypatch.setattr(model_mod.DecoderLayer, "__call__", recorded_layer)
    monkeypatch.setattr(model_mod.CIATT, "keys_values", recorded_keys_values)
    monkeypatch.setattr(autodiff, "_consume", recorded_consume)
    _pems08_loss(model, seed=54).backward()
    layers = model.config.decoder_layers
    assert len(layer_nodes) == len(producers) == layers
    for i in range(1, layers):
        assert max(order[id(node)] for node in producers[i]) \
            < min(order[id(node)] for node in layer_nodes[i - 1]), i


def test_backward_order_and_gradients_repeat_within_a_process(monkeypatch):
    # the walk's order follows the graph and its operand order alone, never
    # where the nodes sit in memory, so one seeded step gives the same order
    # and the same gradient bytes with unrelated allocations in between
    runs = []
    consume = autodiff._consume
    for allocations in (0, 997):
        junk = [np.empty(i % 7 + 1) for i in range(allocations)]
        junk += [object() for _ in range(allocations)]
        ran = []

        def recorded_consume(node, keep_grad):
            ran.append(node.backward.__qualname__)
            return consume(node, keep_grad)
        monkeypatch.setattr(autodiff, "_consume", recorded_consume)
        model = build_model(PRESETS["pems08"], _scorr(4, 3), _adj(4), 4, seed=55)
        _pems08_loss(model, seed=56).backward()
        runs.append((ran, [p.grad.tobytes() for p in model.parameters()]))
    assert runs[0][0] == runs[1][0] and len(runs[0][0]) > 120
    assert runs[0][1] == runs[1][1]


def test_forward_builds_each_layers_keys_and_values_as_it_runs():
    # one pems08-preset forward at N=8, B=1, traced in encoder activations
    # (encoder_length, N, d_model): 27.5 when forward built all four decoder
    # layers' cross-attention keys and values before the first layer ran,
    # 21.5 once each layer's pair is built just before that layer. The bits
    # are those of _decode over the eagerly built pairs
    n = 8
    cfg = PRESETS["pems08"]
    model = build_model(cfg, _scorr(n, 3), _adj(n), n, seed=57)
    rng = np.random.default_rng(58)
    enc = rng.normal(size=(1, cfg.encoder_length, n, 3))
    dec = rng.normal(size=(1, 12, n, 3))
    peak, out = traced_peak(lambda: model.forward(enc, dec))
    activation = 8 * cfg.encoder_length * n * cfg.d_model
    assert peak <= 24 * activation
    eager = model._decode(dec, model._memory_kv(model._encode(enc)))
    assert out.data.tobytes() == eager.data.tobytes()


def test_validation_runs_in_chunks_the_budget_sizes(monkeypatch):
    # with the pems08 preset a validation chunk of 128 windows peaked at
    # 2.7 GB of RSS at N=96; the logged metrics do not depend on the chunk,
    # from one chunk for the whole split down to one window each
    _, params, train_s, val_s = _training_setup()
    cfg = ModelConfig(**_TINY)
    assert model_mod.chunk_windows(cfg, 3) > len(val_s) > 16
    runs = []
    for windows in (None, 1, 7, 16, 64, 128):
        if windows is not None:
            monkeypatch.setattr(model_mod, "CHUNK_BYTES",
                                _budget_for(windows, cfg, 3))
        _, model = _tiny_model(seed=38, n=3, c=1)
        log = train(model, TrainingData(train_s, val_s, params), cfg,
                    epochs=1, patience=1)
        runs.append([(r.val_mae, r.val_rmse, r.val_mape) for r in log.rows])
    assert all(run == runs[0] for run in runs)


def test_state_dict_round_trip_and_mismatch():
    _, model = _tiny_model(seed=9)
    state = model.state_dict()
    _, other = _tiny_model(seed=10)
    other.load_state_dict(state)
    assert all(np.array_equal(a, b) for a, b in
               zip(model.state_dict().values(), other.state_dict().values()))
    bad = dict(state)
    bad.pop("head.weight")
    with pytest.raises(DataError):
        other.load_state_dict(bad)


def test_checkpoint_round_trip(tmp_path):
    cfg, model = _tiny_model(seed=11)
    path = tmp_path / "model.cstn"
    save_checkpoint(model, cfg, path)
    assert path.read_bytes()[:4] == b"CSTN"
    state = load_checkpoint(path, cfg)
    for name, arr in model.state_dict().items():
        assert np.array_equal(state[name], arr)
    with pytest.raises(ConfigError):
        load_checkpoint(path, ModelConfig(**{**_TINY, "d_model": 16}))
    blob = path.read_bytes()
    # a file cut anywhere is a data error: every cut through the header and
    # the first blocks, then a spread over the rest
    for cut in [*range(200), *range(200, len(blob), 61)]:
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_checkpoint(path, cfg)


def _first_block(blob) -> tuple:
    """(start, rank offset, end) of a checkpoint's first parameter block."""
    start = 44                      # magic, version, config hash, block count
    at = start + 4 + int.from_bytes(blob[start:start + 4], "little")
    rank = int.from_bytes(blob[at:at + 4], "little")
    extents = struct.unpack(f"<{rank}I", blob[at + 4:at + 4 + 4 * rank])
    return start, at, at + 4 + 4 * rank + 8 * int(np.prod(extents))


@pytest.mark.parametrize("extents", [(2 ** 32 - 1,) * 3, (2 ** 31, 2 ** 31, 4),
                                     (2 ** 32 - 1,) * 4])
def test_checkpoint_whose_extents_exceed_the_file_is_data_error(tmp_path, extents):
    # the block's size was once taken in int64 and read before it was
    # checked: MemoryError, a ValueError from reshape or from a negative read
    cfg, model = _tiny_model(seed=11)
    path = tmp_path / "model.cstn"
    save_checkpoint(model, cfg, path)
    blob = path.read_bytes()
    _, at, _ = _first_block(blob)
    rank = int.from_bytes(blob[at:at + 4], "little")
    path.write_bytes(blob[:at] + struct.pack(f"<{1 + len(extents)}I", len(extents),
                                             *extents) + blob[at + 4 + 4 * rank:])
    with pytest.raises(DataError,
                       match=f"^{re.escape(str(path))}: truncated checkpoint"):
        load_checkpoint(path, cfg)


def test_checkpoint_holding_a_name_twice_is_data_error(tmp_path):
    # a second copy of the first block once loaded, the last copy winning
    cfg, model = _tiny_model(seed=11)
    path = tmp_path / "model.cstn"
    save_checkpoint(model, cfg, path)
    blob = path.read_bytes()
    start, _, end = _first_block(blob)
    count = int.from_bytes(blob[40:44], "little")
    path.write_bytes(blob[:40] + struct.pack("<I", count + 1) + blob[44:]
                     + blob[start:end])
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .* twice"):
        load_checkpoint(path, cfg)


def test_adam_single_step_hand_computed():
    p = Parameter(np.array([1.0]))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([0.5])
    opt.step()
    # mhat = 0.5, vhat = 0.25 -> update = 0.1 * 0.5 / (0.5 + 1e-8)
    assert abs(p.data[0] - (1.0 - 0.1 * 0.5 / (0.5 + 1e-8))) < 1e-15


def test_mae_loss_value():
    pred = Tensor(np.array([[1.0, 3.0]]), requires_grad=True)
    loss = mae_loss(pred, np.array([[2.0, 1.0]]))
    assert abs(loss.data - 1.5) < 1e-15
    with pytest.raises(DimensionError):
        mae_loss(pred, np.zeros((2, 2)))


def _training_setup(seed=0):
    ds = generate_synthetic(n_sensors=3, weeks=2, interval_minutes=30,
                            noise_sigma=0.05, seed=seed)
    x = ds.tensor
    ranges = split_ranges(x.n_timestamps)   # 672 -> 403/134/135
    params = fit_normalization(x, ranges[0])
    x_norm = SpatioTemporalTensor(normalize(x.data, params),
                                  interval_minutes=30)
    offsets = {"hourly": 12}
    train_s = assemble_samples(x_norm, (60, 140), ("hourly",), offsets, 12)
    val_s = assemble_samples(x_norm, (140, 180), ("hourly",), offsets, 12)
    return x_norm, params, train_s, val_s


def test_train_improves_and_logs(tmp_path):
    x_norm, params, train_s, val_s = _training_setup()
    cfg, model = _tiny_model(seed=12, n=3, c=1,
                             learning_rate=0.01, batch_size=16)
    log_path = tmp_path / "log.csv"
    log = train(model, TrainingData(train_s, val_s, params), cfg,
                epochs=8, patience=8, seed=0)
    log.to_csv(log_path)
    assert len(log.rows) == 8
    assert log.rows[-1].val_mae < log.rows[0].val_mae
    assert log.best_val_mae == min(r.val_mae for r in log.rows)
    lines = log_path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_mae,val_mae,val_rmse,val_mape,seconds"
    assert len(lines) == 9


def test_train_log_fields_are_numbers(tmp_path):
    x_norm, params, train_s, val_s = _training_setup()
    cfg, model = _tiny_model(seed=12, n=3, c=1, learning_rate=0.01)
    log_path = tmp_path / "log.csv"
    train(model, TrainingData(train_s, val_s, params), cfg,
          epochs=2, patience=2, seed=0).to_csv(log_path)
    with open(log_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    for row in rows[1:]:
        assert len(row) == 6
        assert all(np.isfinite(float(field)) for field in row)


def test_train_is_deterministic():
    x_norm, params, train_s, val_s = _training_setup()
    results = []
    for _ in range(2):
        cfg, model = _tiny_model(seed=13, n=3, c=1, learning_rate=0.01)
        log = train(model, TrainingData(train_s, val_s, params), cfg,
                    epochs=3, patience=5, seed=1)
        results.append((log.rows[-1].val_mae, model.state_dict()))
    assert results[0][0] == results[1][0]
    assert all(np.array_equal(results[0][1][k], results[1][1][k])
               for k in results[0][1])


def test_train_restores_best_epoch_state():
    x_norm, params, train_s, val_s = _training_setup()
    cfg, model = _tiny_model(seed=14, n=3, c=1, learning_rate=0.02)
    log = train(model, TrainingData(train_s, val_s, params), cfg,
                epochs=6, patience=6, seed=2)
    # the kept epoch's score is the rollout `evaluate` reports, bit for bit
    dataset = SimpleNamespace(norm_params=params)
    assert metrics_mod.evaluate(model, val_s, dataset).overall["mae"] \
        == log.best_val_mae == min(r.val_mae for r in log.rows)


def test_train_early_stops():
    x_norm, params, train_s, val_s = _training_setup()
    # lr large enough that validation oscillates instead of improving
    cfg, model = _tiny_model(seed=15, n=3, c=1, learning_rate=1.0)
    log = train(model, TrainingData(train_s, val_s, params), cfg,
                epochs=50, patience=2, seed=3)
    assert log.stopped_early
    assert len(log.rows) < 50


def _materialized(samples):
    return SampleSet(np.asarray(samples.encoder_input), samples.decoder_input,
                     samples.target, samples.anchors, samples.periods)


def test_training_on_encoder_windows_matches_materialized_samples():
    x_norm, params, train_s, val_s = _training_setup()
    assert isinstance(train_s.encoder_input, EncoderWindows)
    runs = []
    for sets in ((train_s, val_s), (_materialized(train_s), _materialized(val_s))):
        cfg, model = _tiny_model(seed=17, n=3, c=1, learning_rate=0.01,
                                 batch_size=8)
        log = train(model, TrainingData(*sets, params), cfg,
                    epochs=2, patience=2, seed=5)
        runs.append(([(r.train_mae, r.val_mae, r.val_rmse) for r in log.rows],
                     model.state_dict()))
    (rows, state), (dense_rows, dense_state) = runs
    assert rows == dense_rows
    assert state.keys() == dense_state.keys()
    assert all(state[k].tobytes() == dense_state[k].tobytes() for k in state)


def test_forecast_and_evaluate_on_encoder_windows_match_materialized_input(
        monkeypatch):
    x_norm, params, train_s, val_s = _training_setup()
    cfg, model = _tiny_model(seed=18, n=3, c=1)
    dense = _materialized(val_s)
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", _budget_for(7, cfg, 3))
    got = model.forecast(val_s.encoder_input)
    assert got.tobytes() == model.forecast(dense.encoder_input).tobytes()
    dataset = SimpleNamespace(norm_params=params)
    assert (metrics_mod.evaluate(model, val_s, dataset).per_horizon.tobytes()
            == metrics_mod.evaluate(model, dense, dataset).per_horizon.tobytes())


def test_forecast_holds_one_chunk_of_encoder_input(monkeypatch):
    n, c = 8, 3
    cfg, model = _tiny_model(seed=19, n=n, c=c,
                             periods=("hourly", "daily", "weekly"))
    # a budget worth 64 windows; the default one holds all 200 in one chunk
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", _budget_for(64, cfg, n))
    x = SpatioTemporalTensor(np.random.default_rng(20).normal(size=(260, n, c)))
    offsets = {"hourly": 12, "daily": 24, "weekly": 48}
    windows = assemble_samples(x, (48, 259), cfg.periods, offsets, 12).encoder_input
    dense = np.asarray(windows)

    def peak(encoder_input):
        return traced_peak(lambda: model.forecast(encoder_input))[0]

    model.forecast(dense[:1])
    chunk_bytes = 64 * windows.nbytes // len(windows)
    assert len(windows) == 200 and windows.nbytes > 3 * chunk_bytes
    # the dense input is allocated before tracing, so the difference is
    # what forecast gathers from the windows
    assert peak(windows) - peak(dense) <= 1.1 * chunk_bytes


def test_predict_denormalizes():
    x_norm, params, train_s, val_s = _training_setup()
    cfg, model = _tiny_model(seed=16, n=3, c=1)
    enc = train_s.encoder_input[:4]
    raw = model.forecast(enc)
    out = predict(model, enc, params)
    assert np.allclose(out, denormalize(raw, params, attribute=0), atol=1e-15)
    with pytest.raises(ConfigError):
        predict(model, enc, None)
