import csv
import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from corrstn import (Adam, ModelConfig, PRESETS, SCorrTensor, Tensor,
                     TrainingData, add_self_loops, assemble_samples,
                     build_model, denormalize, fit_normalization,
                     generate_synthetic, laplacian_normalize, load_checkpoint,
                     load_config, mae_loss, normalize, predict,
                     save_checkpoint, save_config, split_ranges,
                     topu_mixing_matrix, train)
from corrstn import autodiff
from corrstn import metrics as metrics_mod
from corrstn import model as model_mod
from corrstn import neural as neural_mod
from corrstn.autodiff import Parameter
from corrstn.data import EncoderWindows, SampleSet, SpatioTemporalTensor
from corrstn.errors import ConfigError, DataError, DimensionError
from corrstn.model import config_hash
from oracles import graph_nodes, kept_values


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
    {"learning_rate": True}, {"dropout": False}, {"learning_rate": "0.1"},
    {"dropout": "0"}, {"learning_rate": None}, {"dropout": [0.1]},
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
    assert ModelConfig(learning_rate=1, dropout=0).learning_rate == 1


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
        ModelConfig(dropout=1.0)
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
    assert model.forward(enc[0], dec[0]).shape == (1, 12, 3, 1)   # promoted
    assert model.forward(enc, dec[:, :5]).shape == (2, 5, 3, 1)   # short decode
    with pytest.raises(DimensionError):
        model.forward(enc[:, :7], dec)
    with pytest.raises(DimensionError):
        model.forward(enc, dec[:, :, :2])   # wrong sensor count
    with pytest.raises(DimensionError):
        model.forward(enc, np.zeros((2, 13, 3, 2)))


def test_forecast_builds_no_mixing_matrix(monkeypatch):
    # each attention layer builds its top-U mixing matrix once, when made
    calls = []

    def counted(topu):
        calls.append(topu)
        return topu_mixing_matrix(topu)

    monkeypatch.setattr(neural_mod, "topu_mixing_matrix", counted)
    cfg, n, c = ModelConfig(), 4, 2    # 2 encoder and 2 decoder layers
    model = build_model(cfg, _scorr(n, c), _adj(n), n, seed=0)
    assert len(calls) == 2 + 2 * 2
    calls.clear()
    enc = np.random.default_rng(0).normal(size=(1, cfg.encoder_length, n, c))
    model.forecast(enc)
    assert calls == []


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


def test_forecast_matches_manual_rollout():
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
    assert np.array_equal(model.forecast(enc, chunk=2), got)


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


def test_forecast_matches_prefix_rollout_across_chunks():
    cfg, model = _tiny_model(seed=23, **_ALL_PERIODS)
    enc = np.random.default_rng(24).normal(size=(5, 36, 3, 2))
    # chunks of 2, 2 and 1 samples
    assert np.array_equal(model.forecast(enc, chunk=2), _prefix_rollout(model, enc))


def test_blocked_attention_cores_leave_the_model_bits_unchanged(monkeypatch):
    # every attention core of a qk_conv, 3-attribute model runs in blocks
    # of one or two score slices: the graph layers' plain core, the
    # encoder's headed core and the decoder's masked and unmasked rowwise
    # cores, in training and in the rollout
    cfg, model = _tiny_model(seed=41, n=4, c=3, qk_conv=True, dropout=0.1)
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
        pred = model.forward(enc, dec, rng=np.random.default_rng(43))
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
    # the graph layers' plain core and the encoder's headed core keep no
    # (L_q, L_k) array, nor a view of one; the decoder's rowwise cores do
    cfg, model = _tiny_model(seed=51, n=4, c=3, qk_conv=True, dropout=0.1)
    rng = np.random.default_rng(52)
    enc = rng.normal(size=(2, cfg.encoder_length, 4, 3))
    dec = rng.normal(size=(2, 12, 4, 3))
    cores = []
    attention = autodiff.attention

    def recorded(q, k, v, scale, heads=None, mask=None, rowwise=False):
        out = attention(q, k, v, scale, heads=heads, mask=mask, rowwise=rowwise)
        axis = -2 if heads is None else -3
        cores.append((out._node, rowwise, (q.shape[axis], k.shape[axis])))
        return out
    monkeypatch.setattr(autodiff, "attention", recorded)
    pred = model.forward(enc, dec, rng=np.random.default_rng(53))
    kept = {False: 0, True: 0}
    for node, rowwise, scores in cores:
        arrays = _held_arrays(node.backward)
        weights = [a for a in arrays + [a.base for a in arrays if a.base is not None]
                   if a.dtype == np.float64 and a.shape[-2:] == scores]
        kept[rowwise] += bool(weights)
    # the encoder's headed core and both layers' graph cores
    assert sum(not rowwise for _, rowwise, _ in cores) == 3
    assert kept == {False: 0, True: sum(rowwise for _, rowwise, _ in cores)}
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
    model.forecast(enc, chunk=3)
    assert shapes == [(3, 1, 3, 2)] * 12 + [(2, 1, 3, 2)] * 12


def test_forecast_draws_no_dropout():
    cfg, model = _tiny_model(seed=25, dropout=0.5, **_ALL_PERIODS)
    enc = np.random.default_rng(26).normal(size=(3, 36, 3, 2))
    got = model.forecast(enc)
    assert np.array_equal(got, model.forecast(enc))
    # the rollout is the rng-less forward passes over its prefixes
    assert np.array_equal(got, _prefix_rollout(model, enc))
    # while a pass given an rng draws masks
    dec = np.random.default_rng(27).normal(size=(3, 12, 3, 2))
    dropped = model.forward(enc, dec, rng=np.random.default_rng(28)).data
    assert not np.array_equal(dropped, model.forward(enc, dec).data)


@pytest.mark.parametrize("chunk", [-1, 0, True, False, 2.0, "2", None])
def test_forecast_refuses_a_chunk_that_is_not_a_positive_integer(monkeypatch, chunk):
    # chunk=-1 once returned the uninitialized output, chunk=0 raised a bare
    # ValueError from range, and chunk=True ran as 1
    _, model = _tiny_model(seed=29)
    enc = np.random.default_rng(30).normal(size=(3, 12, 3, 2))

    def no_work(*args, **kwargs):
        raise AssertionError("forecast started work")
    monkeypatch.setattr(model_mod.CorrSTN, "_check_input", no_work)
    monkeypatch.setattr(model_mod.CorrSTN, "_encode", no_work)
    with pytest.raises(ConfigError, match="chunk"):
        model.forecast(enc, chunk=chunk)


def test_forecast_takes_a_numpy_integer_chunk():
    _, model = _tiny_model(seed=29)
    enc = np.random.default_rng(30).normal(size=(3, 12, 3, 2))
    assert np.array_equal(model.forecast(enc, chunk=np.int64(2)),
                          model.forecast(enc, chunk=2))


def test_forecast_encodes_once_per_chunk(monkeypatch):
    cfg, model = _tiny_model(seed=27, **_ALL_PERIODS)
    calls = []
    original = model_mod.EncoderLayer.__call__

    def counted(layer, *args, **kwargs):
        calls.append(layer)
        return original(layer, *args, **kwargs)

    monkeypatch.setattr(model_mod.EncoderLayer, "__call__", counted)
    enc = np.random.default_rng(28).normal(size=(5, 36, 3, 2))
    model.forecast(enc, chunk=2)
    assert len(calls) == cfg.encoder_layers * 3     # 3 chunks, not 3 x 12
    calls.clear()
    model.forecast(enc)
    assert len(calls) == cfg.encoder_layers


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
    model_mod._teacher_forced_metrics(model, samples,
                                      np.array([[0.0, 2.0], [0.0, 2.0]]))
    assert len(outputs) == 13
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

    def counted(data, parents, backward):
        nonlocal count
        count += 1
        return original(data, parents, backward)
    monkeypatch.setattr(autodiff, "_result", counted)
    predict(model, window, np.array([[0.0, 2.0], [0.0, 2.0]]))
    assert 0 < count <= 541


def test_training_graph_keeps_arrays_not_tensors():
    # a backward closure keeps the arrays it reads, never an operand tensor,
    # so an output that no backward reads is freed with its tensor
    _, model = _tiny_model(seed=31, dropout=0.1)
    rng = np.random.default_rng(32)
    pred = model.forward(rng.normal(size=(2, 12, 3, 2)),
                         rng.normal(size=(2, 12, 3, 2)), rng=rng)
    nodes = graph_nodes(mae_loss(pred, rng.normal(size=(2, 12, 3, 1))))
    kept = [value for node in nodes for value in kept_values(node)]
    # 49 nodes of the forward and the loss's one
    assert len(nodes) == 50
    assert not any(isinstance(value, Tensor) for value in kept)


def test_backward_leaves_no_array_in_the_step_graph():
    # one pems08-preset step (dropout on, Q/K conv on) at N=4: once the
    # loss's backward has run, no node of its graph keeps an array, a
    # parent or, apart from the root, a gradient
    n = 4
    cfg = dataclasses.replace(PRESETS["pems08"], dropout=0.1)
    model = build_model(cfg, _scorr(n, 2), _adj(n), n, seed=36)
    rng = np.random.default_rng(37)
    loss = mae_loss(model.forward(rng.normal(size=(1, cfg.encoder_length, n, 2)),
                                  rng.normal(size=(1, 12, n, 2)), rng=rng),
                    rng.normal(size=(1, 12, n, 1)))
    nodes = graph_nodes(loss)
    assert len(nodes) > 150
    assert any(isinstance(value, np.ndarray)
               for node in nodes for value in kept_values(node))
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())
    assert not any(isinstance(value, np.ndarray)
                   for node in nodes for value in kept_values(node))
    assert all(node.parents == () for node in nodes)
    assert all(node.grad is None for node in nodes if node is not loss._node)


def test_validation_runs_in_chunks_of_16_windows(monkeypatch):
    # with the pems08 preset a validation chunk of 128 windows peaked at
    # 2.7 GB of RSS at N=96; the metrics do not depend on the chunk
    _, params, _, val_s = _training_setup()
    cfg, model = _tiny_model(seed=38, n=3, c=1)
    sizes = []
    forward = model_mod.CorrSTN.forward

    def recorded(net, enc, dec, rng=None):
        sizes.append(len(enc))
        return forward(net, enc, dec, rng)
    monkeypatch.setattr(model_mod.CorrSTN, "forward", recorded)
    assert len(val_s) > 16
    want = model_mod._teacher_forced_metrics(model, val_s, params)
    assert max(sizes) == 16 and sum(sizes) == len(val_s)
    for chunk in (1, 7, 64, 128):
        assert model_mod._teacher_forced_metrics(model, val_s, params, chunk) == want


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
                epochs=8, patience=8, seed=0, log_path=log_path)
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
          epochs=2, patience=2, seed=0, log_path=log_path)
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
    from corrstn.model import _teacher_forced_metrics
    val_mae, _, _ = _teacher_forced_metrics(model, val_s, params)
    assert abs(val_mae - log.best_val_mae) < 1e-12


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


def test_forecast_and_evaluate_on_encoder_windows_match_materialized_input():
    x_norm, params, train_s, val_s = _training_setup()
    cfg, model = _tiny_model(seed=18, n=3, c=1)
    dense = _materialized(val_s)
    got = model.forecast(val_s.encoder_input, chunk=7)
    assert got.tobytes() == model.forecast(dense.encoder_input, chunk=7).tobytes()
    dataset = SimpleNamespace(norm_params=params)
    assert (metrics_mod.evaluate(model, val_s, dataset).per_horizon.tobytes()
            == metrics_mod.evaluate(model, dense, dataset).per_horizon.tobytes())


def test_forecast_holds_one_chunk_of_encoder_input():
    n, c = 8, 3
    cfg, model = _tiny_model(seed=19, n=n, c=c,
                             periods=("hourly", "daily", "weekly"))
    x = SpatioTemporalTensor(np.random.default_rng(20).normal(size=(260, n, c)))
    offsets = {"hourly": 12, "daily": 24, "weekly": 48}
    windows = assemble_samples(x, (48, 259), cfg.periods, offsets, 12).encoder_input
    dense = np.asarray(windows)

    def peak(encoder_input):
        tracemalloc.start()
        try:
            model.forecast(encoder_input)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

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
