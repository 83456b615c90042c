"""Acceptance gate for the whole stack.

Twelve checks covering oracle equivalence, exact constants, property suites,
gradient soundness, training behavior, pipeline determinism, and throughput.
Each check prints one verdict line (the repo-default `-s` lets them through);
a criterion that cannot run in this environment prints SKIP with the reason.
"""

import contextlib
import io
import json
import math
import os
import re
import time

import numpy as np
import pytest

from corrstn import (CIATT, CIGNN, ModelConfig, PeriodSpec, SCorrTensor,
                     Tensor, TCorrWeights, TrainingData, add_self_loops,
                     assemble_samples, build_model, build_tcorr_report,
                     causal_mask, compute_report, compute_scorr,
                     fit_normalization, generate_synthetic,
                     laplacian_normalize, load_tensor, mae_loss, mic,
                     normalize, save_tensor, select_periods, split_ranges,
                     top_u_normalize, train)
from corrstn import metrics as metrics_mod
from corrstn.autodiff import (add, graph_layer, layer_norm, linear,
                              linear_conv1d_temporal, matmul, narrow, reshape)
from corrstn.cli import main as cli_main
from corrstn.data import SampleSet, SpatioTemporalTensor
from corrstn.tcorr import weighted_tcorr
from oracles import (KINK_MARGIN, finite_difference_gradient, gradient_gap,
                     graph_route_inputs, metrics_brute_force, mic_brute_force,
                     mul, multi_head_attention, permute, plain_gnn)


@contextlib.contextmanager
def verdict(number: int, summary: str):
    started = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    except BaseException as exc:
        if type(exc).__name__ == "Skipped":
            status = "SKIP"
        raise
    finally:
        elapsed = time.perf_counter() - started
        print(f"\n[criterion {number:02d}] {status} ({elapsed:.1f}s)  {summary}")


# ---------------------------------------------------------------------------
# 1-2: MIC against the exhaustive oracle, then its analytic properties

def _random_sequence(rng, m, flavor):
    if flavor == 0:
        return rng.normal(size=m)
    if flavor == 1:
        return rng.uniform(-3, 3, size=m)
    if flavor == 2:
        return rng.integers(0, 6, size=m).astype(float)   # heavy ties
    if flavor == 3:
        return rng.lognormal(sigma=1.2, size=m)
    base = rng.normal(size=m)
    return base + 0.5 * base ** 2


def test_criterion_01_mic_oracle_equivalence():
    with verdict(1, "mic equals the exhaustive grid-search oracle on 200 "
                    "mixed-distribution pairs, tol 1e-12, under 60 s"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        worst = 0.0
        for case in range(200):
            m = int(rng.integers(8, 65))
            x = _random_sequence(rng, m, case % 5)
            y = _random_sequence(rng, m, (case // 5) % 5)
            if case % 7 == 0:
                y = y + 0.8 * x            # mix in dependent pairs
            worst = max(worst, abs(mic(x, y) - mic_brute_force(x, y)))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-12, f"worst gap {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_mic_properties():
    with verdict(2, "range, bit-exact symmetry, self-identity, and monotone "
                    "invariance over 1000 random cases, under 30 s"):
        rng = np.random.default_rng(202)
        started = time.perf_counter()
        cases = 0
        for _ in range(250):                                # range
            m = int(rng.integers(8, 129))
            v = mic(_random_sequence(rng, m, int(rng.integers(0, 5))),
                    _random_sequence(rng, m, int(rng.integers(0, 5))))
            assert 0.0 <= v <= 1.0
            cases += 1
        for _ in range(250):                                # symmetry
            m = int(rng.integers(8, 129))
            x = _random_sequence(rng, m, int(rng.integers(0, 5)))
            y = _random_sequence(rng, m, int(rng.integers(0, 5)))
            assert mic(x, y) == mic(y, x)
            cases += 1
        for _ in range(250):                                # self-identity
            # an even length guarantees a grid whose rows divide the sample
            # count evenly, which is what makes mic(x, x) hit 1.0 exactly
            m = int(rng.integers(6, 33)) * 2
            x = _random_sequence(rng, m, int(rng.integers(0, 2)))
            assert mic(x, x) == 1.0
            cases += 1
        for _ in range(250):                                # monotone invariance
            m = int(rng.integers(8, 129))
            x = _random_sequence(rng, m, int(rng.integers(0, 5)))
            y = rng.normal(size=m) + 0.5 * x
            assert mic(x, y) == mic(np.exp(x), y)
            assert mic(x, y) == mic(x, y ** 3)
            cases += 1
        elapsed = time.perf_counter() - started
        assert cases == 1000
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3: spatial tensor invariants at desk scale

def test_criterion_03_scorr_invariants():
    with verdict(3, "spatial tensor on N=32, T=288, C=3: symmetric, unit "
                    "diagonal, serial == 4 workers bit-for-bit, under 2 min"):
        started = time.perf_counter()
        ds = generate_synthetic(n_sensors=32, weeks=2, noise_sigma=0.3,
                                n_attributes=3, seed=303)
        x = SpatioTemporalTensor(ds.tensor.data[:288], interval_minutes=5)
        serial = compute_scorr(x, workers=1)
        parallel = compute_scorr(x, workers=4)
        d = serial.degrees
        assert d.shape == (32, 32, 3)
        assert np.array_equal(d, d.transpose(1, 0, 2))
        for a in range(3):
            assert np.array_equal(np.diag(d[:, :, a]), np.ones(32))
        assert d.min() >= 0.0 and d.max() <= 1.0
        assert np.array_equal(d, parallel.degrees)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4-5: temporal weighting constants, decision table, and regime selection

_DECISION_TABLE = {
    (1, 1, 1): ("hourly", "daily", "weekly"),
    (1, 1, 0): ("hourly", "daily"),
    (1, 1, -1): ("hourly", "daily"),
    (1, 0, 1): ("hourly", "daily"),
    (1, 0, 0): ("hourly", "daily"),
    (1, 0, -1): ("hourly", "daily"),
    (1, -1, 1): ("hourly", "daily"),
    (1, -1, 0): ("hourly", "daily"),
    (1, -1, -1): ("hourly", "daily"),
    (0, 1, 1): ("hourly", "weekly"),
    (0, 1, 0): ("hourly", "weekly"),
    (0, 1, -1): ("hourly", "weekly"),
    (0, 0, 1): ("hourly",),
    (0, 0, 0): ("hourly",),
    (0, 0, -1): ("hourly",),
    (0, -1, 1): ("hourly",),
    (0, -1, 0): ("hourly",),
    (0, -1, -1): ("hourly",),
    (-1, 1, 1): ("hourly", "weekly"),
    (-1, 1, 0): ("hourly", "weekly"),
    (-1, 1, -1): ("hourly", "weekly"),
    (-1, 0, 1): ("hourly",),
    (-1, 0, 0): ("hourly",),
    (-1, 0, -1): ("hourly",),
    (-1, -1, 1): ("hourly",),
    (-1, -1, 0): ("hourly",),
    (-1, -1, -1): ("hourly",),
}


def test_criterion_04_tcorr_weights_and_decision_table():
    with verdict(4, "period weights are exactly 0.95/0.95/0.85 and all 27 "
                    "gap-sign patterns map to the documented verdict"):
        w = TCorrWeights()
        assert (w.hourly, w.daily, w.weekly) == (0.95, 0.95, 0.85)
        raw = np.array([0.0, 0.25, 0.5, 1.0])
        assert np.array_equal(weighted_tcorr(raw, "hourly"), raw * 0.95)
        assert np.array_equal(weighted_tcorr(raw, "daily"), raw * 0.95)
        assert np.array_equal(weighted_tcorr(raw, "weekly"), raw * 0.85)
        assert len(_DECISION_TABLE) == 27
        for signs, want in _DECISION_TABLE.items():
            assert select_periods(*(s * 0.2 for s in signs)) == want, signs
        # the two qualitative regimes: every gap positive keeps all three
        # periods; daily ahead of both hourly and weekly keeps hourly+daily
        assert select_periods(0.1, 0.1, 0.1) == ("hourly", "daily", "weekly")
        assert select_periods(0.1, 0.05, -0.05) == ("hourly", "daily")


def test_criterion_05_selection_oracle_on_synthetic_regimes():
    with verdict(5, "10 seeds: weekly-dominant data selects weekly and "
                    "daily-dominant data selects daily in >= 9/10, under 5 min"):
        started = time.perf_counter()
        spec = PeriodSpec.from_interval(5)
        weekly_hits = daily_hits = 0
        for seed in range(10):
            ds = generate_synthetic(n_sensors=4, weeks=2, noise_sigma=0.1,
                                    seed=seed, daily_amplitude=0.0,
                                    weekly_amplitude=1.0)
            report = build_tcorr_report(ds.tensor, spec)
            weekly_hits += "weekly" in report.combined_verdict
            ds = generate_synthetic(n_sensors=4, weeks=2, noise_sigma=0.1,
                                    seed=seed, daily_amplitude=1.0,
                                    weekly_amplitude=0.0)
            report = build_tcorr_report(ds.tensor, spec)
            daily_hits += "daily" in report.combined_verdict
        elapsed = time.perf_counter() - started
        assert weekly_hits >= 9, f"weekly selected in {weekly_hits}/10"
        assert daily_hits >= 9, f"daily selected in {daily_hits}/10"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6: finite differences against every op, both layers, and the full model

_ROUTE_STACK = np.random.default_rng(6000).uniform(0.1, 0.9, size=(3, 4, 4))
_ROUTE_ADJ = np.random.default_rng(6001).uniform(0.1, 0.9, size=(4, 4))
_LOSS_TARGET = np.random.default_rng(6002).normal(size=(4, 4))


# (builder, input shapes, and for a row with relus, its relu inputs as a
# function of the drawn arrays)
_OP_CATALOG = [
    (add, [(3, 4), (3, 4)], None),
    (add, [(2, 3, 4), (4,)], None),
    (mul, [(3, 4), (3, 4)], None),
    (matmul, [(3, 4), (4, 5)], None),
    (matmul, [(2, 1, 3, 4), (2, 6, 4, 5)], None),
    (lambda x, w, b: linear(x, w, b), [(4, 3), (3, 2), (2,)], None),
    (lambda a: reshape(a, (6, 2)), [(3, 4)], None),
    (lambda a: narrow(a, 1, 1, 2), [(3, 4)], None),
    (lambda a: mae_loss(a, _LOSS_TARGET), [(4, 4)], None),
    (linear_conv1d_temporal, [(1, 4, 2, 3), (3, 2), (2,), (3, 2, 2), (2,)], None),
    (lambda z, w, psi, omega: graph_layer(z, w, _ROUTE_STACK, psi, _ROUTE_ADJ, omega),
     [(2, 4, 3), (3, 3), (3,), (1,)],
     lambda z, w, psi, omega: graph_route_inputs(z, w, _ROUTE_STACK, _ROUTE_ADJ)),
    (lambda a, g, b: layer_norm(a, g, b), [(3, 6), (6,), (6,)], None),
]


def _fd_check(build, shapes, seed, tol, kinks=None, label=""):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    while kinks is not None and np.abs(kinks(*arrays)).min() < KINK_MARGIN:
        arrays = [rng.normal(size=s) for s in shapes]
    for slot in range(len(arrays)):
        tensors = [Tensor(a.copy(), requires_grad=(k == slot))
                   for k, a in enumerate(arrays)]
        out = build(*tensors)
        out.backward(np.ones_like(out.data))

        def scalar(a, slot=slot):
            probe = [Tensor(x.copy()) for x in arrays]
            probe[slot] = Tensor(a)
            return float(np.sum(build(*probe).data))

        gap = gradient_gap(tensors[slot].grad,
                           finite_difference_gradient(scalar, arrays[slot]))
        assert gap < tol, f"{label} slot {slot} seed {seed}: gap {gap}"


def _cignn_layer(d, stack, adj, w, psi, omega):
    """A CIGNN whose parameters are the checked tensors."""
    layer = CIGNN(d, stack, adj, np.random.default_rng(0))
    layer.w, layer.psi, layer.omega = w, psi, omega
    return layer


def _layer_catalog(seed):
    rng = np.random.default_rng(seed + 7000)
    n, length, d, c = 3, 4, 8, 2
    deg = rng.uniform(0.1, 0.9, size=(n, n, c))
    deg = (deg + deg.transpose(1, 0, 2)) / 2
    for a in range(c):
        np.fill_diagonal(deg[:, :, a], 1.0)
    mixing = top_u_normalize(SCorrTensor(deg), u=2)
    stack = np.ascontiguousarray(np.moveaxis(deg, 2, 0))
    adj = laplacian_normalize(add_self_loops(np.ones((n, n)) - np.eye(n)))
    causal = causal_mask(length)

    def ciatt(x_q, x_kv, w_v, w_out, b_out=None, mask=None, rowwise=False):
        # the checked arrays are the value and output projections; the query
        # and key projections keep the layer's own initialization, which
        # keeps the scores in the range where central differences resolve
        # 1e-6. The draws are sensor-major (n, length, d); the model's
        # attention path is position-major, so the row permutes in and back
        att = CIATT(d, 2, mixing, np.random.default_rng(seed))
        att.wv.weight, att.w_out.weight = w_v, w_out
        if b_out is not None:
            att.w_out.bias = b_out
        x_q, x_kv = (permute(t, (1, 0, 2)) for t in (x_q, x_kv))
        out = att.attend(x_q, att.keys_values(x_kv), mask=mask, rowwise=rowwise)
        return permute(out, (1, 0, 2))

    inputs = [(n, length, d)] * 2 + [(d, d)] * 2
    # (builder, input shapes, label, and for a row with relus, its relu
    # inputs as a function of the drawn arrays)
    return [
        (lambda z, w, psi, omega: _cignn_layer(d, stack, adj, w, psi, omega)(z),
         [(n, d), (d, d), (c,), (1,)], "cignn",
         lambda z, w, psi, omega: graph_route_inputs(z, w, stack, adj.matrix)),
        (ciatt, inputs + [(d,)], "ciatt", None),
        (lambda *arrays: ciatt(*arrays, mask=causal), inputs, "ciatt masked", None),
        (lambda *arrays: ciatt(*arrays, mask=causal, rowwise=True), inputs,
         "ciatt rowwise", None),
        (linear_conv1d_temporal, [(6, 2, 3), (3, 3), (3,), (3, 3, 5), (5,)],
         "temporal conv", None),
    ]


def _e2e_fd_gap(seed):
    rng = np.random.default_rng(seed + 9000)
    n, c = 2, 1
    deg = rng.uniform(0.2, 0.9, size=(n, n, c))
    deg = (deg + deg.transpose(1, 0, 2)) / 2
    np.fill_diagonal(deg[:, :, 0], 1.0)
    cfg = ModelConfig(encoder_layers=1, decoder_layers=1, d_model=8, heads=2,
                      top_u=2, periods=("hourly",))
    adj = laplacian_normalize(add_self_loops(np.ones((n, n)) - np.eye(n)))
    model = build_model(cfg, SCorrTensor(deg), adj, n, seed=seed)
    enc = rng.normal(size=(1, 12, n, c))
    dec = rng.normal(size=(1, 12, n, c))
    # targets sit far from the predictions so the absolute-error loss is
    # locally smooth around every probe
    target = rng.normal(size=(1, 12, n, 1)) + 4.0

    def loss_value():
        return float(mae_loss(model.forward(enc, dec), target).data)

    model.zero_grad()
    loss = mae_loss(model.forward(enc, dec), target)
    loss.backward()
    params = list(model.parameters())
    analytic, numeric = [], []
    for p in params:
        flat = p.data.reshape(-1)
        grad = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for idx in {0, int(rng.integers(0, flat.size))}:
            keep = flat[idx]
            step = 1e-6 * max(1.0, abs(keep))
            flat[idx] = keep + step
            hi = loss_value()
            flat[idx] = keep - step
            lo = loss_value()
            flat[idx] = keep
            analytic.append(grad[idx])
            numeric.append((hi - lo) / (2.0 * step))
    return gradient_gap(np.array(analytic), np.array(numeric))


def test_criterion_06_gradient_soundness():
    with verdict(6, "finite differences across 20 seeds: every op and layer "
                    "< 1e-6 (five-point stencil), full model end to end "
                    "< 1e-5 (central), under 5 min"):
        started = time.perf_counter()
        for seed in range(20):
            for i, (build, shapes, kinks) in enumerate(_OP_CATALOG):
                _fd_check(build, shapes, seed, 1e-6, kinks, label=f"op{i}")
            for build, shapes, label, kinks in _layer_catalog(seed):
                _fd_check(build, shapes, seed, 1e-6, kinks, label=label)
            gap = _e2e_fd_gap(seed)
            assert gap < 1e-5, f"end-to-end seed {seed}: gap {gap}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 7: the correlation layers collapse to their plain counterparts

def test_criterion_07_reduction_identities():
    with verdict(7, "identity top-U attention (the model's path, both "
                    "cores) == plain multi-head attention over the same "
                    "projections and psi=0/omega=1 "
                    "graph layer == relu(A Z W), tol 1e-12"):
        rng = np.random.default_rng(707)
        n, length, d = 5, 6, 8
        x_q, x_kv = (rng.normal(size=(n, length, d)) for _ in range(2))
        att = CIATT(d, 2, np.eye(n), rng)
        linears = (att.wq, att.wk, att.wv, att.w_out)
        for linear in linears:
            linear.bias.data = rng.normal(size=d)
        (w_q, b_q), (w_k, b_k), (w_v, b_v), (w_out, b_out) = [
            (linear.weight.data, linear.bias.data) for linear in linears]
        # the model's attention path is position-major (length, n, d)
        kv = att.keys_values(Tensor(np.swapaxes(x_kv, 0, 1)))
        for mask in (None, causal_mask(length)):
            ref = multi_head_attention(x_q @ w_q + b_q, x_kv @ w_k + b_k,
                                       x_kv @ w_v + b_v, 2, w_out, b_out,
                                       mask=mask)
            for rowwise in (False, True):
                ours = att.attend(Tensor(np.swapaxes(x_q, 0, 1)), kv, mask=mask,
                                  rowwise=rowwise)
                gap = np.abs(np.swapaxes(ours.data, 0, 1) - ref).max()
                assert gap <= 1e-12, (mask is None, rowwise, gap)
        z = rng.normal(size=(n, d))
        w = rng.normal(size=(d, d))
        deg = rng.uniform(0.1, 0.9, size=(n, n, 2))
        deg = (deg + deg.transpose(1, 0, 2)) / 2
        for a in range(2):
            np.fill_diagonal(deg[:, :, a], 1.0)
        adj = laplacian_normalize(add_self_loops(np.ones((n, n)) - np.eye(n)))
        stack = np.ascontiguousarray(np.moveaxis(deg, 2, 0))
        ours = _cignn_layer(d, stack, adj, Tensor(w), Tensor(np.zeros(2)),
                            Tensor(np.ones(1)))(Tensor(z))
        assert np.abs(ours.data - plain_gnn(adj.matrix, z, w)).max() <= 1e-12


# ---------------------------------------------------------------------------
# 8: a small model must be able to memorize a handful of samples

def _overfit_run():
    ds = generate_synthetic(n_sensors=3, weeks=2, interval_minutes=30,
                            noise_sigma=0.1, seed=42)
    x = ds.tensor
    params = fit_normalization(x, split_ranges(x.n_timestamps)[0])
    data_range = float(params[0, 1] - params[0, 0])
    x_norm = SpatioTemporalTensor(normalize(x.data, params),
                                  interval_minutes=30)
    full = assemble_samples(x_norm, (60, 140), ("hourly",), {"hourly": 12}, 12)
    four = SampleSet(full.encoder_input[:4], full.decoder_input[:4],
                     full.target[:4], full.anchors[:4], full.periods)
    cfg = ModelConfig(encoder_layers=1, decoder_layers=1, d_model=16, heads=2,
                      top_u=2, periods=("hourly",), learning_rate=0.005,
                      batch_size=1)
    scorr = compute_scorr(SpatioTemporalTensor(x_norm.data[60:140],
                                               interval_minutes=30))
    adj = laplacian_normalize(add_self_loops(ds.adjacency))
    model = build_model(cfg, scorr, adj, 3, seed=0)
    log = train(model, TrainingData(four, four, params), cfg,
                epochs=500, patience=500, seed=0)
    return data_range, log, model.state_dict()


def test_criterion_08_overfit_smoke():
    with verdict(8, "1+1 layer d_model=16 model memorizes 4 samples to MAE "
                    "< 1% of data range within 500 epochs, deterministically, "
                    "under 3 min"):
        started = time.perf_counter()
        data_range, log, state = _overfit_run()
        best = min(r.train_mae for r in log.rows)
        bound = 0.01 * data_range
        assert best < bound, f"best MAE {best:.5f} vs bound {bound:.5f}"
        assert len(log.rows) <= 500
        data_range2, log2, state2 = _overfit_run()
        assert [r.train_mae for r in log.rows] == [r.train_mae for r in log2.rows]
        assert all(np.array_equal(state[k], state2[k]) for k in state)
        elapsed = time.perf_counter() - started
        assert elapsed < 180.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 9: metric oracle and the hand-worked example

def test_criterion_09_metric_oracle():
    with verdict(9, "MAE/RMSE/MAPE match loop oracles within 1e-9, mae <= "
                    "rmse everywhere, worked example pred=[2,4] truth=[1,2] "
                    "-> (1.5, 1.5811, 100%)"):
        rng = np.random.default_rng(909)
        for _ in range(40):
            size = int(rng.integers(1, 40))
            pred = rng.normal(size=size) * 10
            truth = rng.normal(size=size) * 10
            truth[rng.random(size) < 0.2] = 0.0     # exercise the zero mask
            o_mae, o_rmse, o_mape = metrics_brute_force(pred, truth)
            assert abs(metrics_mod.mae(pred, truth) - o_mae) <= 1e-9
            assert abs(metrics_mod.rmse(pred, truth) - o_rmse) <= 1e-9
            got = metrics_mod.mape(pred, truth)
            if math.isnan(o_mape):
                assert math.isnan(got)
            else:
                assert abs(got - o_mape) <= 1e-9
        for _ in range(20):
            pred = rng.normal(size=(6, 12)) * 5
            truth = rng.normal(size=(6, 12)) * 5
            report = compute_report(pred, truth)
            assert report.overall["mae"] <= report.overall["rmse"] + 1e-15
            assert np.all(report.per_horizon[:, 0] <= report.per_horizon[:, 1] + 1e-15)
        pred = np.array([2.0, 4.0])
        truth = np.array([1.0, 2.0])
        assert metrics_mod.mae(pred, truth) == 1.5
        assert abs(metrics_mod.rmse(pred, truth) - 1.5811) < 5e-5
        # |2-1|/1 = 1 and |4-2|/2 = 1, so the masked mean is exactly 1
        assert metrics_mod.mape(pred, truth) == 1.0
        print("\n    note: hand evaluation of the worked example gives "
              "MAPE = (|2-1|/1 + |4-2|/2) / 2 = 100%")


# ---------------------------------------------------------------------------
# 10: two identically seeded end-to-end CLI runs must agree byte for byte

def _pipeline(workdir: str) -> tuple[bytes, bytes]:
    art = lambda name: os.path.join(workdir, name)
    with open(art("config.json"), "w") as fh:
        json.dump(dict(encoder_layers=1, decoder_layers=1, d_model=8, heads=2,
                       top_u=2, periods=["hourly"], learning_rate=0.01), fh)
    ratios = "0.1,0.1,0.8"     # small train split keeps the runs quick
    steps = [
        ["synth", "--out", art("traffic.sttf"), "--edges-out", art("edges.csv"),
         "--sensors", "4", "--weeks", "2", "--interval", "5", "--seed", "11"],
        ["scorr", "--data", art("traffic.sttf"), "--out", art("spatial.scor"),
         "--ratios", ratios],
        ["tcorr", "--data", art("traffic.sttf"), "--out", art("tcorr.json")],
        ["train", "--data", art("traffic.sttf"), "--edges", art("edges.csv"),
         "--scorr", art("spatial.scor"), "--config", art("config.json"),
         "--out-dir", art("run"), "--epochs", "2", "--ratios", ratios,
         "--seed", "0"],
        ["evaluate", "--data", art("traffic.sttf"), "--edges", art("edges.csv"),
         "--scorr", art("spatial.scor"),
         "--config", os.path.join(art("run"), "config.json"),
         "--checkpoint", os.path.join(art("run"), "checkpoint.cstn"),
         "--out", art("eval.json"), "--split", "val", "--ratios", ratios],
    ]
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        assert code == 0, f"{argv[0]} exited with {code}"
    with open(art("eval.json"), "rb") as fh:
        report = fh.read()
    with open(os.path.join(art("run"), "checkpoint.cstn"), "rb") as fh:
        ckpt = fh.read()
    return report, ckpt


def test_criterion_10_pipeline_determinism(tmp_path):
    with verdict(10, "two identically seeded synth->scorr->tcorr->train->"
                     "evaluate CLI runs produce identical reports"):
        a = tmp_path / "run_a"
        b = tmp_path / "run_b"
        a.mkdir()
        b.mkdir()
        report_a, ckpt_a = _pipeline(str(a))
        report_b, ckpt_b = _pipeline(str(b))
        assert report_a == report_b
        assert ckpt_a == ckpt_b


# ---------------------------------------------------------------------------
# 11: optional real-data check, active only when a dataset path is supplied

def test_criterion_11_pems08_tcorr_averages():
    path = os.environ.get("CORRSTN_PEMS08", "")
    with verdict(11, "PEMS08 temporal averages: hourly 0.343, daily 0.356, "
                     "weekly 0.411 within +/- 0.03 and ordered w > d > h"):
        if not path:
            pytest.skip("set CORRSTN_PEMS08 to a .sttf file to enable")
        x = load_tensor(path)
        s0, s1 = split_ranges(x.n_timestamps)[0]
        piece = SpatioTemporalTensor(x.data[s0:s1],
                                     interval_minutes=x.interval_minutes)
        spec = PeriodSpec.from_interval(x.interval_minutes)
        report = build_tcorr_report(piece, spec, dataset="pems08")
        h = float(report.averages["hourly"][0])
        d = float(report.averages["daily"][0])
        w = float(report.averages["weekly"][0])
        print(f"\n    measured averages: hourly {h:.4f}, daily {d:.4f}, "
              f"weekly {w:.4f}")
        assert abs(h - 0.343) <= 0.03
        assert abs(d - 0.356) <= 0.03
        assert abs(w - 0.411) <= 0.03
        assert w > d > h


# ---------------------------------------------------------------------------
# 12: throughput bound for the pairwise kernel, via the CLI's own report

_THROUGHPUT = re.compile(
    r"(\d+) pair-attrs .* in ([0-9.]+)s with (\d+) workers: ([0-9.]+)")


def _timed_scorr(data_path: str, out_path: str, workers: int) -> float:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["scorr", "--data", data_path, "--out", out_path,
                         "--split", "all", "--workers", str(workers)])
    assert code == 0
    match = _THROUGHPUT.search(buf.getvalue())
    assert match, f"no throughput line in: {buf.getvalue()!r}"
    assert int(match.group(1)) == 170 * 169 // 2 * 3
    assert int(match.group(3)) == workers
    return float(match.group(2))


def test_criterion_12_scorr_throughput(tmp_path):
    with verdict(12, "pairwise kernel on N=170, T=3000, C=3 finishes inside "
                     "the 10 minute budget; 1->8 worker speedup >= 5x when "
                     "8 cores exist"):
        rng = np.random.default_rng(1212)
        x = SpatioTemporalTensor(rng.uniform(0, 100, size=(3000, 170, 3)),
                                 interval_minutes=5)
        data_path = str(tmp_path / "bench.sttf")
        save_tensor(x, data_path)
        serial = _timed_scorr(data_path, str(tmp_path / "bench.scor"), 1)
        print(f"\n    serial: {serial:.1f}s for 43095 pair-attrs")
        assert serial < 600.0, f"serial run took {serial:.1f}s"
        cores = os.cpu_count() or 1
        if cores >= 8:
            eight = _timed_scorr(data_path, str(tmp_path / "bench8.scor"), 8)
            speedup = serial / eight
            print(f"    8 workers: {eight:.1f}s, speedup {speedup:.2f}x")
            assert speedup >= 5.0, f"speedup only {speedup:.2f}x"
        else:
            print(f"    speedup sub-check not run: host exposes {cores} "
                  f"core(s), needs 8")
