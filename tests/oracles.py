"""Deliberately slow, loop-based reference implementations used as test oracles.

Everything here is written with plain Python loops, dicts, and math.log2 so it
shares no code path with the vectorized library implementations it checks.
There are two exceptions. `tcorr_per_window` loops the one-pair `mic_full`
over windows: it checks how compute_tcorr batches and averages windows, while
`mic_brute_force` checks MIC itself. `attention_by_ops` composes the attention
core from separate autodiff nodes (matmul, scale, a softmax node written here
in numpy, matmul): it checks the fused attention node's hand-written backward
against the chain rule the engine applies op by op, while the
finite-difference checks test both. As the dynamic route of an op-by-op
graph layer, it is also what `graph_layer`'s forward matches bit for bit.
`synthetic_by_sines` is the synthetic generator as one sine pass per
harmonic and series, the form `generate_synthetic` replaced with a shared
basis; it takes the harmonic tables from the library.
`mul`, `permute` and `relu` are autodiff nodes for ops that the engine runs
only inside its fused nodes, so that the op-by-op oracles can compose them.
`graph_nodes` is not an oracle: it is the one autograph walk that the
graph-structure tests share, and `traced_peak` is the one tracemalloc
measurement that the memory tests share. `graph_route_inputs` and
`KINK_MARGIN` are not oracles either: they keep the finite-difference draws
of a graph layer away from its relu kinks.
"""

import math
import tracemalloc

import numpy as np

from corrstn import autodiff as ad
from corrstn import mic_full
from corrstn.data import _DAILY_HARMONICS, _WEEKLY_HARMONICS


def stable_ranks(values):
    """Rank of each value, ties resolved by input position (stable)."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0] * len(values)
    for r, i in enumerate(order):
        ranks[i] = r
    return ranks


def grid_shapes(m, eta):
    """Every (a, b) with a, b >= 2 and a*b < m**eta; 2x2 fallback if empty."""
    bound = float(m) ** eta
    shapes = []
    a = 2
    while a * 2 < bound:
        b = 2
        while a * b < bound:
            shapes.append((a, b))
            b += 1
        a += 1
    return shapes or [(2, 2)]


def mi_bits_from_cells(cells, m):
    """Mutual information in bits from a {(a, b): count} cell dict."""
    row = {}
    col = {}
    for (a, b), c in cells.items():
        row[a] = row.get(a, 0) + c
        col[b] = col.get(b, 0) + c
    total = 0.0
    for (a, b), c in cells.items():
        q = c / m
        total += q * math.log2(q / ((row[a] / m) * (col[b] / m)))
    return total


def mic_brute_force(x, y, eta=0.6):
    """Exhaustive equal-count grid search, evaluated cell by cell."""
    m = len(x)
    assert m == len(y) and m >= 2
    if max(x) == min(x) or max(y) == min(y):
        return 0.0
    rx = stable_ranks(list(x))
    ry = stable_ranks(list(y))
    best = 0.0
    for a, b in grid_shapes(m, eta):
        cells = {}
        for i in range(m):
            cell = ((rx[i] * a) // m, (ry[i] * b) // m)
            cells[cell] = cells.get(cell, 0) + 1
        mic_ab = mi_bits_from_cells(cells, m) / math.log2(min(a, b))
        if mic_ab > best:
            best = mic_ab
    return min(max(best, 0.0), 1.0)


def tcorr_per_window(source, target, offset, tau, anchors):
    """Anchor-average of mic_full(period block, target block) for every
    sensor and attribute, one window at a time, summed in anchor order."""
    _, n, c = target.shape
    acc = np.zeros((n, c))
    for t in anchors:
        block = source[t - offset + 1:t - offset + 1 + tau]
        after = target[t + 1:t + 1 + tau]
        for i in range(n):
            for a in range(c):
                acc[i, a] += mic_full(block[:, i, a], after[:, i, a]).value
    return acc / len(anchors)


def encoder_by_gather(series, anchors, periods, offsets, horizon):
    """Encoder input one anchor at a time: for anchor t, each period's block
    series[t - offset + 1 : t - offset + 1 + horizon], side by side along
    the time axis in the order `periods` lists them."""
    samples = []
    for t in anchors:
        blocks = [series[t - offsets[p] + 1:t - offsets[p] + 1 + horizon]
                  for p in periods]
        samples.append(np.concatenate(blocks))
    return np.stack(samples)


def synthetic_by_sines(n_sensors, weeks, daily_amplitude=1.0,
                       weekly_amplitude=0.0, noise_sigma=0.1, seed=0,
                       interval_minutes=5, n_attributes=1, base=10.0):
    """The (T, N, C) series of generate_synthetic, one np.sin per harmonic."""
    per_day = 24 * 60 // interval_minutes
    per_week = 7 * per_day
    t_total = weeks * per_week
    rng = np.random.default_rng(seed)
    tt = np.arange(t_total, dtype=np.float64)
    data = np.empty((t_total, n_sensors, n_attributes))
    daily_ks = [k for k in _DAILY_HARMONICS if k <= per_day // 3]
    weekly_ks = [k for k in _WEEKLY_HARMONICS if k <= per_week // 3]
    for s in range(n_sensors):
        for a in range(n_attributes):
            wave = np.full(t_total, base)
            if daily_amplitude != 0.0:
                scale = daily_amplitude / np.sqrt(len(daily_ks))
                for k in daily_ks:
                    phase = rng.uniform(0.0, 2.0 * np.pi)
                    wave = wave + scale * np.sin(2.0 * np.pi * k * tt / per_day + phase)
            if weekly_amplitude != 0.0:
                scale = weekly_amplitude / np.sqrt(len(weekly_ks))
                for k in weekly_ks:
                    phase = rng.uniform(0.0, 2.0 * np.pi)
                    wave = wave + scale * np.sin(2.0 * np.pi * k * tt / per_week + phase)
            if noise_sigma > 0.0:
                wave = wave + rng.normal(0.0, noise_sigma, t_total)
            data[:, s, a] = wave
    return data


def metrics_brute_force(pred, truth):
    """Point-by-point MAE, RMSE, and zero-target-masked MAPE."""
    pred = list(pred)
    truth = list(truth)
    assert len(pred) == len(truth)
    abs_errors = [abs(p - t) for p, t in zip(pred, truth)]
    mae = sum(abs_errors) / len(abs_errors)
    rmse = math.sqrt(sum(e * e for e in abs_errors) / len(abs_errors))
    ape = [abs(p - t) / abs(t) for p, t in zip(pred, truth) if t != 0]
    mape = sum(ape) / len(ape) if ape else float("nan")
    return mae, rmse, mape


def finite_difference_gradient(f, x, h=1.5e-4):
    """Five-point-stencil gradient of a scalar function of one array:
    (f(x - 2s) - 8 f(x - s) + 8 f(x + s) - f(x + 2s)) / 12s per element,
    whose truncation error is O(s^4) against the central difference's
    O(s^2).

    f takes an ndarray and returns a float. A private contiguous float64
    copy of x is perturbed one element at a time, with a step s = h scaled
    to the element's magnitude, and passed to f; a non-contiguous view
    works too. The default h was measured on criterion 6's rows over its 20
    seeds: the worst gap is 2.7e-7 at h = 1e-4, 1.3e-7 at 1.5e-4, 8.8e-8
    at 2e-4 and 3.3e-8 at 1e-3, while at 2e-3 the CIGNN layer row's stencil
    crossed a relu kink (a route input of 8.9e-3) before that row, like the
    graph layer op row, redrew its inputs away from the kinks. Other callers
    draw near relus too, so h stays well below that.
    """
    x = np.array(x, dtype=np.float64, order="C")
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        step = h * max(1.0, abs(flat[i]))
        keep = flat[i]
        values = []
        for k in (-2, -1, 1, 2):
            flat[i] = keep + k * step
            values.append(f(x))
        flat[i] = keep
        out[i] = (values[0] - 8.0 * values[1] + 8.0 * values[2] - values[3]) \
            / (12.0 * step)
    return grad


def gradient_gap(analytic, numeric, floor=1e-3):
    """Worst elementwise relative error between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def softmax_rows(scores):
    """Stable softmax over the last axis, written as an explicit loop."""
    scores = np.asarray(scores, dtype=np.float64)
    out = np.empty_like(scores)
    flat_in = scores.reshape(-1, scores.shape[-1])
    flat_out = out.reshape(-1, scores.shape[-1])
    for r in range(flat_in.shape[0]):
        shifted = flat_in[r] - flat_in[r].max()
        e = np.exp(shifted)
        flat_out[r] = e / e.sum()
    return out


def multi_head_attention(q, k, v, heads, w_out, b_out=None, mask=None):
    """Plain scaled-dot-product multi-head attention, one head at a time.

    q, k, v are already projected, shaped (..., L, d_model); the output
    projection w_out is (d_model, d_model).
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d_model = q.shape[-1]
    assert d_model % heads == 0
    d_head = d_model // heads
    mixed = np.empty(q.shape[:-2] + (q.shape[-2], d_model))
    for h in range(heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        scores = q[..., sl] @ np.swapaxes(k[..., sl], -1, -2) / math.sqrt(d_head)
        if mask is not None:
            scores = np.where(mask, -np.inf, scores)
        weights = softmax_rows(scores)
        if mask is not None:
            weights = np.where(mask, 0.0, weights)
        mixed[..., sl] = weights @ v[..., sl]
    out = mixed @ np.asarray(w_out, dtype=np.float64)
    if b_out is not None:
        out = out + np.asarray(b_out, dtype=np.float64)
    return out


def top_u_mixing_by_loop(degrees, u):
    """The top-U mixing matrix, one sensor and attribute at a time: the u
    peers of highest degree, ties to the lower index, softmaxed, each weight
    divided by C and added into the sensor's row. degrees is (N, N, C)."""
    n, c = len(degrees), len(degrees[0][0])
    mixing = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for attr in range(c):
            row = [float(degrees[i][j][attr]) for j in range(n)]
            peers = sorted(range(n), key=lambda j: (-row[j], j))[:u]
            exps = [math.exp(row[j]) for j in peers]
            total = sum(exps)
            for j, e in zip(peers, exps):
                mixing[i][j] += e / total / c
    return np.array(mixing)


def plain_gnn(adjacency, z, w):
    """Single graph layer: relu(A Z W) with no correlation branches."""
    pre = np.asarray(adjacency) @ np.asarray(z) @ np.asarray(w)
    return np.maximum(pre, 0.0)


# a finite-difference draw that puts a relu input closer than this to 0 is
# redrawn, so no stencil point crosses a kink: it is 300 default steps and
# keeps every graph layer gap under 1e-8 for steps up to 3e-3
KINK_MARGIN = 0.05


def graph_route_inputs(z, w, stack, adj):
    """The inputs of a graph layer's relus, computed apart from the node:
    each correlation route stack[c] over softmax(z z^T / sqrt(d)) z w, then
    the structural route adj over z w, flattened into one array."""
    zw = z @ w
    x = softmax_rows(z @ np.swapaxes(z, -1, -2) / np.sqrt(z.shape[-1])) @ zw
    return np.concatenate([(stack @ x[..., None, :, :]).ravel(),
                           (adj @ zw).ravel()])


def layer_norm_by_xhat(x, gain, bias, g, eps=1e-5):
    """Layer norm over the last axis and, for output gradient g, the
    gradients of x, the gain and the bias, from a normalized xhat kept
    whole: the textbook backward (Ba et al., Layer Normalization, 2016),
    which never divides by the gain."""
    centred = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centred ** 2).mean(axis=-1, keepdims=True) + eps)
    xhat = centred * inv_std
    scaled = g * gain
    gx = inv_std * (scaled - scaled.mean(axis=-1, keepdims=True)
                    - xhat * (scaled * xhat).mean(axis=-1, keepdims=True))
    axes = tuple(range(x.ndim - 1))
    return xhat * gain + bias, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def _softmax_node(scores, mask=None):
    """Softmax along the last axis of a tensor as one autodiff node, in
    numpy; True entries of mask get probability exactly 0."""
    z = scores.data.copy()
    if mask is not None:
        z[np.broadcast_to(mask, z.shape)] = -np.inf
    z = np.exp(z - z.max(axis=-1, keepdims=True))
    p = z / z.sum(axis=-1, keepdims=True)

    def backward(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)
    return ad._result(p, (scores,), backward)


def mul(a, b):
    """Broadcast elementwise product as one autodiff node, for the op-by-op
    oracles; the engine multiplies two tensors only inside its fused nodes.
    Each factor's gradient reads the other factor."""
    a_shape, b_shape = a.shape, b.shape
    a_data, b_data = a.data, b.data

    def backward(g):
        return (ad._unbroadcast(g * b_data, a_shape),
                ad._unbroadcast(g * a_data, b_shape))
    return ad._result(a_data * b_data, (a, b), backward)


def permute(a, axes):
    """Axes of a reordered, as one autodiff node, for the op-by-op oracles;
    the engine reorders axes only on views inside its fused nodes."""
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inverse),)
    return ad._result(np.transpose(a.data, axes), (a,), backward)


def relu(a):
    """max(a, 0) as one autodiff node, for the op-by-op oracles; the engine
    rectifies only inside its graph-layer node."""
    mask = a.data > 0

    def backward(g):
        return (g * mask,)
    return ad._result(np.where(mask, a.data, 0.0), (a,), backward)


def attention_by_ops(q, k, v, scale, mask=None):
    """softmax(q k^T * scale) v built from one autodiff node per step."""
    swap = (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2)
    scores = mul(ad.matmul(q, permute(k, swap)), ad.Tensor(scale))
    return ad.matmul(_softmax_node(scores, mask), v)


def temporal_conv_by_loop(x, kernel, bias, g):
    """Same-length convolution along axis -3 of x (..., T, S, d_in) by a
    (k, d_in, d_out) kernel, zero outside [0, T), one (d_in, d_out) product
    per offset and row. Returns the output and, for output gradient g, the
    gradients of x, the kernel and the bias."""
    k, d_in, d_out = kernel.shape
    t_len = x.shape[-3]
    out = np.broadcast_to(bias, x.shape[:-1] + (d_out,)).copy()
    gx, gk = np.zeros_like(x), np.zeros_like(kernel)
    for t in range(t_len):
        for o in range(k):
            source = t + o - (k - 1) // 2
            if 0 <= source < t_len:
                out[..., t, :, :] += x[..., source, :, :] @ kernel[o]
                gx[..., source, :, :] += g[..., t, :, :] @ kernel[o].T
                gk[o] += (x[..., source, :, :].reshape(-1, d_in).T
                          @ g[..., t, :, :].reshape(-1, d_out))
    return out, gx, gk, g.reshape(-1, d_out).sum(axis=0)


def broadcast_weight_grad(a, g):
    """Gradient of sum(g * (a @ w)) with respect to a 2-D w, summed one
    slice of a's leading axes at a time."""
    a = np.asarray(a, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    total = np.zeros((a.shape[-1], g.shape[-1]))
    for index in np.ndindex(*a.shape[:-2]):
        total += a[index].T @ g[index]
    return total


def graph_nodes(out):
    """The autograph nodes with a backward closure that are reachable from
    tensor out, found by walking `_node.parents`; empty when out has none."""
    seen, stack, nodes = set(), [out._node], []
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen.add(id(node))
            if node.backward is not None:
                nodes.append(node)
            stack.extend(node.parents)
    return nodes


def traced_peak(fn):
    """(peak bytes, result) of fn(): the most that tracemalloc saw allocated
    and not yet freed while fn ran, counting only what fn allocated."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def kept_values(node):
    """Every value a node's backward closure or its recipe holds: directly,
    in a list or tuple, or through a function it holds."""
    found, seen, todo = [], set(), [node.backward, node.recipe]
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        found.append(value)
        if isinstance(value, (list, tuple)):
            todo.extend(value)
        elif callable(value) and getattr(value, "__closure__", None):
            todo.extend(cell.cell_contents for cell in value.__closure__)
    return found
