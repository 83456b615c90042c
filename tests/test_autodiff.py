import ast
import itertools
import weakref
from pathlib import Path

import numpy as np
import pytest

import corrstn
from corrstn import Tensor, autodiff
from corrstn.autodiff import (Module, Parameter, add, attention,
                              graph_layer, layer_norm, linear,
                              linear_conv1d_temporal, mae_loss, matmul, narrow,
                              no_grad, reshape, xavier_uniform)
from corrstn.errors import ConfigError, DimensionError, GraphError
from oracles import (KINK_MARGIN, attention_by_ops, broadcast_weight_grad,
                     finite_difference_gradient, gradient_gap,
                     graph_route_inputs, graph_nodes, kept_values,
                     layer_norm_by_xhat, mul, permute, relu,
                     temporal_conv_by_loop, traced_peak)


def _check_op(build, *shapes, seed=0, tol=1e-6, offset=0.0, kinks=None):
    """FD-check d(sum of op output)/d(input) for every input slot. With
    kinks, a function of the drawn arrays that gives the op's relu inputs,
    the arrays are redrawn while one lies within KINK_MARGIN of 0."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) + offset for s in shapes]
    while kinks is not None and np.abs(kinks(*arrays)).min() < KINK_MARGIN:
        arrays = [rng.normal(size=s) + offset for s in shapes]
    for slot in range(len(arrays)):
        tensors = [Tensor(a.copy(), requires_grad=(k == slot))
                   for k, a in enumerate(arrays)]
        out = build(*tensors)
        out.backward(np.ones_like(out.data))
        analytic = tensors[slot].grad

        def scalar(a, slot=slot):
            probe = [Tensor(x.copy()) for x in arrays]
            probe[slot] = Tensor(a)
            return float(np.sum(build(*probe).data))

        numeric = finite_difference_gradient(scalar, arrays[slot])
        gap = gradient_gap(analytic, numeric)
        assert gap < tol, f"slot {slot}: {gap}"


def test_arithmetic_gradients():
    _check_op(add, (3, 4), (3, 4))
    _check_op(mul, (3, 4), (3, 4))


def test_broadcast_gradients():
    _check_op(add, (2, 3, 4), (4,))
    _check_op(mul, (2, 3, 4), (1, 3, 1))
    _check_op(add, (5, 1), (1, 5))


def test_matmul_gradients():
    _check_op(matmul, (3, 4), (4, 5))
    _check_op(matmul, (2, 3, 4), (4, 5))        # broadcast rhs
    _check_op(matmul, (2, 1, 3, 4), (2, 6, 4, 5))  # batched broadcast
    with pytest.raises(DimensionError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_linear_gradients():
    _check_op(lambda x, w, b: linear(x, w, b), (4, 3), (3, 2), (2,))


def test_relu_and_abs_gradients():
    # keep inputs away from the kinks at zero; the loss's absolute value runs
    # on both sides of its target
    _check_op(relu, (4, 4), offset=0.7)
    _check_op(relu, (4, 4), offset=-0.7)
    _check_op(lambda a: mae_loss(a, np.zeros((4, 4))), (4, 4), offset=0.8)
    _check_op(lambda a: mae_loss(a, np.zeros((4, 4))), (4, 4), offset=-0.8)


def test_abs_subgradient_zero_at_zero():
    # where pred equals its target, the loss's absolute value has
    # subgradient 0
    t = Tensor(np.array([1.0, 2.0, -3.0]), requires_grad=True)
    mae_loss(t, np.array([1.0, 0.0, -3.0])).backward()
    assert np.array_equal(t.grad, np.array([0.0, 1.0 / 3, 0.0]))


def test_reduction_gradients():
    # the loss reduces every axis, whatever the rank; its targets sit 3 away
    # from the draws, above and below them in turn
    for shape in ((5,), (3, 4), (2, 3, 4), (1, 3, 2, 1)):
        target = 3.0 * (-1.0) ** np.arange(np.prod(shape)).reshape(shape)
        _check_op(lambda a: mae_loss(a, target), shape)


def test_mae_loss_is_one_node_with_the_chain_bits():
    # the bits of a difference, abs, a sum over every axis and a scaling by
    # 1/size; the gradient is 1/size times the difference's sign
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    pred = linear(Tensor(rng.normal(size=(2, 3, 4))), w, Tensor(rng.normal(size=5)))
    target = rng.normal(size=(2, 3, 5))
    loss = mae_loss(pred, target)
    assert len(graph_nodes(loss)) == len(graph_nodes(pred)) + 1
    diff = pred.data - target
    assert loss.data.tobytes() == (np.abs(diff).sum(axis=(0, 1, 2)) * (1.0 / 30)).tobytes()
    leaf = Tensor(pred.data, requires_grad=True)
    mae_loss(leaf, target).backward()
    assert leaf.grad.tobytes() == (np.broadcast_to(1.0 / 30, diff.shape)
                                   * np.sign(diff)).tobytes()
    assert mae_loss(Tensor(pred.data), target)._node is None
    with pytest.raises(DimensionError):
        mae_loss(leaf, target[..., :4])


def test_shape_op_gradients():
    _check_op(lambda a: reshape(a, (6, 2)), (3, 4))
    _check_op(lambda a: permute(a, (2, 0, 1)), (2, 3, 4))
    _check_op(lambda a: narrow(a, 1, 1, 2), (3, 4))


def test_temporal_conv_gradients():
    _check_op(linear_conv1d_temporal, (1, 4, 2, 3), (3, 2), (2,), (3, 2, 2), (2,))
    # windows wider than T
    _check_op(linear_conv1d_temporal, (3, 1, 2), (2, 2), (2,), (5, 2, 3), (3,))


def _grad_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("k", [1, 3, 5, 9])
def test_temporal_conv_matches_loop(k):
    # the fused node against a numpy projection under the loop conv: forward
    # and all five gradients to 1e-12, for every subset of trainable
    # operands; with k = 5 and 9 the window is wider than T = 4, and with
    # k = 9 two offsets miss every row
    rng = np.random.default_rng(k)
    x, w, b = rng.normal(size=(2, 4, 3, 5)), rng.normal(size=(5, 6)), rng.normal(size=6)
    kernel, conv_bias = rng.normal(size=(k, 6, 7)), rng.normal(size=7)
    g = rng.normal(size=(2, 4, 3, 7))
    want, gp, gk, gcb = temporal_conv_by_loop(x @ w + b, kernel, conv_bias, g)
    grads = (gp @ w.T, x.reshape(-1, 5).T @ gp.reshape(-1, 6),
             gp.reshape(-1, 6).sum(axis=0), gk, gcb)
    arrays = (x, w, b, kernel, conv_bias)
    for size in range(6):
        for trainable in itertools.combinations(range(5), size):
            tensors = [Tensor(a, requires_grad=i in trainable)
                       for i, a in enumerate(arrays)]
            out = linear_conv1d_temporal(*tensors)
            _grad_close(out.data, want)
            out.backward(g)
            for i, (tensor, grad) in enumerate(zip(tensors, grads)):
                if i in trainable:
                    _grad_close(tensor.grad, grad)
                else:
                    assert tensor.grad is None


def _kept_arrays(node):
    """The arrays a node's backward closure holds, however deep."""
    return [value for value in kept_values(node) if isinstance(value, np.ndarray)]


def _linear_conv_operands(seed):
    """x (B, T, S, d_in) = (2, 5, 3, 4), a (4, 6) weight and a (3, 6, 7)
    kernel: d_in, the projection's width and d_out all differ, so a kept
    array of the projection's shape cannot pass for x."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape)
            for shape in ((2, 5, 3, 4), (4, 6), (6,), (3, 6, 7), (7,))]


def test_temporal_conv_keeps_x_not_its_unfolding(monkeypatch):
    unfoldings = []
    unfold = autodiff._unfold_time

    def recorded(x, blocks, width):
        out = unfold(x, blocks, width)
        unfoldings.append((out.shape, weakref.ref(out)))
        return out
    monkeypatch.setattr(autodiff, "_unfold_time", recorded)
    tensors = [Tensor(a, requires_grad=True) for a in _linear_conv_operands(12)]
    out = linear_conv1d_temporal(*tensors)
    # the graph lives, and the (2, 3, 5, 18) unfolding of the projection,
    # time on axis -2, is gone already
    assert [shape for shape, _ in unfoldings] == [(2, 3, 5, 18)]
    assert unfoldings[0][1]() is None
    kept = _kept_arrays(out._node)
    assert any(a is tensors[0].data for a in kept)
    assert all(a.shape[-1] != 18 for a in kept)
    out.backward(np.random.default_rng(12).normal(size=out.shape))
    # backward unfolds the rebuilt projection one offset's window at a time,
    # each as wide as the projection
    assert [shape for shape, _ in unfoldings[1:]] == [(2, 3, 5, 6)] * 3
    assert all(ref() is None for _, ref in unfoldings)


def test_linear_conv_refuses_mismatched_shapes():
    x, w, b, kernel, conv_bias = (Tensor(a) for a in _linear_conv_operands(17))
    with pytest.raises(DimensionError):     # no position axis
        linear_conv1d_temporal(Tensor(np.ones((5, 4))), w, b, kernel, conv_bias)
    with pytest.raises(DimensionError):     # the weight does not take x
        linear_conv1d_temporal(x, Tensor(np.ones((3, 6))), b, kernel, conv_bias)
    with pytest.raises(DimensionError):     # the kernel does not take the projection
        linear_conv1d_temporal(x, w, b, Tensor(np.ones((3, 4, 7))), conv_bias)
    with pytest.raises(DimensionError):
        linear_conv1d_temporal(x, w, Tensor(np.ones(7)), kernel, conv_bias)
    with pytest.raises(DimensionError):
        linear_conv1d_temporal(x, w, b, kernel, Tensor(np.ones(6)))


@pytest.mark.parametrize("trainable", [(0, 1, 2, 3, 4), (3,), (0,), (1, 2)])
def test_linear_conv_keeps_x_not_the_projection(monkeypatch, trainable):
    unfoldings = []
    unfold = autodiff._unfold_time

    def recorded(x, blocks, width):
        out = unfold(x, blocks, width)
        unfoldings.append(weakref.ref(out))
        return out
    monkeypatch.setattr(autodiff, "_unfold_time", recorded)
    tensors = [Tensor(a, requires_grad=i in trainable)
               for i, a in enumerate(_linear_conv_operands(18))]
    x = tensors[0]
    out = linear_conv1d_temporal(*tensors)
    # neither the projection, in either layout, nor its unfolding outlives
    # the forward; the node keeps x, which the kernel's and the weight's
    # gradients read, whichever operands are trainable
    kept = _kept_arrays(out._node)
    assert all(a.size < 2 * 5 * 3 * 6 for a in kept)
    assert any(a is x.data for a in kept)
    assert all(ref() is None for ref in unfoldings)
    out.backward(np.ones(out.shape))
    assert all(ref() is None for ref in unfoldings)
    with no_grad():
        assert linear_conv1d_temporal(*tensors)._node is None


def test_second_backward_through_a_consumed_graph_raises():
    rng = np.random.default_rng(19)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2,)), requires_grad=True)
    hidden = linear(Tensor(rng.normal(size=(4, 3))), w, b)
    loss = mae_loss(relu(hidden), np.zeros((4, 2)))
    other = mae_loss(hidden, np.ones((4, 2)))
    loss.backward()
    grads = [t.grad.tobytes() for t in (loss, w, b)]
    # the same root, and another root whose graph shares a consumed node
    for root in (loss, other):
        with pytest.raises(GraphError, match="consumed"):
            root.backward()
        assert [t.grad.tobytes() for t in (loss, w, b)] == grads
    assert other.grad is None


def _core(q, k, v, scale, **kwargs):
    """The attention node under a constant identity output projection, which
    gives the core's own output and input gradients bit for bit: a product
    with the identity and an add of zeros round nothing."""
    width = v.shape[-1]
    return attention(q, k, v, Tensor(np.eye(width)), Tensor(np.zeros(width)),
                     scale, **kwargs)


_ROUTE_STACK = np.random.default_rng(13).normal(size=(3, 4, 4))
_ROUTE_ADJ = np.random.default_rng(14).uniform(0.0, 1.0, size=(4, 4))


def _graph_layer_by_ops(z, w, psi, omega):
    """The graph layer as separate ops: matmul for ZW, the attention oracle
    for the dynamic route X, then each correlation route's matmul, relu and
    scaling by its entry of psi, added in order, then the structural
    route's matmul, relu and scaling over ZW, then the add."""
    zw = matmul(z, w)
    x = attention_by_ops(z, z, zw, 1.0 / np.sqrt(z.shape[-1]))
    out = None
    for c in range(3):
        route = mul(relu(matmul(Tensor(_ROUTE_STACK[c]), x)), narrow(psi, 0, c, 1))
        out = route if out is None else add(out, route)
    return add(out, mul(relu(matmul(Tensor(_ROUTE_ADJ), zw)), omega))


def _graph_layer(z, w, psi, omega):
    return graph_layer(z, w, _ROUTE_STACK, psi, _ROUTE_ADJ, omega)


def _graph_layer_operands(seed):
    """z (2, 5, 4, 3) and a (3, 10) weight: ZW and X are (2, 5, 4, 10), so
    a kept array of their shape cannot pass for z, and each relu mask packs
    10 bits into 2 bytes."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(2, 5, 4, 3)), rng.normal(size=(3, 10)),
            rng.uniform(0.2, 1.0, size=3), rng.uniform(0.2, 1.0, size=1)]


def test_graph_layer_matches_op_by_op():
    # forward bit-equal to matmul, attention and the routes as separate
    # ops, gradients to 1e-12, for every subset of trainable operands
    arrays = _graph_layer_operands(15)
    for size in range(5):
        for trainable in itertools.combinations(range(4), size):
            _compare_to_ops(_graph_layer, _graph_layer_by_ops, arrays, set(trainable))
    _check_op(_graph_layer, (2, 4, 3), (3, 3), (3,), (1,), offset=0.5,
              kinks=lambda z, w, psi, omega: graph_route_inputs(
                  z, w, _ROUTE_STACK, _ROUTE_ADJ))
    z, w, psi, omega = (Tensor(a) for a in arrays)
    with pytest.raises(DimensionError):
        _graph_layer(z, w, Tensor(np.ones(2)), omega)
    with pytest.raises(DimensionError):
        _graph_layer(Tensor(np.ones((2, 3, 3))), Tensor(np.ones((3, 10))), psi, omega)
    with pytest.raises(DimensionError):
        _graph_layer(z, Tensor(np.ones((4, 10))), psi, omega)
    with pytest.raises(DimensionError):
        graph_layer(z, w, _ROUTE_STACK, psi, np.eye(3), omega)


@pytest.mark.parametrize("trainable", [(0, 1, 2, 3), (0,), (1,), (2,), (3,)])
def test_graph_layer_keeps_z_stats_and_bit_masks(monkeypatch, trainable):
    # whichever operands are trainable, the node keeps z, each weights
    # row's softmax max and sum and one relu mask per route packed 8 to a
    # byte: no float array the size of ZW or of X = S_w ZW, and no route
    tensors = [Tensor(a, requires_grad=i in trainable)
               for i, a in enumerate(_graph_layer_operands(16))]
    z = tensors[0]
    out = _graph_layer(*tensors)
    kept = _kept_arrays(out._node)
    floats = [a for a in kept if a.dtype == np.float64]
    assert any(a is z.data for a in floats)
    assert all(a is z.data or a.size < z.data.size for a in floats)
    assert not any(a.size >= out.data.size for a in floats)
    assert [a.shape for a in floats if a.shape[-1] == 1] == [(2, 5, 4, 1)] * 2
    masks = [a for a in kept if a.dtype != np.float64]
    assert [(a.dtype, a.shape) for a in masks] == [(np.uint8, (2, 5, 4, 2))] * 4
    # backward releases the node's closure, and with it z, the stats and
    # the masks
    out.backward(np.ones(out.shape))
    assert _kept_arrays(out._node) == [] and out._node.parents == ()
    # under no_grad it keeps nothing and packs no mask
    packed = []
    packbits = np.packbits

    def counted(*args, **kwargs):
        packed.append(args)
        return packbits(*args, **kwargs)
    monkeypatch.setattr(np, "packbits", counted)
    with no_grad():
        assert _graph_layer(*tensors)._node is None
    assert packed == []


def test_blocked_graph_layer_is_bit_equal_to_one_block(monkeypatch):
    # one block, and blocks of one score slice: the output and every
    # gradient have the same bits, psi's and omega's too, which sum one
    # term per slice of the leading axes
    arrays = _graph_layer_operands(17)
    g = np.random.default_rng(18).normal(size=(2, 5, 4, 10))
    runs = []
    for block_bytes in (1 << 40, 1):
        monkeypatch.setattr(autodiff, "_BLOCK_BYTES", block_bytes)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = _graph_layer(*tensors)
        out.backward(g)
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in tensors])
    assert runs[0] == runs[1]


# (L_q, L_k, mask): square, rectangular, causal and a rectangular mask that
# leaves every query row at least one key
_ATTENTION_CASES = [
    (5, 5, None),
    (3, 7, None),
    (5, 5, np.triu(np.ones((5, 5), dtype=bool), k=1)),
    (3, 7, np.triu(np.ones((3, 7), dtype=bool), k=2)),
]


def _compare_to_ops(fused, oracle, arrays, trainable, exact=True):
    """Run fused and oracle on the same operands with only the `trainable`
    slots requiring a gradient: forward bit-equal (within 1e-12 unless
    exact), gradients to 1e-12, and no gradient on the other slots."""
    outputs, grads = [], []
    for build in (fused, oracle):
        tensors = [Tensor(a.copy(), requires_grad=(i in trainable))
                   for i, a in enumerate(arrays)]
        out = build(*tensors)
        out.backward(np.random.default_rng(len(trainable)).normal(size=out.shape))
        outputs.append(out.data)
        grads.append([t.grad for t in tensors])
    if exact:
        assert np.array_equal(outputs[0], outputs[1])
    else:
        _grad_close(outputs[0], outputs[1])
    for slot, (got, want) in enumerate(zip(*grads)):
        if slot in trainable:
            _grad_close(got, want)
        else:
            assert got is None and want is None


def _split_by_ops(x, heads):
    """(..., L, S, d) -> (..., S, H, L, d/H) through reshape and permute nodes."""
    split = reshape(x, x.shape[:-1] + (heads, x.shape[-1] // heads))
    m = split.ndim
    return permute(split, (*range(m - 4), m - 3, m - 2, m - 4, m - 1))


def _merge_by_ops(x):
    """(..., S, H, L, d) -> (..., L, S, H*d) through permute and reshape nodes."""
    m = x.ndim
    merged = permute(x, (*range(m - 4), m - 2, m - 4, m - 3, m - 1))
    return reshape(merged, merged.shape[:-2] + (merged.shape[-2] * merged.shape[-1],))


def _headed_by_ops(q, k, v, scale, heads, mask=None):
    """The attention oracle on position-major operands whose heads are split
    and merged again explicitly by graph ops."""
    split = (_split_by_ops(t, heads) for t in (q, k, v))
    return _merge_by_ops(attention_by_ops(*split, scale, mask=mask))


def _attention_case_operands(l_q, l_k):
    """Position-major q (2, L_q, 3, 4), k (2, L_k, 3, 4) and v (2, L_k, 3, 6)."""
    rng = np.random.default_rng(l_q * 10 + l_k)
    return [rng.normal(size=(2, l_q, 3, 4)), rng.normal(size=(2, l_k, 3, 4)),
            rng.normal(size=(2, l_k, 3, 6))]


@pytest.mark.parametrize("l_q, l_k, mask", _ATTENTION_CASES)
def test_fused_attention_matches_op_by_op(l_q, l_k, mask):
    # one head over all 4 columns of each of the 3 positions
    scale = 1.0 / np.sqrt(4)
    for trainable in ({0}, {1}, {2}, {0, 1, 2}):
        _compare_to_ops(lambda q, k, v: _core(q, k, v, scale, heads=1, mask=mask),
                        lambda q, k, v: _headed_by_ops(q, k, v, scale, 1, mask),
                        _attention_case_operands(l_q, l_k), trainable)


@pytest.mark.parametrize("l_q, l_k, mask", _ATTENTION_CASES)
def test_rowwise_attention_matches_op_by_op(l_q, l_k, mask):
    # its per-row products may round differently from the oracle's GEMMs
    scale = 1.0 / np.sqrt(4)
    for trainable in ({0}, {1}, {2}, {0, 1, 2}):
        _compare_to_ops(
            lambda q, k, v: _core(q, k, v, scale, heads=1, mask=mask, rowwise=True),
            lambda q, k, v: _headed_by_ops(q, k, v, scale, 1, mask),
            _attention_case_operands(l_q, l_k), trainable, exact=False)


@pytest.mark.parametrize("causal", [False, True])
def test_rowwise_attention_rows_do_not_depend_on_query_count(causal):
    # position-major (B, L, S, d) with 2 heads, as the decoder runs it: each
    # query step alone has the bits of the same step among all 12
    rng = np.random.default_rng(41)
    q = rng.normal(size=(2, 12, 3, 8))
    k = rng.normal(size=(2, 12, 3, 8))
    v = rng.normal(size=(2, 12, 3, 8))
    mask = np.triu(np.ones((12, 12), dtype=bool), k=1) if causal else None
    together = _core(Tensor(q), Tensor(k), Tensor(v), 0.35, heads=2, mask=mask,
                     rowwise=True).data
    for t in range(12):
        alone = _core(Tensor(q[:, t:t + 1]), Tensor(k), Tensor(v), 0.35, heads=2,
                      mask=None if mask is None else mask[t:t + 1],
                      rowwise=True).data
        assert np.array_equal(alone[:, 0], together[:, t]), t


def test_fused_attention_of_one_operand_matches_op_by_op():
    # Z as queries and keys of the encoder's headed core
    scale = 1.0 / np.sqrt(2)
    rng = np.random.default_rng(9)
    arrays = [rng.normal(size=(2, 6, 3, 4)), rng.normal(size=(2, 6, 3, 4))]
    for trainable in ({0}, {0, 1}):
        _compare_to_ops(lambda z, v: _core(z, z, v, scale, heads=2),
                        lambda z, v: _headed_by_ops(z, z, v, scale, 2),
                        arrays, trainable)


def test_attention_of_one_inner_node_as_queries_and_keys_gets_both_gradients():
    # q is k: the node producing them is listed twice in the attention
    # node's operands, so the walk must count both consumers before running
    # it and hand it both contributions
    scale = 1.0 / np.sqrt(2)
    rng = np.random.default_rng(10)
    arrays = [rng.normal(size=(2, 6, 3, 3)), rng.normal(size=(3, 4)),
              rng.normal(size=(4,)), rng.normal(size=(2, 6, 3, 4))]

    def fused(x, w, b, v):
        z = linear(x, w, b)
        return _core(z, z, v, scale, heads=2)

    def oracle(x, w, b, v):
        z = linear(x, w, b)
        return _headed_by_ops(z, z, v, scale, 2)
    for trainable in ({0}, {1, 2}, {0, 1, 2, 3}):
        _compare_to_ops(fused, oracle, arrays, trainable)


def test_fused_attention_gradients_and_checks():
    mask = np.triu(np.ones((4, 5), dtype=bool), k=2)
    shapes = (2, 4, 3, 4), (2, 5, 3, 4), (2, 5, 3, 2)
    _check_op(lambda q, k, v: _core(q, k, v, 0.5, heads=2, mask=mask), *shapes)
    _check_op(lambda q, k, v: _core(q, k, v, 0.5, heads=2, mask=mask, rowwise=True),
              *shapes)
    with pytest.raises(DimensionError):     # queries and keys of other widths
        _core(Tensor(np.ones((4, 1, 3))), Tensor(np.ones((5, 1, 2))),
              Tensor(np.ones((5, 1, 2))), 1.0, heads=1)
    with pytest.raises(DimensionError):     # values for another number of keys
        _core(Tensor(np.ones((4, 1, 3))), Tensor(np.ones((5, 1, 3))),
              Tensor(np.ones((4, 1, 2))), 1.0, heads=1)
    with pytest.raises(ConfigError):
        _core(Tensor(np.ones((2, 1, 3))), Tensor(np.ones((2, 1, 3))),
              Tensor(np.ones((2, 1, 3))), 1.0, heads=1,
              mask=np.array([[True, True], [False, True]]))


@pytest.mark.parametrize("rowwise", [False, True])
@pytest.mark.parametrize("l_q, l_k, mask", _ATTENTION_CASES)
def test_head_split_attention_matches_op_by_op(l_q, l_k, mask, rowwise):
    # position-major operands (B, L, S, d) with 2 heads, against the oracle
    # on heads split explicitly by graph ops; the rowwise core's per-row
    # products may round differently from the oracle's GEMMs
    scale = 1.0 / np.sqrt(2)
    rng = np.random.default_rng(l_q * 10 + l_k)
    arrays = [rng.normal(size=(2, l_q, 3, 4)), rng.normal(size=(2, l_k, 3, 4)),
              rng.normal(size=(2, l_k, 3, 6))]

    for trainable in ({0}, {1}, {2}, {0, 1, 2}):
        _compare_to_ops(lambda q, k, v: _core(q, k, v, scale, heads=2, mask=mask,
                                              rowwise=rowwise),
                        lambda q, k, v: _headed_by_ops(q, k, v, scale, 2, mask),
                        arrays, trainable, exact=not rowwise)


def test_head_split_attention_checks():
    ones = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(ConfigError):      # 4 columns do not split into 3 heads
        _core(ones, ones, ones, 1.0, heads=3)
    with pytest.raises(DimensionError):   # keys for another number of positions
        _core(ones, Tensor(np.ones((2, 5, 4))), Tensor(np.ones((2, 5, 4))),
                  1.0, heads=2)
    with pytest.raises(DimensionError):   # no position axis
        _core(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))),
                  Tensor(np.ones((2, 4))), 1.0, heads=2)


def _attention_outputs(arrays, trainable, seed_grad, **kwargs):
    """The output of one attention call and the gradients of its trainable
    operands."""
    tensors = [Tensor(a, requires_grad=(i in trainable)) for i, a in enumerate(arrays)]
    out = _core(*tensors, 0.4, **kwargs)
    out.backward(seed_grad)
    return [out.data] + [t.grad for t in tensors if t.requires_grad]


_CAUSAL6 = np.triu(np.ones((6, 6), dtype=bool), k=1)

# (heads, mask, rowwise) over position-major operands: the encoder's core
# with one head and with two, a masked plain core, and the decoder's
# self-attention (masked, rowwise) and cross-attention (rowwise). The graph
# layer's plain core is checked by
# test_blocked_graph_layer_is_bit_equal_to_one_block
_CORES = [(1, None, False), (2, None, False), (2, _CAUSAL6, False),
          (2, _CAUSAL6, True), (2, None, True)]


@pytest.mark.parametrize("block_bytes", [1, 700, 2000])
@pytest.mark.parametrize("heads, mask, rowwise", _CORES)
def test_blocked_attention_is_bit_equal_to_one_block(monkeypatch, block_bytes,
                                                     heads, mask, rowwise):
    # 6 x 6 score slices of 288 bytes, 15 per head: blocks of one slice, of
    # one position's two heads (or two positions' one head) and of several
    # positions
    rng = np.random.default_rng(block_bytes)
    shape = (3, 6, 5, 4)
    arrays = [rng.normal(size=shape) for _ in range(3)]
    seed_grad = rng.normal(size=shape)
    counts = []
    blocks = autodiff._blocks

    def counted(lead, slice_bytes):
        found = blocks(lead, slice_bytes)
        counts.append(len(found))
        return found
    monkeypatch.setattr(autodiff, "_blocks", counted)
    for trainable in ({0}, {1}, {2}, {0, 1, 2}):
        runs = []
        for size in (1 << 40, block_bytes):
            monkeypatch.setattr(autodiff, "_BLOCK_BYTES", size)
            runs.append([a.tobytes() for a in _attention_outputs(
                arrays, trainable, seed_grad, heads=heads, mask=mask, rowwise=rowwise)])
        assert runs[0] == runs[1]
    assert set(counts[::2]) == {1} and min(counts[1::2]) >= 3


@pytest.mark.parametrize("block_bytes", [1, 700, 1 << 40])
@pytest.mark.parametrize("heads, mask, rowwise", _CORES)
def test_attention_gradients_match_backward_on_the_forward_weights(
        monkeypatch, block_bytes, heads, mask, rowwise):
    # whether the node keeps its weights or rebuilds them, its gradients are
    # those of the whole core's backward run on the weights the forward made
    rng = np.random.default_rng(block_bytes % 1000)
    shape = (3, 6, 5, 4)
    arrays = [rng.normal(size=shape) for _ in range(3)]
    seed_grad = rng.normal(size=shape)
    monkeypatch.setattr(autodiff, "_BLOCK_BYTES", block_bytes)
    indices, made = [], []
    blocks, attend = autodiff._blocks, autodiff._attend

    def recorded_blocks(lead, slice_bytes):
        found = blocks(lead, slice_bytes)
        indices[:] = found
        return found

    def recorded_attend(*args, **kwargs):
        p, out = attend(*args, **kwargs)
        made.append(p.copy())
        return p, out
    monkeypatch.setattr(autodiff, "_blocks", recorded_blocks)
    monkeypatch.setattr(autodiff, "_attend", recorded_attend)
    q, k, v = (autodiff._split_heads(a, heads) for a in arrays)
    for trainable in ({0}, {1}, {2}, {0, 1, 2}):
        made.clear()
        got = _attention_outputs(arrays, trainable, seed_grad, heads=heads,
                                 mask=mask, rowwise=rowwise)[1:]
        assert len(made) == len(indices)
        assert (len(indices) == 1) == (block_bytes == 1 << 40)
        weights = np.empty(q.shape[:-1] + (k.shape[-2],))
        for index, block in zip(indices, made):
            weights[index] = block
        want = [np.empty(t.shape) for t in (q, k, v)]
        autodiff._attend_backward(
            weights, autodiff._split_heads(seed_grad, heads), q, k, v, 0.4,
            tuple(want))
        assert [autodiff._split_heads(g, heads).tobytes() for g in got] == [
            w.tobytes() for i, w in enumerate(want) if i in trainable]


def test_blocked_attention_under_no_grad_keeps_no_full_weights(monkeypatch):
    rng = np.random.default_rng(14)
    # position-major, two heads of one position: eight 64 x 64 slices
    arrays = [rng.normal(size=(4, 64, 1, 4)) for _ in range(3)]
    weights_bytes = 8 * 64 * 64 * 8
    # one 64 x 64 slice per block, eight blocks
    monkeypatch.setattr(autodiff, "_BLOCK_BYTES", 64 * 64 * 8)

    def peak_bytes(rowwise):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        return traced_peak(lambda: _core(*tensors, 0.5, heads=2, rowwise=rowwise))
    for rowwise in (False, True):
        with no_grad():
            peak, out = peak_bytes(rowwise)
        assert peak < weights_bytes / 2
        # building a graph, every core keeps each weights row's max and sum,
        # not the weights, so no (L_q, L_k) array outlives a block
        peak, graphed = peak_bytes(rowwise)
        assert peak < weights_bytes / 2
        assert graphed.data.tobytes() == out.data.tobytes()


def test_attention_without_leading_axes_runs_as_one_block(monkeypatch):
    # a graph layer over a (K, d) z has no leading axis to cut, so even a
    # budget below one score slice runs its core whole
    monkeypatch.setattr(autodiff, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(2)
    arrays = [rng.normal(size=(4, 3)), rng.normal(size=(3, 10)),
              rng.uniform(0.2, 1.0, size=3), rng.uniform(0.2, 1.0, size=1)]
    assert autodiff._blocks((), 8 * 4 * 4) == [()]
    for trainable in ({0}, {1}, {2, 3}, {0, 1, 2, 3}):
        _compare_to_ops(_graph_layer, _graph_layer_by_ops, arrays, trainable)


@pytest.mark.parametrize("heads, mask, rowwise", _CORES)
def test_attention_projection_matches_core_then_linear(heads, mask, rowwise):
    # the node against the core under an identity projection followed by
    # linear: forward bit-equal, gradients to 1e-12, for every subset of
    # trainable operands, the projection's alone included
    rng = np.random.default_rng(43)
    arrays = [rng.normal(size=(3, 6, 5, 4)) for _ in range(3)]
    arrays += [rng.normal(size=(4, 7)), rng.normal(size=7)]
    kwargs = dict(heads=heads, mask=mask, rowwise=rowwise)

    def by_ops(q, k, v, w, b):
        return linear(_core(q, k, v, 0.4, **kwargs), w, b)
    for size in range(1, 6):
        for trainable in itertools.combinations(range(5), size):
            _compare_to_ops(lambda *t: attention(*t, 0.4, **kwargs), by_ops,
                            arrays, set(trainable))


@pytest.mark.parametrize("trainable", [(0, 1, 2, 3, 4), (0,), (3,), (4,)])
def test_attention_keeps_nothing_of_its_output_size(trainable):
    # a (4, 7) projection makes the output wider than q, k and v: the node
    # keeps those, the weight and the stats, and no array the size of its
    # output or of the core's output under the projection, which is q's
    rng = np.random.default_rng(45)
    arrays = [rng.normal(size=(3, 6, 5, 4)) for _ in range(3)]
    arrays += [rng.normal(size=(4, 7)), rng.normal(size=7)]
    tensors = [Tensor(a, requires_grad=i in trainable) for i, a in enumerate(arrays)]
    out = attention(*tensors, 0.4, heads=2)
    kept = [a for a in _kept_arrays(out._node) if a.size >= arrays[0].size]
    assert len(kept) == 3
    assert all(any(np.shares_memory(a, t.data) for t in tensors[:3]) for a in kept)
    out.backward(np.ones(out.shape))
    assert _kept_arrays(out._node) == []


def test_attention_with_only_the_projection_trainable():
    # constant q, k and v: the node still keeps its stats, since the
    # weight's gradient reads the core's output, which backward rebuilds
    mask = np.triu(np.ones((4, 5), dtype=bool), k=2)
    rng = np.random.default_rng(44)
    q, k, v = (Tensor(rng.normal(size=s))
               for s in ((2, 4, 3, 4), (2, 5, 3, 4), (2, 5, 3, 2)))
    _check_op(lambda w, b: attention(q, k, v, w, b, 0.5, heads=2, mask=mask),
              (2, 6), (6,))
    _check_op(lambda w, b: attention(q, k, v, w, b, 0.5, heads=2, mask=mask,
                                     rowwise=True), (2, 6), (6,))
    with pytest.raises(DimensionError):     # the weight does not take v
        attention(q, k, v, Tensor(np.ones((3, 6))), Tensor(np.ones(6)), 0.5, heads=2)
    with pytest.raises(DimensionError):
        attention(q, k, v, Tensor(np.ones((2, 6))), Tensor(np.ones(5)), 0.5, heads=2)


def _producers(conv):
    """Functions that make q, k and v from an x (2, 5, 3, 4), as CIATT does:
    q by a (4, 6) projection, under a temporal conv with conv, k by the same
    blended by a constant (3, 3) mixing matrix, and v by a projection. Each
    takes whether its leaves are trainable, and returns the operand and
    those leaves."""
    rng = np.random.default_rng(47)
    x = rng.normal(size=(2, 5, 3, 4))
    mixing = Tensor(rng.uniform(size=(3, 3)))
    weights = [(rng.normal(size=(4, 6)), rng.normal(size=6),
                rng.normal(size=(3, 6, 6)), rng.normal(size=6)) for _ in range(3)]

    def project(arrays, trainable, convolve):
        leaves = [Tensor(a, requires_grad=trainable)
                  for a in (x,) + (arrays if convolve else arrays[:2])]
        op = linear_conv1d_temporal if convolve else linear
        return op(*leaves), leaves

    def make_k(trainable):
        out, leaves = project(weights[1], trainable, conv)
        return matmul(mixing, out), leaves
    return (lambda trainable: project(weights[0], trainable, conv), make_k,
            lambda trainable: project(weights[2], trainable, False))


@pytest.mark.parametrize("rowwise", [False, True])
@pytest.mark.parametrize("conv", [False, True])
def test_attention_over_recipes_matches_attention_over_leaves(conv, rowwise):
    # q, k and v made by linear, the conv and the mixing product carry
    # recipes, which the attention node keeps in place of their arrays;
    # for every subset of trainable operands the node gives the bits of the
    # same node over leaves holding those operands' arrays, which have none
    rng = np.random.default_rng(48)
    w_out, b_out = rng.normal(size=(6, 7)), rng.normal(size=7)
    seed_grad = rng.normal(size=(2, 5, 3, 7))
    make = _producers(conv)
    for size in range(1, 6):
        for trainable in itertools.combinations(range(5), size):
            runs = []
            for leaves_only in (False, True):
                made = [make[i](i in trainable) for i in range(3)]
                operands = [operand for operand, _ in made]
                if leaves_only:
                    operands = [Tensor(t.data, requires_grad=i in trainable)
                                for i, t in enumerate(operands)]
                else:
                    assert all((autodiff._recipe(t) is not None) == (i in trainable)
                               for i, t in enumerate(operands))
                projection = [Tensor(a, requires_grad=i + 3 in trainable)
                              for i, a in enumerate((w_out, b_out))]
                out = attention(*operands, *projection, 0.4, heads=2,
                                rowwise=rowwise)
                if not leaves_only:
                    # the node keeps no trainable operand's array
                    kept = _kept_arrays(out._node)
                    assert not any(np.shares_memory(a, operands[i].data)
                                   for a in kept for i in trainable if i < 3)
                out.backward(seed_grad)
                if leaves_only:
                    # the producers' gradients from the leaves' ones
                    for (operand, _), leaf in zip(made, operands):
                        if leaf.requires_grad:
                            operand.backward(leaf.grad)
                grads = [t.grad for _, leaves in made for t in leaves]
                grads += [t.grad for t in projection]
                runs.append([out.data.tobytes()] + [
                    None if g is None else g.tobytes() for g in grads])
            assert runs[0] == runs[1]
            assert sum(g is not None for g in runs[0]) > 1


@pytest.mark.parametrize("shapes, heads", [
    ([(2, 5, 3, 4), (2, 6, 3, 4), (6, 3, 2)], 2),       # broadcast values
    ([(2, 5, 3, 4), (3, 6, 3, 4), (3, 6, 3, 2)], 2),    # other leading axes
    ([(2, 5, 3, 4), (1, 6, 3, 4), (1, 6, 3, 4)], 2)])   # broadcast heads
def test_attention_refuses_unshared_leading_axes(shapes, heads):
    tensors = [Tensor(np.ones(shape), requires_grad=True) for shape in shapes]
    with pytest.raises(DimensionError, match="leading axes"):
        _core(*tensors, 0.5, heads=heads)


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 5, 4)])
@pytest.mark.parametrize("with_bias", [False, True])
def test_fused_linear_matches_matmul_then_add(x_shape, with_bias):
    # without a bias means a constant zero bias, as a layer's starts: it
    # adds nothing to the product's bits
    rng = np.random.default_rng(len(x_shape))
    arrays = [rng.normal(size=x_shape), rng.normal(size=(4, 6)),
              rng.normal(size=6) if with_bias else np.zeros(6)]

    def by_ops(x, w, b):
        out = matmul(x, w)
        return add(out, b) if with_bias else out
    for trainable in (set(), {0}, {1}, {2}, {0, 1}, {0, 1, 2}):
        if with_bias or 2 not in trainable:
            _compare_to_ops(linear, by_ops, arrays, trainable)
    with pytest.raises(DimensionError):
        linear(Tensor(arrays[0]), Tensor(np.ones((3, 6))), Tensor(arrays[2]))
    with pytest.raises(DimensionError):
        linear(Tensor(arrays[0]), Tensor(arrays[1]), Tensor(np.ones(5)))


@pytest.mark.parametrize("a_shape", [(5, 4), (3, 5, 4), (2, 3, 5, 4)])
def test_broadcast_matmul_weight_gradient_matches_slice_loop(a_shape):
    rng = np.random.default_rng(len(a_shape))
    a = Tensor(rng.normal(size=a_shape))
    w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    out = matmul(a, w)
    seed_grad = rng.normal(size=out.shape)
    out.backward(seed_grad)
    want = broadcast_weight_grad(a.data, seed_grad)
    assert np.max(np.abs(w.grad - want)) <= 1e-12 * np.max(np.abs(want))
    assert a.grad is None


@pytest.mark.parametrize("op", [add, mul, matmul])
def test_constant_operand_gets_no_gradient(op):
    rng = np.random.default_rng(11)
    for const_slot in (0, 1):
        tensors = [Tensor(rng.normal(size=(3, 3)), requires_grad=(k != const_slot))
                   for k in range(2)]
        op(*tensors).backward(np.ones((3, 3)))
        assert tensors[const_slot].grad is None
        assert tensors[1 - const_slot].grad.shape == (3, 3)


def test_backward_keeps_grad_on_root_and_leaves_only():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2,)), requires_grad=True)
    hidden = matmul(x, w)
    shifted = add(hidden, b)
    active = relu(shifted)
    loss = mae_loss(mul(active, shifted), np.zeros((4, 2)))
    loss.backward()
    assert np.array_equal(loss.grad, np.ones(()))
    assert w.grad.shape == (3, 2) and b.grad.shape == (2,)
    for inner in (hidden, shifted, active):
        assert inner.grad is None
    assert x.grad is None


def test_freed_gradients_leave_leaf_gradients_exact():
    # b feeds the sum twice through a shared add gradient; freeing the inner
    # gradients must not disturb what the leaves accumulated
    b = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    c = Tensor(np.array([0.5, 3.0]), requires_grad=True)
    s = add(b, c)
    out = add(mul(s, s), b)
    out.backward(np.ones(2))
    assert np.array_equal(b.grad, 2 * (b.data + c.data) + 1)
    assert np.array_equal(c.grad, 2 * (b.data + c.data))


def test_graph_frees_outputs_that_no_backward_reads():
    rng = np.random.default_rng(41)
    params = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((2, 3, 5), (5, 5), (5,), (5,), (5,))]
    x, w, b, gain, shift = params
    hidden = relu(x)
    projected = linear(hidden, w, b)
    residual = add(projected, hidden)
    projected_ref = weakref.ref(projected.data)
    hidden_ref, residual_ref = weakref.ref(hidden.data), weakref.ref(residual.data)
    target = np.zeros((2, 3, 5))
    loss = mae_loss(layer_norm(residual, gain, shift), target)
    del hidden, projected, residual
    # the linear's output under the residual add and the residual sum under
    # layer_norm are read by no backward: both are freed while the loss
    # graph lives
    assert projected_ref() is None and residual_ref() is None
    # the weight's gradient reads the linear's input, which stays alive
    assert hidden_ref() is not None
    loss.backward()
    grads = [p.grad for p in params]
    del loss
    assert hidden_ref() is None

    # op by op, with every intermediate kept, the gradients are the same
    for p in params:
        p.grad = None
    kept = [relu(x)]
    kept.append(matmul(kept[0], w))
    kept.append(add(kept[1], b))
    kept.append(add(kept[2], kept[0]))
    kept.append(layer_norm(kept[3], gain, shift))
    kept.append(mae_loss(kept[4], target))
    kept[-1].backward()
    assert all(np.array_equal(p.grad, g) for p, g in zip(params, grads))


def test_no_grad_builds_no_graph_and_restores_flag():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = relu(matmul(Tensor(np.eye(2)), w))
        with no_grad():
            pass
        inner = add(out, w)
    for t in (out, inner):
        assert not t.requires_grad
        assert t._node is None
    assert matmul(w, w).requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside no_grad")
    tracked = matmul(w, w)
    assert tracked.requires_grad and tracked._node.parents == (w._node, w._node)


def test_layer_norm_values_and_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 6)) * 4 + 2
    out = layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6)))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)  # eps shrinks it
    _check_op(lambda a, g, b: layer_norm(a, g, b), (3, 6), (6,), (6,))


# a zero gain, a 1e-12 gain next to a bias of 1, a negative gain, and three
# gains whose columns divide back
_LN_GAIN = np.array([0.0, 1e-12, -0.8, 1.3, 0.6, 1.0])
_LN_BIAS = np.array([0.4, 1.0, 0.3, -0.2, 0.0, 0.0])


def test_layer_norm_gradients_at_zero_tiny_and_negative_gains():
    # against a numpy layer norm that keeps xhat whole, to 1e-12, for every
    # subset of trainable operands, and against finite differences; numpy
    # raises on any division by zero or invalid value
    rng = np.random.default_rng(6)
    arrays = (rng.normal(size=(2, 3, 6)) * 3 + 1, _LN_GAIN, _LN_BIAS)
    g = rng.normal(size=(2, 3, 6))
    want = layer_norm_by_xhat(*arrays, g)
    with np.errstate(all="raise"):
        for size in range(1, 4):
            for trainable in itertools.combinations(range(3), size):
                tensors = [Tensor(a, requires_grad=i in trainable)
                           for i, a in enumerate(arrays)]
                out = layer_norm(*tensors)
                _grad_close(out.data, want[0])
                # the node keeps its output, 1/sigma, and xhat only in the
                # columns of the zero and the 1e-12 gain
                kept = [a for a in _kept_arrays(out._node) if a.ndim == 3]
                assert any(a is out.data for a in kept)
                assert sorted(a.shape for a in kept if a is not out.data) == [
                    (2, 3, 1), (2, 3, 2)]
                out.backward(g)
                for i in trainable:
                    _grad_close(tensors[i].grad, want[1 + i])
        for slot in range(3):
            tensors = [Tensor(a, requires_grad=i == slot) for i, a in enumerate(arrays)]
            layer_norm(*tensors).backward(g)

            def scalar(a, slot=slot):
                probe = [Tensor(b) for b in arrays]
                probe[slot] = Tensor(a)
                return float(np.sum(layer_norm(*probe).data * g))
            numeric = finite_difference_gradient(scalar, arrays[slot])
            assert gradient_gap(tensors[slot].grad, numeric) < 1e-6, slot


def test_layer_norm_keeps_its_output_and_under_no_grad_no_column():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(64, 32, 16)), requires_grad=True)
    ones, zeros = Tensor(np.ones(16), requires_grad=True), Tensor(np.zeros(16))
    # at unit gains every column divides back: nothing of x's size is kept
    # but the output, which the consumer keeps as its input anyway
    out = layer_norm(x, ones, zeros)
    assert all(a is out.data or a.size <= 64 * 32 for a in _kept_arrays(out._node))
    # zero gains keep every column of xhat
    flat = Tensor(np.zeros(16), requires_grad=True)
    kept = _kept_arrays(layer_norm(x, flat, zeros)._node)
    assert sum(a.shape == x.shape for a in kept) == 2
    # under no_grad the forward takes no column: its peak stays at two
    # arrays of x's size, where the zero gains' columns would make it three
    with no_grad():
        peak, result = traced_peak(lambda: layer_norm(x, flat, zeros))
    assert result._node is None
    assert peak < 2.5 * x.data.nbytes


def test_diamond_graph_accumulates():
    # y = a*a + a  ->  dy/da = 2a + 1
    a = Tensor(np.array([3.0]), requires_grad=True)
    y = add(mul(a, a), a)
    y.backward()
    assert np.allclose(a.grad, [7.0], atol=1e-15)


def test_finite_difference_oracle_on_a_non_contiguous_view():
    base = np.arange(1.0, 7.0).reshape(2, 3)
    view = np.swapaxes(base, 0, 1)
    numeric = finite_difference_gradient(lambda a: float(np.sum(a ** 2)), view)
    assert numeric.shape == view.shape
    assert np.allclose(numeric, 2 * view, rtol=1e-8, atol=0)
    assert np.array_equal(base, np.arange(1.0, 7.0).reshape(2, 3))


def test_deep_chain_avoids_recursion_limit():
    t = Tensor(np.array([1.0]), requires_grad=True)
    out = t
    for _ in range(5000):
        out = add(out, Tensor(0.0))
    out.backward()
    assert np.allclose(t.grad, [1.0], atol=0)


def test_backward_seed_rules():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        add(t, t).backward()              # non-scalar needs a seed
    with pytest.raises(DimensionError):
        mae_loss(t, np.ones((2, 2))).backward(np.ones(3))   # wrong seed shape


def test_module_parameter_walk():
    class Block(Module):
        def __init__(self):
            self.w = Parameter(np.zeros((2, 2)))

    class Net(Module):
        def __init__(self):
            self.emb = Parameter(np.zeros(3))
            self.blocks = [Block(), Block()]

    net = Net()
    names = [n for n, _ in net.named_parameters()]
    assert names == ["emb", "blocks.0.w", "blocks.1.w"]
    assert not hasattr(net.emb, "__dict__")
    for p in net.parameters():
        p.grad = np.ones_like(p.data)
    net.zero_grad()
    assert all(p.grad is None for p in net.parameters())


def test_xavier_uniform_bounds():
    rng = np.random.default_rng(7)
    w = xavier_uniform(rng, (50, 80), fan_in=50, fan_out=80)
    bound = np.sqrt(6.0 / 130.0)
    assert w.shape == (50, 80)
    assert w.min() >= -bound and w.max() <= bound
    assert w.std() > bound / 4  # actually spread out, not collapsed


_REPO = Path(__file__).resolve().parent.parent
_LIBRARY = _REPO / "src" / "corrstn"


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name a module reads, bare or as `<something>.<name>`, outside
    the subtree `skip`. Imports alone do not count."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_public_names_resolve():
    """Every name in `__all__` exists, so a star import succeeds."""
    missing = [name for name in corrstn.__all__ if not hasattr(corrstn, name)]
    assert missing == []
    namespace = {}
    exec("from corrstn import *", namespace)
    assert set(corrstn.__all__) <= set(namespace)


def test_every_public_op_has_a_library_caller():
    """Each public top-level function and class of the package, and each
    public method of those classes, is used, by name, outside its own
    definition by library code, a demo or the benchmark; a name the autodiff
    engine defines only by library code, since the engine keeps only the ops
    the model runs. Tests and the `__init__` re-exports do not count."""
    library = [path for path in _LIBRARY.glob("*.py") if path.name != "__init__.py"]
    users = library + sorted((_REPO / "demos").glob("*.py")) \
        + sorted((_REPO / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in users}
    refs = {path: _references(tree) for path, tree in trees.items()}
    defined, unused = set(), set()
    for path in library:
        callers = library if path.name == "autodiff.py" else users
        elsewhere = set().union(*(refs[other] for other in callers if other != path))
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                       and not m.name.startswith("_")] \
                if isinstance(node, ast.ClassDef) else []
            for member in [node] + methods:
                defined.add(member.name)
                # the defining module counts only outside the definition
                if member.name not in elsewhere | _references(trees[path], member):
                    unused.add(member.name)
    assert {"mae_loss", "linear_conv1d_temporal", "graph_layer",
            "pairwise_mic", "CIGNN", "keys_values", "forecast"} <= defined
    assert {"matmul", "attention"} <= set().union(*refs.values())
    assert unused == set()


def _settable(tree: ast.Module) -> dict[str, list[tuple[int | None, str]]]:
    """The keyword parameters with a default of each public top-level
    function, public method and public class's constructor (under the class
    name), as (position or None when keyword-only, name) pairs. Positions
    count from the first argument a caller passes."""
    found = {}

    def add(name, fn, skip):
        args = fn.args
        positional = (args.posonlyargs + args.args)[skip:]
        defaulted = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        found.setdefault(name, []).extend(defaulted)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    add(node.name, fn, 1)
                elif not fn.name.startswith("_"):
                    add(fn.name, fn, 0 if static else 1)
    return found


def test_every_public_option_is_set_somewhere():
    """Every keyword parameter with a default, on a public function, public
    method or public class's constructor in the package, is set by keyword
    or by position in at least one call, by name, in the library, a demo,
    the benchmark or a test. Tests count: they set oracle-sized values. A
    call with *args or **kwargs sets every position or keyword."""
    library = [path for path in _LIBRARY.glob("*.py") if path.name != "__init__.py"]
    users = library + [path for folder in ("demos", "bench", "tests")
                       for path in sorted((_REPO / folder).glob("*.py"))]
    options = {}
    for path in library:
        for name, params in _settable(ast.parse(path.read_text())).items():
            options.setdefault(name, set()).update(params)
    scanned = {(name, param) for name, params in options.items() for _, param in params}
    assert {("CIATT", "conv_kernel"), ("attend", "rowwise")} <= scanned
    # the scanner on a fixture: functions, constructors and methods, by
    # position or keyword-only, and nothing private
    fixture = ast.parse("def f(a, c=1): pass\n"
                        "def _g(b=2): pass\n"
                        "class K:\n"
                        "    def __init__(self, x, y=2): pass\n"
                        "    @staticmethod\n"
                        "    def s(p, q=0): pass\n"
                        "    def m(self, *, z=3): pass\n")
    assert _settable(fixture) == {"f": [(1, "c")], "K": [(1, "y")],
                                  "s": [(1, "q")], "m": [(None, "z")]}
    unset = set(scanned)
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            for position, param in options.get(name, ()):
                if (param in keywords or None in keywords
                        or position is not None
                        and (starred or position < len(node.args))):
                    unset.discard((name, param))
    assert unset == set()
