import ast
import itertools
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import corrstn
from corrstn import Tensor, autodiff
from corrstn.autodiff import (Module, Parameter, add, attention, dropout,
                              graph_routes, layer_norm, linear,
                              linear_conv1d_temporal, mae_loss, matmul, narrow,
                              no_grad, reshape, xavier_uniform)
from corrstn.errors import ConfigError, DimensionError, GraphError
from oracles import (attention_by_ops, broadcast_weight_grad,
                     finite_difference_gradient, gradient_gap, graph_nodes,
                     kept_values, mul, permute, relu, temporal_conv_by_loop)


def _check_op(build, *shapes, seed=0, tol=1e-6, offset=0.0):
    """FD-check d(sum of op output)/d(input) for every input slot."""
    rng = np.random.default_rng(seed)
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
    _check_op(lambda x, w: linear(x, w), (4, 3), (3, 2))


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
    pred = linear(Tensor(rng.normal(size=(2, 3, 4))), w)
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
    # the forward; the node keeps x when the kernel's or the weight's
    # gradient reads it
    kept = _kept_arrays(out._node)
    assert all(a.size < 2 * 5 * 3 * 6 for a in kept)
    assert any(a is x.data for a in kept) == bool({1, 3} & set(trainable))
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


_ROUTE_STACK = np.random.default_rng(13).normal(size=(3, 4, 4))
_ROUTE_ADJ = np.random.default_rng(14).uniform(0.0, 1.0, size=(4, 4))


def _routes_by_ops(x, psi, y, omega):
    """The graph routes as separate ops: each correlation route's matmul,
    relu and scaling by its entry of psi, added in order, then the
    structural route's matmul, relu and scaling, then the add."""
    out = None
    for c in range(3):
        route = mul(relu(matmul(Tensor(_ROUTE_STACK[c]), x)), narrow(psi, 0, c, 1))
        out = route if out is None else add(out, route)
    return add(out, mul(relu(matmul(Tensor(_ROUTE_ADJ), y)), omega))


def _graph_routes(x, psi, y, omega):
    return graph_routes(_ROUTE_STACK, x, psi, _ROUTE_ADJ, y, omega)


def _route_operands(seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(2, 5, 4, 3)), rng.uniform(0.2, 1.0, size=3),
            rng.normal(size=(2, 5, 4, 3)), rng.uniform(0.2, 1.0, size=1)]


def test_route_sum_matches_stacked_ops_and_keeps_no_mask():
    # forward bit-equal to the composed ops, gradients to 1e-12, for every
    # subset of trainable operands
    arrays = _route_operands(15)
    for size in range(5):
        for trainable in itertools.combinations(range(4), size):
            _compare_to_ops(_graph_routes, _routes_by_ops, arrays, set(trainable))
    x, psi, y, omega = (Tensor(a, requires_grad=True) for a in arrays)
    kept = _kept_arrays(_graph_routes(x, psi, y, omega)._node)
    assert not any(a.dtype == bool for a in kept)
    _check_op(_graph_routes, (2, 4, 3), (3,), (2, 4, 3), (1,), offset=0.5)
    with no_grad():
        assert _graph_routes(x, psi, y, omega)._node is None
    with pytest.raises(DimensionError):
        _graph_routes(x, Tensor(np.ones(2)), y, omega)
    with pytest.raises(DimensionError):
        _graph_routes(Tensor(np.ones((2, 3, 3))), psi, y, omega)
    with pytest.raises(DimensionError):
        _graph_routes(x, psi, Tensor(np.ones((2, 5, 4, 2))), omega)
    with pytest.raises(DimensionError):
        graph_routes(_ROUTE_STACK, x, psi, np.eye(3), y, omega)


@pytest.mark.parametrize("trainable", [(0, 1, 2, 3), (1,), (0,), (3,), (2,)])
def test_graph_routes_keep_x_and_y_only(trainable):
    # no route, relu mask or product of the route shape outlives the
    # forward: backward rebuilds them from x (for psi's and x's gradients)
    # and y (for omega's and y's)
    tensors = [Tensor(a, requires_grad=i in trainable)
               for i, a in enumerate(_route_operands(16))]
    x, _, y, _ = tensors
    out = _graph_routes(*tensors)
    wide = [a for a in _kept_arrays(out._node) if a.size >= x.data.size]
    want = [x.data] * bool({0, 1} & set(trainable)) \
        + [y.data] * bool({2, 3} & set(trainable))
    assert len(wide) == len(want) and all(any(a is w for a in wide) for w in want)
    # backward releases the node's closure, and with it x and y
    out.backward(np.ones(out.shape))
    assert _kept_arrays(out._node) == [] and out._node.parents == ()


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


def _attention_case_operands(l_q, l_k):
    rng = np.random.default_rng(l_q * 10 + l_k)
    return [rng.normal(size=(2, 3, l_q, 4)), rng.normal(size=(2, 3, l_k, 4)),
            rng.normal(size=(2, 3, l_k, 6))]


@pytest.mark.parametrize("l_q, l_k, mask", _ATTENTION_CASES)
def test_fused_attention_matches_op_by_op(l_q, l_k, mask):
    scale = 1.0 / np.sqrt(4)
    for trainable in ({0}, {1}, {2}, {0, 1, 2}):
        _compare_to_ops(lambda q, k, v: attention(q, k, v, scale, mask=mask),
                        lambda q, k, v: attention_by_ops(q, k, v, scale, mask=mask),
                        _attention_case_operands(l_q, l_k), trainable)


@pytest.mark.parametrize("l_q, l_k, mask", _ATTENTION_CASES)
def test_rowwise_attention_matches_op_by_op(l_q, l_k, mask):
    # its per-row products may round differently from the oracle's GEMMs
    scale = 1.0 / np.sqrt(4)
    for trainable in ({0}, {1}, {2}, {0, 1, 2}):
        _compare_to_ops(
            lambda q, k, v: attention(q, k, v, scale, mask=mask, rowwise=True),
            lambda q, k, v: attention_by_ops(q, k, v, scale, mask=mask),
            _attention_case_operands(l_q, l_k), trainable, exact=False)


@pytest.mark.parametrize("causal", [False, True])
def test_rowwise_attention_rows_do_not_depend_on_query_count(causal):
    rng = np.random.default_rng(41)
    q = rng.normal(size=(2, 3, 12, 8))
    k = rng.normal(size=(2, 3, 12, 8))
    v = rng.normal(size=(2, 3, 12, 8))
    mask = np.triu(np.ones((12, 12), dtype=bool), k=1) if causal else None
    together = attention(Tensor(q), Tensor(k), Tensor(v), 0.35, mask=mask,
                         rowwise=True).data
    for t in range(12):
        alone = attention(Tensor(q[..., t:t + 1, :]), Tensor(k), Tensor(v), 0.35,
                          mask=None if mask is None else mask[t:t + 1],
                          rowwise=True).data
        assert np.array_equal(alone[..., 0, :], together[..., t, :]), t


def test_fused_attention_of_one_operand_matches_op_by_op():
    # Z as queries and keys, as the graph layer's dynamic route uses it
    scale = 1.0 / np.sqrt(5)
    rng = np.random.default_rng(9)
    arrays = [rng.normal(size=(2, 6, 5)), rng.normal(size=(2, 6, 5))]
    for trainable in ({0}, {0, 1}):
        _compare_to_ops(lambda z, v: attention(z, z, v, scale),
                        lambda z, v: attention_by_ops(z, z, v, scale),
                        arrays, trainable)


def test_fused_attention_gradients_and_checks():
    mask = np.triu(np.ones((4, 5), dtype=bool), k=2)
    _check_op(lambda q, k, v: attention(q, k, v, 0.5, mask=mask),
              (2, 4, 3), (2, 5, 3), (2, 5, 2))
    _check_op(lambda q, k, v: attention(q, k, v, 0.5, mask=mask, rowwise=True),
              (2, 4, 3), (2, 5, 3), (2, 5, 2))
    with pytest.raises(DimensionError):
        attention(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 2))),
                  Tensor(np.ones((5, 2))), 1.0)
    with pytest.raises(DimensionError):
        attention(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 3))),
                  Tensor(np.ones((4, 2))), 1.0)
    with pytest.raises(ConfigError):
        attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
                  Tensor(np.ones((2, 3))), 1.0,
                  mask=np.array([[True, True], [False, True]]))


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

    def oracle(q, k, v):
        split = (_split_by_ops(t, 2) for t in (q, k, v))
        return _merge_by_ops(attention_by_ops(*split, scale, mask=mask))
    for trainable in ({0}, {1}, {2}, {0, 1, 2}):
        _compare_to_ops(lambda q, k, v: attention(q, k, v, scale, heads=2, mask=mask,
                                                  rowwise=rowwise),
                        oracle, arrays, trainable, exact=not rowwise)


def test_head_split_attention_checks():
    ones = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(ConfigError):      # 4 columns do not split into 3 heads
        attention(ones, ones, ones, 1.0, heads=3)
    with pytest.raises(DimensionError):   # keys for another number of positions
        attention(ones, Tensor(np.ones((2, 5, 4))), Tensor(np.ones((2, 5, 4))),
                  1.0, heads=2)
    with pytest.raises(DimensionError):   # no position axis
        attention(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))),
                  Tensor(np.ones((2, 4))), 1.0, heads=2)


def _attention_outputs(arrays, trainable, seed_grad, **kwargs):
    """The output of one attention call and the gradients of its trainable
    operands."""
    tensors = [Tensor(a, requires_grad=(i in trainable)) for i, a in enumerate(arrays)]
    out = attention(*tensors, 0.4, **kwargs)
    out.backward(seed_grad)
    return [out.data] + [t.grad for t in tensors if t.requires_grad]


_CAUSAL6 = np.triu(np.ones((6, 6), dtype=bool), k=1)

# (heads, mask, rowwise): the graph layer's plain core, the encoder's headed
# core, and masked and rowwise cores as the decoder runs them
_CORES = [(None, None, False), (2, None, False), (2, _CAUSAL6, False),
          (2, _CAUSAL6, True), (None, _CAUSAL6, True)]


@pytest.mark.parametrize("block_bytes", [1, 700, 2000])
@pytest.mark.parametrize("heads, mask, rowwise", _CORES)
def test_blocked_attention_is_bit_equal_to_one_block(monkeypatch, block_bytes,
                                                     heads, mask, rowwise):
    # 6 x 6 score slices of 288 bytes, 30 of them: blocks of one slice, of
    # one position's two heads (or two rows) and of several positions
    rng = np.random.default_rng(block_bytes)
    shape = (3, 6, 5, 4) if heads else (3, 5, 6, 4)
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
    shape = (3, 6, 5, 4) if heads else (3, 5, 6, 4)
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
        want = autodiff._attend_backward(
            weights, autodiff._split_heads(seed_grad, heads),
            q if 1 in trainable else None, k if 0 in trainable else None,
            v if trainable & {0, 1} else None, 0.4, 2 in trainable)
        assert [g.tobytes() for g in got] == [
            autodiff._merge_heads(w, heads).tobytes() for w in want if w is not None]


def test_blocked_attention_under_no_grad_keeps_no_full_weights(monkeypatch):
    rng = np.random.default_rng(14)
    arrays = [rng.normal(size=(8, 64, 2)) for _ in range(3)]
    # position-major, two heads of one position: eight 64 x 64 slices too
    headed = [rng.normal(size=(4, 64, 1, 4)) for _ in range(3)]
    weights_bytes = 8 * 64 * 64 * 8
    # one 64 x 64 slice per block, eight blocks
    monkeypatch.setattr(autodiff, "_BLOCK_BYTES", 64 * 64 * 8)

    def peak_bytes(arrays, **kwargs):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        tracemalloc.start()
        try:
            out = attention(*tensors, 0.5, **kwargs)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()
    with no_grad():
        peak, out = peak_bytes(arrays)
    assert peak < weights_bytes / 2
    # building a graph, the plain and headed cores keep each weights row's
    # max and sum, not the weights; the rowwise core keeps its weights
    peak, graphed = peak_bytes(arrays)
    assert peak < weights_bytes / 2
    assert np.array_equal(out.data, graphed.data)
    assert peak_bytes(headed, heads=2)[0] < weights_bytes / 2
    assert peak_bytes(arrays, rowwise=True)[0] >= weights_bytes


@pytest.mark.parametrize("shapes", [[(5, 4), (6, 4), (6, 3)],
                                    [(2, 3, 5, 4), (1, 3, 6, 4), (3, 6, 3)]])
def test_attention_on_unshared_leading_axes_runs_as_one_block(monkeypatch, shapes):
    # no leading axes at all, and keys and values broadcast over the
    # queries' leading axes: neither can be blocked, and both run whole
    monkeypatch.setattr(autodiff, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(len(shapes[0]))
    arrays = [rng.normal(size=shape) for shape in shapes]
    for trainable in ({0}, {1}, {2}, {0, 1, 2}):
        _compare_to_ops(lambda q, k, v: attention(q, k, v, 0.5),
                        lambda q, k, v: attention_by_ops(q, k, v, 0.5),
                        arrays, trainable)


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 5, 4)])
@pytest.mark.parametrize("with_bias", [False, True])
def test_fused_linear_matches_matmul_then_add(x_shape, with_bias):
    rng = np.random.default_rng(len(x_shape))
    arrays = [rng.normal(size=x_shape), rng.normal(size=(4, 6))]
    if with_bias:
        arrays.append(rng.normal(size=6))

    def by_ops(x, w, b=None):
        out = matmul(x, w)
        return out if b is None else add(out, b)
    for trainable in (set(), {0}, {1}, {2}, {0, 1}, {0, 1, 2}):
        if max(trainable, default=0) < len(arrays):
            _compare_to_ops(linear, by_ops, arrays, trainable)
    with pytest.raises(DimensionError):
        linear(Tensor(arrays[0]), Tensor(np.ones((3, 6))))
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


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(6)
    x = Tensor(np.ones((1000,)), requires_grad=True)
    out = dropout(x, 0.25, rng)
    kept = out.data != 0
    assert np.allclose(out.data[kept], 1.0 / 0.75, atol=1e-12)
    assert abs(kept.mean() - 0.75) < 0.05
    out.backward(np.ones(1000))
    assert np.array_equal(x.grad != 0, kept)
    assert np.array_equal(dropout(x, 0.0, rng).data, x.data)


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
            self.w = Parameter(np.zeros((2, 2)), name="w")

    class Net(Module):
        def __init__(self):
            self.emb = Parameter(np.zeros(3), name="emb")
            self.blocks = [Block(), Block()]

    net = Net()
    names = [n for n, _ in net.named_parameters()]
    assert names == ["emb", "blocks.0.w", "blocks.1.w"]
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
    assert {"mae_loss", "linear_conv1d_temporal", "graph_routes",
            "pairwise_mic", "CIGNN", "keys_values", "forecast"} <= defined
    assert {"matmul", "attention"} <= set().union(*refs.values())
    assert unused == set()
