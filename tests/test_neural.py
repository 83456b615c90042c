import numpy as np
import pytest

from corrstn import (CIATT, CIGNN, LayerNorm, SCorrTensor, TemporalConv,
                     Tensor, add_self_loops, attend_heads, causal_mask,
                     cignn_forward, identity_topu, key_value_heads,
                     laplacian_normalize, top_u_normalize, topu_mixing_matrix)
from corrstn.autodiff import linear_conv1d_temporal
from corrstn.errors import ConfigError, DataError, DimensionError
from corrstn.neural import Linear, _degree_stack
from corrstn.scorr import TopUSCorr
from oracles import (finite_difference_gradient, gradient_gap, graph_nodes,
                     multi_head_attention, plain_gnn, softmax_rows)


def _random_scorr(n, c, seed=0):
    rng = np.random.default_rng(seed)
    degrees = rng.uniform(0.05, 0.95, size=(n, n, c))
    degrees = (degrees + degrees.transpose(1, 0, 2)) / 2
    for attr in range(c):
        np.fill_diagonal(degrees[:, :, attr], 1.0)
    return SCorrTensor(degrees)


# ---------------------------------------------------------------------------
# graph normalization

def test_laplacian_identity_is_fixed_point():
    got = laplacian_normalize(np.eye(4))
    assert np.array_equal(got.matrix, np.eye(4))


def test_laplacian_all_ones():
    got = laplacian_normalize(np.ones((2, 2)))
    assert np.allclose(got.matrix, 0.5, atol=1e-15)


def test_laplacian_path_graph_hand_check():
    # path 0-1-2 with self-loops: row sums 2, 3, 2
    adj = add_self_loops(np.array([[0.0, 1.0, 0.0],
                                   [1.0, 0.0, 1.0],
                                   [0.0, 1.0, 0.0]]))
    got = laplacian_normalize(adj).matrix
    assert abs(got[0, 0] - 1 / 2) < 1e-15
    assert abs(got[0, 1] - 1 / np.sqrt(6)) < 1e-15
    assert abs(got[1, 1] - 1 / 3) < 1e-15
    assert got[0, 2] == 0.0


def test_laplacian_rejects_bad_input():
    with pytest.raises(DimensionError):
        laplacian_normalize(np.ones((2, 3)))
    with pytest.raises(DataError):
        laplacian_normalize(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    with pytest.raises(DataError):
        laplacian_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_causal_mask_pattern():
    m = causal_mask(4)
    assert m.dtype == bool
    assert not m[2, 2] and not m[2, 1]
    assert m[2, 3]
    assert m.sum() == 6


# ---------------------------------------------------------------------------
# functional layers

def _cignn_reference(z, scorr, adj, w, psi, omega):
    s_w = softmax_rows(z @ np.swapaxes(z, -1, -2) / np.sqrt(z.shape[-1]))
    zw = z @ w
    base = s_w @ zw
    out = omega[0] * np.maximum(adj @ zw, 0.0)
    for attr in range(scorr.shape[2]):
        out = out + psi[attr] * np.maximum(scorr[:, :, attr] @ base, 0.0)
    return out


def test_cignn_forward_matches_reference():
    rng = np.random.default_rng(2)
    n, d, c = 5, 4, 3
    scorr = _random_scorr(n, c, seed=3)
    adj = laplacian_normalize(add_self_loops(np.ones((n, n)) - np.eye(n)))
    z = rng.normal(size=(2, n, d))
    w = rng.normal(size=(d, d))
    psi = rng.uniform(0.1, 1.0, size=c)
    omega = np.array([0.7])
    got = cignn_forward(Tensor(z), scorr, adj, Tensor(w), Tensor(psi),
                        Tensor(omega)).data
    want = _cignn_reference(z, scorr.degrees, adj.matrix, w, psi, omega)
    assert np.allclose(got, want, atol=1e-12)


def test_cignn_with_zero_psi_is_plain_gnn():
    rng = np.random.default_rng(4)
    n, d = 6, 3
    scorr = _random_scorr(n, 2, seed=5)
    adj = laplacian_normalize(add_self_loops((np.arange(n)[:, None] +
                                              np.arange(n)[None, :]) % 2.0))
    z = rng.normal(size=(n, d))
    w = rng.normal(size=(d, d))
    got = cignn_forward(Tensor(z), scorr, adj, Tensor(w),
                        Tensor(np.zeros(2)), Tensor(np.ones(1))).data
    assert np.allclose(got, plain_gnn(adj.matrix, z, w), atol=1e-12)


def test_cignn_gradients():
    rng = np.random.default_rng(6)
    n, d, c = 4, 3, 2
    scorr = _random_scorr(n, c, seed=7)
    adj = laplacian_normalize(np.eye(n))
    z0 = rng.normal(size=(n, d))
    w0 = rng.normal(size=(d, d))
    psi0 = rng.uniform(0.2, 0.9, size=c)
    omega0 = np.array([0.8])
    slots = [z0, w0, psi0, omega0]

    def run(arrs, grad_slot):
        tensors = [Tensor(a.copy(), requires_grad=(i == grad_slot))
                   for i, a in enumerate(arrs)]
        out = cignn_forward(tensors[0], scorr, adj, tensors[1], tensors[2],
                            tensors[3])
        return out, tensors[grad_slot]

    for slot in range(4):
        out, target = run(slots, slot)
        out.backward(np.ones_like(out.data))

        def scalar(a, slot=slot):
            probe = [s.copy() for s in slots]
            probe[slot] = a
            val, _ = run(probe, slot)
            return float(val.data.sum())

        numeric = finite_difference_gradient(scalar, slots[slot])
        assert gradient_gap(target.grad, numeric) < 1e-6, slot


def test_key_value_heads_blends_keys_like_loop():
    rng = np.random.default_rng(8)
    n, u, c = 5, 2, 3
    topu = top_u_normalize(_random_scorr(n, c, seed=9), u)
    k = rng.normal(size=(2, n, 4, 3))
    # one head: the split keys (2, n, 1, 4, 3) are the blended sensor-major k
    kh, vh = key_value_heads(Tensor(topu_mixing_matrix(topu)),
                             Tensor(np.swapaxes(k, 1, 2)),
                             Tensor(np.swapaxes(k, 1, 2)), 1)
    got = np.swapaxes(kh.data, 1, 2)
    want = np.zeros_like(k)
    for i in range(n):
        for attr in range(c):
            for slot in range(u):
                j = topu.indices[i, slot, attr]
                want[:, i] += topu.weights[i, slot, attr] * k[:, j] / c
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(
        got, np.einsum("ij,bjld->bild", topu_mixing_matrix(topu), k),
        atol=1e-12)
    assert np.array_equal(np.swapaxes(vh.data, 1, 2), k)


def test_key_value_heads_identity_topu_is_noop():
    rng = np.random.default_rng(10)
    k = rng.normal(size=(3, 4, 2))
    kh, _ = key_value_heads(Tensor(topu_mixing_matrix(identity_topu(3, c=2))),
                            Tensor(np.swapaxes(k, 0, 1)),
                            Tensor(np.swapaxes(k, 0, 1)), 1)
    assert np.array_equal(np.swapaxes(kh.data, 0, 1), k)


def test_ciatt_identity_topu_equals_plain_attention():
    rng = np.random.default_rng(11)
    n, length, d, heads = 3, 5, 8, 2
    q, k, v = (rng.normal(size=(2, n, length, d)) for _ in range(3))
    w_out = rng.normal(size=(d, d))
    b_out = rng.normal(size=d)
    kv = key_value_heads(Tensor(topu_mixing_matrix(identity_topu(n))),
                         Tensor(np.swapaxes(k, 1, 2)),
                         Tensor(np.swapaxes(v, 1, 2)), heads)
    got = attend_heads(Tensor(np.swapaxes(q, 1, 2)), *kv, heads, Tensor(w_out),
                       Tensor(b_out)).data
    want = multi_head_attention(q, k, v, heads, w_out, b_out)
    assert np.allclose(np.swapaxes(got, 1, 2), want, atol=1e-12)


def test_ciatt_single_key_is_projection_of_value():
    rng = np.random.default_rng(12)
    n, d = 4, 6
    q = np.swapaxes(rng.normal(size=(n, 1, d)), 0, 1)
    k = np.swapaxes(rng.normal(size=(n, 1, d)), 0, 1)
    v = np.swapaxes(rng.normal(size=(n, 1, d)), 0, 1)
    w_out = rng.normal(size=(d, d))
    kv = key_value_heads(Tensor(topu_mixing_matrix(identity_topu(n))),
                         Tensor(k), Tensor(v), 2)
    got = attend_heads(Tensor(q), *kv, 2, Tensor(w_out)).data
    # with one key the attention weights are exactly 1
    assert np.allclose(got, v @ w_out, atol=1e-12)


def test_ciatt_causal_mask_blocks_future():
    rng = np.random.default_rng(13)
    n, length, d = 2, 6, 4
    mixing = Tensor(topu_mixing_matrix(
        top_u_normalize(_random_scorr(n, 1, seed=14), 2)))
    q = Tensor(np.swapaxes(rng.normal(size=(n, length, d)), 0, 1))
    kv = np.swapaxes(rng.normal(size=(n, length, d)), 0, 1)
    w_out = Tensor(rng.normal(size=(d, d)))
    mask = causal_mask(length)

    def run(keys, rowwise):
        heads = key_value_heads(mixing, Tensor(keys), Tensor(keys), 2)
        return attend_heads(q, *heads, 2, w_out, mask=mask, rowwise=rowwise).data

    bumped = kv.copy()
    bumped[4:] += 10.0
    for rowwise in (False, True):
        base, moved = run(kv, rowwise), run(bumped, rowwise)
        assert np.allclose(base[:4], moved[:4], atol=1e-12)
        assert not np.allclose(base[4:], moved[4:], atol=1e-3)


def test_ciatt_gradients():
    rng = np.random.default_rng(15)
    n, length, d, heads = 2, 3, 4, 2
    mixing = Tensor(topu_mixing_matrix(
        top_u_normalize(_random_scorr(n, 2, seed=16), 2)))
    # contiguous, so that the finite-difference probe's flat view writes
    # through to the array it perturbs
    slots = [np.ascontiguousarray(np.swapaxes(rng.normal(size=(n, length, d)), 0, 1))
             for _ in range(3)]
    slots.append(rng.normal(size=(d, d)))

    def ciatt(q, k, v, w_out):
        return attend_heads(q, *key_value_heads(mixing, k, v, heads), heads, w_out)

    for slot in range(4):
        tensors = [Tensor(a.copy(), requires_grad=(i == slot))
                   for i, a in enumerate(slots)]
        out = ciatt(*tensors)
        out.backward(np.ones_like(out.data))

        def scalar(a, slot=slot):
            probe = [Tensor(s.copy()) for s in slots]
            probe[slot] = Tensor(a)
            return float(ciatt(*probe).data.sum())

        numeric = finite_difference_gradient(scalar, slots[slot])
        assert gradient_gap(tensors[slot].grad, numeric) < 1e-6, slot


# ---------------------------------------------------------------------------
# temporal convolution, through the fused node under an identity projection

def _conv1d(x, kernel):
    """The same-length convolution of x (..., T, d_in) along its time axis,
    as the fused node runs it over one position under the identity
    projection, whose product gives x's own bits."""
    d_in, d_out = x.shape[-1], kernel.shape[-1]
    out = linear_conv1d_temporal(Tensor(x[..., None, :]), Tensor(np.eye(d_in)),
                                 Tensor(np.zeros(d_in)), Tensor(kernel),
                                 Tensor(np.zeros(d_out)))
    return out.data[..., 0, :]


def test_conv1d_delta_kernel_is_identity():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, 7, 3))
    kernel = np.zeros((5, 3, 3))
    kernel[2] = np.eye(3)  # centered delta
    got = _conv1d(x, kernel)
    assert np.allclose(got, x, atol=1e-15)


def test_conv1d_scalar_kernel_matches_manual():
    x = np.arange(5.0).reshape(1, 5, 1)
    got = _conv1d(x, np.ones((3, 1, 1)))
    # zero padding on both sides, window sums
    assert np.allclose(got[0, :, 0], [1.0, 3.0, 6.0, 9.0, 7.0], atol=1e-15)


def test_conv1d_matrix_kernel_matches_loop():
    rng = np.random.default_rng(18)
    t_len, d_in, d_out, ksize = 6, 3, 2, 3
    x = rng.normal(size=(t_len, d_in))
    kernel = rng.normal(size=(ksize, d_in, d_out))
    got = _conv1d(x[None], kernel)[0]
    padded = np.vstack([np.zeros((1, d_in)), x, np.zeros((1, d_in))])
    want = np.zeros((t_len, d_out))
    for t in range(t_len):
        for o in range(ksize):
            want[t] += padded[t + o] @ kernel[o]
    assert np.allclose(got, want, atol=1e-12)


def test_conv1d_gradients():
    rng = np.random.default_rng(19)
    x0 = rng.normal(size=(2, 5, 1, 3))
    k0 = rng.normal(size=(3, 3, 2))
    w, b, cb = Tensor(np.eye(3)), Tensor(np.zeros(3)), Tensor(np.zeros(2))

    for slot in range(2):
        arrs = [x0, k0]
        tensors = [Tensor(a.copy(), requires_grad=(i == slot))
                   for i, a in enumerate(arrs)]
        out = linear_conv1d_temporal(tensors[0], w, b, tensors[1], cb)
        out.backward(np.ones_like(out.data))

        def scalar(a, slot=slot):
            probe = [Tensor(v.copy()) for v in arrs]
            probe[slot] = Tensor(a)
            return float(linear_conv1d_temporal(probe[0], w, b, probe[1], cb).data.sum())

        numeric = finite_difference_gradient(scalar, arrs[slot])
        assert gradient_gap(tensors[slot].grad, numeric) < 1e-6, slot


def test_conv1d_kernel_validation():
    x, w, b = Tensor(np.ones((4, 1, 3))), Tensor(np.eye(3)), Tensor(np.zeros(3))
    with pytest.raises(DimensionError):
        linear_conv1d_temporal(x, w, b, Tensor(np.ones((2, 2))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        linear_conv1d_temporal(x, w, b, Tensor(np.ones((3, 5, 2))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):   # no scalar (k,) kernel mode
        linear_conv1d_temporal(x, w, b, Tensor(np.ones(3)), Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# module classes

def test_linear_and_layernorm_modules():
    rng = np.random.default_rng(20)
    lin = Linear(3, 5, rng)
    out = lin(Tensor(rng.normal(size=(2, 3))))
    assert out.shape == (2, 5)
    names = [n for n, _ in lin.named_parameters()]
    assert names == ["weight", "bias"]
    ln = LayerNorm(5)
    assert np.allclose(ln(out).data.mean(axis=-1), 0.0, atol=1e-12)


def test_temporal_conv_module_rejects_even_kernel():
    rng = np.random.default_rng(21)
    with pytest.raises(ConfigError):
        TemporalConv(2, 4, rng)
    # a holder of the fused node's kernel and bias, under the names that
    # checkpoints store
    conv = TemporalConv(3, 4, rng)
    assert [(name, p.shape) for name, p in conv.named_parameters()] == [
        ("kernel", (3, 4, 4)), ("bias", (4,))]


def test_temporal_conv_node_count_does_not_grow_with_kernel():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 6, 3, 4)), requires_grad=True)
    counts = [len(graph_nodes(CIATT._project(x, Linear(4, 4, rng),
                                             TemporalConv(k, 4, rng))))
              for k in (3, 5)]
    # the projection and its convolution are one node
    assert counts == [1, 1]


def test_cignn_node_count_does_not_grow_with_attributes():
    rng = np.random.default_rng(26)
    n, d = 4, 3
    adj = laplacian_normalize(np.eye(n))
    z = Tensor(rng.normal(size=(2, n, d)), requires_grad=True)
    counts = [len(graph_nodes(CIGNN(d, _degree_stack(_random_scorr(n, c, seed=c)),
                                    adj, rng)(z)))
              for c in (1, 2, 3)]
    # z @ W, attention, and the one node of the C correlation routes and
    # the structural route
    assert counts == [3, 3, 3]


def test_out_of_range_topu_index_fails_when_the_matrix_is_built():
    good = identity_topu(3)
    for bad in (3, -1):
        indices = good.indices.copy()
        indices[1, 0, 0] = bad
        topu = TopUSCorr(indices=indices, weights=good.weights)
        with pytest.raises(DimensionError):
            topu_mixing_matrix(topu)


def test_ciatt_module_structure():
    rng = np.random.default_rng(22)
    mixing = topu_mixing_matrix(identity_topu(3))
    att = CIATT(8, 2, mixing, rng)
    assert att.q_conv is None
    names = {n for n, _ in att.named_parameters()}
    assert names == {"wq.weight", "wq.bias", "wk.weight", "wk.bias",
                     "wv.weight", "wv.bias", "w_out.weight", "w_out.bias"}
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 8)))
    assert att(x, x).shape == (4, 3, 8)

    conv_att = CIATT(8, 2, mixing, rng, conv_kernel=3)
    assert conv_att.q_conv is not None and conv_att.k_conv is not None
    assert conv_att(x, x).shape == (4, 3, 8)


def test_cignn_module_initial_scales():
    rng = np.random.default_rng(23)
    scorr = _random_scorr(4, 3, seed=24)
    adj = laplacian_normalize(np.eye(4))
    layer = CIGNN(6, _degree_stack(scorr), adj, rng)
    assert np.allclose(layer.psi.data, 1.0 / 3, atol=1e-15)
    assert np.array_equal(layer.omega.data, np.ones(1))
    out = layer(Tensor(rng.normal(size=(2, 4, 6))))
    assert out.shape == (2, 4, 6)
