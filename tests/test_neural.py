import numpy as np
import pytest

from corrstn import (CIATT, CIGNN, LayerNorm, SCorrTensor, TemporalConv,
                     Tensor, add_self_loops, causal_mask, laplacian_normalize,
                     top_u_normalize)
from corrstn.autodiff import linear_conv1d_temporal
from corrstn.errors import ConfigError, DataError, DimensionError
from corrstn.neural import Linear
from oracles import (finite_difference_gradient, gradient_gap, graph_nodes,
                     multi_head_attention, plain_gnn, softmax_rows,
                     top_u_mixing_by_loop)


def _random_scorr(n, c, seed=0):
    rng = np.random.default_rng(seed)
    degrees = rng.uniform(0.05, 0.95, size=(n, n, c))
    degrees = (degrees + degrees.transpose(1, 0, 2)) / 2
    for attr in range(c):
        np.fill_diagonal(degrees[:, :, attr], 1.0)
    return SCorrTensor(degrees)


def _stack(scorr):
    """The degrees stacked attribute-first, as the model lays them out."""
    return np.ascontiguousarray(np.moveaxis(scorr.degrees, 2, 0))


def _cignn(scorr, adj, w, psi, omega):
    """A CIGNN over scorr and adj whose parameters are the given tensors."""
    layer = CIGNN(w.shape[0], _stack(scorr), adj, np.random.default_rng(0))
    layer.w, layer.psi, layer.omega = w, psi, omega
    return layer


def _ciatt(mixing, heads, projections):
    """A CIATT over the mixing matrix whose q, k, v and output projections
    are the given (weight, bias) tensor pairs."""
    d = projections[0][0].shape[0]
    att = CIATT(d, heads, mixing, np.random.default_rng(0))
    for linear, (weight, bias) in zip((att.wq, att.wk, att.wv, att.w_out),
                                      projections):
        linear.weight, linear.bias = weight, bias
    return att


def _random_projections(rng, d):
    return [(rng.normal(size=(d, d)), rng.normal(size=d)) for _ in range(4)]


def _as_tensors(projections):
    return [(Tensor(w), Tensor(b)) for w, b in projections]


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
# the correlation layers

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
    got = _cignn(scorr, adj, Tensor(w), Tensor(psi), Tensor(omega))(Tensor(z)).data
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
    got = _cignn(scorr, adj, Tensor(w), Tensor(np.zeros(2)),
                 Tensor(np.ones(1)))(Tensor(z)).data
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
        out = _cignn(scorr, adj, *tensors[1:])(tensors[0])
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
    # the key/value half of CIATT: the projected keys blended across each
    # sensor's top-U peers, the values only projected
    rng = np.random.default_rng(8)
    n, u, c, d = 5, 2, 3, 4
    degrees = _random_scorr(n, c, seed=9).degrees
    mixing = top_u_normalize(SCorrTensor(degrees), u)
    projections = _random_projections(rng, d)
    x = rng.normal(size=(2, 3, n, d))
    kh, vh = _ciatt(mixing, 1, _as_tensors(projections)).keys_values(Tensor(x))
    (w_k, b_k), (w_v, b_v) = projections[1:3]
    k = x @ w_k + b_k
    peers = top_u_mixing_by_loop(degrees, u)
    want = np.zeros_like(k)
    for i in range(n):
        for j in range(n):
            want[:, :, i] += peers[i, j] * k[:, :, j]
    assert np.allclose(kh.data, want, atol=1e-12)
    assert np.allclose(kh.data, np.einsum("ij,bljd->blid", mixing, k), atol=1e-12)
    assert np.array_equal(vh.data, x @ w_v + b_v)


def test_key_value_heads_identity_topu_is_noop():
    # the identity mixing matrix (top-1 self-selection) leaves the keys as
    # their projection, bit for bit
    rng = np.random.default_rng(10)
    projections = _random_projections(rng, 2)
    x = rng.normal(size=(4, 3, 2))
    kh, _ = _ciatt(np.eye(3), 1, _as_tensors(projections)).keys_values(Tensor(x))
    w_k, b_k = projections[1]
    assert np.array_equal(kh.data, x @ w_k + b_k)


def _plain_attention(x_q, x_kv, heads, projections, mask=None):
    """Multi-head attention with the projections applied in numpy, on
    sensor-major (n, L, d) inputs."""
    (w_q, b_q), (w_k, b_k), (w_v, b_v), (w_out, b_out) = projections
    return multi_head_attention(x_q @ w_q + b_q, x_kv @ w_k + b_k,
                                x_kv @ w_v + b_v, heads, w_out, b_out, mask=mask)


def test_ciatt_identity_topu_equals_plain_attention():
    rng = np.random.default_rng(11)
    n, length, d, heads = 3, 5, 8, 2
    x_q, x_kv = (rng.normal(size=(2, n, length, d)) for _ in range(2))
    projections = _random_projections(rng, d)
    att = _ciatt(np.eye(n), heads, _as_tensors(projections))
    got = att(Tensor(np.swapaxes(x_q, 1, 2)), Tensor(np.swapaxes(x_kv, 1, 2))).data
    want = _plain_attention(x_q, x_kv, heads, projections)
    assert np.allclose(np.swapaxes(got, 1, 2), want, atol=1e-12)


def test_ciatt_single_key_is_projection_of_value():
    rng = np.random.default_rng(12)
    n, d = 4, 6
    x_q, x_kv = (rng.normal(size=(1, n, d)) for _ in range(2))
    projections = _random_projections(rng, d)
    att = _ciatt(np.eye(n), 2, _as_tensors(projections))
    got = att(Tensor(x_q), Tensor(x_kv)).data
    (w_v, b_v), (w_out, b_out) = projections[2:]
    # with one key the attention weights are exactly 1
    assert np.allclose(got, (x_kv @ w_v + b_v) @ w_out + b_out, atol=1e-12)


def test_ciatt_causal_mask_blocks_future():
    rng = np.random.default_rng(13)
    n, length, d = 2, 6, 4
    mixing = top_u_normalize(_random_scorr(n, 1, seed=14), 2)
    att = _ciatt(mixing, 2, _as_tensors(_random_projections(rng, d)))
    x_q = Tensor(rng.normal(size=(length, n, d)))
    x_kv = rng.normal(size=(length, n, d))
    mask = causal_mask(length)

    def run(keys, rowwise):
        return att.attend(x_q, att.keys_values(Tensor(keys)), mask=mask,
                          rowwise=rowwise).data

    bumped = x_kv.copy()
    bumped[4:] += 10.0
    for rowwise in (False, True):
        base, moved = run(x_kv, rowwise), run(bumped, rowwise)
        assert np.allclose(base[:4], moved[:4], atol=1e-12)
        assert not np.allclose(base[4:], moved[4:], atol=1e-3)


def test_ciatt_gradients():
    rng = np.random.default_rng(15)
    n, length, d, heads = 2, 3, 4, 2
    mixing = top_u_normalize(_random_scorr(n, 2, seed=16), 2)
    # the query and key/value inputs, then each projection's weight; the
    # biases stay constant
    slots = [rng.normal(size=(length, n, d)) for _ in range(2)]
    slots += [rng.normal(size=(d, d)) for _ in range(4)]
    biases = [Tensor(rng.normal(size=d)) for _ in range(4)]

    def ciatt(x_q, x_kv, *weights):
        att = _ciatt(mixing, heads, list(zip(weights, biases)))
        return att(x_q, x_kv)

    for slot in range(len(slots)):
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
    counts = [len(graph_nodes(CIGNN(d, _stack(_random_scorr(n, c, seed=c)),
                                    adj, rng)(z)))
              for c in (1, 2, 3)]
    # one node: z @ W, the dynamic weights, the C correlation routes and
    # the structural route
    assert counts == [1, 1, 1]


def test_ciatt_module_structure():
    rng = np.random.default_rng(22)
    mixing = np.eye(3)
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
    layer = CIGNN(6, _stack(scorr), adj, rng)
    assert np.allclose(layer.psi.data, 1.0 / 3, atol=1e-15)
    assert np.array_equal(layer.omega.data, np.ones(1))
    out = layer(Tensor(rng.normal(size=(2, 4, 6))))
    assert out.shape == (2, 4, 6)
