"""Graph and attention layers driven by the correlation tensors.

The graph layer mixes each time slice across sensors through three routes:
per-attribute correlation matrices modulated by input-dependent spatial
weights, and the normalized structural adjacency; the correlation routes of
all attributes and the structural route are one `graph_routes` node, after
the one attention node of the dynamic weights. The attention layer runs
per-sensor multi-head attention over time with keys reconstructed from each
sensor's top-U correlated peers, through one path on position-major
(..., L, N, d_model) inputs: `key_value_heads` blends the keys, and
`attend_heads` runs the attention node, which splits every operand into
heads (..., N, H, L, d_head) on views inside itself, then one fused linear
output projection. No layout op for heads enters the graph. With the
optional temporal convolution, a query or key projection and its
convolution along time are one `autodiff.linear_conv1d_temporal` node.
Layers read the mixing matrix and degree stack that a model builds once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Parameter, Tensor
from .errors import ConfigError, DataError, DimensionError
from .scorr import SCorrTensor


@dataclass(frozen=True)
class NormalizedAdjacency:
    matrix: np.ndarray


def add_self_loops(adj: np.ndarray) -> np.ndarray:
    return np.asarray(adj, dtype=np.float64) + np.eye(adj.shape[0])


def laplacian_normalize(adj: np.ndarray) -> NormalizedAdjacency:
    """Symmetric degree normalization out[i][j] = adj[i][j] / sqrt(r_i * r_j)
    with r the row sums. Callers add self-loops first so no row sum is zero."""
    adj = np.asarray(adj, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise DimensionError(f"adjacency must be square, got {adj.shape}")
    if adj.min() < 0:
        raise DataError("adjacency entries must be nonnegative")
    rowsum = adj.sum(axis=1)
    if np.any(rowsum <= 0):
        raise DataError("zero row sum; add self-loops before normalizing")
    scale = 1.0 / np.sqrt(rowsum)
    return NormalizedAdjacency(adj * scale[:, None] * scale[None, :])


def causal_mask(length: int) -> np.ndarray:
    """True above the diagonal: position t may not attend to positions > t."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


def _degree_stack(scorr: SCorrTensor) -> np.ndarray:
    """The correlation degrees stacked attribute-first, (C, N, N), contiguous
    so that the graph layer's product runs as fast backward as one (N, N)
    product per attribute."""
    return np.ascontiguousarray(np.moveaxis(scorr.degrees, 2, 0))


def cignn_forward(z: Tensor, scorr: SCorrTensor, adj: NormalizedAdjacency,
                  w: Tensor, psi: Tensor, omega: Tensor) -> Tensor:
    """Sum over attributes of psi_c * relu(SCorr_c @ S_w @ Z @ W), plus the
    structural route omega * relu(A @ Z @ W). S_w @ Z @ W, with the dynamic
    weights S_w = softmax(Z Z^T / sqrt(d_model)), is one attention node.
    The C correlation routes and the structural route are one
    `graph_routes` node over the degrees stacked attribute-first, which adds
    them in attribute order and then the structural route, so the graph
    does not grow with C. It keeps S_w @ Z @ W and Z @ W, which the
    attention node keeps as its values anyway, and rebuilds the routes in
    backward. Shapes: z (..., N, d_model), w (d, d), psi (C,), omega (1,)."""
    n = z.shape[-2]
    if scorr.n_sensors != n or adj.matrix.shape != (n, n):
        raise DimensionError(
            f"{n} sensors vs scorr {scorr.n_sensors}, adj {adj.matrix.shape}")
    return _cignn(z, _degree_stack(scorr), adj.matrix, w, psi, omega)


def _cignn(z: Tensor, stack: np.ndarray, adj: np.ndarray, w: Tensor,
           psi: Tensor, omega: Tensor) -> Tensor:
    """`cignn_forward` on the degrees as `_degree_stack` lays them out."""
    zw = ad.matmul(z, w)
    base = ad.attention(z, z, zw, 1.0 / np.sqrt(z.shape[-1]))
    return ad.graph_routes(stack, base, psi, adj, zw, omega)


def key_value_heads(mixing: Tensor, k: Tensor, v: Tensor,
                    heads: int) -> tuple[Tensor, Tensor]:
    """Key/value half of the attention: blend keys (..., L, N, d_model)
    across correlated sensors with the (N, N) top-U mixing matrix, one
    (N, N) @ (N, d) product per position. Keys and values stay
    position-major: the attention node splits them into `heads` heads on
    views, so this only checks that they split. It reads no query, so a
    decoder can compute it once per encoder memory."""
    n = mixing.shape[0]
    if k.shape != v.shape or k.ndim < 3 or k.shape[-2] != n:
        raise DimensionError(f"keys and values must be (..., L, {n}, d) and "
                             f"agree: k {k.shape}, v {v.shape}")
    if k.shape[-1] % heads != 0:
        raise ConfigError(f"d_model {k.shape[-1]} not divisible by {heads} heads")
    return ad.matmul(mixing, k), v


def attend_heads(q: Tensor, k: Tensor, v: Tensor, heads: int, w_out: Tensor,
                 b_out: Tensor | None = None, mask: np.ndarray | None = None,
                 rowwise: bool = False) -> Tensor:
    """Query half: each of the `heads` heads of q (..., L_q, N, d_model)
    attends over the keys/values k, v (..., L_k, N, d_model) from
    `key_value_heads` with softmax(Q K~^T / sqrt(d_head)); head outputs are
    concatenated and linearly projected. mask (L_q, L_k) blocks True
    positions; rowwise selects the row-independent attention core. Every
    product outside the core runs once per position, so with rowwise an
    output row has the same bits however many query rows come with it."""
    scale = 1.0 / np.sqrt(q.shape[-1] // heads)
    mixed = ad.attention(q, k, v, scale, heads=heads, mask=mask, rowwise=rowwise)
    return ad.linear(mixed, w_out, b_out)


# ---------------------------------------------------------------------------
# module classes

class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = Parameter(ad.xavier_uniform(rng, (d_in, d_out), d_in, d_out))
        self.bias = Parameter(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, d: int):
        self.gain = Parameter(np.ones(d))
        self.bias = Parameter(np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class TemporalConv(Module):
    """The kernel (k, d_model, d_model) and bias (d_model,) of a
    same-length convolution along time, k odd. It has no forward of its own:
    `CIATT` runs it with the projection under it as one
    `autodiff.linear_conv1d_temporal` node."""

    def __init__(self, kernel_size: int, d_model: int, rng: np.random.Generator):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd positive, got {kernel_size}")
        self.kernel = Parameter(ad.xavier_uniform(
            rng, (kernel_size, d_model, d_model), kernel_size * d_model, d_model))
        self.bias = Parameter(np.zeros(d_model))


class CIATT(Module):
    """Correlation attention block: projections, optional temporal conv on
    Q/K, keys blended by the (N, N) top-U `mixing`, multi-head attention,
    output projection, on position-major (..., L, N, d_model) inputs. With
    the conv, each Q or K projection and its conv along L are one
    `linear_conv1d_temporal` node that keeps the block's input, not the
    projection; `q_conv` and `k_conv` hold that node's kernels and biases."""

    def __init__(self, d_model: int, heads: int, mixing: np.ndarray,
                 rng: np.random.Generator, conv_kernel: int | None = None):
        if d_model % heads != 0:
            raise ConfigError(f"d_model {d_model} not divisible by heads {heads}")
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(d_model, d_model, rng)
        self.wv = Linear(d_model, d_model, rng)
        self.w_out = Linear(d_model, d_model, rng)
        self.q_conv = TemporalConv(conv_kernel, d_model, rng) if conv_kernel else None
        self.k_conv = TemporalConv(conv_kernel, d_model, rng) if conv_kernel else None
        self.heads = heads
        self.mixing = Tensor(mixing)

    @staticmethod
    def _project(x: Tensor, linear: Linear, conv: TemporalConv | None) -> Tensor:
        if conv is None:
            return linear(x)
        return ad.linear_conv1d_temporal(x, linear.weight, linear.bias, conv.kernel,
                                         conv.bias)

    def keys_values(self, x_kv: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values of x_kv (..., L, N, d_model), position-major; they
        depend on x_kv alone, so cross-attention can reuse them for every
        query."""
        return key_value_heads(self.mixing, self._project(x_kv, self.wk, self.k_conv),
                               self.wv(x_kv), self.heads)

    def attend(self, x_q: Tensor, kv: tuple[Tensor, Tensor],
               mask: np.ndarray | None = None, rowwise: bool = False) -> Tensor:
        """Queries of x_q attend over keys/values from `keys_values`."""
        q = self._project(x_q, self.wq, self.q_conv)
        return attend_heads(q, *kv, self.heads, self.w_out.weight, self.w_out.bias,
                            mask=mask, rowwise=rowwise)

    def __call__(self, x_q: Tensor, x_kv: Tensor,
                 mask: np.ndarray | None = None) -> Tensor:
        return self.attend(x_q, self.keys_values(x_kv), mask=mask)


class CIGNN(Module):
    """Correlation graph block over the sensor axis of (..., N, d_model),
    with `stack` the (C, N, N) degrees as `_degree_stack` lays them out."""

    def __init__(self, d_model: int, stack: np.ndarray, adj: NormalizedAdjacency,
                 rng: np.random.Generator):
        self.w = Parameter(ad.xavier_uniform(rng, (d_model, d_model), d_model, d_model))
        self.psi = Parameter(np.full(len(stack), 1.0 / len(stack)))
        self.omega = Parameter(np.ones(1))
        self.stack = stack
        self.adj = adj.matrix

    def __call__(self, z: Tensor) -> Tensor:
        return _cignn(z, self.stack, self.adj, self.w, self.psi, self.omega)
