"""Graph and attention layers driven by the correlation tensors, `CIGNN`
and `CIATT`, each a module with one forward, plus adjacency normalization
and masks. Layers read the mixing matrix and degree stack that a model
builds once; this module knows nothing of how SCorr makes them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Parameter, Tensor
from .errors import ConfigError, DataError, DimensionError


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
    projection; `q_conv` and `k_conv` hold that node's kernels and biases.
    The multi-head attention and the output projection are one `attention`
    node, which keeps the softmax stats but not the head outputs, and in
    place of q, k and v the recipes of the nodes that made them, which
    backward runs to remake them: `w_out` holds that node's weight and
    bias."""

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
        """Keys and values of x_kv (..., L, N, d_model), position-major: the
        keys blended across each sensor's correlated peers by the mixing
        matrix, one (N, N) @ (N, d) product per position. They depend on
        x_kv alone, so cross-attention can reuse them for every query."""
        k = self._project(x_kv, self.wk, self.k_conv)
        return ad.matmul(self.mixing, k), self.wv(x_kv)

    def attend(self, x_q: Tensor, kv: tuple[Tensor, Tensor],
               mask: np.ndarray | None = None, rowwise: bool = False) -> Tensor:
        """Each head of the queries of x_q attends over the keys/values from
        `keys_values` with softmax(Q K~^T / sqrt(d_head)), and the head
        outputs are projected by `w_out`, all in one attention node: the
        heads split on views inside it, and it runs the output projection
        itself, so the graph keeps nothing of the head outputs' size.
        mask (L_q, L_k) blocks True positions. With rowwise the core is
        row-independent and every other product runs once per position, so
        an output row has the same bits however many query rows come with it."""
        q = self._project(x_q, self.wq, self.q_conv)
        return ad.attention(q, *kv, self.w_out.weight, self.w_out.bias,
                            heads=self.heads, mask=mask, rowwise=rowwise)

    def __call__(self, x_q: Tensor, x_kv: Tensor,
                 mask: np.ndarray | None = None) -> Tensor:
        return self.attend(x_q, self.keys_values(x_kv), mask=mask)


class CIGNN(Module):
    """Correlation graph block over the sensor axis of z (..., N, d_model):
    the sum over attributes c of psi_c * relu(SCorr_c @ S_w @ Z @ W) plus the
    structural route omega * relu(A @ Z @ W), with `stack` the (C, N, N)
    degrees stacked attribute-first and the dynamic weights
    S_w = softmax(Z Z^T / sqrt(d_model)). The whole layer is one
    `graph_layer` node that keeps only z, S_w's softmax stats and the relu
    masks as bits, so the graph does not grow with C."""

    def __init__(self, d_model: int, stack: np.ndarray, adj: NormalizedAdjacency,
                 rng: np.random.Generator):
        self.w = Parameter(ad.xavier_uniform(rng, (d_model, d_model), d_model, d_model))
        self.psi = Parameter(np.full(len(stack), 1.0 / len(stack)))
        self.omega = Parameter(np.ones(1))
        self.stack = stack
        self.adj = adj.matrix

    def __call__(self, z: Tensor) -> Tensor:
        return ad.graph_layer(z, self.w, self.stack, self.psi, self.adj, self.omega)
