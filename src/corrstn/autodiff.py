"""Reverse-mode autodiff over dense float64 numpy arrays.

Only what the forecaster runs: broadcasted add, batched matmul, the fused
linear (matmul and bias add in one node), layer norm (fused, last axis), the
fused attention core (plain or row-independent, with any head split done on
views inside the node, run over blocks of its leading axes), the graph
layer's rectified route sum (its correlation routes and its structural route
in one node), reshape and narrow, a linear projection and its temporal
convolution in one node, dropout, and the MAE loss as one node.
Graphs are built eagerly. A graph vertex is a `_Node` (parent nodes, backward
closure, gradient), apart from the `Tensor` that holds the op's output, and
each closure keeps only the arrays its backward reads, for the operands that
need a gradient. An intermediate output that no backward reads is therefore
freed as soon as the forward code drops its tensor, while the graph lives on.
A fused node's transients (the projection under the temporal convolution
and its unfolding, the graph routes and their relu masks, a block's
attention scores) are never kept: backward rebuilds them from what the node
keeps. The attention core keeps its softmax weights only in its rowwise
form; otherwise it keeps each weights row's max and sum, and backward
rebuilds the weights from q and k with the forward's bits.
backward() walks a topological order once and accumulates each closure's
gradients into the parent nodes. It consumes the graph as it goes: once a
node's backward has run, the node drops its closure, its parents and, unless
it is the root, its gradient, so what only that node kept is freed before the
walk goes on, and the backward's peak stays near the forward's. Only the root
and the leaves keep .grad afterwards. A second backward() through a consumed
node raises GraphError; there is no option to keep the graph. Gradient
arrays are shared between nodes and never updated in place.
Inside `no_grad()` no graph is built at all.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, DimensionError, GraphError


class _Node:
    """One autograph vertex. parents holds one entry per operand: its node,
    or None for an operand that needs no gradient. backward(g) returns one
    gradient per parent, None where the parent is None."""

    __slots__ = ("parents", "backward", "grad")

    def __init__(self, parents: tuple = (), backward=None):
        self.parents = parents
        self.backward = backward
        self.grad = None


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value) -> None:
        self._node.grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(leaf) into .grad across the graph.

        A seed gradient is required unless self is a single element. The
        walk consumes the graph: as soon as a node's backward has run, or
        is skipped because no gradient reached it, the node drops its
        closure and its parents, and with them every array that only it
        kept. A later backward() that reaches a consumed node raises
        GraphError before it changes any gradient.
        """
        if grad is None:
            if self.data.size != 1:
                raise DimensionError(
                    f"backward() on shape {self.data.shape} needs a seed gradient")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise DimensionError(
                    f"seed shape {grad.shape} != tensor shape {self.data.shape}")
        root = self._node
        if root is None:
            return
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.backward is _consumed:
                _consumed(None)     # raises, before any gradient changes
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))
        root.grad = grad if root.grad is None else root.grad + grad
        for node in reversed(order):
            # leaves keep their gradients and have nothing to consume
            if node.backward is not None:
                _consume(node, node is root)


def _consumed(g):
    """The backward of a node whose backward has already run."""
    raise GraphError("backward() reached a node that an earlier backward() "
                     "consumed; each backward() frees the graph it walks, so "
                     "run the forward pass again")


def _consume(node: _Node, keep_grad: bool) -> None:
    """Run node's backward into its parents' gradients, if a gradient
    reached it, then drop its closure, its parents and, unless keep_grad,
    its gradient. The locals die with the call, so nothing the node kept
    outlives it."""
    backward, parents, g = node.backward, node.parents, node.grad
    node.backward, node.parents = _consumed, ()
    if not keep_grad:
        node.grad = None
    if g is not None:
        for parent, pg in zip(parents, backward(g)):
            if parent is not None:
                parent.grad = pg if parent.grad is None else parent.grad + pg


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape. A size-1
    leading axis is dropped as a view: summing one slice copies it."""
    while grad.ndim > len(shape):
        grad = grad[0] if grad.shape[0] == 1 else grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


_grad_enabled = True


@contextmanager
def no_grad():
    """Run forward passes without building an autograph."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _transposed(x: np.ndarray) -> np.ndarray:
    """Swap the last two axes into a contiguous array: numpy's matmul runs
    slower on a transposed view as its right operand than on a copy."""
    return np.ascontiguousarray(np.swapaxes(x, -1, -2))


def _result(data, parents, backward) -> Tensor:
    """Wrap an op's output; it gets a node when grad mode is on and some
    operand needs a gradient. The node keeps the operands' nodes, never
    the operand tensors, so it does not hold their arrays."""
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(p._node for p in parents)
        if any(n is not None for n in nodes):
            out._node = _Node(nodes, backward)
    return out


# ---------------------------------------------------------------------------
# arithmetic
#
# Each backward closure captures, at forward time, the arrays and shapes its
# gradients read, and only for operands that need a gradient; it never
# captures an operand tensor.

def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape = a.shape if a.requires_grad else None
    b_shape = b.shape if b.requires_grad else None

    def backward(g):
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(g, b_shape))
    return _result(a.data + b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with broadcasting over leading axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >= 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul mismatch: {a.shape} @ {b.shape}")
    # each operand's gradient reads the other operand
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        ga = gb = None
        if b_data is not None:
            ga = _unbroadcast(g @ _transposed(b_data), a_shape)
        if a_data is not None:
            if len(b_shape) == 2 and len(a_shape) > 2:
                # a weight shared by every slice: one GEMM over the stacked rows
                rows = a_data.reshape(-1, a_shape[-1])
                gb = rows.T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape)
        return ga, gb
    return _result(a.data @ b.data, (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight + bias for a (d_in, d_out) weight, as one node with the
    bits of matmul followed by add. Its backward returns all three
    gradients; it keeps x for the weight's gradient and the weight for x's."""
    if x.ndim < 2 or weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise DimensionError(f"linear needs (..., d_in) @ (d_in, d_out), "
                             f"got {x.shape} @ {weight.shape}")
    has_bias = bias is not None
    if has_bias and bias.shape != weight.shape[1:]:
        raise DimensionError(f"bias {bias.shape} does not match weight {weight.shape}")
    out = x.data @ weight.data
    if has_bias:
        out += bias.data
    d_in = weight.shape[0]
    x_data = x.data if weight.requires_grad else None
    w_data = weight.data if x.requires_grad else None
    need_bias = has_bias and bias.requires_grad

    def backward(g):
        gx = gw = gb = None
        if w_data is not None:
            gx = g @ _transposed(w_data)
        if x_data is not None:
            # one GEMM over the stacked rows of every leading axis
            gw = x_data.reshape(-1, d_in).T @ g.reshape(-1, g.shape[-1])
        if need_bias:
            gb = _unbroadcast(g, (g.shape[-1],))
        return (gx, gw, gb) if has_bias else (gx, gw)
    return _result(out, (x, weight, bias) if has_bias else (x, weight), backward)


# ---------------------------------------------------------------------------
# shape ops

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    a_shape = a.shape

    def backward(g):
        return (g.reshape(a_shape),)
    return _result(a.data.reshape(shape), (a,), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    axis = axis % a.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise DimensionError(
            f"narrow [{start}, {start + length}) outside axis of {a.shape[axis]}")
    index = tuple(slice(None) if i != axis else slice(start, start + length)
                  for i in range(a.ndim))
    a_shape = a.shape

    def backward(g):
        full = np.zeros(a_shape)
        full[index] = g
        return (full,)
    return _result(a.data[index].copy(), (a,), backward)


# ---------------------------------------------------------------------------
# temporal convolution

def _time_blocks(t_len: int, k: int, d: int) -> list:
    """(block columns, output rows, input rows) of every offset o of k
    centred windows along a time axis of t_len rows whose source row
    t + o - (k-1)//2 overlaps [0, t_len)."""
    blocks = []
    for o in range(k):
        shift = o - (k - 1) // 2
        lo, hi = max(0, -shift), min(t_len, t_len - shift)
        if lo < hi:
            blocks.append((slice(o * d, (o + 1) * d), slice(lo, hi),
                           slice(lo + shift, hi + shift)))
    return blocks


def _unfold_time(x: np.ndarray, blocks: list, width: int) -> np.ndarray:
    """The windows of x (..., T, d) side by side, (..., T, width), zero
    outside [0, T)."""
    out = np.zeros(x.shape[:-1] + (width,))
    for columns, rows, source in blocks:
        out[..., rows, columns] = x[..., source, :]
    return out


def _conv_input_grad(g: np.ndarray, weight: np.ndarray, blocks: list,
                     x_shape: tuple) -> np.ndarray:
    """The conv input's gradient for output gradient g: one product per
    offset, folded straight into the input's rows."""
    wt = _transposed(weight)
    gx = np.zeros(x_shape)
    for columns, rows, source in blocks:
        gx[..., source, :] += g[..., rows, :] @ wt[:, columns]
    return gx


def _conv_kernel_grad(g: np.ndarray, x: np.ndarray, blocks: list,
                      kernel_shape: tuple) -> np.ndarray:
    """The kernel's gradient for output gradient g and input x: per offset,
    one GEMM over the stacked rows of every leading axis of that offset's
    window of x, its zero rows included, with the bits of the whole
    unfolding's GEMMs."""
    k, d_in, d_out = kernel_shape
    g_rows = g.reshape(-1, d_out)
    gk = np.zeros((k * d_in, d_out))
    for columns, rows, source in blocks:
        block = [(slice(0, d_in), rows, source)]
        gk[columns] = _unfold_time(x, block, d_in).reshape(-1, d_in).T @ g_rows
    return gk.reshape(kernel_shape)


def linear_conv1d_temporal(x: Tensor, weight: Tensor, bias: Tensor, kernel: Tensor,
                           conv_bias: Tensor) -> Tensor:
    """A same-length convolution along axis -3 of linear(x, weight, bias),
    for position-major x (..., T, S, d_in), a (d_in, d) weight, a (k, d,
    d_out) kernel and biases (d,) and (d_out,), as one node. With time
    swapped onto axis -2, the projection's k centred, zero-padded windows are
    unfolded side by side (block o of row t is row t + o - (k-1)//2) and
    multiplied by the kernel reshaped to (k * d, d_out) in one GEMM; the
    unfolding is a transient. The node keeps x, the weight and the bias,
    never their (..., T, S, d) projection or its k times wider unfolding,
    and backward makes nothing that wide: it folds one product per offset
    into the projection's gradient, and, when the kernel needs a gradient,
    rebuilds the projection with the forward's own product and unfolds it one
    offset's window at a time, with the bits of the whole unfolding's GEMMs.
    Its output is a (..., T, S, d_out) view of a (..., S, T, d_out) array."""
    if x.ndim < 3 or weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise DimensionError(f"projection needs (..., T, S, d_in) @ (d_in, d), "
                             f"got {x.shape} @ {weight.shape}")
    if bias.shape != weight.shape[1:]:
        raise DimensionError(f"bias {bias.shape} does not match weight {weight.shape}")
    d_in, d = weight.shape
    if kernel.ndim != 3 or kernel.shape[1] != d:
        raise DimensionError(f"kernel must be (k, {d}, d_out), got {kernel.shape}")
    if conv_bias.shape != kernel.shape[2:]:
        raise DimensionError(f"bias {conv_bias.shape} does not match kernel {kernel.shape}")
    k, _, d_out = kernel.shape
    blocks = _time_blocks(x.shape[-3], k, d)
    conv_weight = kernel.data.reshape(k * d, d_out)

    def project(x_data, w_data, b_data):
        projection = x_data @ w_data
        projection += b_data
        return np.swapaxes(projection, -3, -2)

    out = _unfold_time(project(x.data, weight.data, bias.data), blocks, k * d) \
        @ conv_weight
    out += conv_bias.data
    # the kernel's gradient reads the projection, rebuilt from x, the weight
    # and the bias; the projection's reads the kernel, and from there the
    # weight's gradient reads x and x's the weight
    need_x, need_w, need_b = x.requires_grad, weight.requires_grad, bias.requires_grad
    need_kernel, need_conv_bias = kernel.requires_grad, conv_bias.requires_grad
    need_projection = need_x or need_w or need_b
    x_data = x.data if need_kernel or need_w else None
    w_data = weight.data if need_kernel or need_x else None
    b_data = bias.data if need_kernel else None
    k_data = conv_weight if need_projection else None
    # the projection's shape with time on axis -2, as the conv sees it
    swapped = x.shape[:-3] + (x.shape[-2], x.shape[-3], d)

    def backward(g):
        g = np.swapaxes(g, -3, -2)
        gx = gw = gb = gk = gcb = None
        if need_kernel:
            gk = _conv_kernel_grad(g, project(x_data, w_data, b_data), blocks,
                                   (k, d, d_out))
        if need_conv_bias:
            gcb = _unbroadcast(g, (d_out,))
        if need_projection:
            gp = np.swapaxes(_conv_input_grad(g, k_data, blocks, swapped), -3, -2)
            if need_x:
                gx = gp @ _transposed(w_data)
            if need_w:
                # one GEMM over the stacked rows of every leading axis
                gw = x_data.reshape(-1, d_in).T @ gp.reshape(-1, d)
            if need_b:
                gb = _unbroadcast(gp, (d,))
        return gx, gw, gb, gk, gcb
    return _result(np.swapaxes(out, -3, -2), (x, weight, bias, kernel, conv_bias),
                   backward)


# ---------------------------------------------------------------------------
# fused nonlinearities

def graph_routes(stack: np.ndarray, x: Tensor, psi: Tensor, adj: np.ndarray,
                 y: Tensor, omega: Tensor) -> Tensor:
    """The graph layer's route sum, sum over c of psi[c] * relu(stack[c] @ x)
    plus omega * relu(adj @ y), for a constant (C, M, K) stack and (M, K)
    adjacency, x and y (..., K, d), psi (C,) and omega (1,), as one node. It
    adds the routes in order c = 0, 1, ... onto zeros, then the structural
    route, each made in one reused buffer, with the bits of a matmul, relu
    and scaling per route and their sum (except that a NaN route stays NaN,
    where relu gave 0). Building a graph it keeps x and y, never a route or
    a relu mask: backward rebuilds each route with the forward's own product
    and derives its mask from it. Under `no_grad` it keeps nothing."""
    if stack.ndim != 3 or x.ndim < 2 or stack.shape[-1] != x.shape[-2]:
        raise DimensionError(f"routes need (C, M, K) @ (..., K, d), "
                             f"got {stack.shape} @ {x.shape}")
    if adj.shape != stack.shape[1:] or y.shape != x.shape:
        raise DimensionError(f"structural route {adj.shape} @ {y.shape} does not "
                             f"match the routes {stack.shape} @ {x.shape}")
    c = stack.shape[0]
    if psi.shape != (c,) or omega.shape != (1,):
        raise DimensionError(f"route weights must have shapes ({c},) and (1,), "
                             f"got {psi.shape} and {omega.shape}")
    # route c is the structural one
    matrices = list(stack) + [adj]
    scales = list(psi.data) + [omega.data[0]]

    def route(i, operand, buffer=None):
        buffer = np.matmul(matrices[i], operand, out=buffer)
        return np.maximum(buffer, 0.0, out=buffer)

    out = np.zeros(x.shape[:-2] + (stack.shape[1], x.shape[-1]))
    r = None
    for i in range(c + 1):
        r = route(i, x.data if i < c else y.data, r)
        r *= scales[i]
        out += r
    # psi's and x's gradients read x; omega's and y's read y
    need_x, need_psi = x.requires_grad, psi.requires_grad
    need_y, need_omega = y.requires_grad, omega.requires_grad
    x_data = x.data if need_x or need_psi else None
    y_data = y.data if need_y or need_omega else None
    x_shape = x.shape

    def masked(g, i, r):
        # the gradient reaching route i's product
        gr = g * scales[i]
        gr *= r > 0
        return np.swapaxes(matrices[i], -1, -2) @ gr

    def backward(g):
        gx = gpsi = gy = gomega = None
        r = None
        if x_data is not None:
            if need_x:
                gx = np.zeros(x_shape)
            weights = []
            for i in range(c):
                r = route(i, x_data, r)
                if need_psi:
                    weights.append(_unbroadcast(g * r, (1,) * g.ndim).item())
                if need_x:
                    gx += masked(g, i, r)
            if need_psi:
                gpsi = np.array(weights)
        if y_data is not None:
            r = route(c, y_data, r)
            if need_omega:
                gomega = _unbroadcast(g * r, (1,))
            if need_y:
                gy = masked(g, c, r)
        return gx, gpsi, gy, gomega
    return _result(out, (x, psi, y, omega), backward)


def _masked_softmax(z: np.ndarray, mask: np.ndarray | None,
                    stats: tuple | None = None) -> tuple:
    """Softmax of z along its last axis, computed in place in z, which the
    caller owns; True entries of mask, which broadcasts against z, get
    probability exactly 0. Returns each row's max and sum of exponentials,
    shape (..., 1). Given the stats an earlier call returned for the same
    scores, it uses them instead of reducing, and so gives that call's
    weights bit for bit."""
    if mask is not None:
        np.copyto(z, -np.inf, where=mask)
    if stats is None:
        top = np.maximum.reduce(z, axis=-1, keepdims=True)
    else:
        top, total = stats
    z -= top
    np.exp(z, out=z)
    if stats is None:
        total = np.add.reduce(z, axis=-1, keepdims=True)
    z /= total
    return top, total


def _softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """The softmax input's gradient for weights p and their gradient dp,
    computed in place in dp, which the caller owns."""
    dp -= np.add.reduce(dp * p, axis=-1, keepdims=True)
    dp *= p
    return dp


def _product(a: np.ndarray, b: np.ndarray, rowwise: bool,
             out: np.ndarray | None = None) -> np.ndarray:
    """a @ b, or with rowwise one (1, n) @ (n, m) product per row of a; a
    single row is such a product already. Written into out when given."""
    if rowwise and a.shape[-2] > 1:
        product = (a[..., :, None, :] @ b[..., None, :, :])[..., 0, :]
        if out is None:
            return product
        out[...] = product
        return out
    return a @ b if out is None else np.matmul(a, b, out=out)


def _split_heads(x: np.ndarray, heads: int | None) -> np.ndarray:
    """A view of position-major x (..., L, S, H*d) as (..., S, H, L, d); x
    itself without heads."""
    if heads is None:
        return x
    split = x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))
    m = split.ndim
    return split.transpose(*range(m - 4), m - 3, m - 2, m - 4, m - 1)


def _merge_heads(x: np.ndarray, heads: int | None) -> np.ndarray:
    """The inverse of `_split_heads`, as a new position-major array."""
    if heads is None:
        return x
    m = x.ndim
    merged = x.transpose(*range(m - 4), m - 2, m - 4, m - 3, m - 1)
    return merged.reshape(merged.shape[:-2] + (heads * x.shape[-1],))


# Score bytes per block of the attention core, measured once: of 256 KiB to
# 4 MiB, 1 MiB ran the pems08 preset's cores at N=96 and N=170 fastest (Xeon
# with a 4 MiB L2 per core, one OpenBLAS thread). A block's scores and
# softmax passes then stay in cache; the whole (B, N, 8, 36, 36) head scores,
# 14 MB per sample at N=170, do not.
_BLOCK_BYTES = 1 << 20
_ONE_BLOCK = ((),)


def _blocks(lead: tuple, slice_bytes: int) -> list:
    """Index tuples that cut the leading axes `lead` of the core into
    blocks of whole (L_q, L_k) score slices, slice_bytes each: runs of rows
    of the outermost axis whose inner slices all fit in _BLOCK_BYTES (one
    row at least), for every index of the axes before it. One empty index
    when everything fits."""
    if math.prod(lead) * slice_bytes <= _BLOCK_BYTES:
        return _ONE_BLOCK
    fit = max(1, _BLOCK_BYTES // slice_bytes)
    inner = 1
    for axis in range(len(lead) - 1, -1, -1):
        if inner * lead[axis] > fit:
            step = max(1, fit // inner)
            return [outer + (slice(start, start + step),)
                    for outer in np.ndindex(*lead[:axis])
                    for start in range(0, lead[axis], step)]
        inner *= lead[axis]
    return _ONE_BLOCK


def _weights(q: np.ndarray, kt: np.ndarray, scale: float, mask: np.ndarray | None,
             rowwise: bool, p: np.ndarray | None = None,
             stats: tuple | None = None) -> tuple:
    """Weights softmax(q kt * scale) of one block of the core, computed in
    place in the scores (written into p when given), then each row's max and
    sum of exponentials. Given the stats of the forward that made the
    weights, the same q and kt rebuild those weights bit for bit."""
    p = _product(q, kt, rowwise, p)
    p *= scale
    return (p,) + _masked_softmax(p, mask, stats)


def _attend(q: np.ndarray, kt: np.ndarray, v: np.ndarray, scale: float,
            mask: np.ndarray | None, rowwise: bool, p: np.ndarray | None = None,
            out: np.ndarray | None = None, stats: tuple | None = None) -> tuple:
    """The weights of one block of the core and their product with v;
    written into p and out when given. Each weights row's max and sum are
    written into the pair of arrays stats when given, and are dropped with
    the block otherwise."""
    p, *rows = _weights(q, kt, scale, mask, rowwise, p)
    if stats is not None:
        for kept, row in zip(stats, rows):
            kept[...] = row
    return p, _product(p, v, rowwise, out)


def _keys(ks: np.ndarray, index: tuple, contiguous: bool) -> np.ndarray:
    """The transposed keys of one block, as a contiguous copy if asked."""
    kt = ks[index].swapaxes(-1, -2)
    return np.ascontiguousarray(kt) if contiguous else kt


def _attend_backward(p: np.ndarray, g: np.ndarray, q, k, v, scale: float,
                     need_v: bool, out: tuple = (None, None, None)) -> tuple:
    """Gradients of one block of the core for its output gradient g: v's
    when need_v, and with v given, q's when k is given and k's when q is.
    Each is written into its entry of out (q's, k's, v's) when given."""
    gq_out, gk_out, gv_out = out
    gq = gk = gv = None
    if need_v:
        gv = np.matmul(np.swapaxes(p, -1, -2), g, out=gv_out)
    if v is not None:
        # push d(weights) back through softmax(q k^T * scale) into q and k
        ds = _softmax_backward(p, g @ _transposed(v))
        ds *= scale
        if k is not None:
            gq = np.matmul(ds, k, out=gq_out)
        if q is not None:
            gk = np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2)
            if gk_out is not None:
                gk_out[...] = gk
    return gq, gk, gv


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              heads: int | None = None, mask: np.ndarray | None = None,
              rowwise: bool = False) -> Tensor:
    """softmax(q k^T * scale) v as one node. When it builds a graph it keeps
    the operands its gradients read, q and k, and each weights row's softmax
    max and sum, shape (..., L_q, 1), never the (L_q, L_k) weights: backward
    rebuilds each block's weights from q and k through the forward's own
    steps, so they have the forward's bits. The rowwise core keeps its
    weights instead. Under `no_grad` it keeps nothing.

    Without heads, q is (..., L_q, d), k (..., L_k, d) and v (..., L_k, d_v),
    and attention runs over axis -2. With heads, the operands are
    position-major, q (..., L_q, S, d), k (..., L_k, S, d) and v
    (..., L_k, S, d_v): each of the S positions' `heads` heads attends over
    axis -3 on its own d/heads columns, through views of the operands, and
    the head outputs come back side by side as (..., L_q, S, d_v). q may be
    k itself. mask (L_q, L_k) blocks True positions. With rowwise, each query
    row is its own (1, d) product against the keys, then its own (1, L_k)
    product against the values, so a row has the same bits for any L_q;
    plain GEMMs over L_q do not promise that. Backward is the same either way.

    Every slice of the leading axes (with heads: ..., S, H) is independent,
    so when the operands share their leading axes, forward and backward run
    over blocks of whole slices whose scores fit in _BLOCK_BYTES, and write
    each block's outputs, heads merged, straight into the full arrays. No
    row's arithmetic changes. The headed core multiplies each block by a
    contiguous copy of its transposed keys, which gives the strided
    product's bits and runs faster; the core without heads and the rowwise
    core keep the strided view, since the copy changes their bits.
    Operands with broadcast leading axes run as one block.
    """
    if heads is not None:
        if q.ndim < 3 or k.ndim < 3 or v.ndim < 3:
            raise DimensionError(f"attention heads need (..., L, S, d) operands, "
                                 f"got {q.shape}, {k.shape} and {v.shape}")
        if not q.shape[-2] == k.shape[-2] == v.shape[-2]:
            raise DimensionError(f"attention heads need one position axis S, "
                                 f"got {q.shape}, {k.shape} and {v.shape}")
        if q.shape[-1] % heads or k.shape[-1] % heads or v.shape[-1] % heads:
            raise ConfigError(f"widths {q.shape[-1]}, {k.shape[-1]} and "
                              f"{v.shape[-1]} do not split into {heads} heads")
    qs, ks, vs = (_split_heads(t.data, heads) for t in (q, k, v))
    if qs.ndim < 2 or ks.ndim < 2 or qs.shape[-1] != ks.shape[-1]:
        raise DimensionError(f"attention scores need (..., L, d) operands, "
                             f"got {q.shape} and {k.shape}")
    if vs.ndim < 2 or vs.shape[-2] != ks.shape[-2]:
        raise DimensionError(f"values {v.shape} do not match keys {k.shape}")
    # checked as given: a row broadcast across the scores is fully masked too
    if mask is not None and np.logical_and.reduce(mask, axis=-1).any():
        raise ConfigError("softmax row fully masked")
    lead = qs.shape[:-2]
    blocks = _ONE_BLOCK
    if ks.shape[:-2] == lead == vs.shape[:-2]:
        blocks = _blocks(lead, 8 * qs.shape[-2] * ks.shape[-2])
    contiguous = heads is not None and not rowwise and blocks is not _ONE_BLOCK
    keep = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    # one entry per query row of the (broadcast) scores
    row_shape = np.broadcast_shapes(lead, ks.shape[:-2]) + (qs.shape[-2], 1)
    stats = (np.empty(row_shape), np.empty(row_shape)) if keep and not rowwise else None
    if blocks is _ONE_BLOCK:
        p, out = _attend(qs, _keys(ks, (), contiguous), vs, scale, mask, rowwise,
                         stats=stats)
        out = _merge_heads(out, heads)
        # the gradients' shapes before their heads are merged
        shapes = (qs.shape, ks.shape, vs.shape)
    else:
        shapes = (q.shape, k.shape, v.shape)
        p = np.empty(row_shape[:-1] + (ks.shape[-2],)) if keep and rowwise else None
        out = np.empty(q.shape[:-1] + (v.shape[-1],))
        out_split = _split_heads(out, heads)
        for index in blocks:
            _attend(qs[index], _keys(ks, index, contiguous), vs[index], scale, mask,
                    rowwise, None if p is None else p[index], out_split[index],
                    None if stats is None else (stats[0][index], stats[1][index]))
    # The rowwise core keeps its weights: rebuilding them costs one
    # (1, d) @ (d, L_k) product per row again. For the pems08 preset's
    # cross-attention at N=96 (12 query rows, 36 keys, 8 heads, B=1) that
    # took the node's forward plus backward from 11.7 to 19.5 ms (median of
    # 15, one OpenBLAS thread) to save 2.65 MB. The other cores keep q, k
    # and the row stats, and rebuild their weights in backward.
    if rowwise:
        rebuild = None
    else:
        p, rebuild = None, (qs, ks, stats)
    # v's gradient reads the weights; q's reads k and v, k's reads q and v.
    # The split views keep the operands' own arrays, never a second copy.
    need_v = v.requires_grad
    q_data = qs if k.requires_grad else None
    k_data = ks if q.requires_grad else None
    v_data = vs if q.requires_grad or k.requires_grad else None

    def weights(index):
        if rebuild is None:
            return p[index]
        q_all, k_all, (top, total) = rebuild
        return _weights(q_all[index], _keys(k_all, index, contiguous), scale, mask,
                        False, stats=(top[index], total[index]))[0]

    def backward(g):
        g = _split_heads(g, heads)
        if blocks is _ONE_BLOCK:
            grads = _attend_backward(weights(()), g, q_data, k_data, v_data, scale,
                                     need_v)
            return tuple(None if grad is None
                         else _merge_heads(_unbroadcast(grad, shape), heads)
                         for grad, shape in zip(grads, shapes))
        # the leading axes are shared, so no block's gradient needs reducing
        needs = (k_data is not None, q_data is not None, need_v)
        grads = tuple(np.empty(shape) if need else None
                      for shape, need in zip(shapes, needs))
        splits = [None if grad is None else _split_heads(grad, heads) for grad in grads]
        for index in blocks:
            _attend_backward(weights(index), g[index],
                             *(None if t is None else t[index]
                               for t in (q_data, k_data, v_data)), scale, need_v,
                             tuple(None if t is None else t[index] for t in splits))
        return grads
    return _result(out, (q, k, v), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then scale + shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm affine params must be ({d},), got {gain.shape}/{bias.shape}")
    # np.add.reduce / d has the bits of .mean without numpy's Python wrapper
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xhat = x.data - mu
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = xhat * gain.data
    out += bias.data
    # the gain's gradient reads xhat; x's reads xhat, inv_std and the gain
    need_gain, need_bias = gain.requires_grad, bias.requires_grad
    x_saved = (inv_std, gain.data) if x.requires_grad else None
    xhat_saved = xhat if x.requires_grad or need_gain else None

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        gx = ggain = gbias = None
        if need_gain:
            ggain = (g * xhat_saved).sum(axis=axes)
        if need_bias:
            gbias = g.sum(axis=axes)
        if x_saved is not None:
            inv_std, gain_data = x_saved
            gx = g * gain_data
            mean_gx = np.add.reduce(gx, axis=-1, keepdims=True) / d
            mean_proj = np.add.reduce(gx * xhat_saved, axis=-1, keepdims=True) / d
            term = gx - mean_gx - xhat_saved * mean_proj
            gx = term * inv_std
        return gx, ggain, gbias
    return _result(out, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p = 0."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)

    def backward(g):
        return (g * keep * scale,)
    return _result(x.data * keep * scale, (x,), backward)


# ---------------------------------------------------------------------------
# loss

def mae_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error of pred against a constant target of its shape, as
    one node with the bits of a difference, abs, a sum over every axis and a
    scaling by 1/size. It keeps only the difference's sign, so the
    subgradient at exactly 0 is 0."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"loss shapes: pred {pred.shape}, target {target.shape}")
    shape, scale = pred.shape, 1.0 / pred.data.size
    diff = pred.data - target
    sign = np.sign(diff)

    def backward(g):
        return (np.broadcast_to(g * scale, shape) * sign,)
    total = np.abs(diff).sum(axis=tuple(range(diff.ndim)))
    return _result(total * scale, (pred,), backward)


# ---------------------------------------------------------------------------
# parameters and modules

class Parameter(Tensor):
    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name


class Module:
    """Parameter container; children are discovered by attribute scan."""

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = ""):
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{i}", item

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int,
                   fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)

