"""Reverse-mode autodiff over dense float64 numpy arrays.

Only what the forecaster runs: broadcasted add, batched matmul, the fused
linear (matmul and bias add in one node), layer norm (fused, last axis), the
fused attention core and its output projection (plain or row-independent,
with its head split done on views inside the node, run over blocks of the
leading axes its operands must share: unshared ones raise DimensionError),
the whole graph layer (its projection, its dynamic weights, its correlation
routes and its structural route in one node), reshape and narrow, a linear
projection and its temporal convolution in one node, and the MAE loss as
one node.
Graphs are built eagerly. A graph vertex is a `_Node` (parent nodes, backward
closure, gradient), apart from the `Tensor` that holds the op's output, and
each closure keeps only the arrays its backward reads. `linear` and `matmul`
skip a constant operand's gradient, and the arrays only it would read,
because the model passes them constants; every other node computes every
gradient. An intermediate output that no backward reads is therefore
freed as soon as the forward code drops its tensor, while the graph lives on.
A fused node's transients (the projection under the temporal convolution
and its unfolding, the graph layer's projection, dynamic route and routes, a
block's attention scores, the attention core's output under its projection)
are never kept: backward rebuilds them from what the node keeps, and the
graph layer keeps its relu masks as bits. No attention core keeps its
softmax weights: each keeps every weights row's max and sum, and backward
rebuilds the weights from q and k with the forward's own products, so they
have the forward's bits, and their product with v for the projection's
weight gradient; the attention node keeps nothing of its output's size. Nor
does it keep q, k or v where the node that made them has a recipe: `linear`,
`linear_conv1d_temporal` and a constant's `matmul` over either record one, a
function that remakes their output with the forward's own operations from
the arrays they keep anyway, and the attention node keeps that recipe and
runs it once at the start of its backward. Layer norm keeps its output,
which its consumer keeps anyway, instead of xhat, and divides xhat back out
in backward; it keeps xhat's values only in the columns whose gain is zero
or tiny next to its bias, where that division would lose bits, and in
practice there are none.
backward() counts each node's consumers in the graph, then runs a node as
soon as all of them have run, and accumulates each closure's gradients into
the parent nodes. Ready nodes wait on a stack, onto which each node's
parents go in operand order, so the last operand runs first: a
cross-attention's value and key producers run right after its attention
node, so their gradients fold into the memory's before the walk enters the
layer below. It consumes the graph as it goes:
once a node's backward has run, the node drops its closure, its recipe, its
parents and, unless it is the root, its gradient, so what only that node
kept is freed before the walk goes on, and the backward's peak stays near
the forward's. Only the root and the leaves keep .grad afterwards. A second
backward() through a consumed node raises GraphError; there is no option to
keep the graph. Gradient arrays are shared between nodes and never updated
in place.
Inside `no_grad()` no graph is built at all.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, DimensionError, GraphError


class _Node:
    """One autograph vertex. parents holds one entry per operand: its node,
    or None for an operand that needs no gradient. backward(g) returns one
    gradient per parent, which may be None where the parent is None. recipe,
    when set, is a function of no arguments that remakes the op's output
    with the forward's own operations, from arrays the node keeps anyway and
    parameters, never from a Tensor."""

    __slots__ = ("parents", "backward", "grad", "recipe")

    def __init__(self, parents: tuple = (), backward=None, recipe=None):
        self.parents = parents
        self.backward = backward
        self.grad = None
        self.recipe = recipe


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

        A seed gradient is required unless self is a single element. A
        first pass counts each node's consumers in the graph, one per
        operand slot, so a node given twice to one op waits for both. A
        stack then runs a node once all of its consumers have run, and
        pushes the node's parents in operand order, so the last operand runs
        first. A node's gradient is therefore complete when it runs, and the
        contributions to it are summed in the order its consumers ran. The
        order depends only on the graph and its operand order, so a seeded
        step repeats its gradients bit for bit.

        The walk consumes the graph: as soon as a node's backward has run,
        or is skipped because no gradient reached it, the node drops its
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
        # each node's consumers inside the graph, one per operand slot; a
        # leaf has nothing to run, so only nodes with a closure are counted
        pending = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if node.backward is _consumed:
                _consumed(None)     # raises, before any gradient changes
            for p in node.parents:
                if p is not None and p.backward is not None:
                    if id(p) not in pending:
                        pending[id(p)] = 0
                        stack.append(p)
                    pending[id(p)] += 1
        root.grad = grad if root.grad is None else root.grad + grad
        ready = [root] if root.backward is not None else []
        while ready:
            node = ready.pop()
            for p in _consume(node, node is root):
                if p is not None and p.backward is not None:
                    pending[id(p)] -= 1
                    if not pending[id(p)]:
                        ready.append(p)


def _consumed(g):
    """The backward of a node whose backward has already run."""
    raise GraphError("backward() reached a node that an earlier backward() "
                     "consumed; each backward() frees the graph it walks, so "
                     "run the forward pass again")


def _consume(node: _Node, keep_grad: bool) -> tuple:
    """Run node's backward into its parents' gradients, if a gradient
    reached it, then drop its closure, its recipe, its parents and, unless
    keep_grad, its gradient, and return the parents it had. The other locals
    die with the call, so nothing the node kept outlives the caller's use of
    the parents."""
    backward, parents, g = node.backward, node.parents, node.grad
    node.backward, node.parents, node.recipe = _consumed, (), None
    if not keep_grad:
        node.grad = None
    if g is not None:
        for parent, pg in zip(parents, backward(g)):
            if parent is not None:
                parent.grad = pg if parent.grad is None else parent.grad + pg
    return parents


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


def _result(data, parents, backward, recipe=None) -> Tensor:
    """Wrap an op's output; it gets a node when grad mode is on and some
    operand needs a gradient. The node keeps the operands' nodes, never
    the operand tensors, so it does not hold their arrays, and the op's
    recipe, if it has one."""
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(p._node for p in parents)
        if any(n is not None for n in nodes):
            out._node = _Node(nodes, backward, recipe)
    return out


def _recipe(t: Tensor):
    """The recipe of t's node, or None when t has no node or no recipe."""
    return None if t._node is None else t._node.recipe


# ---------------------------------------------------------------------------
# arithmetic
#
# Each backward closure captures, at forward time, the arrays and shapes its
# gradients read; it never captures an operand tensor. linear and matmul
# skip a constant operand's gradient and the arrays only it would read, as
# the model passes them constants; every other node computes every
# gradient, and _consume drops those whose operand is constant.

def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)
    return _result(a.data + b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with broadcasting over leading axes. With a
    constant a, which the node keeps for b's gradient, and a b that has a
    recipe, the node's recipe is a @ b's recipe."""
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
    make_b = None if a.requires_grad else _recipe(b)
    recipe = None if make_b is None else lambda: a_data @ make_b()
    return _result(a.data @ b.data, (a, b), backward, recipe)


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ weight + bias, the bias added in place."""
    out = x @ weight
    out += bias
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias for a (d_in, d_out) weight, as one node with the
    bits of matmul followed by add. Its backward returns all three
    gradients; it keeps x for the weight's gradient and the weight for x's.
    When it keeps both, its recipe remakes the output from them and the
    bias."""
    if x.ndim < 2 or weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise DimensionError(f"linear needs (..., d_in) @ (d_in, d_out), "
                             f"got {x.shape} @ {weight.shape}")
    if bias.shape != weight.shape[1:]:
        raise DimensionError(f"bias {bias.shape} does not match weight {weight.shape}")
    out = _affine(x.data, weight.data, bias.data)
    d_in = weight.shape[0]
    x_data = x.data if weight.requires_grad else None
    w_data = weight.data if x.requires_grad else None
    b_data, bias_grad = bias.data, bias.requires_grad

    def backward(g):
        gx = gw = gb = None
        if w_data is not None:
            gx = g @ _transposed(w_data)
        if x_data is not None:
            # one GEMM over the stacked rows of every leading axis
            gw = x_data.reshape(-1, d_in).T @ g.reshape(-1, g.shape[-1])
        if bias_grad:
            gb = _unbroadcast(g, (g.shape[-1],))
        return gx, gw, gb
    recipe = None if x_data is None or w_data is None \
        else lambda: _affine(x_data, w_data, b_data)
    return _result(out, (x, weight, bias), backward, recipe)


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
    into the projection's gradient, and, for the kernel's gradient, rebuilds
    the projection with the forward's own product and unfolds it one
    offset's window at a time, with the bits of the whole unfolding's GEMMs.
    Its recipe runs the whole forward again from what the node keeps.
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
        return np.swapaxes(_affine(x_data, w_data, b_data), -3, -2)

    # the kernel's gradient reads the projection, rebuilt from x, the weight
    # and the bias; the projection's reads the kernel, and from there the
    # weight's gradient reads x and x's the weight
    x_data, w_data, b_data, cb_data = x.data, weight.data, bias.data, conv_bias.data

    def convolve():
        out = _unfold_time(project(x_data, w_data, b_data), blocks, k * d) \
            @ conv_weight
        out += cb_data
        return np.swapaxes(out, -3, -2)

    # the projection's shape with time on axis -2, as the conv sees it
    swapped = x.shape[:-3] + (x.shape[-2], x.shape[-3], d)

    def backward(g):
        g = np.swapaxes(g, -3, -2)
        gk = _conv_kernel_grad(g, project(x_data, w_data, b_data), blocks,
                               (k, d, d_out))
        gcb = _unbroadcast(g, (d_out,))
        gp = np.swapaxes(_conv_input_grad(g, conv_weight, blocks, swapped), -3, -2)
        gx = gp @ _transposed(w_data)
        # one GEMM over the stacked rows of every leading axis
        gw = x_data.reshape(-1, d_in).T @ gp.reshape(-1, d)
        gb = _unbroadcast(gp, (d,))
        return gx, gw, gb, gk, gcb
    return _result(convolve(), (x, weight, bias, kernel, conv_bias), backward,
                   convolve)


# ---------------------------------------------------------------------------
# fused nonlinearities

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


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """A view of position-major x (..., L, S, H*d) as (..., S, H, L, d)."""
    split = x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))
    m = split.ndim
    return split.transpose(*range(m - 4), m - 3, m - 2, m - 4, m - 1)


# Score bytes per block of the attention core, measured once: of 256 KiB to
# 4 MiB, 1 MiB ran the pems08 preset's cores at N=96 and N=170 fastest (Xeon
# with a 4 MiB L2 per core, one OpenBLAS thread). A block's scores and
# softmax passes then stay in cache; the whole (B, N, 8, 36, 36) head scores,
# 14 MB per sample at N=170, do not.
_BLOCK_BYTES = 1 << 20


def _blocks(lead: tuple, slice_bytes: int) -> list:
    """Index tuples that cut the leading axes `lead` of the core into
    blocks of whole (L_q, L_k) score slices, slice_bytes each: runs of rows
    of the outermost axis whose inner slices all fit in _BLOCK_BYTES (one
    row at least), for every index of the axes before it. One empty index
    when everything fits."""
    fit = max(1, _BLOCK_BYTES // slice_bytes)
    inner = 1
    for axis in range(len(lead) - 1, -1, -1):
        if inner * lead[axis] > fit:
            step = max(1, fit // inner)
            return [outer + (slice(start, start + step),)
                    for outer in np.ndindex(*lead[:axis])
                    for start in range(0, lead[axis], step)]
        inner *= lead[axis]
    return [()]


def _weights(q: np.ndarray, kt: np.ndarray, scale: float, mask: np.ndarray | None,
             rowwise: bool, stats: tuple | None = None) -> tuple:
    """Weights softmax(q kt * scale) of one block of the core, computed in
    place in the scores, then each row's max and sum of exponentials. Given
    the stats of the forward that made the weights, the same q, kt and
    rowwise rebuild those weights bit for bit."""
    p = _product(q, kt, rowwise)
    p *= scale
    return (p,) + _masked_softmax(p, mask, stats)


def _attend(q: np.ndarray, kt: np.ndarray, v: np.ndarray, scale: float,
            mask: np.ndarray | None, rowwise: bool, out: np.ndarray,
            stats: tuple | None = None) -> tuple:
    """The weights of one block of the core and their product with v, the
    product written into out. Each weights row's max and sum are written
    into the pair of arrays stats when given, and dropped otherwise."""
    p, *rows = _weights(q, kt, scale, mask, rowwise)
    if stats is not None:
        for kept, row in zip(stats, rows):
            kept[...] = row
    return p, _product(p, v, rowwise, out)


def _keys(ks: np.ndarray, index: tuple, contiguous: bool) -> np.ndarray:
    """The transposed keys of one block, as a contiguous copy if asked."""
    kt = ks[index].swapaxes(-1, -2)
    return np.ascontiguousarray(kt) if contiguous else kt


def _attend_backward(p: np.ndarray, g: np.ndarray, q: np.ndarray, k: np.ndarray,
                     v: np.ndarray, scale: float, out: tuple) -> None:
    """Gradients of one block of the core for its output gradient g, written
    into the entries of out (q's, k's, v's): v's from the weights p, and
    through v, q's from k and k's from q."""
    gq, gk, gv = out
    np.matmul(np.swapaxes(p, -1, -2), g, out=gv)
    # push d(weights) back through softmax(q k^T * scale) into q and k
    ds = _softmax_backward(p, g @ _transposed(v))
    ds *= scale
    np.matmul(ds, k, out=gq)
    gk[...] = np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2)


def attention(q: Tensor, k: Tensor, v: Tensor, weight: Tensor, bias: Tensor,
              scale: float, heads: int,
              mask: np.ndarray | None = None, rowwise: bool = False) -> Tensor:
    """softmax(q k^T * scale) v @ weight + bias as one node: the attention
    core and its (d_v, d_out) output projection, the projection with the bits
    of `linear` on the core's output. When it builds a graph, which it does
    when any operand needs a gradient, the projection's alone included, it
    keeps the weight, each weights row's softmax max and sum, shape
    (..., L_q, 1), and each of q, k and v as the recipe of the node that
    made it, where that node has one (`linear`, `linear_conv1d_temporal`
    and a constant's `matmul` over either), or else as its array: never the
    (L_q, L_k) weights, and nothing of its output's size. Backward first
    runs those recipes, which remake q, k and v with the forward's bits
    from arrays their own nodes keep anyway. It then
    rebuilds each block's weights from q and k through the forward's own
    steps (the rowwise core's with its per-row products), so they have the
    forward's bits, and their product with v into a transient array, from
    which the weight's gradient is one GEMM over the stacked rows, as in
    `linear`. Under `no_grad` it keeps nothing.

    The operands are position-major, q (..., L_q, S, d), k (..., L_k, S, d)
    and v (..., L_k, S, d_v): each of the S positions' `heads` heads attends
    over axis -3 on its own d/heads columns, through views of the operands,
    and the head outputs come back side by side as (..., L_q, S, d_v) before
    the projection. q may be k itself. mask (L_q, L_k) blocks True positions.
    With rowwise, each query row is its own (1, d) product against the keys,
    then its own (1, L_k) product against the values, so a core row has the
    same bits for any L_q; plain GEMMs over L_q do not promise that. The
    projection is one (S, d_v) product per query row, so an output row keeps
    that promise. Backward is the same either way.

    Every slice of the leading axes (..., S, H) is independent, so forward
    and backward run over blocks of whole slices whose scores fit in
    _BLOCK_BYTES, and write each block's outputs, heads merged, straight
    into the full arrays. No row's arithmetic changes. The plain
    core multiplies each block by a contiguous copy of its transposed keys,
    which gives the strided product's bits and runs faster; the rowwise core
    keeps the strided view, since the copy changes its bits. Operands whose
    leading axes differ raise DimensionError.
    """
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
    if qs.shape[-1] != ks.shape[-1]:
        raise DimensionError(f"attention scores need queries and keys of one "
                             f"width, got {q.shape} and {k.shape}")
    if vs.shape[-2] != ks.shape[-2]:
        raise DimensionError(f"values {v.shape} do not match keys {k.shape}")
    lead = qs.shape[:-2]
    if not ks.shape[:-2] == lead == vs.shape[:-2]:
        raise DimensionError(f"attention operands need shared leading axes, "
                             f"got {q.shape}, {k.shape} and {v.shape}")
    if weight.ndim != 2 or weight.shape[0] != v.shape[-1]:
        raise DimensionError(f"output projection needs ({v.shape[-1]}, d_out), "
                             f"got {weight.shape}")
    if bias.shape != weight.shape[1:]:
        raise DimensionError(f"bias {bias.shape} does not match weight {weight.shape}")
    # checked as given: a row broadcast across the scores is fully masked too
    if mask is not None and np.logical_and.reduce(mask, axis=-1).any():
        raise ConfigError("softmax row fully masked")
    blocks = _blocks(lead, 8 * qs.shape[-2] * ks.shape[-2])
    contiguous = not rowwise
    keep = _grad_enabled and any(t.requires_grad for t in (q, k, v, weight, bias))
    row_shape = lead + (qs.shape[-2], 1)
    stats = (np.empty(row_shape), np.empty(row_shape)) if keep else None
    shapes = (q.shape, k.shape, v.shape)
    mixed_shape = q.shape[:-1] + (v.shape[-1],)
    mixed = np.empty(mixed_shape)
    mixed_split = _split_heads(mixed, heads)
    for index in blocks:
        _attend(qs[index], _keys(ks, index, contiguous), vs[index], scale, mask,
                rowwise, mixed_split[index],
                None if stats is None else (stats[0][index], stats[1][index]))
    out = mixed @ weight.data
    out += bias.data
    # v's gradient reads the weights; q's reads k and v, k's reads q and v;
    # the weight's reads the core's output, rebuilt from the weights and v,
    # and the core's output gradient reads the weight. An operand with a
    # recipe is kept as its recipe, any other as its own array, never a
    # second copy.
    sources = tuple(_recipe(t) or t.data for t in (q, k, v)) if keep else None
    w_data = weight.data

    def backward(g):
        qs, ks, vs = (_split_heads(s() if callable(s) else s, heads)
                      for s in sources)
        top, total = stats
        gw_rows = g.reshape(-1, g.shape[-1])
        gb = _unbroadcast(g, (g.shape[-1],))
        g = _split_heads(g @ _transposed(w_data), heads)
        grads = tuple(np.empty(shape) for shape in shapes)
        splits = [_split_heads(grad, heads) for grad in grads]
        rebuilt = np.empty(mixed_shape)
        rebuilt_split = _split_heads(rebuilt, heads)
        for index in blocks:
            # Rebuilding the rowwise core's weights runs its per-row products
            # again. For the pems08 preset's cross-attention at N=96 (12 query
            # rows, 36 keys, 8 heads, B=1) the core's forward plus backward
            # takes 23.3 ms, against 14.4 ms when it keeps its 2.65 MB of
            # weights (median of 20, one OpenBLAS thread).
            p = _weights(qs[index], _keys(ks, index, contiguous), scale, mask,
                         rowwise, stats=(top[index], total[index]))[0]
            _product(p, vs[index], rowwise, rebuilt_split[index])
            _attend_backward(p, g[index], qs[index], ks[index], vs[index], scale,
                             tuple(t[index] for t in splits))
        # one GEMM over the stacked rows of every leading axis
        gw = rebuilt.reshape(-1, mixed_shape[-1]).T @ gw_rows
        return grads + (gw, gb)
    return _result(out, (q, k, v, weight, bias), backward)


# ---------------------------------------------------------------------------
# the graph layer

def graph_layer(z: Tensor, w: Tensor, stack: np.ndarray, psi: Tensor,
                adj: np.ndarray, omega: Tensor) -> Tensor:
    """The whole graph layer as one node: with ZW = z @ w and the dynamic
    route X = softmax(z z^T / sqrt(d)) @ ZW, the sum over c of
    psi[c] * relu(stack[c] @ X) plus omega * relu(adj @ ZW), for z
    (..., K, d), a (d, d_out) w, a constant (C, M, K) stack and (M, K)
    adjacency, psi (C,) and omega (1,). Its forward has the bits of matmul,
    of softmax(z z^T / sqrt(d)) @ ZW as separate ops and of the routes,
    each made in one reused buffer and added onto zeros in order
    c = 0, 1, ..., then the structural route (except that a NaN route stays
    NaN, where relu gave 0).

    Building a graph it keeps z, each weights row's softmax max and sum,
    (..., K, 1), and each route's relu mask packed 8 to a byte along the
    last axis: never ZW, X, a route or the weights. Backward walks the
    core's blocks: it rebuilds each block's ZW, its weights from the stats
    (with the forward's bits) and its X, and takes route c's input gradient
    as stack[c]^T (g * mask_c), so no route is rebuilt. psi[c]'s gradient
    follows by the adjoint identity <g * mask_c, stack[c] X> =
    <stack[c]^T (g * mask_c), X> (omega's likewise, over ZW), summed per
    slice of the leading axes and reduced once after the walk, so no
    gradient depends on the blocks. Under `no_grad` it keeps nothing and
    packs no mask."""
    if z.ndim < 2 or w.ndim != 2 or z.shape[-1] != w.shape[0]:
        raise DimensionError(f"graph layer needs (..., K, d) @ (d, d_out), "
                             f"got {z.shape} @ {w.shape}")
    if stack.ndim != 3 or stack.shape[-1] != z.shape[-2]:
        raise DimensionError(f"routes need (C, M, K) over (..., K, d), "
                             f"got {stack.shape} over {z.shape}")
    if adj.shape != stack.shape[1:]:
        raise DimensionError(f"structural route {adj.shape} does not match "
                             f"the routes {stack.shape}")
    c = stack.shape[0]
    if psi.shape != (c,) or omega.shape != (1,):
        raise DimensionError(f"route weights must have shapes ({c},) and (1,), "
                             f"got {psi.shape} and {omega.shape}")
    z_data, w_data = z.data, w.data
    lead, k_len, d = z.shape[:-2], z.shape[-2], z.shape[-1]
    scale = 1.0 / np.sqrt(d)
    # route c is the structural one
    matrices = list(stack) + [adj]
    scales = list(psi.data) + [omega.data[0]]
    blocks = _blocks(lead, 8 * k_len * k_len)
    keep = _grad_enabled and any(t.requires_grad for t in (z, w, psi, omega))
    stats = (np.empty(lead + (k_len, 1)), np.empty(lead + (k_len, 1))) if keep else None
    zw = z_data @ w_data
    x = np.empty(zw.shape)
    for index in blocks:
        _attend(z_data[index], _keys(z_data, index, False), zw[index], scale, None,
                False, x[index],
                None if stats is None else (stats[0][index], stats[1][index]))
    out = np.zeros(lead + (stack.shape[1], zw.shape[-1]))
    masks = []
    r = None
    for i in range(c + 1):
        r = np.matmul(matrices[i], x if i < c else zw, out=r)
        np.maximum(r, 0.0, out=r)
        if keep:
            masks.append(np.packbits(r > 0, axis=-1))
        r *= scales[i]
        out += r
    # backward reads ZW's shape, not ZW: a closure that named zw or x would
    # keep them alive with the graph
    zw_shape = zw.shape

    def backward(g):
        top, total = stats
        gz, gzw = np.empty(z_data.shape), np.empty(zw_shape)
        # per slice of the leading axes: psi's C terms, then omega's
        partials = np.empty(lead + (c + 1,))
        for index in blocks:
            zb = z_data[index]
            zw_b = zb @ w_data
            p = _weights(zb, _keys(z_data, index, False), scale, None, False,
                         stats=(top[index], total[index]))[0]
            x_b = p @ zw_b
            gx = np.zeros(x_b.shape)
            for i in range(c + 1):
                gr = g[index] * np.unpackbits(masks[i][index], axis=-1,
                                              count=zw_shape[-1])
                gr = np.swapaxes(matrices[i], -1, -2) @ gr
                terms = gr * (x_b if i < c else zw_b)
                partials[index][..., i] = np.add.reduce(
                    terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)
                gr *= scales[i]
                if i < c:
                    gx += gr
            gk = np.empty(zb.shape)
            _attend_backward(p, gx, zb, zb, zw_b, scale, (gz[index], gk, gzw[index]))
            gz[index] += gk
            # gr is the structural route's gradient
            gzw[index] += gr
        gz += gzw @ _transposed(w_data)
        # one GEMM over the stacked rows of every leading axis
        gw = z_data.reshape(-1, d).T @ gzw.reshape(-1, zw_shape[-1])
        sums = np.add.reduce(partials.reshape(-1, c + 1), axis=0)
        return gz, gw, sums[:c], sums[c:]
    return _result(out, (z, w, psi, omega), backward)


# A layer norm column is divided back to xhat = (out - bias) / gain only
# where its gain is more than 1/16 of its bias in size: the rounding of the
# bias add, magnified by |bias / gain| < 16, then stays below 2e-15 plus a
# few units in the last place of xhat.
_GAIN_TO_BIAS = 1.0 / 16


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (eps 1e-5), scale,
    shift. When it builds a graph it keeps its output, 1/sigma, the gain and
    the bias, and backward recovers xhat as (out - bias) / gain: the output
    is the array its consumer keeps anyway, so xhat costs no bytes of its
    own. The recovered xhat is within 2e-15 of the forward's, and has its
    bits at unit gain and zero bias. Where a gain is zero, or no more than
    1/16 of its bias in size, the division would divide by zero or magnify
    the bias add's rounding, so the node keeps xhat's values for just those
    columns. Under `no_grad` it keeps nothing and finds no such column."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm affine params must be ({d},), got {gain.shape}/{bias.shape}")
    # np.add.reduce / d has the bits of .mean without numpy's Python wrapper
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xhat = x.data - mu
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv_std
    out = xhat * gain.data
    out += bias.data
    keep = _grad_enabled and (x.requires_grad or gain.requires_grad
                              or bias.requires_grad)
    # the gain's gradient reads xhat; x's reads xhat, inv_std and the gain.
    # xhat is rebuilt from the output, which its consumer keeps anyway
    if keep:
        gain_data, bias_data = gain.data, bias.data
        lossy = ~(np.abs(gain_data) > _GAIN_TO_BIAS * np.abs(bias_data))
        # a lossy column divides by 1 and is then overwritten, so no
        # division by zero happens
        divisor = np.where(lossy, 1.0, gain_data)
        lossy_xhat = xhat[..., lossy]

    def backward(g):
        xhat = out - bias_data
        xhat /= divisor
        xhat[..., lossy] = lossy_xhat
        axes = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=axes)
        gbias = g.sum(axis=axes)
        gx = g * gain_data
        mean_gx = np.add.reduce(gx, axis=-1, keepdims=True) / d
        mean_proj = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
        term = gx - mean_gx - xhat * mean_proj
        gx = term * inv_std
        return gx, ggain, gbias
    return _result(out, (x, gain, bias), backward)


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
    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


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

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int,
                   fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)

