"""The autodiff engine and the two correlation-aware layers.

Shows reverse-mode gradients of the training loss, the MAE as one node over
a fused linear map, agreeing with finite differences, the key
reconstruction collapsing to plain attention under an identity top-U, and the
graph layer separating its correlation and structural branches. Attention
runs the model's own path on position-major (L, N, d) inputs:
`key_value_heads` blends the keys across correlated sensors, and
`attend_heads` runs the queries' heads against them and projects the output.
Heads are split inside the one attention node, on views of its operands, so
neither function adds a layout op to the graph; the output projection, like
every linear map, is one fused node.
"""

import numpy as np

from corrstn import (SCorrTensor, Tensor, add_self_loops, attend_heads,
                     causal_mask, cignn_forward, identity_topu,
                     key_value_heads, laplacian_normalize, mae_loss,
                     top_u_normalize, topu_mixing_matrix)
from corrstn.autodiff import linear

rng = np.random.default_rng(0)

# --- reverse mode vs a finite difference probe --------------------------
w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
x = Tensor(rng.normal(size=(5, 3)))
target = rng.normal(size=(5, 3))
loss = mae_loss(linear(x, w), target)
loss.backward()

h = 1e-6
probe = w.data.copy()
probe[1, 2] += h
bumped = float(np.mean(np.abs(x.data @ probe - target)))
fd = (bumped - float(loss.data)) / h
print(f"dloss/dw[1,2]: reverse mode {w.grad[1, 2]:+.8f}, "
      f"forward difference {fd:+.8f}")

# --- attention with correlation-reconstructed keys ----------------------
n, length, d = 4, 6, 8
q, k, v = (Tensor(rng.normal(size=(length, n, d))) for _ in range(3))
w_out = Tensor(rng.normal(size=(d, d)))


def ciatt(topu, q, k, v, mask=None):
    mixing = Tensor(topu_mixing_matrix(topu))
    return attend_heads(q, *key_value_heads(mixing, k, v, 2), 2, w_out, mask=mask)


plain = ciatt(identity_topu(n), q, k, v)
print(f"\nidentity top-U leaves keys untouched -> plain attention, "
      f"output {plain.shape}")

degrees = rng.uniform(0.2, 0.9, size=(n, n, 1))
degrees = (degrees + degrees.transpose(1, 0, 2)) / 2
for a in range(1):
    np.fill_diagonal(degrees[:, :, a], 1.0)
topu = top_u_normalize(SCorrTensor(degrees), u=2)
mixed = ciatt(topu, q, k, v)
gap = float(np.abs(mixed.data - plain.data).max())
print(f"top-2 reconstruction changes the output (max |delta| = {gap:.3f})")

# under a causal mask, position 0 may only attend to itself, so shortening
# the sequence to one step must reproduce its output exactly
masked = ciatt(topu, q, k, v, mask=causal_mask(length))
first = ciatt(topu, Tensor(q.data[:1]), Tensor(k.data[:1]), Tensor(v.data[:1]))
print(f"causal mask keeps position 0 blind to the future: "
      f"{np.allclose(masked.data[0], first.data[0])}")

# --- graph layer ---------------------------------------------------------
z = Tensor(rng.normal(size=(n, d)))
w_g = Tensor(rng.normal(size=(d, d)))
adj = laplacian_normalize(add_self_loops(np.ones((n, n)) - np.eye(n)))
scorr = SCorrTensor(degrees)

full = cignn_forward(z, scorr, adj, w_g, Tensor(np.ones(1)), Tensor(np.ones(1)))
corr_only = cignn_forward(z, scorr, adj, w_g, Tensor(np.ones(1)),
                          Tensor(np.zeros(1)))
struct_only = cignn_forward(z, scorr, adj, w_g, Tensor(np.zeros(1)),
                            Tensor(np.ones(1)))
print(f"\ngraph layer branches add up: full == corr + structural -> "
      f"{np.allclose(full.data, corr_only.data + struct_only.data)}")
