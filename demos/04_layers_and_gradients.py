"""The autodiff engine and the two correlation-aware layers.

Shows reverse-mode gradients of the training loss, the MAE as one node over
a fused linear map, agreeing with finite differences, the key
reconstruction collapsing to plain attention under an identity top-U, and the
graph layer separating its correlation and structural branches. Both layers
are modules: `CIATT` runs on position-major (L, N, d) inputs, where
`keys_values` blends the projected keys across correlated sensors and
`attend` runs the queries' heads against them and projects the output.
Heads are split inside the one attention node, on views of its operands, so
no layout op enters the graph; every linear map is one fused node.
"""

import numpy as np

from corrstn import (CIATT, CIGNN, SCorrTensor, Tensor, add_self_loops,
                     causal_mask, laplacian_normalize, mae_loss, top_u_normalize)
from corrstn.autodiff import linear

rng = np.random.default_rng(0)

# --- reverse mode vs a finite difference probe --------------------------
w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
x = Tensor(rng.normal(size=(5, 3)))
target = rng.normal(size=(5, 3))
loss = mae_loss(linear(x, w, Tensor(np.zeros(3))), target)
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
x = Tensor(rng.normal(size=(length, n, d)))
plain_att = CIATT(d, 2, np.eye(n), np.random.default_rng(1))
plain = plain_att(x, x)
print(f"\nidentity top-U leaves keys untouched -> plain attention, "
      f"output {plain.shape}")

degrees = rng.uniform(0.2, 0.9, size=(n, n, 1))
degrees = (degrees + degrees.transpose(1, 0, 2)) / 2
for a in range(1):
    np.fill_diagonal(degrees[:, :, a], 1.0)
# same seed, so the same projections as the plain layer
att = CIATT(d, 2, top_u_normalize(SCorrTensor(degrees), u=2),
            np.random.default_rng(1))
mixed = att(x, x)
gap = float(np.abs(mixed.data - plain.data).max())
print(f"top-2 reconstruction changes the output (max |delta| = {gap:.3f})")

# under a causal mask, position 0 may only attend to itself, so shortening
# the sequence to one step must reproduce its output exactly
masked = att(x, x, mask=causal_mask(length))
first = Tensor(x.data[:1])
print(f"causal mask keeps position 0 blind to the future: "
      f"{np.allclose(masked.data[0], att(first, first).data[0])}")

# --- graph layer ---------------------------------------------------------
z = Tensor(rng.normal(size=(n, d)))
adj = laplacian_normalize(add_self_loops(np.ones((n, n)) - np.eye(n)))
graph = CIGNN(d, np.moveaxis(degrees, 2, 0), adj, rng)


def branches(psi, omega):
    graph.psi.data, graph.omega.data = np.full(1, psi), np.full(1, omega)
    return graph(z).data


full, corr_only, struct_only = branches(1.0, 1.0), branches(1.0, 0.0), branches(0.0, 1.0)
print(f"\ngraph layer branches add up: full == corr + structural -> "
      f"{np.allclose(full, corr_only + struct_only)}")
