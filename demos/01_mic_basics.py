"""Maximal information coefficient on hand-picked relationships.

MIC searches equal-count grid partitions of the rank scatter and normalizes
the best mutual information by log2 of the smaller bin count, producing a
[0, 1] dependence score that is invariant to monotone rescaling. The grids
searched are those with fewer than M^0.6 cells, the standard bound.
"""

import numpy as np

from corrstn import admissible_shapes, mic, mic_full

rng = np.random.default_rng(42)
m = 64
x = rng.uniform(-2, 2, size=m)

relationships = {
    "independent noise": rng.normal(size=m),
    "linear": 2.0 * x + 1.0,
    "linear + noise": 2.0 * x + rng.normal(scale=1.5, size=m),
    "quadratic": x ** 2,
    "sine (2 periods)": np.sin(2 * np.pi * x / 2),
    "step function": np.where(x > 0, 1.0, 0.0),
}

print(f"M = {m} samples, grid bound B(M) = M^0.6")
print(f"grid shapes searched: {admissible_shapes(m)}\n")
print(f"{'relationship':22s} MIC")
for name, y in relationships.items():
    print(f"{name:22s} {mic(x, y):.4f}")

print("\nmonotone invariance: mic(x, y) is computed on ranks, so any strictly")
print("increasing transform of either argument leaves it unchanged:")
y = x ** 2
print(f"  mic(x, x^2)            = {mic(x, y):.12f}")
print(f"  mic(exp(x), x^2)       = {mic(np.exp(x), y):.12f}")
print(f"  mic(x, monotone(x^2))  = {mic(x, y ** 3 + 5 * y):.12f}")

flat = np.full(m, 3.14)
r = mic_full(flat, x)
print(f"\na constant sequence carries no information: mic = {r.value}, "
      f"degenerate flag = {r.degenerate}")
