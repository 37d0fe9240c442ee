#!/usr/bin/env python3
"""Windows as graph nodes: partition, relate, prune, propagate.

Shows the window partition of a feature map, both relation variants, the
mean-derived threshold, and that the sparse propagation path reproduces
the dense one bit for bit.
"""

import numpy as np

from wingraph.graph import (
    make_theta,
    node_update,
    node_update_sparse,
    relation_cosine,
    relation_softmax,
    sparsify,
)
from wingraph.tensor import Tensor
from wingraph.windows import WindowGrid, merge, partition, window_nodes

rng = np.random.default_rng(7)

# A 2-channel 6x6 map split into 3x2 windows -> 6 nodes
grid = WindowGrid(C=2, H=6, W=6, M=3, N=2)
x = Tensor(rng.normal(size=(2, 6, 6)))
windows = partition(x, grid)
print(f"{grid.M}x{grid.N} windows of {grid.h_w}x{grid.w_w} pixels -> {grid.num_nodes} nodes")
assert np.array_equal(merge(windows, grid).data, x.data)
print("merge(partition(x)) == x  (exact round trip)")

nodes = window_nodes(x, grid)
print("node matrix:", nodes.shape)

cos = relation_cosine(nodes)
soft = relation_softmax(nodes)
print("\ncosine relation (symmetric, unit diagonal):\n", np.round(cos.values.data, 3))
print("softmax relation (rows sum to 1):\n", np.round(soft.values.data, 3))

# Threshold at a quarter of the mean entry, the default policy
theta = make_theta(soft.values)
pruned = sparsify(soft, theta)
print(f"\ntheta = 0.25 * mean = {theta:.4f}")
print(f"kept edges: {pruned.kept_edges()} of {grid.num_nodes ** 2}")

dense = node_update(pruned, nodes).data
sparse = node_update_sparse(pruned, nodes.data)
print("max |dense - sparse| =", np.abs(dense - sparse).max())
assert np.abs(dense - sparse).max() == 0.0

# Stricter thresholds keep monotonically fewer edges
for c in (0.125, 0.25, 0.5, 1.0, 2.0):
    kept = sparsify(soft, make_theta(soft.values, c)).kept_edges()
    print(f"c = {c:<5}: kept {kept:2d} edges")
