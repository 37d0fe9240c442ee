#!/usr/bin/env python3
"""The fused global + local relation block.

Demonstrates the zero-init identity property, the three fusion modes, and
the closed-form parameter count.
"""

import numpy as np

from wingraph.relation import (
    FusionType,
    RelationParams,
    graph_transformer_block,
    gt_param_count,
)
from wingraph.tensor import Tensor
from wingraph.windows import WindowGrid

rng = np.random.default_rng(1)
c, h, w = 8, 8, 8
grid = WindowGrid(c, h, w, 2, 2)
x = Tensor(rng.normal(size=(c, h, w)))

gr = RelationParams.create(c, ratio=4, pixels=grid.h_w * grid.w_w, depth=1, rng=rng, prefix="gr")
lr = RelationParams.create(c, ratio=4, pixels=1, depth=1, rng=rng, prefix="lr")

# Freshly created blocks are exact identities: the channel-restoring convs
# start at zero, so a pretrained backbone is undisturbed at insertion.
for fusion in FusionType:
    out = graph_transformer_block(x, grid, gr, lr, fusion)
    assert np.array_equal(out.data, x.data)
print("zero-init block is an exact identity for all three fusions")

# Give the restoring convs some weight and compare the fusions
gr.unsqueeze.data = rng.normal(0, 0.3, gr.unsqueeze.shape)
lr.unsqueeze.data = rng.normal(0, 0.3, lr.unsqueeze.shape)
for fusion in FusionType:
    out = graph_transformer_block(x, grid, gr, lr, fusion)
    delta = np.abs(out.data - x.data).mean()
    print(f"{fusion.value:<12} mean |out - x| = {delta:.4f}")

count = sum(p.data.size for p in gr.named_parameters() + lr.named_parameters())
print(f"\nblock parameters: {count} (closed form {gt_param_count(c, grid, 4, 4)})")
d_gr = gr.graph[0].shape[0]
print(f"global branch node dim D = (C/r) * window pixels = {d_gr}")
