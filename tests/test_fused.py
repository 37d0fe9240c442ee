"""Window attention and graph rounds, each one tape op, equal their op chains byte for byte.

``WindowAttention.forward`` and each round of ``run_graph`` record a
single tape op.  The reference here is the chain of public ops that each
one replaces, built in the test; output, the input's gradient and every
weight's gradient must have the same bytes, signed zeros included.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wingraph.graph import (
    _VARIANTS,
    GraphConfig,
    make_theta,
    node_update,
    relation,
    run_graph,
    sparsify,
)
from wingraph.model import WindowAttention
from wingraph.tensor import (
    Parameter,
    Tensor,
    add,
    backward,
    hadamard,
    matmul,
    scalar_mul,
    softmax_rows,
    sum_all,
    transpose,
)
from wingraph.windows import WindowGrid, merge_tokens, window_tokens


def with_signed_zeros(rng, shape):
    """Normal entries of both signs, some set to exactly 0.0 or -0.0."""
    data = rng.normal(size=shape)
    kinds = rng.integers(0, 5, size=shape)  # 0-2: keep; 3: +0.0; 4: -0.0
    data[kinds == 3] = 0.0
    data[kinds == 4] = -0.0
    return data


def run(forward, leaves, upstream):
    """Output and leaf gradients, as bytes, of ``forward()`` seeded with
    ``upstream``.  Each leaf's slot starts at -0.0, so ``backward`` adds
    the gradient to an exact additive identity and keeps its signed zeros."""
    for leaf in leaves:
        leaf.grad = np.full(leaf.shape, -0.0)
    out = forward()
    backward(sum_all(hadamard(out, Tensor(upstream))))
    return [out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]


def attention_chain(block: WindowAttention, x: Tensor, grid: WindowGrid) -> Tensor:
    tokens = window_tokens(x, grid)
    q = matmul(tokens, block.wq)
    k = matmul(tokens, block.wk)
    v = matmul(tokens, block.wv)
    att = softmax_rows(scalar_mul(matmul(q, transpose(k)), block.c ** -0.5))
    return add(x, merge_tokens(matmul(att, v), grid))


@settings(max_examples=150, deadline=None)
@given(c=st.integers(1, 8), m=st.integers(1, 3), n=st.integers(1, 3),
       h_w=st.integers(1, 3), w_w=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
# 1-pixel windows: the token regroup is a strided view there, and at C = 6
# numpy's product of that view with a weight differs from the product of a
# contiguous copy, which is what the chain's tokens Tensor holds.
@example(c=6, m=2, n=2, h_w=1, w_w=1, seed=0)
def test_window_attention_equals_op_chain(c, m, n, h_w, w_w, seed):
    rng = np.random.default_rng(seed)
    grid = WindowGrid(c, m * h_w, n * w_w, m, n)
    block = WindowAttention(c, rng, "attn")
    for p in block.named_parameters():
        p.data = with_signed_zeros(rng, p.shape)
    x = Tensor(with_signed_zeros(rng, (c, grid.H, grid.W)), requires_grad=True)
    upstream = with_signed_zeros(rng, x.shape)
    leaves = [x] + block.named_parameters()

    out = block.forward(x, grid)
    assert out._parents == (x, block.wq, block.wk, block.wv)
    assert run(lambda: block.forward(x, grid), leaves, upstream) == \
        run(lambda: attention_chain(block, x, grid), leaves, upstream)


def round_chain(x: Tensor, w: Parameter, cfg: GraphConfig) -> Tensor:
    rel = relation(x, cfg.variant)
    rel = sparsify(rel, make_theta(rel.values, cfg.theta_coefficient))
    return matmul(node_update(rel, x), w)


@st.composite
def graphs(draw):
    """Nodes of one graph or a stack: K = 1, D = 1 and 1 < D < K all occur,
    and some nodes are all-zero rows (cosine relates them with 0)."""
    k = draw(st.integers(1, 8))
    d = draw(st.sampled_from([1, k, k + 1]) | st.integers(1, 8))
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nodes = with_signed_zeros(rng, lead + (k, d))
    nodes[rng.random(lead + (k,)) < 0.2] = 0.0
    return nodes, rng


# +-1e9 puts theta far below or above every entry, so a round keeps every
# edge or prunes them all, whatever the sign of the matrix mean.
coefficients = st.sampled_from([-1e9, 1e9]) | st.floats(-1.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(graph=graphs(), variant=st.sampled_from(_VARIANTS), coefficient=coefficients,
       depth=st.integers(1, 2))
def test_graph_rounds_equal_op_chain(graph, variant, coefficient, depth):
    nodes, rng = graph
    d = nodes.shape[-1]
    weights = [Parameter(with_signed_zeros(rng, (d, d)), f"w{l}") for l in range(depth)]
    x = Tensor(nodes, requires_grad=True)
    upstream = with_signed_zeros(rng, nodes.shape)
    cfg = GraphConfig(variant=variant, theta_coefficient=coefficient)

    def chain():
        out = x
        for w in weights:
            out = round_chain(out, w, cfg)
        return out

    node = run_graph(x, weights, cfg)
    for w in reversed(weights):  # one op per round, with parents (nodes, weight)
        assert len(node._parents) == 2 and node._parents[1] is w
        node = node._parents[0]
    assert node is x
    leaves = [x] + weights
    assert run(lambda: run_graph(x, weights, cfg), leaves, upstream) == run(chain, leaves, upstream)
