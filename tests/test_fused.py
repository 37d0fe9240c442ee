"""Fused tape ops equal their op chains byte for byte.

``WindowAttention.forward``, each round of ``run_graph``, each relation
branch (``global_relation``, ``local_relation``, parallel fusion's two
branches together) and the boundary gate (``ba_coefficients``,
``ba_apply``) record a single tape op.  The reference here is the chain
of public ops that each one replaces, built in the test; output, the
input's gradient and every weight's gradient must have the same bytes,
signed zeros included.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wingraph.boundary import BAParams, ba_apply, ba_coefficients
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
from wingraph.relation import (
    FusionType,
    RelationParams,
    global_relation,
    graph_transformer_block,
    local_relation,
)
from wingraph.tensor import (
    Parameter,
    Tensor,
    add,
    backward,
    conv2d,
    gelu,
    hadamard,
    matmul,
    scalar_mul,
    sigmoid,
    softmax_rows,
    sum_all,
    transpose,
)
from wingraph.windows import WindowGrid, merge_nodes, merge_tokens, window_nodes, window_tokens


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
    att = softmax_rows(scalar_mul(matmul(q, transpose(k)), block.wq.shape[0] ** -0.5))
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
    block = WindowAttention.create(c, rng, "attn")
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


def correction_chain(x: Tensor, grid: WindowGrid, params: RelationParams, view: str,
                     cfg: GraphConfig) -> Tensor:
    to_nodes, from_nodes = {"global": (window_nodes, merge_nodes),
                            "local": (window_tokens, merge_tokens)}[view]
    sub = WindowGrid(params.squeeze.shape[0], grid.H, grid.W, grid.M, grid.N)
    nodes = run_graph(to_nodes(conv2d(x, params.squeeze), sub), params.graph, cfg)
    return conv2d(from_nodes(nodes, sub), params.unsqueeze)


def block_chain(x, grid, gr, lr, fusion, cfg):
    def glob(y):
        return add(y, correction_chain(y, grid, gr, "global", cfg))

    def loc(y):
        return add(y, correction_chain(y, grid, lr, "local", cfg))

    if fusion is FusionType.GR_THEN_LR:
        return loc(glob(x))
    if fusion is FusionType.LR_THEN_GR:
        return glob(loc(x))
    return add(x, add(correction_chain(x, grid, gr, "global", cfg),
                      correction_chain(x, grid, lr, "local", cfg)))


def branch_case(c, r_gr, r_lr, m, n, h_w, w_w, depth, cfg, seed):
    """A map, its window grid, both branches' parameters and an upstream
    gradient, every entry with signed zeros."""
    rng = np.random.default_rng(seed)
    grid = WindowGrid(c, m * h_w, n * w_w, m, n)
    gr = RelationParams.create(c, r_gr, h_w * w_w, depth, rng, "gr")
    lr = RelationParams.create(c, r_lr, 1, depth, rng, "lr")
    for p in gr.named_parameters() + lr.named_parameters():
        p.data = with_signed_zeros(rng, p.shape)
    x = Tensor(with_signed_zeros(rng, (c, grid.H, grid.W)), requires_grad=True)
    return x, grid, gr, lr, cfg, with_signed_zeros(rng, x.shape)


@st.composite
def branch_cases(draw):
    c = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    ratios = [r for r in range(1, c + 1) if c % r == 0]
    m, n, h_w, w_w = (draw(st.integers(1, 3)) for _ in range(4))
    # Windows of one pixel make some regroups strided views; a single window
    # makes the global graph one node.
    shape = draw(st.sampled_from(["any", "one-pixel windows", "one window"]))
    if shape == "one-pixel windows":
        h_w = w_w = 1
    elif shape == "one window":
        m = n = 1
    cfg = GraphConfig(variant=draw(st.sampled_from(_VARIANTS)), theta_coefficient=draw(coefficients))
    return branch_case(c, draw(st.sampled_from(ratios)), draw(st.sampled_from(ratios)), m, n, h_w, w_w,
                       draw(st.integers(1, 3)), cfg, draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=150, deadline=None)
@given(case=branch_cases(), view=st.sampled_from(["global", "local"]))
# Each regroup's result is a strided view in these cases, and the relation
# or the 1x1 convolution of that view differs from the one of the contiguous
# copy the chain's Tensor holds: the cosine of one window's pixel tokens, and
# the local view's map regrouped back from windows of 3x3 pixels.
@example(case=branch_case(4, 1, 1, 1, 1, 2, 2, 1, GraphConfig(variant="cosine"), 0), view="local")
@example(case=branch_case(2, 1, 1, 2, 1, 3, 3, 1, GraphConfig(), 0), view="local")
def test_relation_branch_equals_op_chain(case, view):
    x, grid, gr, lr, cfg, upstream = case
    branch, params = (global_relation, gr) if view == "global" else (local_relation, lr)
    leaves = [x] + params.named_parameters()

    assert branch(x, grid, params, cfg)._parents == tuple(leaves)
    assert run(lambda: branch(x, grid, params, cfg), leaves, upstream) == \
        run(lambda: add(x, correction_chain(x, grid, params, view, cfg)), leaves, upstream)


@settings(max_examples=150, deadline=None)
@given(case=branch_cases(), fusion=st.sampled_from(list(FusionType)))
# Parallel fusion adds three gradient parts for x; in another order they
# round differently here.
@example(case=branch_case(2, 1, 1, 2, 2, 1, 1, 1, GraphConfig(), 0), fusion=FusionType.PARALLEL)
def test_graph_transformer_block_equals_op_chain(case, fusion):
    x, grid, gr, lr, cfg, upstream = case
    leaves = [x] + gr.named_parameters() + lr.named_parameters()

    out = graph_transformer_block(x, grid, gr, lr, fusion, cfg)
    first = out if fusion is FusionType.PARALLEL else out._parents[0]  # one op per branch
    assert first._parents[0] is x
    assert run(lambda: graph_transformer_block(x, grid, gr, lr, fusion, cfg), leaves, upstream) == \
        run(lambda: block_chain(x, grid, gr, lr, fusion, cfg), leaves, upstream)


def gate_chain(y: Tensor, params: BAParams) -> Tensor:
    h = gelu(conv2d(conv2d(y, params.squeeze), params.local))
    return sigmoid(conv2d(h, params.unsqueeze))


@settings(max_examples=100, deadline=None)
@given(c=st.sampled_from([1, 2, 3, 4, 6]), r=st.sampled_from([1, 2, 3]),
       h=st.integers(1, 20), w=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1))
# A 20x20 map with two squeezed channels: the 7x7 convolution takes its per-row path.
@example(c=2, r=2, h=20, w=20, seed=0)
def test_boundary_gate_equals_op_chain(c, r, h, w, seed):
    rng = np.random.default_rng(seed)
    params = BAParams.create(c * r, r, rng, "ba")
    for p in params.named_parameters():
        p.data = with_signed_zeros(rng, p.shape)
    y = Tensor(with_signed_zeros(rng, (c * r, h, w)), requires_grad=True)
    upstream = with_signed_zeros(rng, y.shape)
    leaves = [y] + params.named_parameters()

    for fused, chain in [(ba_coefficients, gate_chain),
                         (ba_apply, lambda y, params: hadamard(y, gate_chain(y, params)))]:
        assert fused(y, params)._parents == tuple(leaves)
        assert run(lambda: fused(y, params), leaves, upstream) == \
            run(lambda: chain(y, params), leaves, upstream)
