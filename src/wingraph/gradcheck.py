"""Central finite-difference verification of every differentiable path.

Each check builds a small random problem, computes analytic gradients via
the tape, then re-evaluates the loss at +/- h around sampled entries of
every leaf tensor.  The relative error uses max(1, |analytic|, |numeric|)
as denominator, so it behaves like an absolute error for small gradients
and a relative one for large gradients.

Scopes group checks: raw tensor ops, the graph primitives, window
self-attention, the global and local relation modules, the fused block in
all three fusions, and the boundary gate.  ``all`` runs everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .boundary import BAParams, ba_apply
from .graph import (
    GraphConfig,
    GraphLayer,
    graph_conv,
    make_theta,
    node_update,
    relation_cosine,
    relation_softmax,
    run_graph,
    sparsify,
)
from .model import WindowAttention
from .relation import (
    FusionType,
    GlobalRelationParams,
    LocalRelationParams,
    global_relation,
    graph_transformer_block,
    local_relation,
)
from .windows import WindowGrid, flatten_nodes, merge, partition, unflatten_nodes

TOLERANCE = 1e-4
STEP = 1e-5


@dataclass
class CheckResult:
    op: str
    max_rel_err: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def check_gradients(name: str, build_loss, leaves: list[T.Tensor],
                    rng: np.random.Generator, max_entries: int | None = None) -> CheckResult:
    """Compare tape gradients of ``build_loss()`` against central differences.

    ``build_loss`` must re-run the full forward pass from the current leaf
    data on every call; the harness perturbs leaf entries in place.
    """
    for leaf in leaves:
        leaf.grad = None
    T.backward(build_loss())
    analytic = [leaf.grad.reshape(-1).copy() if leaf.grad is not None
                else np.zeros(leaf.data.size) for leaf in leaves]

    worst = 0.0
    samples = 0
    for leaf, grads in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        if max_entries is None or flat.size <= max_entries:
            indices = range(flat.size)
        else:
            indices = rng.choice(flat.size, size=max_entries, replace=False)
        for i in indices:
            original = flat[i]
            flat[i] = original + STEP
            f_plus = build_loss().item()
            flat[i] = original - STEP
            f_minus = build_loss().item()
            flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * STEP)
            worst = max(worst, relative_error(grads[i], numeric))
            samples += 1
    return CheckResult(name, worst, samples)


def _leaf(rng: np.random.Generator, shape) -> T.Tensor:
    return T.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


def _projection(rng: np.random.Generator, shape) -> T.Tensor:
    return T.Tensor(rng.uniform(-1.0, 1.0, shape))


def _projected(out: T.Tensor, proj: T.Tensor) -> T.Tensor:
    return T.sum_all(T.hadamard(out, proj))


# ---------------------------------------------------------------------------
# tensor_ops scope


def _matmul_check(name, rng, a_shape, b_shape):
    a, b = _leaf(rng, a_shape), _leaf(rng, b_shape)
    proj = _projection(rng, a_shape[:-1] + b_shape[-1:])
    return check_gradients(name, lambda: _projected(T.matmul(a, b), proj), [a, b], rng)


def _check_matmul(rng):
    return _matmul_check("matmul", rng, (10, 6), (6, 8))


def _check_matmul_stacked(rng):
    return _matmul_check("matmul_stacked", rng, (3, 4, 5), (3, 5, 6))


def _check_matmul_shared(rng):
    return _matmul_check("matmul_shared", rng, (4, 5, 6), (6, 7))


def _conv_check(name, rng, x_shape, w_shape):
    x, w = _leaf(rng, x_shape), _leaf(rng, w_shape)
    proj = _projection(rng, (w_shape[0],) + x_shape[1:])
    return check_gradients(name, lambda: _projected(T.conv2d(x, w), proj), [x, w], rng)


def _check_conv2d_k1(rng):
    return _conv_check("conv2d_k1", rng, (4, 5, 5), (3, 4, 1, 1))


def _check_conv2d_k3(rng):
    return _conv_check("conv2d_k3", rng, (2, 6, 6), (2, 2, 3, 3))


def _check_conv2d_k7(rng):
    return _conv_check("conv2d_k7", rng, (1, 8, 8), (1, 1, 7, 7))


def _softmax_check(name, rng, shape):
    a = _leaf(rng, shape)
    proj = _projection(rng, shape)
    return check_gradients(name, lambda: _projected(T.softmax_rows(a), proj), [a], rng)


def _check_softmax_rows(rng):
    return _softmax_check("softmax_rows", rng, (10, 10))


def _check_softmax_rows_stacked(rng):
    return _softmax_check("softmax_rows_stacked", rng, (3, 6, 6))


def _elementwise_check(name, rng, fn):
    x = _leaf(rng, (108,))
    proj = _projection(rng, (108,))
    return check_gradients(name, lambda: _projected(fn(x), proj), [x], rng)


def _check_gelu(rng):
    return _elementwise_check("gelu", rng, T.gelu)


def _check_gelu_erf(rng):
    return _elementwise_check("gelu_erf", rng, lambda x: T.gelu(x, exact=True))


def _check_sigmoid(rng):
    return _elementwise_check("sigmoid", rng, T.sigmoid)


def _check_hadamard(rng):
    a, b = _leaf(rng, (60,)), _leaf(rng, (60,))
    proj = _projection(rng, (60,))
    return check_gradients("hadamard", lambda: _projected(T.hadamard(a, b), proj), [a, b], rng)


def _check_add(rng):
    a, b = _leaf(rng, (60,)), _leaf(rng, (60,))
    proj = _projection(rng, (60,))
    return check_gradients("add", lambda: _projected(T.add(a, b), proj), [a, b], rng)


def _check_scalar_mul(rng):
    x = _leaf(rng, (108,))
    proj = _projection(rng, (108,))
    return check_gradients("scalar_mul", lambda: _projected(T.scalar_mul(x, -1.7), proj), [x], rng)


def _check_sum_of_sigmoid(rng):
    w = _leaf(rng, (108,))
    return check_gradients("sum_of_sigmoid", lambda: T.sum_all(T.sigmoid(w)), [w], rng)


def _check_cross_entropy(rng):
    logits = _leaf(rng, (3, 6, 6))
    labels = rng.integers(0, 3, (6, 6))
    return check_gradients("cross_entropy", lambda: T.cross_entropy_logits(logits, labels),
                           [logits], rng)


def _check_window_roundtrip(rng):
    x = _leaf(rng, (3, 6, 6))
    grid = WindowGrid(3, 6, 6, 2, 3)
    proj = _projection(rng, (3, 6, 6))

    def loss():
        wins = partition(x, grid)
        nodes = flatten_nodes(wins)
        back = merge(unflatten_nodes(nodes, (3, grid.h_w, grid.w_w)), grid)
        return _projected(back, proj)

    return check_gradients("window_roundtrip", loss, [x], rng)


# ---------------------------------------------------------------------------
# graph scope


def _check_relation_cosine(rng):
    nodes = _leaf(rng, (6, 8))
    proj = _projection(rng, (6, 6))
    return check_gradients("relation_cosine",
                           lambda: _projected(relation_cosine(nodes).values, proj), [nodes], rng)


def _check_relation_softmax(rng):
    nodes = _leaf(rng, (6, 8))
    proj = _projection(rng, (6, 6))
    return check_gradients("relation_softmax",
                           lambda: _projected(relation_softmax(nodes).values, proj), [nodes], rng)


def _check_node_update(rng):
    nodes = _leaf(rng, (6, 8))
    proj = _projection(rng, (6, 8))

    def loss():
        rel = relation_softmax(nodes)
        rel = sparsify(rel, make_theta(rel.values, 0.25))
        return _projected(node_update(rel, nodes), proj)

    return check_gradients("node_update", loss, [nodes], rng)


def _check_graph_conv(rng):
    nodes = _leaf(rng, (6, 8))
    weight = T.Parameter(rng.uniform(-1, 1, (8, 8)), "w")
    layer = GraphLayer(weight)
    proj = _projection(rng, (6, 8))
    return check_gradients("graph_conv", lambda: _projected(graph_conv(nodes, layer), proj),
                           [nodes, weight], rng)


def _run_graph_check(name, rng, variant, depth, stack=()):
    nodes = _leaf(rng, stack + (5, 6))
    weights = [T.Parameter(rng.uniform(-0.7, 0.7, (6, 6)), f"w{l}") for l in range(depth)]
    layers = [GraphLayer(w, l) for l, w in enumerate(weights)]
    cfg = GraphConfig(variant=variant, theta_coefficient=0.25)
    proj = _projection(rng, stack + (5, 6))
    return check_gradients(name, lambda: _projected(run_graph(nodes, layers, cfg), proj),
                           [nodes] + weights, rng)


def _check_run_graph(rng):
    return _run_graph_check("run_graph_L2", rng, "softmax", 2)


def _check_run_graph_cosine(rng):
    return _run_graph_check("run_graph_cosine", rng, "cosine", 1)


def _check_run_graph_stacked(rng):
    return _run_graph_check("run_graph_stacked", rng, "softmax", 2, stack=(3,))


def _check_run_graph_stacked_cosine(rng):
    return _run_graph_check("run_graph_stacked_cosine", rng, "cosine", 1, stack=(3,))


# ---------------------------------------------------------------------------
# module scopes (gr / lr / gt / ba)

_MODULE_MAX_ENTRIES = 30


def _toy_setup(rng):
    c, h, w = 4, 4, 4
    grid = WindowGrid(c, h, w, 2, 2)
    x = _leaf(rng, (c, h, w))
    gr = GlobalRelationParams.create(c, grid, 2, 1, rng, "gr")
    lr = LocalRelationParams.create(c, 2, 1, rng, "lr")
    # Zero-initialised unsqueeze weights would zero these gradients too;
    # randomise them so the check exercises the full path.
    gr.unsqueeze.data = rng.uniform(-1, 1, gr.unsqueeze.shape)
    lr.unsqueeze.data = rng.uniform(-1, 1, lr.unsqueeze.shape)
    cfg = GraphConfig()
    proj = _projection(rng, (c, h, w))
    return grid, x, gr, lr, cfg, proj


def _check_gr(rng):
    grid, x, gr, _, cfg, proj = _toy_setup(rng)
    leaves = [x] + gr.named_parameters()
    return check_gradients("global_relation",
                           lambda: _projected(global_relation(x, grid, gr, cfg), proj),
                           leaves, rng, max_entries=_MODULE_MAX_ENTRIES)


def _check_lr(rng):
    grid, x, _, lr, cfg, proj = _toy_setup(rng)
    leaves = [x] + lr.named_parameters()
    return check_gradients("local_relation",
                           lambda: _projected(local_relation(x, grid, lr, cfg), proj),
                           leaves, rng, max_entries=_MODULE_MAX_ENTRIES)


def _gt_check(name, rng, fusion):
    grid, x, gr, lr, cfg, proj = _toy_setup(rng)
    leaves = [x] + gr.named_parameters() + lr.named_parameters()
    return check_gradients(
        name,
        lambda: _projected(graph_transformer_block(x, grid, gr, lr, fusion, cfg), proj),
        leaves, rng, max_entries=_MODULE_MAX_ENTRIES)


def _check_gt_gr_then_lr(rng):
    return _gt_check("gt_gr_then_lr", rng, FusionType.GR_THEN_LR)


def _check_gt_lr_then_gr(rng):
    return _gt_check("gt_lr_then_gr", rng, FusionType.LR_THEN_GR)


def _check_gt_parallel(rng):
    return _gt_check("gt_parallel", rng, FusionType.PARALLEL)


def _check_window_attention(rng):
    c, h, w = 4, 4, 4
    grid = WindowGrid(c, h, w, 2, 2)
    x = _leaf(rng, (c, h, w))
    # Default-scale weights give near-uniform attention; wider ones make the
    # softmax part of the path matter.
    block = WindowAttention(c, rng, "attn")
    for p in block.named_parameters():
        p.data = rng.uniform(-1, 1, p.shape)
    proj = _projection(rng, (c, h, w))
    return check_gradients("window_attention", lambda: _projected(block.forward(x, grid), proj),
                           [x] + block.named_parameters(), rng, max_entries=_MODULE_MAX_ENTRIES)


def _check_ba(rng):
    c, h, w = 4, 5, 5
    y = _leaf(rng, (c, h, w))
    params = BAParams.create(c, 2, rng, "ba")
    params.unsqueeze.data = rng.uniform(-1, 1, params.unsqueeze.shape)
    proj = _projection(rng, (c, h, w))
    leaves = [y] + params.named_parameters()
    return check_gradients("boundary_attention",
                           lambda: _projected(ba_apply(y, params), proj),
                           leaves, rng, max_entries=_MODULE_MAX_ENTRIES)


SCOPES: dict[str, list] = {
    "tensor_ops": [
        _check_matmul, _check_conv2d_k1, _check_conv2d_k3, _check_conv2d_k7,
        _check_softmax_rows, _check_gelu, _check_gelu_erf, _check_sigmoid,
        _check_hadamard, _check_add, _check_scalar_mul, _check_sum_of_sigmoid,
        _check_cross_entropy, _check_window_roundtrip,
        _check_matmul_stacked, _check_matmul_shared, _check_softmax_rows_stacked,
    ],
    "graph": [
        _check_relation_cosine, _check_relation_softmax, _check_node_update,
        _check_graph_conv, _check_run_graph, _check_run_graph_cosine,
        _check_run_graph_stacked, _check_run_graph_stacked_cosine,
    ],
    "attention": [_check_window_attention],
    "gr": [_check_gr],
    "lr": [_check_lr],
    "gt": [_check_gt_gr_then_lr, _check_gt_lr_then_gr, _check_gt_parallel],
    "ba": [_check_ba],
}

SCOPE_NAMES = tuple(SCOPES) + ("all",)


def run_scope(scope: str, seed: int) -> list[CheckResult]:
    """Run one scope's checks with a fresh generator per check."""
    if scope == "all":
        checks = [c for name in SCOPES for c in SCOPES[name]]
    elif scope in SCOPES:
        checks = SCOPES[scope]
    else:
        raise ValueError(f"unknown gradcheck scope {scope!r}; expected one of {SCOPE_NAMES}")
    results = []
    for index, check in enumerate(checks):
        results.append(check(np.random.default_rng(seed * 1000 + index)))
    return results


def run_gradcheck(scope: str, seeds: list[int]) -> list[CheckResult]:
    """Aggregate the worst error per op over several seeds."""
    merged: dict[str, CheckResult] = {}
    for seed in seeds:
        for result in run_scope(scope, seed):
            held = merged.get(result.op)
            if held is None:
                merged[result.op] = CheckResult(result.op, result.max_rel_err, result.samples)
            else:
                held.max_rel_err = max(held.max_rel_err, result.max_rel_err)
                held.samples += result.samples
    return list(merged.values())
