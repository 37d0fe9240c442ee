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

import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .boundary import BAParams, ba_apply
from .graph import (
    GraphConfig,
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
    RelationParams,
    global_relation,
    graph_transformer_block,
    local_relation,
)
from .windows import WindowGrid, merge_nodes, window_nodes

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

    errors = []
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
            errors.append(relative_error(grads[i], numeric))
    return CheckResult(name, float(np.max(errors, initial=0.0)), len(errors))


def _leaf(rng: np.random.Generator, shape) -> T.Tensor:
    return T.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


def _projected_check(name, rng, forward, leaves, max_entries=None) -> CheckResult:
    """Check the loss ``sum(forward() * proj)`` for a random ``proj`` of the output's shape."""
    proj = T.Tensor(rng.uniform(-1.0, 1.0, forward().shape))
    return check_gradients(name, lambda: T.sum_all(T.hadamard(forward(), proj)), leaves, rng,
                           max_entries)


def _op_check(fn, *shapes):
    """A check of ``fn`` on one random leaf per shape, drawn in order."""
    def check(name, rng):
        leaves = [_leaf(rng, shape) for shape in shapes]
        return _projected_check(name, rng, lambda: fn(*leaves), leaves)
    return check


def _module_check(build, shape=(4, 4, 4)):
    """A sampled check of a module: ``build(rng)`` gives its forward and parameters."""
    def check(name, rng):
        x = _leaf(rng, shape)
        forward, params = build(rng)
        return _projected_check(name, rng, lambda: forward(x), [x] + params, max_entries=30)
    return check


def _sum_of_sigmoid(name, rng):
    w = _leaf(rng, (108,))
    return check_gradients(name, lambda: T.sum_all(T.sigmoid(w)), [w], rng)


def _cross_entropy(name, rng):
    logits = _leaf(rng, (3, 6, 6))
    labels = rng.integers(0, 3, (6, 6))
    return check_gradients(name, lambda: T.cross_entropy_logits(logits, labels), [logits], rng)


def _window_roundtrip(x):
    grid = WindowGrid(3, 6, 6, 2, 3)
    return merge_nodes(window_nodes(x, grid), grid)


def _pruned_update(nodes):
    rel = relation_softmax(nodes)
    return node_update(sparsify(rel, make_theta(rel.values, 0.25)), nodes)


def _run_graph_check(variant, depth, stack=()):
    def check(name, rng):
        nodes = _leaf(rng, stack + (5, 6))
        weights = [T.Parameter(rng.uniform(-0.7, 0.7, (6, 6)), f"w{l}") for l in range(depth)]
        cfg = GraphConfig(variant=variant, theta_coefficient=0.25)
        return _projected_check(name, rng, lambda: run_graph(nodes, weights, cfg), [nodes] + weights)
    return check


def _window_attention(rng):
    block = WindowAttention.create(4, rng, "attn")
    # Default-scale weights give near-uniform attention; wider ones make the
    # softmax part of the path matter.
    for p in block.named_parameters():
        p.data = rng.uniform(-1, 1, p.shape)
    grid = WindowGrid(4, 4, 4, 2, 2)
    return (lambda x: block.forward(x, grid)), block.named_parameters()


def _relation_check(forward, *branches):
    """A module check of ``forward(x, grid, *params)`` over the named branches' parameters, in that order.

    Both branches' parameters are drawn for every row, so each row sees the
    same random stream whichever branches it checks.
    """
    def build(rng):
        grid = WindowGrid(4, 4, 4, 2, 2)
        params = {"gr": RelationParams.create(4, 2, grid.h_w * grid.w_w, 1, rng, "gr"),
                  "lr": RelationParams.create(4, 2, 1, 1, rng, "lr")}
        # Zero-initialised unsqueeze weights would zero these gradients too;
        # randomise them so the check exercises the full path.
        for branch in params.values():
            branch.unsqueeze.data = rng.uniform(-1, 1, branch.unsqueeze.shape)
        leaves = [p for b in branches for p in params[b].named_parameters()]
        return (lambda x: forward(x, grid, *(params[b] for b in branches))), leaves
    return _module_check(build)


def _boundary_attention(rng):
    params = BAParams.create(4, 2, rng, "ba")
    params.unsqueeze.data = rng.uniform(-1, 1, params.unsqueeze.shape)
    return (lambda y: ba_apply(y, params)), params.named_parameters()


# Rows look their ops up when the check runs, so a patched ``tensor``
# function is the one checked.
SCOPES: dict[str, list] = {
    "tensor_ops": [
        ("matmul", _op_check(lambda a, b: T.matmul(a, b), (10, 6), (6, 8))),
        ("conv2d_k1", _op_check(lambda x, w: T.conv2d(x, w), (4, 5, 5), (3, 4, 1, 1))),
        ("conv2d_k3", _op_check(lambda x, w: T.conv2d(x, w), (2, 6, 6), (2, 2, 3, 3))),
        ("conv2d_k7", _op_check(lambda x, w: T.conv2d(x, w), (1, 8, 8), (1, 1, 7, 7))),
        ("softmax_rows", _op_check(lambda a: T.softmax_rows(a), (10, 10))),
        ("gelu", _op_check(lambda x: T.gelu(x), (108,))),
        ("sigmoid", _op_check(lambda x: T.sigmoid(x), (108,))),
        ("hadamard", _op_check(lambda a, b: T.hadamard(a, b), (60,), (60,))),
        ("add", _op_check(lambda a, b: T.add(a, b), (60,), (60,))),
        ("scalar_mul", _op_check(lambda x: T.scalar_mul(x, -1.7), (108,))),
        ("sum_of_sigmoid", _sum_of_sigmoid),
        ("cross_entropy", _cross_entropy),
        ("window_roundtrip", _op_check(_window_roundtrip, (3, 6, 6))),
        ("matmul_stacked", _op_check(lambda a, b: T.matmul(a, b), (3, 4, 5), (3, 5, 6))),
        ("matmul_shared", _op_check(lambda a, b: T.matmul(a, b), (4, 5, 6), (6, 7))),
        ("softmax_rows_stacked", _op_check(lambda a: T.softmax_rows(a), (3, 6, 6))),
    ],
    "graph": [
        ("relation_cosine", _op_check(lambda n: relation_cosine(n).values, (6, 8))),
        ("relation_softmax", _op_check(lambda n: relation_softmax(n).values, (6, 8))),
        ("node_update", _op_check(_pruned_update, (6, 8))),
        ("run_graph_L2", _run_graph_check("softmax", 2)),
        ("run_graph_cosine", _run_graph_check("cosine", 1)),
        ("run_graph_stacked", _run_graph_check("softmax", 2, stack=(3,))),
        ("run_graph_stacked_cosine", _run_graph_check("cosine", 1, stack=(3,))),
    ],
    "attention": [("window_attention", _module_check(_window_attention))],
    "gr": [("global_relation", _relation_check(global_relation, "gr"))],
    "lr": [("local_relation", _relation_check(local_relation, "lr"))],
    "gt": [(f"gt_{fusion.value}", _relation_check(partial(graph_transformer_block, fusion=fusion), "gr", "lr"))
           for fusion in FusionType],
    "ba": [("boundary_attention", _module_check(_boundary_attention, (4, 5, 5)))],
}

SCOPE_NAMES = tuple(SCOPES) + ("all",)


def run_scope(scope: str, seed: int) -> list[CheckResult]:
    """Run one scope's checks, each on a generator keyed by the seed and its
    name, so a row gives the same result in its own scope and in ``all``."""
    if scope == "all":
        checks = [c for name in SCOPES for c in SCOPES[name]]
    elif scope in SCOPES:
        checks = SCOPES[scope]
    else:
        raise ValueError(f"unknown gradcheck scope {scope!r}; expected one of {SCOPE_NAMES}")
    # crc32, unlike the salted hash(), names the same stream in every process.
    return [check(name, np.random.default_rng((seed, zlib.crc32(name.encode()))))
            for name, check in checks]


def run_gradcheck(scope: str, seeds: list[int]) -> list[CheckResult]:
    """Aggregate the worst error per op over several seeds."""
    by_op: dict[str, list[CheckResult]] = {}
    for seed in seeds:
        for result in run_scope(scope, seed):
            by_op.setdefault(result.op, []).append(result)
    return [CheckResult(op, float(np.max([r.max_rel_err for r in results])),
                        sum(r.samples for r in results))
            for op, results in by_op.items()]
