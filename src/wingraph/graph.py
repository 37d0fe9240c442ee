"""Graph relation networks over K abstract nodes.

A set of node feature vectors [K, D] is related pairwise into a K x K
affinity matrix (cosine similarity or row-softmax of dot products), pruned
by a mean-derived threshold, and propagated: each node becomes the
affinity-weighted sum of its kept neighbours, followed by a learnable
right-multiplication.

``run_graph`` records one tape op per round (relate, prune, propagate,
mix), built from the raw-array helpers the public ops use, so it is
byte-identical to the op chain of those ops; the round's nodes get their
gradient parts added as (propagation + relation a-slot) + transposed slot
for softmax and propagation + cosine for cosine, the tape's order.

Every function here also takes a [B, K, D] stack of B independent graphs
(one per window, say) and treats each slice exactly as the rank-2 call
would: each graph gets its own relation matrix and its own threshold, and
graphs never exchange information.  A stacked result is bit-identical to
stacking the per-slice results.

Summation-order contract
------------------------
Node propagation accumulates over the neighbour index j in ascending
order from +0.0, within each slice of a stack.  Because adding an exact
float zero never changes a finite partial sum, the sparse evaluation (which
skips pruned entries entirely) produces bit-for-bit the same output as the
dense masked product.  The dense form, one product and one accumulate over j
up to ``_PROPAGATE_ONE_CALL_FLOATS`` and a j loop above it, may accumulate on
the transposed [D, K] output when nodes have several features but fewer than
the graph has nodes; that changes the memory layout only, not any element's
order of additions.  Benchmarks and tests rely on this; do not replace the
accumulation with a BLAS matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Parameter,
    Tensor,
    _mask_data,
    _matmul_data,
    _matmul_grads,
    _op,
    _softmax_data,
    _softmax_grad,
    apply_mask,
    matmul,
    softmax_rows,
    transpose,
)

VARIANT_COSINE = "cosine"
VARIANT_SOFTMAX = "softmax"
_VARIANTS = (VARIANT_COSINE, VARIANT_SOFTMAX)

# node_update_dense_data's size rule, in floats of the B*K*D slab a j step adds.
# Over 1-20 graphs of 4-64 nodes, product + accumulate won or tied the loop up
# to 256 floats and lost from 1024 (8 vs 26 us at [4,16,1], 520 vs 248 at [16,64,2]).
_PROPAGATE_ONE_CALL_FLOATS = 256


@dataclass
class RelationMatrix:
    """K x K node affinities, or a [B, K, K] stack of them, optionally sparsified.

    ``mask`` records the pruning decision: it flags the entries of the
    *pre-pruning* matrix strictly above :func:`sparsify`'s threshold;
    ``values`` holds those entries unchanged and exact zeros elsewhere.
    """

    values: Tensor
    mask: np.ndarray | None = None

    def __post_init__(self):
        shape = self.values.shape
        if self.values.ndim not in (2, 3) or shape[-1] != shape[-2]:
            raise ValueError(f"RelationMatrix: square matrix or stack of them required, got {list(shape)}")

    def kept_edges(self) -> int:
        """Kept entries, summed over every graph of a stack."""
        if self.mask is None:
            return self.values.data.size
        return int(self.mask.sum())


@dataclass(frozen=True)
class GraphConfig:
    """Relation variant and threshold policy for :func:`run_graph`."""

    variant: str = VARIANT_SOFTMAX
    theta_coefficient: float = 0.25

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"GraphConfig: unknown variant {self.variant!r}")
        if not np.isfinite(self.theta_coefficient):
            raise ValueError(f"GraphConfig: theta_coefficient must be finite, got {self.theta_coefficient}")


def _check_nodes(nodes, op: str) -> None:
    if nodes.ndim not in (2, 3):
        raise ValueError(f"{op}: [K, D] nodes or a [B, K, D] stack required, got {list(nodes.shape)}")


def _cosine_data(nd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosine relation values of raw nodes, with the row norms (1 for
    all-zero rows) and the nonzero-row flags that the backward reads."""
    k = nd.shape[-2]
    # vecdot takes each pair's dot product as np.dot does, so an entry does
    # not depend on the other rows; a matmul would block the sum differently.
    dots = np.vecdot(nd[..., :, None, :], nd[..., None, :, :])
    norms = np.sqrt(np.diagonal(dots, axis1=-2, axis2=-1))
    nonzero = norms > 0.0
    safe = np.where(nonzero, norms, 1.0)

    values = np.divide(dots, safe[..., :, None] * safe[..., None, :], out=dots)
    if not nonzero.all():  # zero the rows, then the columns, of all-zero nodes
        values[~nonzero] = values.mT[~nonzero] = 0.0
    values.reshape(values.shape[:-2] + (k * k,))[..., ::k + 1] = 1.0
    np.clip(values, -1.0, 1.0, out=values)
    return values, safe, nonzero


def _cosine_grad(nd: np.ndarray, values: np.ndarray, safe: np.ndarray, nonzero: np.ndarray,
                 g: np.ndarray) -> np.ndarray:
    """The nodes' gradient from the cosine values' gradient ``g``."""
    unit = nd / safe[..., None]
    h = g + g.mT
    dn = (np.matmul(h, unit) - (h * values).sum(axis=-1, keepdims=True) * unit) / safe[..., None]
    dn[~nonzero] = 0.0
    return dn


def relation_cosine(nodes: Tensor) -> RelationMatrix:
    """Pairwise cosine similarity of node rows.

    The diagonal is 1 by definition, including for all-zero rows; an
    all-zero row relates to every other node with 0.  Off-diagonal entries
    are clamped into [-1, 1] to absorb last-ulp rounding of the norm
    product.  The clamp and the zero-row convention are treated as
    pass-through / constant regions by the backward pass.
    """
    _check_nodes(nodes, "relation_cosine")
    nd = nodes.data
    values, safe, nonzero = _cosine_data(nd)
    return RelationMatrix(_op(values, (nodes,), lambda g: (_cosine_grad(nd, values, safe, nonzero, g),)))


def relation_softmax(nodes: Tensor) -> RelationMatrix:
    """Row-softmax of pairwise dot products; always row-stochastic."""
    _check_nodes(nodes, "relation_softmax")
    values = softmax_rows(matmul(nodes, transpose(nodes)))
    return RelationMatrix(values)


def relation(nodes: Tensor, variant: str) -> RelationMatrix:
    if variant == VARIANT_COSINE:
        return relation_cosine(nodes)
    if variant == VARIANT_SOFTMAX:
        return relation_softmax(nodes)
    raise ValueError(f"relation: unknown variant {variant!r}")


def make_theta(values, coefficient: float = 0.25) -> np.float64 | np.ndarray:
    """Pruning threshold c * v, where v is the mean of all K^2 entries.

    One graph gets an ``np.float64``; a [B, K, K] stack gets a [B] array,
    each graph the threshold of its own matrix.  c = 1/4 is the default; it
    is the best-performing multiple in the threshold sweep this policy mirrors.
    """
    data = values.data if isinstance(values, Tensor) else np.asarray(values, dtype=np.float64)
    # np.mean's own sum and division, without its Python wrapper.
    return float(coefficient) * (np.add.reduce(data, axis=(-2, -1)) / (data.shape[-2] * data.shape[-1]))


def _above(values: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """The mask of ``values`` strictly above ``theta``: one per graph of a stack, or one for all."""
    return values > np.asarray(theta, dtype=np.float64)[..., None, None]


def sparsify(rel: RelationMatrix, theta: float | np.ndarray) -> RelationMatrix:
    """Keep entries strictly above ``theta``; zero the rest exactly.

    For a stack, ``theta`` holds one threshold per graph (a scalar applies
    to all of them); the result records the mask, not ``theta``.  The mask
    is constant under differentiation (the indicator has zero subgradient
    at the threshold); kept entries pass gradients through unchanged.
    Idempotent on values: re-applying the same theta never changes a kept
    entry or resurrects a pruned one.
    """
    mask = _above(rel.values.data, theta)
    return RelationMatrix(apply_mask(rel.values, mask), mask)


def node_update_dense_data(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Dense propagation over raw arrays, neighbour index ascending from +0.0.

    Up to ``_PROPAGATE_ONE_CALL_FLOATS`` per step (B*K*D), one product in the
    loop's operand order takes all K steps, slot 0 gets ``+= 0.0`` and one
    ``np.add.accumulate`` adds the slots in ascending j: the loop's bytes,
    signed zeros included; larger graphs loop over j.  With 1 < D < K both
    accumulate the transposed [..., D, K] output (each step runs along K).
    """
    k, d = nodes.shape[-2:]
    transposed = 1 < d < k
    cols, rows = values, nodes
    if transposed:
        cols, rows = (np.ascontiguousarray(x.mT) for x in (nodes, values))
    if 0 < nodes.size <= _PROPAGATE_ONE_CALL_FLOATS:
        steps = cols[..., :, :, None] * rows[..., None, :, :]
        steps[..., 0, :] += 0.0
        out = np.add.accumulate(steps, axis=-2, out=steps)[..., -1, :]
    else:
        out = np.zeros(cols.shape[:-1] + rows.shape[-1:])
        step = np.empty_like(out)
        for j in range(k):
            out += np.multiply(cols[..., :, j, None], rows[..., j, None, :], out=step)
    return np.ascontiguousarray(out.mT if transposed else out)


def node_update_sparse_data(values: np.ndarray, mask: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Sparse propagation touching only kept entries.

    Bit-identical to :func:`node_update_dense_data` on the masked matrix:
    both walk neighbours in ascending order, and the skipped terms are
    exact zeros.
    """
    out = np.zeros(values.shape[:-1] + nodes.shape[-1:])
    for j in range(values.shape[-1]):
        kept = np.nonzero(mask[..., j])  # (rows,), or (slices, rows) for a stack
        if kept[0].size:
            out[kept] += values[..., j][kept][:, None] * nodes[..., j, :][kept[:-1]]
    return out


def _check_relation_matches(rel_shape, nodes_shape, op: str) -> None:
    if rel_shape[-1] != nodes_shape[-2] or rel_shape[:-2] != nodes_shape[:-2]:
        raise ValueError(f"{op}: relation {list(rel_shape)} does not match nodes {list(nodes_shape)}")


def node_update(rel: RelationMatrix, nodes: Tensor) -> Tensor:
    """Propagate node features: out = rel.values @ nodes.

    The neighbourhood is all K nodes; pruning via :func:`sparsify` is the
    only edge removal.  Forward uses the ascending-neighbour accumulation
    so the sparse path can match it exactly; backward treats it as an
    ordinary matrix product.
    """
    _check_nodes(nodes, "node_update")
    vals = rel.values
    _check_relation_matches(vals.shape, nodes.shape, "node_update")
    vd, nd = vals.data, nodes.data
    return _op(node_update_dense_data(vd, nd), (vals, nodes), lambda g: _matmul_grads(vd, nd, g))


def node_update_sparse(rel: RelationMatrix, nodes: np.ndarray) -> np.ndarray:
    """Inference-only sparse propagation; requires a sparsified relation."""
    if rel.mask is None:
        raise ValueError("node_update_sparse: relation has no mask; call sparsify first")
    _check_relation_matches(rel.values.shape, nodes.shape, "node_update_sparse")
    return node_update_sparse_data(rel.values.data, rel.mask, nodes)


def _graph_round(xd: np.ndarray, wd: np.ndarray, cfg: GraphConfig):
    """One relate -> prune -> propagate -> mix round on raw arrays: the output and its
    pullback to (nodes, weight).  It takes the steps, helpers and operand layouts of the
    op chain ``relation`` -> ``make_theta`` -> ``sparsify`` -> ``node_update`` ->
    ``matmul``, and adds the nodes' gradient parts in its tape order (module docstring).
    """
    variant = cfg.variant
    _check_nodes(xd, f"relation_{variant}")
    if variant == VARIANT_SOFTMAX:
        # The transposed nodes are a contiguous copy, as the chain's
        # ``transpose`` op made, so the product gets the same BLAS call.
        dots = _matmul_data(xd, np.ascontiguousarray(xd.mT))
        rel = _softmax_data(dots, out=dots)
    else:
        rel, safe, nonzero = _cosine_data(xd)
    # ``rel`` stays unpruned: both relation backwards read it, and the
    # pullback rebuilds the pruned copy from it rather than keep both, as
    # it rebuilds the transposed nodes from ``xd``.
    mask = _above(rel, make_theta(rel, cfg.theta_coefficient))
    prop = node_update_dense_data(_mask_data(rel, mask), xd)

    def pullback(g):
        d_prop, dw = _matmul_grads(prop, wd, g)
        d_kept, dx = _matmul_grads(_mask_data(rel, mask), xd, d_prop)
        d_rel = _mask_data(d_kept, mask)
        if variant == VARIANT_SOFTMAX:
            dx_a, dx_t = _matmul_grads(xd, np.ascontiguousarray(xd.mT), _softmax_grad(rel, d_rel))
            return (dx + dx_a) + dx_t.mT, dw
        return dx + _cosine_grad(xd, rel, safe, nonzero, d_rel), dw

    return _matmul_data(prop, wd), pullback


def run_graph(nodes: Tensor, weights: list[Parameter] | tuple[Parameter, ...],
              cfg: GraphConfig = GraphConfig()) -> Tensor:
    """Apply L rounds of relate -> prune -> propagate -> mix, one tape op each.

    The relation matrix and its threshold are recomputed from the current
    node features at every round, for each graph of a stack separately.
    Each round ends by right-multiplying with its own [D, D] weight.
    """
    if not weights:
        raise ValueError("run_graph: at least one layer required")
    x = nodes
    for w in weights:
        out, pullback = _graph_round(x.data, w.data, cfg)
        x = _op(out, (x, w), pullback)
    return x
