"""One relation branch, used for both graph views, and their fusion into one block.

Both views are the same module: squeeze channels by a compression ratio,
relate graph nodes, restore the channels and add the result onto the
input.  They differ only in node layout.  The global view treats each
window of the feature map as a node; the local view treats each pixel
inside a window as a node and runs one independent graph per window.  The
channel-restoring convolutions start at zero, so a freshly built block is
an exact identity.

Each branch records one tape op, ``x + u``; parallel fusion one op,
``x + (u_gr + u_lr)``.  The raw helper ``_correction`` gives ``u``: squeeze
1x1 -> regroup -> L rounds -> regroup back -> unsqueeze 1x1, from
``_conv2d``, ``_regroup_data`` and ``_graph_round``, each regroup made
contiguous as a ``Tensor`` is, so it is byte-identical to the public op
chain.  The input gets its gradient as g + the squeeze's part, or under
parallel fusion (g + the global squeeze's part) + the local one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .graph import GraphConfig, _graph_round
from .tensor import Parameter, SpecRow, Tensor, _conv2d, _op, draw_parameters
from .windows import WindowGrid, _check_map, _layout_moves, _regroup_data


class FusionType(enum.Enum):
    """How the global and local branches combine inside one block."""

    GR_THEN_LR = "gr_then_lr"
    LR_THEN_GR = "lr_then_gr"
    PARALLEL = "parallel"

    @classmethod
    def _missing_(cls, value):
        options = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown fusion type {value!r}; expected one of {options}")


@dataclass
class RelationParams:
    """Parameters of one relation branch: squeeze, graph weights, unsqueeze."""

    squeeze: Parameter
    unsqueeze: Parameter
    graph: tuple[Parameter, ...]

    @staticmethod
    def spec(c: int, ratio: int, pixels: int, depth: int, prefix: str) -> list[SpecRow]:
        """The branch's parameter rows, in ``named_parameters`` order.  ``pixels`` is the pixel
        count of one graph node: a window's ``h_w * w_w`` for the global branch, 1 for the local one."""
        if ratio < 1 or c % ratio != 0:
            raise ValueError(f"{prefix}: compression ratio {ratio} does not divide {c} channels")
        if depth < 1:
            raise ValueError(f"{prefix}: at least one graph round required, got depth {depth}")
        c_sq = c // ratio
        dim = c_sq * pixels
        return [(f"{prefix}.squeeze", (c_sq, c, 1, 1), c ** -0.5),
                (f"{prefix}.unsqueeze", (c, c_sq, 1, 1), 0.0),
                *((f"{prefix}.graph{l}", (dim, dim), dim ** -0.5) for l in range(depth))]

    @classmethod
    def create(cls, c: int, ratio: int, pixels: int, depth: int,
               rng: np.random.Generator, prefix: str) -> "RelationParams":
        _, _, (squeeze, unsqueeze, *graph) = draw_parameters(cls.spec(c, ratio, pixels, depth, prefix), rng)
        return cls(squeeze, unsqueeze, tuple(graph))

    def named_parameters(self) -> list[Parameter]:
        return [self.squeeze, self.unsqueeze, *self.graph]


def _correction(xd: np.ndarray, grid: WindowGrid, params: RelationParams, layout: str,
                cfg: GraphConfig):
    """A branch's correction of raw ``xd`` and its pullback to (x, *params.named_parameters());
    ``layout`` is "nodes" for the global view, "tokens" for the local one."""
    there, back = _layout_moves(grid, layout, params.squeeze.shape[0])
    squeezed, squeeze_pb = _conv2d(xd, params.squeeze.data)
    nodes = np.ascontiguousarray(_regroup_data(squeezed, *there))
    round_pbs = []
    for w in params.graph:
        nodes, round_pb = _graph_round(nodes, w.data, cfg)
        round_pbs.append(round_pb)
    u, unsqueeze_pb = _conv2d(np.ascontiguousarray(_regroup_data(nodes, *back)), params.unsqueeze.data)

    def pullback(g):
        d_merged, d_unsqueeze = unsqueeze_pb(g)
        d_nodes, d_graph = _regroup_data(d_merged, *there), []
        for round_pb in reversed(round_pbs):
            d_nodes, dw = round_pb(d_nodes)
            d_graph.insert(0, dw)
        dx, d_squeeze = squeeze_pb(_regroup_data(d_nodes, *back))
        return dx, d_squeeze, d_unsqueeze, *d_graph

    return u, pullback


def _residual(x: Tensor, grid: WindowGrid, branches: list[tuple[RelationParams, str]],
              cfg: GraphConfig) -> Tensor:
    """``x`` plus the corrections of ``branches``, (params, layout) pairs, as one tape op."""
    _check_map(x, grid)
    corrections = [_correction(x.data, grid, params, layout, cfg) for params, layout in branches]

    def _bw(g):
        dx, d_params = g, []
        for _, pullback in corrections:
            d_branch, *d_weights = pullback(g)
            dx = dx + d_branch
            d_params += d_weights
        return dx, *d_params

    u = reduce(np.add, (u for u, _ in corrections))
    return _op(x.data + u, (x, *(p for params, _ in branches for p in params.named_parameters())), _bw)


def global_relation(x: Tensor, grid: WindowGrid, params: RelationParams,
                    cfg: GraphConfig = GraphConfig()) -> Tensor:
    """Relate windows globally; returns x plus the learned correction."""
    return _residual(x, grid, [(params, "nodes")], cfg)


def local_relation(x: Tensor, grid: WindowGrid, params: RelationParams,
                   cfg: GraphConfig = GraphConfig()) -> Tensor:
    """Relate pixels within each window independently; residual output.

    Windows never exchange information here: zeroing one window's input
    cannot change any other window's output.
    """
    return _residual(x, grid, [(params, "tokens")], cfg)


def graph_transformer_block(x: Tensor, grid: WindowGrid,
                            gr_params: RelationParams,
                            lr_params: RelationParams,
                            fusion: FusionType = FusionType.GR_THEN_LR,
                            cfg: GraphConfig = GraphConfig()) -> Tensor:
    """Fused global + local relation block.

    Series fusions chain the residual modules; parallel fusion adds both
    branch corrections onto the shared input, as one tape op.
    """
    if fusion is FusionType.GR_THEN_LR:
        return local_relation(global_relation(x, grid, gr_params, cfg), grid, lr_params, cfg)
    if fusion is FusionType.LR_THEN_GR:
        return global_relation(local_relation(x, grid, lr_params, cfg), grid, gr_params, cfg)
    if fusion is FusionType.PARALLEL:
        return _residual(x, grid, [(gr_params, "nodes"), (lr_params, "tokens")], cfg)
    raise ValueError(f"unknown fusion type {fusion!r}")


def gt_param_count(c: int, grid: WindowGrid, r_gr: int, r_lr: int, depth: int = 1) -> int:
    """Closed-form parameter count of one block: two squeeze/unsqueeze conv
    pairs plus the square graph weights of both branches."""
    d_gr = (c // r_gr) * grid.h_w * grid.w_w
    d_lr = c // r_lr
    return 2 * c * (c // r_gr) + depth * d_gr ** 2 + 2 * c * (c // r_lr) + depth * d_lr ** 2
