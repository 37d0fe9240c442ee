"""Global and local relation modules and their fusion into one block.

The global module treats each window of the feature map as a graph node;
the local one treats each pixel inside a window as a node and runs one
independent graph per window.  Both squeeze channels by a compression
ratio before relating nodes, restore them afterwards, and add the result
onto the input.  The channel-restoring convolutions start at zero, so a
freshly built block is an exact identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph import GraphConfig, GraphLayer, run_graph
from .tensor import Parameter, Tensor, add, conv2d
from .windows import WindowGrid, merge_nodes, merge_tokens, window_nodes, window_tokens


class FusionType(enum.Enum):
    """How the global and local branches combine inside one block."""

    GR_THEN_LR = "gr_then_lr"
    LR_THEN_GR = "lr_then_gr"
    PARALLEL = "parallel"

    @classmethod
    def from_name(cls, name: str) -> "FusionType":
        for member in cls:
            if member.value == name:
                return member
        options = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown fusion type {name!r}; expected one of {options}")


def _check_ratio(c: int, ratio: int, label: str) -> None:
    if ratio < 1 or c % ratio != 0:
        raise ValueError(f"{label}: compression ratio {ratio} does not divide {c} channels")


def _graph_layers(dim: int, depth: int, rng: np.random.Generator, prefix: str) -> tuple[GraphLayer, ...]:
    layers = []
    for l in range(depth):
        weight = Parameter(rng.normal(0.0, dim ** -0.5, (dim, dim)), f"{prefix}.graph{l}")
        layers.append(GraphLayer(weight))
    return tuple(layers)


@dataclass
class GlobalRelationParams:
    """Parameters of the window-level (global) relation module."""

    squeeze: Parameter
    unsqueeze: Parameter
    graph: tuple[GraphLayer, ...]
    r_gr: int

    @staticmethod
    def node_dim(c: int, grid: WindowGrid, r_gr: int) -> int:
        return (c // r_gr) * grid.h_w * grid.w_w

    @classmethod
    def create(cls, c: int, grid: WindowGrid, r_gr: int, depth: int,
               rng: np.random.Generator, prefix: str) -> "GlobalRelationParams":
        _check_ratio(c, r_gr, "global relation")
        c_sq = c // r_gr
        squeeze = Parameter(rng.normal(0.0, c ** -0.5, (c_sq, c, 1, 1)), f"{prefix}.squeeze")
        unsqueeze = Parameter(np.zeros((c, c_sq, 1, 1)), f"{prefix}.unsqueeze")
        layers = _graph_layers(cls.node_dim(c, grid, r_gr), depth, rng, prefix)
        return cls(squeeze, unsqueeze, layers, r_gr)

    def named_parameters(self) -> list[Parameter]:
        return [self.squeeze, self.unsqueeze] + [l.weight for l in self.graph]


@dataclass
class LocalRelationParams:
    """Parameters of the pixel-level (local, per-window) relation module."""

    squeeze: Parameter
    unsqueeze: Parameter
    graph: tuple[GraphLayer, ...]
    r_lr: int

    @staticmethod
    def node_dim(c: int, r_lr: int) -> int:
        return c // r_lr

    @classmethod
    def create(cls, c: int, r_lr: int, depth: int,
               rng: np.random.Generator, prefix: str) -> "LocalRelationParams":
        _check_ratio(c, r_lr, "local relation")
        c_sq = c // r_lr
        squeeze = Parameter(rng.normal(0.0, c ** -0.5, (c_sq, c, 1, 1)), f"{prefix}.squeeze")
        unsqueeze = Parameter(np.zeros((c, c_sq, 1, 1)), f"{prefix}.unsqueeze")
        layers = _graph_layers(c_sq, depth, rng, prefix)
        return cls(squeeze, unsqueeze, layers, r_lr)

    def named_parameters(self) -> list[Parameter]:
        return [self.squeeze, self.unsqueeze] + [l.weight for l in self.graph]


def _global_correction(x: Tensor, grid: WindowGrid, params: GlobalRelationParams,
                       cfg: GraphConfig) -> Tensor:
    c = x.shape[0]
    _check_ratio(c, params.r_gr, "global relation")
    squeezed = conv2d(x, params.squeeze)
    sub = WindowGrid(c // params.r_gr, grid.H, grid.W, grid.M, grid.N)
    nodes = run_graph(window_nodes(squeezed, sub), params.graph, cfg)
    return conv2d(merge_nodes(nodes, sub), params.unsqueeze)


def _local_correction(x: Tensor, grid: WindowGrid, params: LocalRelationParams,
                      cfg: GraphConfig) -> Tensor:
    c = x.shape[0]
    _check_ratio(c, params.r_lr, "local relation")
    squeezed = conv2d(x, params.squeeze)
    sub = WindowGrid(c // params.r_lr, grid.H, grid.W, grid.M, grid.N)
    # One graph per window: windows are the stack axis, pixels the nodes.
    nodes = run_graph(window_tokens(squeezed, sub), params.graph, cfg)
    return conv2d(merge_tokens(nodes, sub), params.unsqueeze)


def global_relation(x: Tensor, grid: WindowGrid, params: GlobalRelationParams,
                    cfg: GraphConfig | None = None) -> Tensor:
    """Relate windows globally; returns x plus the learned correction."""
    return add(x, _global_correction(x, grid, params, cfg or GraphConfig()))


def local_relation(x: Tensor, grid: WindowGrid, params: LocalRelationParams,
                   cfg: GraphConfig | None = None) -> Tensor:
    """Relate pixels within each window independently; residual output.

    Windows never exchange information here: zeroing one window's input
    cannot change any other window's output.
    """
    return add(x, _local_correction(x, grid, params, cfg or GraphConfig()))


def graph_transformer_block(x: Tensor, grid: WindowGrid,
                            gr_params: GlobalRelationParams,
                            lr_params: LocalRelationParams,
                            fusion: FusionType = FusionType.GR_THEN_LR,
                            cfg: GraphConfig | None = None) -> Tensor:
    """Fused global + local relation block.

    Series fusions chain the residual modules; parallel fusion adds both
    branch corrections onto the shared input.
    """
    cfg = cfg or GraphConfig()
    if fusion is FusionType.GR_THEN_LR:
        return local_relation(global_relation(x, grid, gr_params, cfg), grid, lr_params, cfg)
    if fusion is FusionType.LR_THEN_GR:
        return global_relation(local_relation(x, grid, lr_params, cfg), grid, gr_params, cfg)
    if fusion is FusionType.PARALLEL:
        both = add(_global_correction(x, grid, gr_params, cfg),
                   _local_correction(x, grid, lr_params, cfg))
        return add(x, both)
    raise ValueError(f"unknown fusion type {fusion!r}")


def gt_param_count(c: int, grid: WindowGrid, r_gr: int, r_lr: int, depth: int = 1) -> int:
    """Closed-form parameter count of one block: two squeeze/unsqueeze conv
    pairs plus the square graph weights of both branches."""
    d_gr = GlobalRelationParams.node_dim(c, grid, r_gr)
    d_lr = LocalRelationParams.node_dim(c, r_lr)
    return 2 * c * (c // r_gr) + depth * d_gr ** 2 + 2 * c * (c // r_lr) + depth * d_lr ** 2
