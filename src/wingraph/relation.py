"""One relation branch, used for both graph views, and their fusion into one block.

Both views are the same module: squeeze channels by a compression ratio,
relate graph nodes, restore the channels and add the result onto the
input.  They differ only in node layout.  The global view treats each
window of the feature map as a node; the local view treats each pixel
inside a window as a node and runs one independent graph per window.  The
channel-restoring convolutions start at zero, so a freshly built block is
an exact identity.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .graph import GraphConfig, run_graph
from .tensor import Parameter, Tensor, add, conv2d
from .windows import WindowGrid, merge_nodes, merge_tokens, window_nodes, window_tokens

# Each view is the regroup pair that lays the squeezed map out as graph
# nodes and back: one node per window, or one graph of pixels per window.
_GLOBAL = (window_nodes, merge_nodes)
_LOCAL = (window_tokens, merge_tokens)


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


@dataclass
class RelationParams:
    """Parameters of one relation branch: squeeze, graph weights, unsqueeze."""

    squeeze: Parameter
    unsqueeze: Parameter
    graph: tuple[Parameter, ...]

    @classmethod
    def create(cls, c: int, ratio: int, pixels: int, depth: int,
               rng: np.random.Generator, prefix: str) -> "RelationParams":
        """``pixels`` is the pixel count of one graph node: a window's
        ``h_w * w_w`` for the global branch, 1 for the local one."""
        if ratio < 1 or c % ratio != 0:
            raise ValueError(f"{prefix}: compression ratio {ratio} does not divide {c} channels")
        c_sq = c // ratio
        squeeze = Parameter(rng.normal(0.0, c ** -0.5, (c_sq, c, 1, 1)), f"{prefix}.squeeze")
        unsqueeze = Parameter(np.zeros((c, c_sq, 1, 1)), f"{prefix}.unsqueeze")
        dim = c_sq * pixels
        graph = tuple(Parameter(rng.normal(0.0, dim ** -0.5, (dim, dim)), f"{prefix}.graph{l}")
                      for l in range(depth))
        return cls(squeeze, unsqueeze, graph)

    def named_parameters(self) -> list[Parameter]:
        return [self.squeeze, self.unsqueeze, *self.graph]


def _correction(x: Tensor, grid: WindowGrid, params: RelationParams,
                view: tuple[Callable, Callable], cfg: GraphConfig | None) -> Tensor:
    to_nodes, from_nodes = view
    sub = WindowGrid(params.squeeze.shape[0], grid.H, grid.W, grid.M, grid.N)
    nodes = run_graph(to_nodes(conv2d(x, params.squeeze), sub), params.graph, cfg)
    return conv2d(from_nodes(nodes, sub), params.unsqueeze)


def global_relation(x: Tensor, grid: WindowGrid, params: RelationParams,
                    cfg: GraphConfig | None = None) -> Tensor:
    """Relate windows globally; returns x plus the learned correction."""
    return add(x, _correction(x, grid, params, _GLOBAL, cfg))


def local_relation(x: Tensor, grid: WindowGrid, params: RelationParams,
                   cfg: GraphConfig | None = None) -> Tensor:
    """Relate pixels within each window independently; residual output.

    Windows never exchange information here: zeroing one window's input
    cannot change any other window's output.
    """
    return add(x, _correction(x, grid, params, _LOCAL, cfg))


def graph_transformer_block(x: Tensor, grid: WindowGrid,
                            gr_params: RelationParams,
                            lr_params: RelationParams,
                            fusion: FusionType = FusionType.GR_THEN_LR,
                            cfg: GraphConfig | None = None) -> Tensor:
    """Fused global + local relation block.

    Series fusions chain the residual modules; parallel fusion adds both
    branch corrections onto the shared input.
    """
    if fusion is FusionType.GR_THEN_LR:
        return local_relation(global_relation(x, grid, gr_params, cfg), grid, lr_params, cfg)
    if fusion is FusionType.LR_THEN_GR:
        return global_relation(local_relation(x, grid, lr_params, cfg), grid, gr_params, cfg)
    if fusion is FusionType.PARALLEL:
        both = add(_correction(x, grid, gr_params, _GLOBAL, cfg),
                   _correction(x, grid, lr_params, _LOCAL, cfg))
        return add(x, both)
    raise ValueError(f"unknown fusion type {fusion!r}")


def gt_param_count(c: int, grid: WindowGrid, r_gr: int, r_lr: int, depth: int = 1) -> int:
    """Closed-form parameter count of one block: two squeeze/unsqueeze conv
    pairs plus the square graph weights of both branches."""
    d_gr = (c // r_gr) * grid.h_w * grid.w_w
    d_lr = c // r_lr
    return 2 * c * (c // r_gr) + depth * d_gr ** 2 + 2 * c * (c // r_lr) + depth * d_lr ** 2
