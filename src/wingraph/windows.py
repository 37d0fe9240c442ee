"""Window partitioning of feature maps.

A [C, H, W] map is split into an M x N grid of equal windows.  Window (m, n)
(0-based here) gets the linear node index i = m * N + n, so iterating nodes
walks the grid row by row.  Every window layout below has an exact inverse;
both directions are pure data movement done as one tape op, so gradients
move the same way in reverse.

The model's raw regroups (``_layout_moves``, ``_regroup_data``) also take an
[N, C, H, W] stack of maps.  Window blocks and tokens then fold the image
axis into the window axis, image by image: [N*K, ...], so every window of
every image is one slice of the stack.  Graph nodes keep it, [N, K, D], so
each image stays one graph of K nodes.  The public regroups take one map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .tensor import Tensor, _op


@dataclass(frozen=True)
class WindowGrid:
    """Partition descriptor for a [C, H, W] map into M x N windows."""

    C: int
    H: int
    W: int
    M: int
    N: int

    def __post_init__(self):
        for field in ("C", "H", "W", "M", "N"):
            if getattr(self, field) < 1:
                raise ValueError(f"WindowGrid: {field} must be positive")
        if self.H % self.M != 0:
            raise ValueError(f"WindowGrid: M={self.M} does not divide H={self.H}")
        if self.W % self.N != 0:
            raise ValueError(f"WindowGrid: N={self.N} does not divide W={self.W}")

    @property
    def h_w(self) -> int:
        return self.H // self.M

    @property
    def w_w(self) -> int:
        return self.W // self.N

    @property
    def num_nodes(self) -> int:
        return self.M * self.N


def _check_map(x: Tensor, grid: WindowGrid) -> int | None:
    """The image count of an [N, C, H, W] stack, or None for one [C, H, W] map."""
    if x.ndim not in (3, 4) or x.shape[-3:] != (grid.C, grid.H, grid.W):
        raise ValueError(f"window grid expects [{grid.C},{grid.H},{grid.W}] or "
                         f"[N,{grid.C},{grid.H},{grid.W}], got {list(x.shape)}")
    return x.shape[0] if x.ndim == 4 else None


# A map seen as its windows has axes (C, M, h_w, N, w_w).  Each layout is one
# order of those axes, with the window (M, N) axes leading, and one shape.
_LAYOUTS = {
    # [K, C, h_w, w_w]: channel-major window blocks
    "blocks": ((1, 3, 0, 2, 4), lambda g, c: (g.num_nodes, c, g.h_w, g.w_w)),
    # [K, C*h_w*w_w]: each window one graph node
    "nodes": ((1, 3, 0, 2, 4), lambda g, c: (g.num_nodes, c * g.h_w * g.w_w)),
    # [K, h_w*w_w, C]: each window's pixels as rows of C features
    "tokens": ((1, 3, 2, 4, 0), lambda g, c: (g.num_nodes, g.h_w * g.w_w, c)),
}

_Moves = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@cache
def _layout_moves(grid: WindowGrid, layout: str, channels: int | None = None,
                  images: int | None = None) -> tuple[_Moves, _Moves]:
    """The :func:`_regroup_data` arguments that take a [channels, H, W] map
    (``grid.C`` channels by default), or an [images, channels, H, W] stack,
    to ``layout`` and the ones that take it back."""
    c = grid.C if channels is None else channels
    axes, shape = _LAYOUTS[layout]
    split, full, out = (c, grid.M, grid.h_w, grid.N, grid.w_w), (c, grid.H, grid.W), shape(grid, c)
    if images is not None:
        split, full, axes = (images, *split), (images, *full), (0, *(a + 1 for a in axes))
        out = (images, *out) if layout == "nodes" else (images * out[0], *out[1:])
    back = (tuple(split[a] for a in axes), tuple(axes.index(a) for a in range(len(axes))), full)
    return (split, axes, out), back


def _regroup_data(a: np.ndarray, split: tuple[int, ...], axes: tuple[int, ...],
                  out: tuple[int, ...]) -> np.ndarray:
    """Reshape to ``split``, reorder axes, reshape to ``out``.  The result is
    a view where numpy can make one and a copy otherwise."""
    return a.reshape(split).transpose(axes).reshape(out)


def _to_layout(x: Tensor, grid: WindowGrid, layout: str) -> Tensor:
    """A [C, H, W] map in ``layout``, as one tape op whose backward moves the
    gradient back."""
    if _check_map(x, grid) is not None:
        raise ValueError(f"window grid expects one [{grid.C},{grid.H},{grid.W}] map, got {list(x.shape)}")
    there, back = _layout_moves(grid, layout)
    return _op(_regroup_data(x.data, *there), (x,), lambda g: (_regroup_data(g, *back),))


def _from_layout(w: Tensor, grid: WindowGrid, layout: str, name: str) -> Tensor:
    """Exact inverse of :func:`_to_layout`; ``name`` labels a shape error."""
    there, back = _layout_moves(grid, layout)
    if w.shape != there[2]:
        raise ValueError(f"{name} expects {list(there[2])}, got {list(w.shape)}")
    return _op(_regroup_data(w.data, *back), (w,), lambda g: (_regroup_data(g, *there),))


def partition(x: Tensor, grid: WindowGrid) -> Tensor:
    """Split [C, H, W] into [K, C, h_w, w_w] window blocks, K = M * N."""
    return _to_layout(x, grid, "blocks")


def merge(windows: Tensor, grid: WindowGrid) -> Tensor:
    """Exact inverse of :func:`partition`."""
    return _from_layout(windows, grid, "blocks", "merge")


def window_nodes(x: Tensor, grid: WindowGrid) -> Tensor:
    """[C, H, W] -> [K, C * h_w * w_w]: each window's block, flattened
    row-major, as one graph node."""
    return _to_layout(x, grid, "nodes")


def merge_nodes(nodes: Tensor, grid: WindowGrid) -> Tensor:
    """Exact inverse of :func:`window_nodes`."""
    return _from_layout(nodes, grid, "nodes", "merge_nodes")


def window_tokens(x: Tensor, grid: WindowGrid) -> Tensor:
    """[C, H, W] -> [K, h_w * w_w, C]: each window's pixels, row-major, as
    rows of C features, with windows stacked along the first axis."""
    return _to_layout(x, grid, "tokens")


def merge_tokens(tokens: Tensor, grid: WindowGrid) -> Tensor:
    """Exact inverse of :func:`window_tokens`."""
    return _from_layout(tokens, grid, "tokens", "merge_tokens")
