"""Window partitioning of feature maps.

A [C, H, W] map is split into an M x N grid of equal windows.  Window (m, n)
(0-based here) gets the linear node index i = m * N + n, so iterating nodes
walks the grid row by row.  Every window layout below has an exact inverse;
both directions are pure data movement done as one tape op, so gradients
move the same way in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .tensor import Tensor, _op, reshape


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


def _check_map(x: Tensor, grid: WindowGrid) -> None:
    if x.shape != (grid.C, grid.H, grid.W):
        raise ValueError(f"window grid expects [{grid.C},{grid.H},{grid.W}], got {list(x.shape)}")


# A map seen as its windows has axes (C, M, h_w, N, w_w); each window layout
# is one order of those axes, with the window (M, N) axes leading.
_BLOCKS = (1, 3, 0, 2, 4)  # (M, N, C, h_w, w_w): channel-major blocks
_TOKENS = (1, 3, 2, 4, 0)  # (M, N, h_w, w_w, C): pixels as rows of C features


@cache
def _undo(split: tuple[int, ...], axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The split and axis order that undo reordering ``split`` by ``axes``."""
    return tuple(split[a] for a in axes), tuple(axes.index(a) for a in range(len(axes)))


def _regroup_data(a: np.ndarray, split: tuple[int, ...], axes: tuple[int, ...],
                  out: tuple[int, ...]) -> np.ndarray:
    """Reshape to ``split``, reorder axes, reshape to ``out``.  The result is
    a view where numpy can make one and a copy otherwise."""
    return a.reshape(split).transpose(axes).reshape(out)


def _regroup(x: Tensor, split: tuple[int, ...], axes: tuple[int, ...],
             out: tuple[int, ...]) -> Tensor:
    """:func:`_regroup_data` as one tape op, whose backward runs the inverse
    regrouping on the gradient."""
    moved, inverse = _undo(split, axes)
    shape = x.shape
    return _op(_regroup_data(x.data, split, axes, out), (x,),
               lambda g: (_regroup_data(g, moved, inverse, shape),))


def _split(g: WindowGrid) -> tuple[int, ...]:
    return (g.C, g.M, g.h_w, g.N, g.w_w)


def _to_windows(x: Tensor, grid: WindowGrid, axes: tuple[int, ...],
                out: tuple[int, ...]) -> Tensor:
    _check_map(x, grid)
    return _regroup(x, _split(grid), axes, out)


def _check_windows(shape: tuple[int, ...], expected: tuple[int, ...], name: str) -> None:
    if shape != expected:
        raise ValueError(f"{name} expects {list(expected)}, got {list(shape)}")


def _from_windows(w: Tensor, grid: WindowGrid, axes: tuple[int, ...],
                  expected: tuple[int, ...], name: str) -> Tensor:
    _check_windows(w.shape, expected, name)
    return _regroup(w, *_undo(_split(grid), axes), (grid.C, grid.H, grid.W))


def partition(x: Tensor, grid: WindowGrid) -> Tensor:
    """Split [C, H, W] into [K, C, h_w, w_w] window blocks, K = M * N."""
    g = grid
    return _to_windows(x, g, _BLOCKS, (g.num_nodes, g.C, g.h_w, g.w_w))


def merge(windows: Tensor, grid: WindowGrid) -> Tensor:
    """Exact inverse of :func:`partition`."""
    g = grid
    return _from_windows(windows, g, _BLOCKS, (g.num_nodes, g.C, g.h_w, g.w_w), "merge")


def window_nodes(x: Tensor, grid: WindowGrid) -> Tensor:
    """[C, H, W] -> [K, C * h_w * w_w]: ``flatten_nodes(partition(x, grid))``
    as one op, each window one graph node."""
    g = grid
    return _to_windows(x, g, _BLOCKS, (g.num_nodes, g.C * g.h_w * g.w_w))


def merge_nodes(nodes: Tensor, grid: WindowGrid) -> Tensor:
    """Exact inverse of :func:`window_nodes`."""
    g = grid
    return _from_windows(nodes, g, _BLOCKS, (g.num_nodes, g.C * g.h_w * g.w_w), "merge_nodes")


def _tokens_shape(g: WindowGrid) -> tuple[int, int, int]:
    return (g.num_nodes, g.h_w * g.w_w, g.C)


def window_tokens(x: Tensor, grid: WindowGrid) -> Tensor:
    """[C, H, W] -> [K, h_w * w_w, C]: each window's pixels, row-major, as
    rows of C features, with windows stacked along the first axis."""
    return _to_windows(x, grid, _TOKENS, _tokens_shape(grid))


def merge_tokens(tokens: Tensor, grid: WindowGrid) -> Tensor:
    """Exact inverse of :func:`window_tokens`."""
    return _from_windows(tokens, grid, _TOKENS, _tokens_shape(grid), "merge_tokens")


@cache
def _token_moves(grid: WindowGrid) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The :func:`_regroup_data` arguments of :func:`window_tokens` and of
    :func:`merge_tokens`, for ops that regroup raw arrays inside one tape op."""
    split = _split(grid)
    return (split, _TOKENS, _tokens_shape(grid)), (*_undo(split, _TOKENS), (grid.C, grid.H, grid.W))


def flatten_nodes(windows: Tensor) -> Tensor:
    """Row-major flatten of each window block: [K, C, h, w] -> [K, C*h*w]."""
    if windows.ndim != 4:
        raise ValueError(f"flatten_nodes expects rank-4 windows, got {list(windows.shape)}")
    k, c, h, w = windows.shape
    return reshape(windows, (k, c * h * w))


def unflatten_nodes(nodes: Tensor, block_shape: tuple[int, int, int]) -> Tensor:
    """Inverse of :func:`flatten_nodes` given the original [C, h, w] extents."""
    if nodes.ndim != 2:
        raise ValueError(f"unflatten_nodes expects rank-2 nodes, got {list(nodes.shape)}")
    c, h, w = block_shape
    if nodes.shape[1] != c * h * w:
        raise ValueError(f"unflatten_nodes: row length {nodes.shape[1]} != {c}*{h}*{w}")
    return reshape(nodes, (nodes.shape[0], c, h, w))
