"""Window partitioning of feature maps.

A [C, H, W] map is split into an M x N grid of equal windows.  Window (m, n)
(0-based here) gets the linear node index i = m * N + n, so iterating nodes
walks the grid row by row.  Partition and merge are exact inverses; both are
pure data movement, so gradients move the same way in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tensor import Tensor, permute, reshape, transpose


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

    def node_index(self, m: int, n: int) -> int:
        """Linear index of window (m, n), both 0-based."""
        if not (0 <= m < self.M and 0 <= n < self.N):
            raise ValueError(f"WindowGrid: window ({m},{n}) outside {self.M}x{self.N} grid")
        return m * self.N + n

    def window_position(self, i: int) -> tuple[int, int]:
        """Inverse of node_index."""
        if not (0 <= i < self.num_nodes):
            raise ValueError(f"WindowGrid: node {i} outside [0, {self.num_nodes})")
        return divmod(i, self.N)


def _check_map(x: Tensor, grid: WindowGrid) -> None:
    if x.shape != (grid.C, grid.H, grid.W):
        raise ValueError(f"window grid expects [{grid.C},{grid.H},{grid.W}], got {list(x.shape)}")


def partition(x: Tensor, grid: WindowGrid) -> Tensor:
    """Split [C, H, W] into [K, C, h_w, w_w] window blocks, K = M * N."""
    _check_map(x, grid)
    g = grid
    blocked = reshape(x, (g.C, g.M, g.h_w, g.N, g.w_w))
    ordered = permute(blocked, (1, 3, 0, 2, 4))
    return reshape(ordered, (g.num_nodes, g.C, g.h_w, g.w_w))


def merge(windows: Tensor, grid: WindowGrid) -> Tensor:
    """Exact inverse of :func:`partition`."""
    g = grid
    expected = (g.num_nodes, g.C, g.h_w, g.w_w)
    if windows.shape != expected:
        raise ValueError(f"merge expects {list(expected)}, got {list(windows.shape)}")
    blocked = reshape(windows, (g.M, g.N, g.C, g.h_w, g.w_w))
    ordered = permute(blocked, (2, 0, 3, 1, 4))
    return reshape(ordered, (g.C, g.H, g.W))


def window_tokens(x: Tensor, grid: WindowGrid) -> Tensor:
    """[C, H, W] -> [K, h_w * w_w, C]: each window's pixels, row-major, as
    rows of C features, with windows stacked along the first axis."""
    g = grid
    return transpose(reshape(partition(x, g), (g.num_nodes, g.C, g.h_w * g.w_w)))


def merge_tokens(tokens: Tensor, grid: WindowGrid) -> Tensor:
    """Exact inverse of :func:`window_tokens`."""
    g = grid
    return merge(reshape(transpose(tokens), (g.num_nodes, g.C, g.h_w, g.w_w)), g)


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
