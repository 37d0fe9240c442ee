"""Window partition/merge bijection and the node index convention."""

import numpy as np
import pytest

from wingraph.tensor import Tensor
from wingraph.windows import (
    WindowGrid,
    flatten_nodes,
    merge,
    merge_tokens,
    partition,
    unflatten_nodes,
    window_tokens,
)


class TestWindowGrid:
    def test_rejects_non_divisible_height(self):
        with pytest.raises(ValueError, match="does not divide H"):
            WindowGrid(1, 5, 4, 2, 2)

    def test_rejects_non_divisible_width(self):
        with pytest.raises(ValueError, match="does not divide W"):
            WindowGrid(1, 4, 6, 2, 4)

    def test_extents(self):
        g = WindowGrid(3, 8, 6, 2, 3)
        assert (g.h_w, g.w_w, g.num_nodes) == (4, 2, 6)

    def test_index_bijection(self):
        g = WindowGrid(1, 12, 12, 3, 4)
        seen = set()
        for m in range(g.M):
            for n in range(g.N):
                i = g.node_index(m, n)
                assert g.window_position(i) == (m, n)
                seen.add(i)
        assert seen == set(range(g.num_nodes))

    def test_row_major_index_formula(self):
        # node i = m * N + n (0-based), the row-by-row walk of the grid
        g = WindowGrid(1, 4, 6, 2, 3)
        assert g.node_index(0, 0) == 0
        assert g.node_index(0, 2) == 2
        assert g.node_index(1, 0) == 3


class TestPartition:
    def test_first_window_is_top_left_block(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4))
        g = WindowGrid(1, 4, 4, 2, 2)
        wins = partition(x, g)
        assert wins.shape == (4, 1, 2, 2)
        assert np.array_equal(wins.data[0, 0], [[0.0, 1.0], [4.0, 5.0]])
        assert np.array_equal(wins.data[3, 0], [[10.0, 11.0], [14.0, 15.0]])

    def test_single_window_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 5)))
        wins = partition(x, WindowGrid(3, 4, 5, 1, 1))
        assert np.array_equal(wins.data[0], x.data)

    def test_no_pixel_duplicated_or_dropped(self):
        x = Tensor(np.arange(48.0).reshape(2, 4, 6))
        wins = partition(x, WindowGrid(2, 4, 6, 2, 3))
        assert np.array_equal(np.sort(wins.data.reshape(-1)), np.arange(48.0))

    def test_merge_partition_roundtrip(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 8, 6)))
        g = WindowGrid(3, 8, 6, 2, 3)
        assert np.array_equal(merge(partition(x, g), g).data, x.data)

    def test_partition_merge_roundtrip(self):
        rng = np.random.default_rng(2)
        g = WindowGrid(2, 6, 6, 3, 2)
        w = Tensor(rng.normal(size=(g.num_nodes, 2, g.h_w, g.w_w)))
        assert np.array_equal(partition(merge(w, g), g).data, w.data)

    def test_merge_of_zero_windows_is_zero(self):
        g = WindowGrid(1, 4, 4, 2, 2)
        out = merge(Tensor(np.zeros((4, 1, 2, 2))), g)
        assert np.array_equal(out.data, np.zeros((1, 4, 4)))

    def test_shape_mismatch_rejected(self):
        g = WindowGrid(2, 4, 4, 2, 2)
        with pytest.raises(ValueError, match="expects"):
            partition(Tensor(np.zeros((1, 4, 4))), g)
        with pytest.raises(ValueError, match="expects"):
            merge(Tensor(np.zeros((3, 2, 2, 2))), g)

    def test_content_independence(self):
        # permuting channel values commutes with partition
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4, 4))
        g = WindowGrid(3, 4, 4, 2, 2)
        perm = [2, 0, 1]
        direct = partition(Tensor(x[perm]), g).data
        after = partition(Tensor(x), g).data[:, perm]
        assert np.array_equal(direct, after)


class TestFlattenNodes:
    def test_singleton(self):
        out = flatten_nodes(Tensor(np.full((1, 1, 1, 1), 5.0)))
        assert np.array_equal(out.data, [[5.0]])

    def test_zero_windows(self):
        out = flatten_nodes(Tensor(np.zeros((3, 2, 2, 2))))
        assert np.array_equal(out.data, np.zeros((3, 8)))

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(5, 3, 2, 4)))
        nodes = flatten_nodes(w)
        assert nodes.shape == (5, 24)
        assert np.array_equal(unflatten_nodes(nodes, (3, 2, 4)).data, w.data)

    def test_row_is_row_major_flattening(self):
        w = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        assert np.array_equal(flatten_nodes(w).data[0], np.arange(8.0))


class TestWindowTokens:
    def test_token_is_one_pixel_of_one_window(self):
        g = WindowGrid(3, 4, 6, 2, 3)
        x = np.random.default_rng(5).normal(size=(3, 4, 6))
        tokens = window_tokens(Tensor(x), g).data
        assert tokens.shape == (6, 4, 3)
        for i in range(g.num_nodes):
            m, n = g.window_position(i)
            for p in range(g.h_w * g.w_w):
                r, c = divmod(p, g.w_w)
                assert np.array_equal(tokens[i, p], x[:, m * g.h_w + r, n * g.w_w + c])

    def test_merge_tokens_inverts_exactly(self):
        g = WindowGrid(2, 6, 4, 3, 2)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 6, 4)))
        assert np.array_equal(merge_tokens(window_tokens(x, g), g).data, x.data)
