"""Window partition/merge bijection and the node index convention."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wingraph.tensor import Tensor, backward, hadamard, permute, reshape, sum_all, transpose
from wingraph.windows import (
    WindowGrid,
    merge,
    merge_nodes,
    merge_tokens,
    partition,
    window_nodes,
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

    def test_node_order_is_row_major(self):
        # 3x4 windows: row-major (i = m * N + n) and column-major order differ.
        g = WindowGrid(1, 6, 8, 3, 4)
        x = np.arange(48.0).reshape(1, 6, 8)
        blocks = partition(Tensor(x), g).data
        for i in range(g.num_nodes):
            m, n = divmod(i, g.N)
            block = x[:, m * g.h_w:(m + 1) * g.h_w, n * g.w_w:(n + 1) * g.w_w]
            assert np.array_equal(blocks[i], block), i


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
        # the model's raw regroups take image stacks; the public ones one map
        with pytest.raises(ValueError, match=r"expects one \[2,4,4\] map"):
            partition(Tensor(np.zeros((2, 2, 4, 4))), g)

    def test_content_independence(self):
        # permuting channel values commutes with partition
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4, 4))
        g = WindowGrid(3, 4, 4, 2, 2)
        perm = [2, 0, 1]
        direct = partition(Tensor(x[perm]), g).data
        after = partition(Tensor(x), g).data[:, perm]
        assert np.array_equal(direct, after)


class TestWindowNodes:
    def test_singleton(self):
        out = window_nodes(Tensor(np.full((1, 1, 1), 5.0)), WindowGrid(1, 1, 1, 1, 1))
        assert np.array_equal(out.data, [[5.0]])

    def test_row_is_row_major_flattening(self):
        # window 1 is the top-right 2x2 block of both channels
        x = Tensor(np.arange(16.0).reshape(2, 2, 4))
        nodes = window_nodes(x, WindowGrid(2, 2, 4, 1, 2))
        assert nodes.shape == (2, 8)
        assert np.array_equal(nodes.data[1], [2.0, 3.0, 6.0, 7.0, 10.0, 11.0, 14.0, 15.0])

    def test_merge_nodes_of_zero_nodes_is_zero(self):
        g = WindowGrid(3, 4, 4, 2, 2)
        out = merge_nodes(Tensor(np.zeros((4, 12))), g)
        assert np.array_equal(out.data, np.zeros((3, 4, 4)))


class TestWindowTokens:
    def test_token_is_one_pixel_of_one_window(self):
        g = WindowGrid(3, 4, 6, 2, 3)
        x = np.random.default_rng(5).normal(size=(3, 4, 6))
        tokens = window_tokens(Tensor(x), g).data
        assert tokens.shape == (6, 4, 3)
        for i in range(g.num_nodes):
            m, n = divmod(i, g.N)
            for p in range(g.h_w * g.w_w):
                r, c = divmod(p, g.w_w)
                assert np.array_equal(tokens[i, p], x[:, m * g.h_w + r, n * g.w_w + c])

    def test_merge_tokens_inverts_exactly(self):
        g = WindowGrid(2, 6, 4, 3, 2)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 6, 4)))
        assert np.array_equal(merge_tokens(window_tokens(x, g), g).data, x.data)


# Reference compositions of reshape/permute/transpose tape ops, one op per
# movement step, that each one-op regrouping must reproduce exactly.
def ref_partition(x, g):
    blocked = permute(reshape(x, (g.C, g.M, g.h_w, g.N, g.w_w)), (1, 3, 0, 2, 4))
    return reshape(blocked, (g.num_nodes, g.C, g.h_w, g.w_w))


def ref_merge(w, g):
    blocked = permute(reshape(w, (g.M, g.N, g.C, g.h_w, g.w_w)), (2, 0, 3, 1, 4))
    return reshape(blocked, (g.C, g.H, g.W))


def ref_window_tokens(x, g):
    return transpose(reshape(ref_partition(x, g), (g.num_nodes, g.C, g.h_w * g.w_w)))


def ref_merge_tokens(t, g):
    return ref_merge(reshape(transpose(t), (g.num_nodes, g.C, g.h_w, g.w_w)), g)


def ref_window_nodes(x, g):
    return reshape(ref_partition(x, g), (g.num_nodes, g.C * g.h_w * g.w_w))


def ref_merge_nodes(n, g):
    return ref_merge(reshape(n, (g.num_nodes, g.C, g.h_w, g.w_w)), g)


REGROUPS = {
    "partition": (partition, ref_partition, lambda g: (g.C, g.H, g.W)),
    "merge": (merge, ref_merge, lambda g: (g.num_nodes, g.C, g.h_w, g.w_w)),
    "window_tokens": (window_tokens, ref_window_tokens, lambda g: (g.C, g.H, g.W)),
    "merge_tokens": (merge_tokens, ref_merge_tokens, lambda g: (g.num_nodes, g.h_w * g.w_w, g.C)),
    "window_nodes": (window_nodes, ref_window_nodes, lambda g: (g.C, g.H, g.W)),
    "merge_nodes": (merge_nodes, ref_merge_nodes, lambda g: (g.num_nodes, g.C * g.h_w * g.w_w)),
}


def _view_examples(test):
    """Every regroup on the grids where numpy makes it a view, not a copy:
    1-pixel windows and a single window (M = N = 1)."""
    for name in sorted(REGROUPS):
        test = example(name=name, c=3, m=2, n=3, h_w=1, w_w=1, seed=0)(test)
        test = example(name=name, c=3, m=1, n=1, h_w=2, w_w=3, seed=0)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(REGROUPS)), c=st.integers(1, 4), m=st.integers(1, 3),
       n=st.integers(1, 3), h_w=st.integers(1, 3), w_w=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@_view_examples
def test_one_op_regroup_equals_movement_chain(name, c, m, n, h_w, w_w, seed):
    fn, ref, in_shape = REGROUPS[name]
    g = WindowGrid(c, m * h_w, n * w_w, m, n)
    rng = np.random.default_rng(seed)
    data = rng.normal(size=in_shape(g))
    runs = []
    for f in (fn, ref):
        x = Tensor(data, requires_grad=True)
        out = f(x, g)
        backward(sum_all(hadamard(out, Tensor(np.arange(out.data.size, dtype=float).reshape(out.shape)))))
        runs.append((out.shape, out.data.tobytes(), x.grad.tobytes()))
    assert runs[0] == runs[1]


INVERSE_PAIRS = [("partition", "merge"), ("window_nodes", "merge_nodes"),
                 ("window_tokens", "merge_tokens")]


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(INVERSE_PAIRS), c=st.integers(1, 4), m=st.integers(1, 3),
       n=st.integers(1, 3), h_w=st.integers(1, 3), w_w=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_window_layouts_round_trip_both_ways(pair, c, m, n, h_w, w_w, seed):
    to_windows, from_windows = (REGROUPS[name][0] for name in pair)
    map_shape, windows_shape = (REGROUPS[name][2] for name in pair)
    g = WindowGrid(c, m * h_w, n * w_w, m, n)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=map_shape(g))
    w = rng.normal(size=windows_shape(g))
    there_and_back = from_windows(to_windows(Tensor(x), g), g)
    back_and_there = to_windows(from_windows(Tensor(w), g), g)
    assert there_and_back.shape == x.shape and there_and_back.data.tobytes() == x.tobytes()
    assert back_and_there.shape == w.shape and back_and_there.data.tobytes() == w.tobytes()


class TestRegroupShapes:
    def test_inverses_reject_wrong_shapes(self):
        g = WindowGrid(2, 4, 4, 2, 2)
        with pytest.raises(ValueError, match="merge_tokens expects"):
            merge_tokens(Tensor(np.zeros((4, 2, 4))), g)
        with pytest.raises(ValueError, match="merge_nodes expects"):
            merge_nodes(Tensor(np.zeros((4, 2, 4))), g)

    @pytest.mark.parametrize("name", sorted(REGROUPS))
    def test_each_regroup_is_one_tape_op(self, name):
        fn, _, in_shape = REGROUPS[name]
        g = WindowGrid(2, 4, 6, 2, 3)
        x = Tensor(np.zeros(in_shape(g)), requires_grad=True)
        assert fn(x, g)._parents == (x,)
