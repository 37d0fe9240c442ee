"""Relation branches in both views, fusion, zero-init identity, param counts."""

import re

import numpy as np
import pytest

from wingraph.graph import GraphConfig, make_theta, node_update, relation_softmax, run_graph, sparsify
from wingraph.relation import (
    FusionType,
    RelationParams,
    global_relation,
    graph_transformer_block,
    gt_param_count,
    local_relation,
)
from wingraph.tensor import Tensor, conv2d, reshape, transpose
from wingraph.windows import WindowGrid, merge_nodes, window_nodes


def toy(rng, c=4, h=4, w=4, m=2, n=2, r=2, randomise_unsqueeze=True):
    grid = WindowGrid(c, h, w, m, n)
    gr = RelationParams.create(c, r, grid.h_w * grid.w_w, 1, rng, "gr")
    lr = RelationParams.create(c, r, 1, 1, rng, "lr")
    if randomise_unsqueeze:
        gr.unsqueeze.data = rng.uniform(-1, 1, gr.unsqueeze.shape)
        lr.unsqueeze.data = rng.uniform(-1, 1, lr.unsqueeze.shape)
    x = Tensor(rng.uniform(-1, 1, (c, h, w)))
    return grid, gr, lr, x


class TestGlobalRelation:
    def test_zero_init_unsqueeze_is_identity(self):
        rng = np.random.default_rng(0)
        grid, gr, _, x = toy(rng, randomise_unsqueeze=False)
        out = global_relation(x, grid, gr)
        assert np.array_equal(out.data, x.data)

    def test_single_window_runs_and_keeps_shape(self):
        rng = np.random.default_rng(1)
        grid, gr, _, x = toy(rng, m=1, n=1)
        gr2 = RelationParams.create(4, 2, grid.h_w * grid.w_w, 1, rng, "gr1")
        gr2.unsqueeze.data = rng.uniform(-1, 1, gr2.unsqueeze.shape)
        out = global_relation(x, grid, gr2)
        assert out.shape == x.shape

    def test_matches_stage_by_stage_composition(self):
        rng = np.random.default_rng(2)
        grid, gr, _, x = toy(rng)
        cfg = GraphConfig()
        out = global_relation(x, grid, gr, cfg)

        squeezed = conv2d(x, gr.squeeze)
        sub = WindowGrid(2, 4, 4, 2, 2)
        nodes = window_nodes(squeezed, sub)
        rel = relation_softmax(nodes)
        rel = sparsify(rel, make_theta(rel.values, cfg.theta_coefficient))
        nodes = node_update(rel, nodes)
        nodes = Tensor(np.matmul(nodes.data, gr.graph[0].data))
        restored = merge_nodes(nodes, sub)
        hand = x.data + conv2d(restored, gr.unsqueeze).data
        assert np.array_equal(out.data, hand)

    def test_shape_preserved_for_valid_configs(self):
        rng = np.random.default_rng(3)
        for (c, h, w, m, n, r) in [(4, 4, 4, 2, 2, 2), (8, 4, 6, 2, 3, 4), (2, 6, 6, 3, 3, 2)]:
            grid = WindowGrid(c, h, w, m, n)
            gr = RelationParams.create(c, r, grid.h_w * grid.w_w, 1, rng, "g")
            gr.unsqueeze.data = rng.uniform(-1, 1, gr.unsqueeze.shape)
            x = Tensor(rng.uniform(-1, 1, (c, h, w)))
            assert global_relation(x, grid, gr).shape == (c, h, w)

    def test_ratio_must_divide_channels(self):
        rng = np.random.default_rng(4)
        grid = WindowGrid(4, 4, 4, 2, 2)
        with pytest.raises(ValueError, match="does not divide"):
            RelationParams.create(4, 3, grid.h_w * grid.w_w, 1, rng, "g")


class TestLocalRelation:
    def test_zero_init_unsqueeze_is_identity(self):
        rng = np.random.default_rng(5)
        grid, _, lr, x = toy(rng, randomise_unsqueeze=False)
        assert np.array_equal(local_relation(x, grid, lr).data, x.data)

    def test_single_pixel_windows_run(self):
        rng = np.random.default_rng(6)
        grid = WindowGrid(4, 2, 2, 2, 2)  # h_w = w_w = 1
        lr = RelationParams.create(4, 2, 1, 1, rng, "l")
        lr.unsqueeze.data = rng.uniform(-1, 1, lr.unsqueeze.shape)
        x = Tensor(rng.uniform(-1, 1, (4, 2, 2)))
        assert local_relation(x, grid, lr).shape == (4, 2, 2)

    def test_window_independence_exact(self):
        rng = np.random.default_rng(7)
        grid, _, lr, x = toy(rng)
        base = local_relation(x, grid, lr).data
        # zero out window (1,1): bottom-right 2x2 block
        x2 = x.data.copy()
        x2[:, 2:, 2:] = 0.0
        out2 = local_relation(Tensor(x2), grid, lr).data
        assert np.array_equal(out2[:, :2, :], base[:, :2, :])
        assert np.array_equal(out2[:, 2:, :2], base[:, 2:, :2])

    def test_swapping_windows_swaps_outputs(self):
        rng = np.random.default_rng(8)
        grid, _, lr, x = toy(rng)
        swapped = x.data.copy()
        swapped[:, :2, :2], swapped[:, :2, 2:] = x.data[:, :2, 2:].copy(), x.data[:, :2, :2].copy()
        base = local_relation(x, grid, lr).data
        out = local_relation(Tensor(swapped), grid, lr).data
        assert np.array_equal(out[:, :2, :2], base[:, :2, 2:])
        assert np.array_equal(out[:, :2, 2:], base[:, :2, :2])

    def test_matches_per_window_composition(self):
        rng = np.random.default_rng(9)
        grid = WindowGrid(2, 2, 2, 1, 1)  # one 2x2 window, C=2, r=2
        lr = RelationParams.create(2, 2, 1, 1, rng, "l")
        lr.unsqueeze.data = rng.uniform(-1, 1, lr.unsqueeze.shape)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 2)))
        cfg = GraphConfig()
        out = local_relation(x, grid, lr, cfg)

        squeezed = conv2d(x, lr.squeeze)
        nodes = transpose(reshape(squeezed, (1, 4)))
        nodes = run_graph(nodes, lr.graph, cfg)
        restored = reshape(transpose(nodes), (1, 2, 2))
        hand = x.data + conv2d(restored, lr.unsqueeze).data
        assert np.array_equal(out.data, hand)


class TestFusion:
    def test_all_fusions_identity_at_zero_init(self):
        rng = np.random.default_rng(10)
        grid, gr, lr, x = toy(rng, randomise_unsqueeze=False)
        for fusion in FusionType:
            out = graph_transformer_block(x, grid, gr, lr, fusion)
            assert np.array_equal(out.data, x.data), fusion

    def test_series_equals_manual_chaining(self):
        rng = np.random.default_rng(11)
        grid, gr, lr, x = toy(rng)
        cfg = GraphConfig()
        out = graph_transformer_block(x, grid, gr, lr, FusionType.GR_THEN_LR, cfg)
        hand = local_relation(global_relation(x, grid, gr, cfg), grid, lr, cfg)
        assert np.array_equal(out.data, hand.data)

        out_rev = graph_transformer_block(x, grid, gr, lr, FusionType.LR_THEN_GR, cfg)
        hand_rev = global_relation(local_relation(x, grid, lr, cfg), grid, gr, cfg)
        assert np.array_equal(out_rev.data, hand_rev.data)

    def test_parallel_sums_branch_corrections(self):
        rng = np.random.default_rng(12)
        grid, gr, lr, x = toy(rng)
        cfg = GraphConfig()
        out = graph_transformer_block(x, grid, gr, lr, FusionType.PARALLEL, cfg)
        gr_corr = global_relation(x, grid, gr, cfg).data - x.data
        lr_corr = local_relation(x, grid, lr, cfg).data - x.data
        np.testing.assert_allclose(out.data, x.data + gr_corr + lr_corr, rtol=0, atol=1e-15)

    def test_shape_preserved_for_all_fusions(self):
        rng = np.random.default_rng(13)
        grid, gr, lr, x = toy(rng)
        for fusion in FusionType:
            assert graph_transformer_block(x, grid, gr, lr, fusion).shape == x.shape

    def test_fusion_names_roundtrip(self):
        for fusion in FusionType:
            assert FusionType.from_name(fusion.value) is fusion
        with pytest.raises(ValueError, match="unknown fusion"):
            FusionType.from_name("diagonal")


class TestInputCheck:
    @pytest.mark.parametrize("apply", [
        lambda x, grid, gr, lr: global_relation(x, grid, gr),
        lambda x, grid, gr, lr: local_relation(x, grid, lr),
        *(lambda x, grid, gr, lr, fusion=fusion: graph_transformer_block(x, grid, gr, lr, fusion)
          for fusion in FusionType),
    ], ids=["global", "local", *(f"gt_{fusion.value}" for fusion in FusionType)])
    def test_map_taller_than_grid_named_in_error(self, apply):
        rng = np.random.default_rng(20)
        grid, gr, lr, _ = toy(rng)
        taller = Tensor(rng.uniform(-1, 1, (grid.C, grid.H + 1, grid.W)))
        # the message names the caller's map, not the squeezed one
        with pytest.raises(ValueError, match=re.escape(f"got {[grid.C, grid.H + 1, grid.W]}")):
            apply(taller, grid, gr, lr)


class TestParamCount:
    def test_closed_form_matches_created_parameters(self):
        rng = np.random.default_rng(14)
        for (c, h, w, m, n, r_gr, r_lr, depth) in [
            (4, 4, 4, 2, 2, 2, 2, 1),
            (8, 8, 8, 2, 2, 4, 2, 1),
            (8, 4, 4, 2, 2, 8, 8, 2),
        ]:
            grid = WindowGrid(c, h, w, m, n)
            gr = RelationParams.create(c, r_gr, grid.h_w * grid.w_w, depth, rng, "g")
            lr = RelationParams.create(c, r_lr, 1, depth, rng, "l")
            actual = sum(p.data.size for p in gr.named_parameters() + lr.named_parameters())
            assert actual == gt_param_count(c, grid, r_gr, r_lr, depth)

    def test_hand_count_toy_config(self):
        # C=4, r=2, 2x2 windows of 2x2 pixels: D_gr = 2*2*2 = 8, D_lr = 2
        grid = WindowGrid(4, 4, 4, 2, 2)
        # squeeze+unsqueeze pairs: 2 * (4*2) each branch = 16 + 16; graphs: 64 + 4
        assert gt_param_count(4, grid, 2, 2) == 16 + 64 + 16 + 4
