"""Dense/sparse benchmark: exact agreement, sparsity payoff."""

import numpy as np

from wingraph.bench import bench_point, run_benchmark


class TestBench:
    def test_outputs_agree_exactly_everywhere(self):
        rows = run_benchmark([2, 4, 8, 16], [2, 8], [2.0, 0.25], repeats=3, seed=0)
        assert all(row.max_abs_diff == 0.0 for row in rows)

    def test_full_mask_skips_all_columns(self):
        rng = np.random.default_rng(0)
        row = bench_point(64, 16, 1e6, repeats=5, rng=rng)
        assert row.kept_edges == 0
        assert row.max_abs_diff == 0.0

    def test_fully_masked_sparse_not_slower_within_noise(self):
        # with every edge pruned the sparse path does no column work at all;
        # allow generous headroom for timer noise
        rng = np.random.default_rng(1)
        row = bench_point(128, 32, 1e6, repeats=30, rng=rng)
        assert row.sparse_ms <= row.dense_ms * 1.5

    def test_deterministic_outputs_across_repeats(self):
        rows_a = run_benchmark([4], [4], [0.5], repeats=2, seed=9)
        rows_b = run_benchmark([4], [4], [0.5], repeats=2, seed=9)
        assert rows_a[0].kept_edges == rows_b[0].kept_edges
        assert rows_a[0].max_abs_diff == rows_b[0].max_abs_diff == 0.0
