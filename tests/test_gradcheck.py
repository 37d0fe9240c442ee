"""The verification harness itself: coverage, tolerance, fault injection."""

import numpy as np
import pytest

from wingraph import tensor
from wingraph.gradcheck import (
    SCOPES,
    TOLERANCE,
    CheckResult,
    check_gradients,
    relative_error,
    run_gradcheck,
    run_scope,
)


class TestHarness:
    def test_relative_error_behaves_like_abs_for_small_values(self):
        assert relative_error(1e-9, 0.0) == 1e-9
        assert relative_error(2000.0, 1000.0) == 0.5

    def test_detects_correct_gradient(self):
        rng = np.random.default_rng(0)
        x = tensor.Tensor(rng.uniform(-1, 1, 10), requires_grad=True)
        result = check_gradients("sq", lambda: tensor.sum_all(tensor.hadamard(x, x)), [x], rng)
        assert result.passed and result.samples == 10

    def test_detects_wrong_gradient(self):
        rng = np.random.default_rng(1)
        x = tensor.Tensor(rng.uniform(1, 2, 8), requires_grad=True)

        def bad_square(t):
            return tensor._op(t.data * t.data, (t,), lambda g: (g * 3.0 * t.data,))

        result = check_gradients("bad", lambda: tensor.sum_all(bad_square(x)), [x], rng)
        assert not result.passed

    def test_sampling_caps_entries(self):
        rng = np.random.default_rng(2)
        x = tensor.Tensor(rng.uniform(-1, 1, 100), requires_grad=True)
        result = check_gradients("cap", lambda: tensor.sum_all(x), [x], rng, max_entries=17)
        assert result.samples == 17


# Every row of ``all`` in table order with its sample count for one seed
# (``wingraph gradcheck all`` sums five seeds, so it prints five times
# these).  A changed leaf shape changes the count.
ALL_ROWS = [
    ("matmul", 108), ("conv2d_k1", 112), ("conv2d_k3", 108), ("conv2d_k7", 113),
    ("softmax_rows", 100), ("gelu", 108), ("sigmoid", 108),
    ("hadamard", 120), ("add", 120), ("scalar_mul", 108), ("sum_of_sigmoid", 108),
    ("cross_entropy", 108), ("window_roundtrip", 108), ("matmul_stacked", 150),
    ("matmul_shared", 162), ("softmax_rows_stacked", 108),
    ("relation_cosine", 48), ("relation_softmax", 48), ("node_update", 48),
    ("run_graph_L2", 102), ("run_graph_cosine", 66),
    ("run_graph_stacked", 162), ("run_graph_stacked_cosine", 126),
    ("window_attention", 78), ("global_relation", 76), ("local_relation", 50),
    ("gt_gr_then_lr", 96), ("gt_lr_then_gr", 96), ("gt_parallel", 96),
    ("boundary_attention", 76),
]


class TestScopes:
    def test_all_scope_rows_are_pinned(self):
        assert [(r.op, r.samples) for r in run_scope("all", 0)] == ALL_ROWS

    def test_rows_match_under_their_scope_and_all(self):
        # A row's random stream depends only on the seed and its name.
        under_all = {r.op: r for r in run_scope("all", 4)}
        for scope in SCOPES:
            results = run_scope(scope, 4)
            assert results == [under_all[r.op] for r in results], scope

    def test_all_scopes_pass(self):
        for scope in SCOPES:
            for result in run_scope(scope, seed=123):
                assert result.passed, f"{scope}/{result.op}: {result.max_rel_err}"

    def test_tensor_ops_sample_at_least_100_entries(self):
        for result in run_scope("tensor_ops", seed=7):
            assert result.samples >= 100, result.op

    def test_all_scope_covers_composed_modules(self):
        ops = {r.op for r in run_scope("all", seed=5)}
        for needed in ("global_relation", "local_relation", "gt_gr_then_lr",
                       "gt_lr_then_gr", "gt_parallel", "boundary_attention"):
            assert needed in ops

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="unknown gradcheck scope"):
            run_scope("everything", seed=0)

    def test_multi_seed_aggregation(self):
        merged = run_gradcheck("gr", seeds=[1, 2])
        assert len(merged) == 1
        single = run_scope("gr", 1)[0]
        assert merged[0].samples == 2 * single.samples
        assert merged[0].max_rel_err >= single.max_rel_err


class TestFaultInjection:
    def test_corrupted_backward_is_named(self, monkeypatch):
        real = tensor.sigmoid

        def corrupted(x):
            out = real(x)
            if out._backward is not None:
                original = out._backward
                out._backward = lambda g: tuple(None if p is None else p * 1.05
                                                for p in original(g))
            return out

        monkeypatch.setattr(tensor, "sigmoid", corrupted)
        results = {r.op: r for r in run_scope("tensor_ops", seed=3)}
        assert not results["sigmoid"].passed
        assert not results["sum_of_sigmoid"].passed
        assert results["matmul"].passed

    def test_tolerance_is_the_acceptance_threshold(self):
        assert TOLERANCE == 1e-4
        bad = CheckResult("x", 2e-4, 10)
        good = CheckResult("y", 5e-5, 10)
        assert not bad.passed and good.passed
