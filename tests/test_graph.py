"""Graph relation construction, pruning, propagation and their invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wingraph.graph import (
    _PROPAGATE_ONE_CALL_FLOATS,
    _cosine_data,
    GraphConfig,
    RelationMatrix,
    make_theta,
    node_update,
    node_update_dense_data,
    node_update_sparse,
    node_update_sparse_data,
    relation_cosine,
    relation_softmax,
    run_graph,
    sparsify,
)
from wingraph.tensor import Parameter, Tensor, backward, matmul, softmax_rows, sum_all, transpose


def cosine_oracle(nodes):
    """Direct per-pair dot/norm loop; diagonal is 1 by definition."""
    k = nodes.shape[0]
    norms = [math.sqrt(float(np.dot(row, row))) for row in nodes]
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                out[i, j] = 1.0
            elif norms[i] == 0.0 or norms[j] == 0.0:
                out[i, j] = 0.0
            else:
                out[i, j] = min(1.0, max(-1.0, float(np.dot(nodes[i], nodes[j])) / (norms[i] * norms[j])))
    return out


class TestRelationCosine:
    def test_identical_rows_all_ones(self):
        rel = relation_cosine(Tensor([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_allclose(rel.values.data, np.ones((2, 2)), rtol=0, atol=1e-12)

    def test_orthogonal_rows(self):
        rel = relation_cosine(Tensor([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(rel.values.data, np.eye(2))

    def test_matches_bruteforce_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        nodes = rng.uniform(-1, 1, (3, 5))
        rel = relation_cosine(Tensor(nodes))
        assert np.array_equal(rel.values.data, cosine_oracle(nodes))

    def test_zero_row_convention(self):
        rel = relation_cosine(Tensor([[0.0, 0.0], [3.0, 4.0]]))
        assert np.array_equal(rel.values.data, [[1.0, 0.0], [0.0, 1.0]])

    def test_symmetry_and_bounds_randomised(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(1, 12))
            vals = relation_cosine(Tensor(rng.normal(size=(k, d)))).values.data
            assert np.abs(vals - vals.T).max() < 1e-12
            assert (np.abs(vals) <= 1.0).all()
            assert np.array_equal(np.diagonal(vals), np.ones(k))


def cosine_data_out_of_place(nd):
    """``_cosine_data`` as it was written with a fresh array per step: the
    byte reference for the in-place form."""
    k = nd.shape[-2]
    dots = np.vecdot(nd[..., :, None, :], nd[..., None, :, :])
    norms = np.sqrt(np.diagonal(dots, axis1=-2, axis2=-1))
    nonzero = norms > 0.0
    safe = np.where(nonzero, norms, 1.0)
    both = nonzero[..., :, None] & nonzero[..., None, :]
    values = np.where(both, dots / (safe[..., :, None] * safe[..., None, :]), 0.0)
    values[..., range(k), range(k)] = 1.0
    np.clip(values, -1.0, 1.0, out=values)
    return values, safe, nonzero


# A row is ordinary, all +0.0, all -0.0, subnormal, large enough that its
# dots overflow to inf, infinite or NaN.
_ROW_SCALES = st.sampled_from([1.0, 0.0, -0.0, 5e-324, 1e-310, 1e200, np.inf, np.nan])


@settings(max_examples=200, deadline=None)
@given(stacked=st.booleans(), b=st.integers(1, 3), k=st.integers(0, 6), d=st.integers(1, 4),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_cosine_data_equals_out_of_place_form(stacked, b, k, d, data, seed):
    lead = (b,) if stacked else ()
    rows = int(np.prod(lead + (k,)))
    scales = data.draw(st.lists(_ROW_SCALES, min_size=rows, max_size=rows))
    nodes = np.random.default_rng(seed).normal(size=lead + (k, d))
    nodes *= np.reshape(scales, lead + (k, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing dots, inf / inf
        got = _cosine_data(nodes)
        expected = cosine_data_out_of_place(nodes)
    for g, e in zip(got, expected):
        assert g.shape == e.shape and g.tobytes() == e.tobytes()


class TestRelationSoftmax:
    def test_single_node(self):
        rel = relation_softmax(Tensor([[2.0, -1.0, 0.5]]))
        assert np.array_equal(rel.values.data, [[1.0]])

    def test_identical_rows_uniform(self):
        rel = relation_softmax(Tensor([[1.0, 2.0], [1.0, 2.0]]))
        assert np.allclose(rel.values.data, 0.5)

    def test_matches_tensor_core_composition(self):
        rng = np.random.default_rng(2)
        nodes = Tensor(rng.uniform(-1, 1, (3, 4)))
        rel = relation_softmax(nodes)
        oracle = softmax_rows(matmul(nodes, transpose(nodes)))
        assert np.array_equal(rel.values.data, oracle.data)

    def test_row_stochastic(self):
        rng = np.random.default_rng(3)
        vals = relation_softmax(Tensor(rng.normal(size=(7, 5)))).values.data
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-9)


class TestMakeTheta:
    def test_direct_arithmetic(self):
        values = Tensor([[1.0, 0.1], [0.1, 1.0]])
        assert make_theta(values, 1.0) == pytest.approx(0.55)
        assert make_theta(values) == pytest.approx(0.1375)

    def test_uniform_matrix_keeps_all_edges(self):
        values = Tensor(np.full((3, 3), 0.4))
        theta = make_theta(values, 1.0)
        rel = sparsify(relation_cosine(Tensor(np.ones((3, 2)))), theta)
        assert rel.kept_edges() == 9

    def test_default_coefficient_is_quarter(self):
        assert make_theta(Tensor(np.full((2, 2), 1.0))) == pytest.approx(0.25)


# Signed zeros, infinities and NaN come up often, among ordinary values.
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), st.floats(-4.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rank=st.sampled_from([2, 3]), k=st.integers(1, 4),
       coefficient=st.floats(-1.0, 1.0), scalar_theta=st.booleans())
def test_threshold_and_mask_equal_the_mean_and_expand_dims_form(data, rank, k, coefficient,
                                                                scalar_theta):
    """``make_theta`` and ``sparsify`` give the bytes of ``np.mean`` and
    ``np.expand_dims``, for one graph and for a stack (with a [B] or a scalar theta)."""
    shape = (k, k) if rank == 2 else (data.draw(st.integers(1, 3)), k, k)
    values = data.draw(arrays(np.float64, shape, elements=_ENTRIES))

    with np.errstate(invalid="ignore"):  # inf - inf, and 0 * inf
        theta = make_theta(values, coefficient)
        expected = float(coefficient) * np.mean(values, axis=(-2, -1))
    expected = float(expected) if rank == 2 else expected
    assert type(theta) is type(expected)
    assert np.asarray(theta).tobytes() == np.asarray(expected).tobytes()

    given_theta = float(theta[0]) if scalar_theta and rank == 3 else theta
    stored = float(given_theta) if rank == 2 else np.asarray(given_theta, dtype=np.float64)
    pruned = sparsify(RelationMatrix(Tensor(values)), given_theta)
    assert type(pruned.theta) is type(stored)
    assert np.asarray(pruned.theta).tobytes() == np.asarray(stored).tobytes()
    assert pruned.mask.tobytes() == (values > np.expand_dims(stored, (-2, -1))).tobytes()


class TestSparsify:
    def test_direct_arithmetic_example(self):
        rel = relation_cosine(Tensor([[1.0, 0.0], [0.0, 1.0]]))
        rel.values.data[:] = [[1.0, 0.1], [0.1, 1.0]]
        theta = make_theta(rel.values)  # v = 0.55, c = 1/4
        assert theta == pytest.approx(0.1375)
        pruned = sparsify(rel, theta)
        assert np.array_equal(pruned.values.data, [[1.0, 0.0], [0.0, 1.0]])

    def test_theta_below_min_is_noop(self):
        rng = np.random.default_rng(4)
        rel = relation_softmax(Tensor(rng.normal(size=(4, 3))))
        pruned = sparsify(rel, -1.0)
        assert np.array_equal(pruned.values.data, rel.values.data)

    def test_theta_at_or_above_max_empties(self):
        rng = np.random.default_rng(5)
        rel = relation_softmax(Tensor(rng.normal(size=(4, 3))))
        pruned = sparsify(rel, float(rel.values.data.max()))
        assert np.array_equal(pruned.values.data, np.zeros((4, 4)))

    def test_mask_records_threshold_decision(self):
        rng = np.random.default_rng(6)
        rel = relation_softmax(Tensor(rng.normal(size=(5, 4))))
        theta = make_theta(rel.values)
        pruned = sparsify(rel, theta)
        assert np.array_equal(pruned.mask, rel.values.data > theta)
        assert pruned.theta == theta

    def test_idempotent_on_values(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rel = relation_cosine(Tensor(rng.normal(size=(5, 3))))
            theta = make_theta(rel.values, float(rng.uniform(-0.5, 2.0)))
            once = sparsify(rel, theta)
            twice = sparsify(once, theta)
            assert np.array_equal(once.values.data, twice.values.data)

    def test_edge_count_monotone_in_theta(self):
        rng = np.random.default_rng(8)
        rel = relation_softmax(Tensor(rng.normal(size=(6, 4))))
        thetas = sorted(rng.uniform(0, 0.5, 10))
        counts = [sparsify(rel, t).kept_edges() for t in thetas]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestNodeUpdate:
    def test_identity_relation(self):
        rng = np.random.default_rng(9)
        nodes = Tensor(rng.normal(size=(4, 3)))
        rel = relation_cosine(Tensor(np.eye(4)))
        rel.values.data[:] = np.eye(4)
        assert np.array_equal(node_update(rel, nodes).data, nodes.data)

    def test_zero_relation(self):
        rng = np.random.default_rng(10)
        nodes = Tensor(rng.normal(size=(4, 3)))
        rel = sparsify(relation_softmax(nodes), 2.0)
        assert np.array_equal(node_update(rel, nodes).data, np.zeros((4, 3)))

    def test_sparse_equals_dense_masked(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k, d = int(rng.integers(1, 10)), int(rng.integers(1, 8))
            nodes = Tensor(rng.normal(size=(k, d)))
            rel = sparsify(relation_softmax(nodes), make_theta(relation_softmax(nodes).values))
            dense = node_update(rel, nodes).data
            sparse = node_update_sparse(rel, nodes.data)
            assert np.abs(dense - sparse).max() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(12)
        base = Tensor(rng.normal(size=(5, 4)))
        rel = sparsify(relation_softmax(base), 0.1)
        x, y = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        a, b = 1.7, -0.4
        combined = node_update(rel, Tensor(a * x + b * y)).data
        split = a * node_update(rel, Tensor(x)).data + b * node_update(rel, Tensor(y)).data
        assert np.abs(combined - split).max() < 1e-10

    def test_mask_constant_in_backward(self):
        rng = np.random.default_rng(13)
        nodes = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        # A leaf copy of the relation values keeps their gradient.
        values = Tensor(relation_softmax(nodes).values.data.copy(), requires_grad=True)
        pruned = sparsify(RelationMatrix(values), make_theta(values))
        backward(sum_all(node_update(pruned, nodes)))
        assert pruned.mask.any() and not pruned.mask.all()
        # pruned-away entries must receive exactly zero gradient, kept ones some
        assert np.array_equal(values.grad[~pruned.mask], np.zeros((~pruned.mask).sum()))
        assert np.any(values.grad[pruned.mask] != 0.0)


class TestGraphConv:
    def test_identity_weights(self):
        rng = np.random.default_rng(14)
        nodes = Tensor(rng.normal(size=(4, 3)))
        assert np.array_equal(matmul(nodes, Parameter(np.eye(3), "w")).data, nodes.data)

    def test_zero_weights(self):
        nodes = Tensor(np.random.default_rng(15).normal(size=(4, 3)))
        assert np.array_equal(matmul(nodes, Parameter(np.zeros((3, 3)), "w")).data, np.zeros((4, 3)))

    def test_dimension_mismatch(self):
        # a round's mix weight must be [D, D] for the node width D
        with pytest.raises(ValueError, match="inner dimensions disagree"):
            run_graph(Tensor(np.zeros((4, 3))), [Parameter(np.eye(5), "w")])

    def test_full_pipeline_matches_hand_composition(self):
        rng = np.random.default_rng(16)
        nodes = rng.uniform(-1, 1, (3, 2))
        w = rng.uniform(-1, 1, (2, 2))
        t = Tensor(nodes)
        rel = relation_softmax(t)
        theta = make_theta(rel.values)
        pruned = sparsify(rel, theta)
        out = matmul(node_update(pruned, t), Parameter(w, "w")).data

        vals = softmax_rows(matmul(t, transpose(t))).data
        masked = np.where(vals > theta, vals, 0.0)
        hand = np.matmul(node_update_dense_data(masked, nodes), w)
        assert np.array_equal(out, hand)


class TestRunGraph:
    def _layers(self, rng, dims):
        return [Parameter(rng.uniform(-1, 1, (d, d)), f"w{i}") for i, d in enumerate(dims)]

    def test_depth_one_equals_manual_round(self):
        rng = np.random.default_rng(17)
        nodes = Tensor(rng.normal(size=(4, 3)))
        layers = self._layers(rng, [3])
        cfg = GraphConfig()
        out = run_graph(nodes, layers, cfg).data

        rel = relation_softmax(nodes)
        pruned = sparsify(rel, make_theta(rel.values, cfg.theta_coefficient))
        manual = matmul(node_update(pruned, nodes), layers[0]).data
        assert np.array_equal(out, manual)

    def test_depth_two_equals_two_chained_rounds(self):
        rng = np.random.default_rng(18)
        nodes = Tensor(rng.normal(size=(4, 3)))
        layers = self._layers(rng, [3, 3])
        cfg = GraphConfig(theta_coefficient=0.5)
        out = run_graph(nodes, layers, cfg).data

        x = nodes
        for layer in layers:
            rel = relation_softmax(x)
            pruned = sparsify(rel, make_theta(rel.values, cfg.theta_coefficient))
            x = matmul(node_update(pruned, x), layer)
        assert np.array_equal(out, x.data)

    def test_identity_weights_theta_below_min_closed_form(self):
        # with W = I and no pruning, two rounds give R(R(X)X) @ (R(X)X)
        rng = np.random.default_rng(19)
        nodes = rng.normal(size=(4, 3))
        layers = [Parameter(np.eye(3), "w0"), Parameter(np.eye(3), "w1")]
        cfg = GraphConfig(theta_coefficient=0.0)  # theta = 0 < every softmax entry
        out = run_graph(Tensor(nodes), layers, cfg).data

        def rel_data(x):
            return softmax_rows(matmul(Tensor(x), transpose(Tensor(x)))).data

        step1 = node_update_dense_data(rel_data(nodes), nodes)
        step2 = node_update_dense_data(rel_data(step1), step1)
        assert np.array_equal(out, step2)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            run_graph(Tensor(np.zeros((2, 2))), [], GraphConfig())


class TestGraphConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            GraphConfig(variant="bogus")

    def test_built_config_is_frozen(self):
        # The unknown-variant check runs once, at construction, so a built
        # config must not be able to take another variant.
        cfg = GraphConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.variant = "bogus"


class TestSparseDensePaths:
    def test_column_skipping_is_exact(self):
        rng = np.random.default_rng(20)
        slabs = []
        for _ in range(50):
            lead = (int(rng.integers(1, 6)),) if rng.random() < 0.5 else ()
            k, d = int(rng.integers(1, 40)), int(rng.integers(1, 10))
            values = rng.normal(size=lead + (k, k))
            mask = rng.random(values.shape) < rng.random()
            masked = np.where(mask, values, 0.0)
            nodes = rng.normal(size=lead + (k, d))
            dense = node_update_dense_data(masked, nodes)
            sparse = node_update_sparse_data(masked, mask, nodes)
            assert dense.tobytes() == sparse.tobytes()
            slabs.append(nodes.size)
        # Both forms of the dense propagation, one call and the j loop.
        assert min(slabs) <= _PROPAGATE_ONE_CALL_FLOATS < max(slabs)

    def test_sparse_requires_mask(self):
        rel = relation_softmax(Tensor(np.random.default_rng(21).normal(size=(3, 2))))
        with pytest.raises(ValueError, match="no mask"):
            node_update_sparse(rel, np.zeros((3, 2)))
