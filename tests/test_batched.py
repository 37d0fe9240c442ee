"""Stacked calls equal a stack of the rank-2 calls, bit for bit.

Windows run as one [B, ...] stack through the tensor ops, the graph
functions and window attention; each slice must come out exactly as the
per-window rank-2 call would compute it.  Images stack the same way: a
forward over [N, 3, H, W] gives each image its own call's logits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wingraph.graph import (
    _PROPAGATE_ONE_CALL_FLOATS,
    _VARIANTS,
    GraphConfig,
    RelationMatrix,
    make_theta,
    node_update,
    node_update_dense_data,
    node_update_sparse,
    relation,
    run_graph,
    sparsify,
)
from wingraph import model as model_module
from wingraph.gradcheck import check_gradients
from wingraph.model import NonFiniteLogits, SegmenterConfig, WindowAttention, build_model
from wingraph.relation import FusionType
from wingraph.tensor import (
    Parameter,
    Tensor,
    add,
    backward,
    conv2d,
    hadamard,
    matmul,
    reshape,
    scalar_mul,
    softmax_rows,
    stack,
    sum_all,
    take,
    transpose,
)
from wingraph.windows import WindowGrid, merge, partition


@st.composite
def node_stacks(draw):
    """A [B, K, D] stack of normal node features, some rows all zero, and a
    seed for whatever else the test draws."""
    b, k, d = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    zero_rows = draw(st.lists(st.booleans(), min_size=b * k, max_size=b * k))
    nodes = np.random.default_rng(seed).normal(size=(b, k, d))
    nodes[np.reshape(zero_rows, (b, k))] = 0.0
    return nodes, seed


coefficients = st.floats(-1.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(stacked=node_stacks(), variant=st.sampled_from(_VARIANTS),
       coefficient=coefficients, depth=st.integers(1, 2))
def test_run_graph_on_stack_equals_per_slice_calls(stacked, variant, coefficient, depth):
    nodes, seed = stacked
    rng = np.random.default_rng(seed + 1)
    d = nodes.shape[-1]
    layers = [Parameter(rng.uniform(-1, 1, (d, d)), f"w{l}") for l in range(depth)]
    cfg = GraphConfig(variant=variant, theta_coefficient=coefficient)
    whole = run_graph(Tensor(nodes), layers, cfg).data
    per_slice = np.stack([run_graph(Tensor(x), layers, cfg).data for x in nodes])
    assert np.array_equal(whole, per_slice)


@settings(max_examples=60, deadline=None)
@given(stacked=node_stacks(), variant=st.sampled_from(_VARIANTS), coefficient=coefficients)
def test_stacked_dense_update_equals_sparse_update_of_each_slice(stacked, variant, coefficient):
    nodes, _ = stacked
    rel = relation(Tensor(nodes), variant)
    theta = make_theta(rel.values, coefficient)
    pruned = sparsify(rel, theta)
    dense = node_update(pruned, Tensor(nodes)).data
    for b, x in enumerate(nodes):
        one = relation(Tensor(x), variant)
        one = sparsify(one, make_theta(one.values, coefficient))
        assert one.theta == theta[b]
        assert np.array_equal(one.mask, pruned.mask[b])
        assert np.array_equal(dense[b], node_update_sparse(one, x))
    assert np.array_equal(dense, node_update_sparse(pruned, nodes))


def with_special_values(shape, seed):
    """Normal entries of both signs, with some set to exactly 0.0 or -0.0
    and a few to +inf or -inf."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    kinds = rng.integers(0, 4, size=shape)  # 0, 1: keep; 2: +0.0; 3: -0.0
    data[kinds == 2] = 0.0
    data[kinds == 3] = -0.0
    infinite = rng.random(size=shape) < 0.02
    data[infinite] = np.copysign(np.inf, data[infinite])
    return data


def ascending_j_reference(values, nodes):
    """The ascending-neighbour loop with the output's feature axis
    innermost, whatever the shapes: the reference for both layouts."""
    out = np.zeros(values.shape[:-1] + nodes.shape[-1:])
    for j in range(values.shape[-1]):
        out += values[..., :, j, None] * nodes[..., j, None, :]
    return out


RULE = _PROPAGATE_ONE_CALL_FLOATS


@settings(max_examples=120, deadline=None)
@given(stacked=st.booleans(), b=st.integers(1, 8), k=st.integers(0, 40), d=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1))
# B*K*D floats per step at the size rule and one past it, in both layouts
# (K = 16, D = 4 is transposed); then no nodes, and nodes without features.
@example(stacked=False, b=1, k=RULE, d=1, seed=1)
@example(stacked=False, b=1, k=RULE + 1, d=1, seed=2)
@example(stacked=True, b=RULE // 64, k=16, d=4, seed=3)
@example(stacked=True, b=1, k=1, d=RULE + 1, seed=4)
@example(stacked=True, b=3, k=0, d=5, seed=5)
@example(stacked=False, b=1, k=6, d=0, seed=6)
def test_dense_update_equals_ascending_j_reference(stacked, b, k, d, seed):
    # Both layouts (fewer features than nodes, 1 < D < K, and the rest) on
    # both sides of the size rule: the draws reach 8 * 40 * 40 floats a step.
    lead = (b,) if stacked else ()
    values = with_special_values(lead + (k, k), seed)
    nodes = with_special_values(lead + (k, d), seed + 1)
    with np.errstate(invalid="ignore"):  # 0 * inf, and inf - inf
        out = node_update_dense_data(values, nodes)
        expected = ascending_j_reference(values, nodes)
    assert out.shape == lead + (k, d) and out.flags["C_CONTIGUOUS"]
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 20), p=st.integers(1, 5), q=st.integers(1, 5), s=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shared_matmul_gradient_equals_ascending_loop(b, p, q, s, seed):
    rng = np.random.default_rng(seed)
    # A 1x1 weight makes the window axis the only one summed over, where
    # numpy's sum() pairs terms up instead of adding them in order.
    for q_w, s_w in ((q, s), (1, 1)):
        a, g = rng.normal(size=(b, p, q_w)), rng.normal(size=(b, p, s_w))
        a[rng.random(a.shape) < 0.2] = -0.0
        out = matmul(Tensor(a), Parameter(rng.normal(size=(q_w, s_w)), "w"))
        _, dw = out._backward(g)
        expected = np.matmul(a[0].T, g[0])
        for i in range(1, b):
            expected = expected + np.matmul(a[i].T, g[i])
        assert dw.tobytes() == expected.tobytes()


def per_window_attention(block: WindowAttention, x: Tensor, grid: WindowGrid) -> Tensor:
    """Window attention as a loop of rank-2 ops, one window at a time."""
    wins = partition(x, grid)
    pixels, c = grid.h_w * grid.w_w, block.wq.shape[0]
    outs = []
    for i in range(grid.num_nodes):
        tokens = transpose(reshape(take(wins, i), (c, pixels)))
        q, k, v = (matmul(tokens, w) for w in (block.wq, block.wk, block.wv))
        att = softmax_rows(scalar_mul(matmul(q, transpose(k)), c ** -0.5))
        outs.append(reshape(transpose(matmul(att, v)), (c, grid.h_w, grid.w_w)))
    return add(x, merge(stack(outs), grid))


@settings(max_examples=40, deadline=None)
@given(c=st.integers(1, 6), m=st.integers(1, 3), n=st.integers(1, 3),
       h_w=st.integers(1, 3), w_w=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_window_attention_equals_per_window_loop(c, m, n, h_w, w_w, seed):
    rng = np.random.default_rng(seed)
    grid = WindowGrid(c, m * h_w, n * w_w, m, n)
    block = WindowAttention.create(c, rng, "attn")
    for p in block.named_parameters():
        p.data = rng.uniform(-1, 1, p.shape)
    x = Tensor(rng.uniform(-1, 1, (c, grid.H, grid.W)), requires_grad=True)
    proj = Tensor(rng.uniform(-1, 1, x.shape))
    leaves = [x] + block.named_parameters()

    runs = []
    for forward in (block.forward, lambda x, g: per_window_attention(block, x, g)):
        for leaf in leaves:
            leaf.grad = None
        out = forward(x, grid)
        backward(sum_all(hadamard(out, proj)))
        # The block's parameters own their gradient slots, so keep copies.
        runs.append([out.data] + [leaf.grad.copy() for leaf in leaves])
    # Gradients too: shared weights sum the windows in the loop's order.
    for batched, looped in zip(*runs):
        assert np.array_equal(batched, looped)


class TestStackedShapes:
    def test_matmul_shared_and_stacked_operands(self):
        rng = np.random.default_rng(0)
        a, b, w = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2)), rng.normal(size=(5, 2))
        stacked = matmul(Tensor(a), Tensor(b)).data
        shared = matmul(Tensor(a), Tensor(w)).data
        for i in range(3):
            assert np.array_equal(stacked[i], matmul(Tensor(a[i]), Tensor(b[i])).data)
            assert np.array_equal(shared[i], matmul(Tensor(a[i]), Tensor(w)).data)

    def test_matmul_rejects_mismatched_stacks_and_ranks(self):
        with pytest.raises(ValueError, match="stack sizes disagree"):
            matmul(Tensor(np.zeros((3, 2, 2))), Tensor(np.zeros((2, 2, 2))))
        with pytest.raises(ValueError, match=r"\[2, 2\].*\[3, 2, 2\]"):
            matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2, 2))))
        with pytest.raises(ValueError, match="rank-2 or rank-3"):
            softmax_rows(Tensor(np.zeros((1, 2, 2, 2))))

    def test_softmax_rows_per_slice(self):
        a = np.random.default_rng(1).normal(size=(4, 3, 5))
        out = softmax_rows(Tensor(a)).data
        for i in range(4):
            assert np.array_equal(out[i], softmax_rows(Tensor(a[i])).data)

    def test_theta_is_float_for_one_graph_and_per_graph_for_a_stack(self):
        values = np.random.default_rng(2).uniform(size=(3, 4, 4))
        assert isinstance(make_theta(values[0]), float)
        thetas = make_theta(values, 0.5)
        assert thetas.shape == (3,)
        assert [make_theta(v, 0.5) for v in values] == list(thetas)

    def test_relation_matrix_needs_square_slices(self):
        with pytest.raises(ValueError, match="square"):
            RelationMatrix(Tensor(np.zeros((2, 3, 4))))


def per_image_conv2d(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """conv2d of each image on its own: outputs, input gradients and the
    weight gradients added in ascending image order."""
    runs = []
    for xi, gi in zip(x, g):
        out = conv2d(Tensor(xi, requires_grad=True), Parameter(w, "w"))
        runs.append((out.data, *out._backward(gi)))
    outs, dxs, dws = zip(*runs)
    dw = dws[0]
    for part in dws[1:]:
        dw = dw + part
    return np.stack(outs), np.stack(dxs), dw


@settings(max_examples=80, deadline=None)
@given(k=st.sampled_from((1, 3, 7)), images=st.integers(1, 5), c_in=st.integers(1, 3),
       c_out=st.integers(1, 3), h=st.integers(1, 12), w=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
# A stack whose running sums pass the one-stack size rule while each image's
# stays under it, and a wide map on the per-row path.
@example(k=7, images=5, c_in=2, c_out=2, h=6, w=6, seed=0)
@example(k=7, images=2, c_in=2, c_out=2, h=16, w=16, seed=1)
def test_conv2d_on_an_image_stack_equals_per_image_calls(k, images, c_in, c_out, h, w, seed):
    rng = np.random.default_rng(seed)
    x, wt, g = (rng.normal(size=shape) for shape in ((images, c_in, h, w), (c_out, c_in, k, k),
                                                    (images, c_out, h, w)))
    out = conv2d(Tensor(x, requires_grad=True), Parameter(wt, "w"))
    dx, dw = out._backward(g)
    ref_out, ref_dx, ref_dw = per_image_conv2d(x, wt, g)
    assert out.data.tobytes() == ref_out.tobytes()
    assert np.ascontiguousarray(dx).tobytes() == ref_dx.tobytes()
    assert dw.tobytes() == ref_dw.tobytes()


def test_conv2d_and_window_attention_gradients_on_a_two_image_stack():
    rng = np.random.default_rng(31)
    # k = 7 on a 6x6 map takes one stack of offsets, on a 12x12 map a row at a time.
    for k, side in ((1, 4), (3, 5), (7, 6), (7, 12)):
        x = Tensor(rng.uniform(-1, 1, (2, 2, side, side)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 2, k, k)), requires_grad=True)
        proj = Tensor(rng.uniform(-1, 1, x.shape))
        result = check_gradients(f"conv2d k={k}", lambda: sum_all(hadamard(conv2d(x, w), proj)), [x, w],
                                 rng, max_entries=30)
        assert result.passed, result
    grid = WindowGrid(3, 4, 6, 2, 3)
    block = WindowAttention.create(3, rng, "attn")
    x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 6)), requires_grad=True)
    proj = Tensor(rng.uniform(-1, 1, x.shape))
    result = check_gradients("attention", lambda: sum_all(hadamard(block.forward(x, grid), proj)),
                             [x, *block.named_parameters()], rng, max_entries=30)
    assert result.passed, result


@settings(max_examples=50, deadline=None)
@given(variant=st.sampled_from(_VARIANTS), fusion=st.sampled_from(list(FusionType)),
       enable_gt=st.booleans(), enable_ba=st.booleans(), m=st.integers(1, 3), n=st.integers(1, 3),
       h_w=st.integers(1, 2), w_w=st.integers(1, 3), images=st.integers(1, 7), chunk=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
# Windows of one pixel; a stack of three chunks, the last one short.  In both
# the boundary gate's 7x7 running sums over the whole stack (images * 2
# squeezed channels * (H+6) * (W+6) floats) pass _CONV_ONE_STACK_FLOATS, though
# each image's stays under it.
@example(variant="softmax", fusion=FusionType.GR_THEN_LR, enable_gt=True, enable_ba=True,
         m=3, n=2, h_w=1, w_w=1, images=7, chunk=3, seed=0)
@example(variant="cosine", fusion=FusionType.PARALLEL, enable_gt=True, enable_ba=True,
         m=2, n=2, h_w=2, w_w=3, images=5, chunk=2, seed=1)
def test_image_stack_equals_per_image_calls(variant, fusion, enable_gt, enable_ba, m, n, h_w, w_w,
                                            images, chunk, seed):
    config = SegmenterConfig(C=4, H=m * h_w, W=n * w_w, stages=((1, m, n), (1, 1, n)), num_classes=3,
                             r_gr=2, r_lr=2, r_ba=2, relation_variant=variant, fusion=fusion,
                             enable_gt=enable_gt, enable_ba=enable_ba)
    model = build_model(config)
    rng = np.random.default_rng(seed)
    model.arena[:] = 0.1 * rng.normal(size=model.arena.size)  # unsqueeze weights nonzero too
    x = rng.normal(size=(images, 3, config.H, config.W))
    stacked = model.forward(Tensor(x)).data
    for image, logits in zip(x, stacked):
        assert logits.tobytes() == model.forward(Tensor(image)).data.tobytes()
    tensors = [Tensor(image) for image in x]
    with mock.patch.object(model_module, "_PREDICT_CHUNK_FLOATS", chunk * 4 * config.H * config.W):
        try:
            expected = np.stack([model.predict(image) for image in tensors])
        except NonFiniteLogits as exc:
            with pytest.raises(NonFiniteLogits, match=f"^{exc}$"):
                model.predict_stack(tensors)
        else:
            with mock.patch.object(model, "forward", wraps=model.forward) as forward:
                assert model.predict_stack(tensors).tobytes() == expected.tobytes()
            # one forward per chunk of ``chunk`` images, the last one short
            per_forward = [call.args[0].data.size // (3 * config.H * config.W) for call in forward.call_args_list]
            assert per_forward == [min(chunk, images - i) for i in range(0, images, chunk)]
