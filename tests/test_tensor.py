"""Tensor core: forward semantics, shape errors, tape gradients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wingraph.tensor import (
    Parameter,
    Tensor,
    _mask_data,
    _sigmoid,
    _softmax_data,
    add,
    apply_mask,
    backward,
    conv2d,
    cross_entropy_logits,
    gelu,
    hadamard,
    matmul,
    permute,
    reshape,
    scalar_mul,
    sigmoid,
    softmax_rows,
    stack,
    sum_all,
    take,
    transpose,
)
from wingraph.gradcheck import STEP, relative_error


def float_bits(min_dims=1, max_dims=3, max_side=6):
    """Float64 arrays drawn as bit patterns: ordinary floats, ties, signed zeros,
    infinities, subnormals, |x| > 745, and NaNs of either sign with any payload
    (signalling ones too), which a float strategy would not give byte for byte."""
    nan = st.builds(lambda sign, payload: (sign << 63) | (0x7FF << 52) | payload,
                    st.integers(0, 1), st.integers(1, 2 ** 52 - 1))
    values = st.one_of(st.floats(), st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, math.inf, -math.inf)),
                       st.floats(-1e3, 1e3), st.floats(-2.3e-308, 2.3e-308),
                       st.floats(745.0, 1e4), st.floats(-1e4, -745.0))
    bits = st.one_of(values.map(lambda v: int(np.float64(v).view(np.uint64))), nan)
    return hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, max_side=max_side).flatmap(
        lambda shape: hnp.arrays(np.uint64, shape, elements=bits).map(lambda b: b.view(np.float64)))


def naive_conv2d(x, w):
    """Nested-loop reference convolution: same padding, no bias."""
    c_out, c_in, k, _ = w.shape
    _, h, wd = x.shape
    pad = (k - 1) // 2
    out = np.zeros((c_out, h, wd))
    for o in range(c_out):
        for y in range(h):
            for xx in range(wd):
                acc = 0.0
                for c in range(c_in):
                    for i in range(k):
                        for j in range(k):
                            yy, xj = y + i - pad, xx + j - pad
                            if 0 <= yy < h and 0 <= xj < wd:
                                acc += w[o, c, i, j] * x[c, yy, xj]
                out[o, y, xx] = acc
    return out


def per_offset_conv2d(x, w, g):
    """conv2d as one rank-2 product per kernel offset: output, dX and dW.

    The loop ``conv2d`` ran before its kernel rows were stacked, kept as the
    byte-for-byte reference: ascending (i, j) sums into zero-initialised
    buffers, one offset at a time.
    """
    c_out, c_in, k, _ = w.shape
    _, h, wd = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((c_in, h + 2 * pad, wd + 2 * pad))
    xp[:, pad:pad + h, pad:pad + wd] = x
    g2 = g.reshape(c_out, h * wd)
    out = np.zeros((c_out, h, wd))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(k):
        for j in range(k):
            patch = xp[:, i:i + h, j:j + wd].reshape(c_in, h * wd)
            out += np.matmul(w[:, :, i, j], patch).reshape(c_out, h, wd)
            dw[:, :, i, j] = np.matmul(g2, patch.T)
            dxp[:, i:i + h, j:j + wd] += np.matmul(w[:, :, i, j].T, g2).reshape(c_in, h, wd)
    return out, dxp[:, pad:pad + h, pad:pad + wd], dw


def signed_normals(rng, shape):
    """Normal entries of both signs, about a quarter each set to 0.0 and -0.0."""
    data = rng.normal(size=shape)
    kinds = rng.integers(0, 4, size=shape)
    data[kinds == 2] = 0.0
    data[kinds == 3] = -0.0
    return data


class TestTensorBasics:
    def test_data_is_contiguous_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 2)

    def test_shape_matches_size(self):
        t = Tensor(np.arange(24).reshape(2, 3, 4))
        assert np.prod(t.shape) == t.data.size

    def test_parameter_requires_grad_and_name(self):
        p = Parameter(np.zeros((2, 2)), "w")
        assert p.requires_grad and p.name == "w"

    def test_zero_grad_fills_zeros(self):
        p = Parameter(np.ones(3), "w")
        backward(sum_all(p))
        assert np.all(p.grad == 1.0)
        p.zero_grad()
        assert p.grad.shape == (3,) and np.all(p.grad == 0.0)

    def test_zero_grad_fills_a_requires_grad_input(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        backward(sum_all(x))
        x.zero_grad()
        assert x.grad.shape == (2, 2) and np.all(x.grad == 0.0)

    def test_zero_grad_refuses_an_op_output(self):
        out = matmul(Tensor(np.eye(2)), Parameter(np.ones((2, 2)), "w"))
        backward(sum_all(out))
        with pytest.raises(ValueError, match="op output"):
            out.zero_grad()
        assert out.grad is None


class TestMatmul:
    def test_identity(self):
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = matmul(Tensor(np.eye(2)), b)
        assert np.array_equal(out.data, b.data)

    def test_zero(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[0.0], [0.0]]))
        assert np.array_equal(out.data, [[0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\[2, 3\].*\[2, 2\]"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        proj = Tensor(rng.uniform(-1, 1, (3, 2)))

        def loss():
            return sum_all(hadamard(matmul(a, b), proj))

        backward(loss())
        for leaf in (a, b):
            flat = leaf.data.reshape(-1)
            grads = leaf.grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + STEP
                up = loss().item()
                flat[i] = orig - STEP
                down = loss().item()
                flat[i] = orig
                numeric = (up - down) / (2 * STEP)
                assert relative_error(grads[i], numeric) < 1e-6


class TestConv2d:
    def test_k1_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4, 4)))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        assert np.array_equal(conv2d(x, Tensor(w)).data, x.data)

    def test_zero_weights(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 5)))
        out = conv2d(x, Tensor(np.zeros((4, 2, 3, 3))))
        assert np.array_equal(out.data, np.zeros((4, 5, 5)))

    def test_k7_matches_naive_reference_exactly(self):
        # Integer-valued data keeps every product and sum exact in float64,
        # so the two summation orders must agree bit for bit.
        rng = np.random.default_rng(2)
        x = rng.integers(-4, 5, (1, 8, 8)).astype(np.float64)
        w = rng.integers(-3, 4, (2, 1, 7, 7)).astype(np.float64)
        out = conv2d(Tensor(x), Tensor(w))
        assert np.array_equal(out.data, naive_conv2d(x, w))

    def test_k3_matches_naive_reference_closely(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (2, 6, 6))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, naive_conv2d(x, w), rtol=0, atol=1e-13)

    def test_k1_equals_per_pixel_matmul(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (5, 4, 6))
        w = rng.uniform(-1, 1, (3, 5, 1, 1))
        out = conv2d(Tensor(x), Tensor(w))
        oracle = np.matmul(w[:, :, 0, 0], x.reshape(5, 24)).reshape(3, 4, 6)
        assert np.array_equal(out.data, oracle)

    @settings(max_examples=150, deadline=None)
    @given(k=st.sampled_from((1, 3, 5, 7)), c_in=st.integers(1, 5), c_out=st.integers(1, 5),
           h=st.integers(1, 12), w=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    # The boundary gate's 7x7 conv at the toy (one stack) and medium (per-row) scales.
    @example(k=7, c_in=1, c_out=1, h=8, w=8, seed=0)
    @example(k=7, c_in=2, c_out=2, h=32, w=32, seed=1)
    # Either side of the one-stack size rule (512 floats): the padded input
    # gradient's slab decides the k=3 pair, the output's the k=7 pair.
    @example(k=3, c_in=2, c_out=2, h=14, w=14, seed=2)
    @example(k=3, c_in=2, c_out=2, h=14, w=15, seed=3)
    @example(k=7, c_in=1, c_out=2, h=16, w=16, seed=4)
    @example(k=7, c_in=1, c_out=2, h=16, w=17, seed=5)
    def test_equals_per_offset_loop_byte_for_byte(self, k, c_in, c_out, h, w, seed):
        # H or W below k puts some kernel rows or columns wholly in the padding.
        rng = np.random.default_rng(seed)
        x, wt, g = (signed_normals(rng, shape) for shape in ((c_in, h, w), (c_out, c_in, k, k),
                                                             (c_out, h, w)))
        out = conv2d(Tensor(x, requires_grad=True), Parameter(wt, "w"))
        dx, dw = out._backward(g)
        ref_out, ref_dx, ref_dw = per_offset_conv2d(x, wt, g)
        assert out.data.tobytes() == ref_out.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()
        assert dw.tobytes() == ref_dw.tobytes()

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="even kernel"):
            conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 1, 1))))


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        assert np.array_equal(out.data, [[0.5, 0.5]])

    def test_large_entries_stable(self):
        out = softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] > 1 - 1e-12 and out.data[0, 1] < 1e-12

    def test_against_extended_precision_reference(self):
        # Reference evaluated with 50-digit arithmetic (mpmath, mp.dps=50).
        out = softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
        expected = [0.090030573170380457998, 0.24472847105479765247, 0.66524095577482188953]
        np.testing.assert_allclose(out.data[0], expected, rtol=0, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = softmax_rows(Tensor(rng.uniform(-5, 5, (7, 9))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert ((out.data >= 0) & (out.data <= 1)).all()

    # Against the forerunner that took each row's max with ``max``.  A NaN
    # leading five entries is where ``max`` drops the NaN's payload.
    @settings(max_examples=300, deadline=None)
    @given(a=float_bits(min_dims=2, max_dims=3), in_place=st.booleans())
    @example(a=np.array([[0.0, -0.0], [-0.0, 0.0], [math.inf, math.inf], [-math.inf, 1.0],
                         [math.nan, 1.0], [1.0, -math.nan]]), in_place=False)
    @example(a=np.array([[[3.0], [-math.inf]], [[math.nan], [-0.0]]]), in_place=True)
    @example(a=np.array([[0x7FF8000000000005, 0, 0, 0, 0]], np.uint64).view(np.float64), in_place=False)
    def test_row_max_by_argmax_equals_max_byte_for_byte(self, a, in_place):
        with np.errstate(all="ignore"):
            expected = a - a.max(axis=-1, keepdims=True)
            np.exp(expected, out=expected)
            expected /= expected.sum(axis=-1, keepdims=True)
            got = _softmax_data(a, out=a) if in_place else _softmax_data(a)
        assert got.tobytes() == expected.tobytes()


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_strictly_inside_unit_interval(self):
        x = Tensor(np.linspace(-30, 30, 1001))
        out = sigmoid(x).data
        assert (out > 0).all() and (out < 1).all()

    # Against the forerunner that picked each branch with ``np.where``.
    @settings(max_examples=300, deadline=None)
    @given(x=float_bits())
    @example(x=np.array([math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 746.0, -746.0]))
    def test_sigmoid_equals_branch_wise_where_byte_for_byte(self, x):
        with np.errstate(all="ignore"):
            pos = x >= 0
            e = np.exp(np.where(pos, -x, x))
            expected = np.where(pos, 1.0, e) / (1.0 + e)
            got, _ = _sigmoid(x)
        assert got.tobytes() == expected.tobytes()

    def test_gelu_at_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_gelu_variants_agree_loosely(self):
        # The tanh form against the exact GELU, x * Phi(x) with the erf CDF.
        x = np.linspace(-3, 3, 101)
        exact = [v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]
        np.testing.assert_allclose(gelu(Tensor(x)).data, exact, atol=2e-3)

    def test_hadamard_with_ones(self):
        a = Tensor(np.random.default_rng(6).normal(size=(3, 4)))
        assert np.array_equal(hadamard(a, Tensor(np.ones((3, 4)))).data, a.data)

    def test_hadamard_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            hadamard(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestBackward:
    def test_sum_of_parameter_gives_ones(self):
        w = Parameter(np.random.default_rng(8).normal(size=(4, 5)), "w")
        backward(sum_all(w))
        assert np.array_equal(w.grad, np.ones((4, 5)))

    def test_zero_scaled_loss_gives_zeros(self):
        w = Parameter(np.ones((3, 3)), "w")
        backward(scalar_mul(sum_all(w), 0.0))
        assert np.array_equal(w.grad, np.zeros((3, 3)))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(Tensor(np.zeros(3), requires_grad=True))

    def test_repeated_backward_accumulates(self):
        w = Parameter(np.ones(4), "w")
        loss = sum_all(w)
        backward(loss)
        backward(loss)
        assert np.array_equal(w.grad, np.full(4, 2.0))

    def test_grad_kept_on_leaves_only(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        w = Parameter(np.array([3.0, 0.5]), "w")
        h = hadamard(x, w)
        doubled = scalar_mul(h, 2.0)
        loss = sum_all(hadamard(doubled, doubled))
        for _ in range(2):
            backward(loss)
        assert h.grad is None and doubled.grad is None and loss.grad is None
        # each backward adds d(loss)/dx = 8 * w * h once more
        assert np.array_equal(x.grad, 2 * 8 * w.data * h.data)
        assert np.array_equal(w.grad, 2 * 8 * x.data * h.data)

    def test_reused_tensor_accumulates_both_paths(self):
        w = Parameter(np.array([2.0]), "w")
        backward(sum_all(hadamard(w, w)))
        assert np.allclose(w.grad, [4.0])

    def test_no_tape_for_constant_inputs(self):
        out = matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
        assert not out.requires_grad and out._backward is None


class TestMovementOps:
    def test_permute_reshape_roundtrip(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        y = permute(reshape(x, (6, 4)), (1, 0))
        z = reshape(permute(y, (1, 0)), (2, 3, 4))
        assert np.array_equal(z.data, x.data)
        backward(sum_all(z))
        assert np.array_equal(x.grad, np.ones((2, 3, 4)))

    def test_take_and_stack_are_inverse(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(4, 2, 2)), requires_grad=True)
        rebuilt = stack([take(x, i) for i in range(4)])
        assert np.array_equal(rebuilt.data, x.data)
        backward(sum_all(rebuilt))
        assert np.array_equal(x.grad, np.ones((4, 2, 2)))

    def test_transpose_is_its_own_inverse(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(transpose(transpose(x)).data, x.data)


class TestApplyMask:
    def test_masked_entries_exactly_zero(self):
        x = Tensor(np.array([[1.5, -2.0], [0.25, 3.0]]), requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        out = apply_mask(x, mask)
        assert np.array_equal(out.data, [[1.5, 0.0], [0.0, 3.0]])
        backward(sum_all(out))
        assert np.array_equal(x.grad, mask.astype(float))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_select_equals_where_byte_for_byte(self, data):
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
        specials = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan))
        a = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(specials, st.floats())))
        kept = data.draw(hnp.arrays(np.bool_, shape))
        assert _mask_data(a, kept).tobytes() == np.where(kept, a, 0.0).tobytes()


class TestCrossEntropy:
    def test_uniform_logits_log_num_classes(self):
        logits = Tensor(np.zeros((4, 3, 3)))
        loss = cross_entropy_logits(logits, np.zeros((3, 3), dtype=int))
        assert np.isclose(loss.item(), np.log(4.0))

    def test_label_validation(self):
        logits = Tensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="label id"):
            cross_entropy_logits(logits, np.full((2, 2), 5))

    def test_gradient_sums_to_zero_per_pixel(self):
        rng = np.random.default_rng(11)
        logits = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
        labels = rng.integers(0, 3, (4, 4))
        backward(cross_entropy_logits(logits, labels))
        np.testing.assert_allclose(logits.grad.sum(axis=0), 0.0, atol=1e-12)


class TestFiniteness:
    def test_forward_ops_preserve_finiteness(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.uniform(-50, 50, (6, 6)))
        for out in (softmax_rows(x), sigmoid(x), gelu(x),
                    matmul(x, x), hadamard(x, x), add(x, x), scalar_mul(x, 3.0)):
            assert np.isfinite(out.data).all()


class TestNoAliasing:
    """Kernels that reuse buffers internally must still leave their inputs,
    the upstream gradient and their own output alone."""

    @pytest.mark.parametrize("op, shapes", [
        (softmax_rows, [(4, 5)]),
        (softmax_rows, [(3, 4, 5)]),
        (matmul, [(3, 4, 5), (5, 2)]),
        (matmul, [(3, 4, 5), (3, 5, 2)]),
        (sigmoid, [(4, 5)]),
        (conv2d, [(2, 5, 6), (3, 2, 7, 7)]),
    ], ids=["softmax_rows", "softmax_rows_stacked", "matmul_shared", "matmul_stacked", "sigmoid",
            "conv2d_k7"])
    def test_forward_and_backward_leave_operands_unchanged(self, op, shapes):
        rng = np.random.default_rng(13)
        inputs = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        inputs_before = [x.data.tobytes() for x in inputs]
        out = op(*inputs)
        out_before = out.data.tobytes()
        g = rng.normal(size=out.shape)
        g_before = g.tobytes()
        grads = out._backward(g)
        assert [x.data.tobytes() for x in inputs] == inputs_before
        assert g.tobytes() == g_before
        assert out.data.tobytes() == out_before
        operands = [x.data for x in inputs] + [g]
        for produced in (out.data, *grads):
            assert not any(np.shares_memory(produced, a) for a in operands)
        for grad in grads:
            assert not np.shares_memory(grad, out.data)
