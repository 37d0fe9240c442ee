"""Boundary-attention gate: coefficient range, locality, param count."""

import numpy as np
import pytest

from wingraph.boundary import BAParams, ba_apply, ba_coefficients, ba_param_count
from wingraph.tensor import Parameter, Tensor, conv2d, gelu, hadamard, sigmoid


def make_params(rng, c=2, r=2, randomise_unsqueeze=True):
    params = BAParams.create(c, r, rng, "ba")
    if randomise_unsqueeze:
        params.unsqueeze.data = rng.uniform(-1, 1, params.unsqueeze.shape)
    return params


class TestCoefficients:
    def test_zero_everything_gives_half(self):
        rng = np.random.default_rng(0)
        params = BAParams.create(2, 2, rng, "ba")
        params.squeeze.data[:] = 0.0
        params.local.data[:] = 0.0
        y = Tensor(np.zeros((2, 4, 4)))
        coeffs = ba_coefficients(y, params)
        assert np.array_equal(coeffs.data, np.full((2, 4, 4), 0.5))

    def test_zero_init_unsqueeze_gives_half_for_any_input(self):
        rng = np.random.default_rng(1)
        params = make_params(rng, randomise_unsqueeze=False)
        y = Tensor(rng.uniform(-2, 2, (2, 5, 5)))
        assert np.array_equal(ba_coefficients(y, params).data, np.full((2, 5, 5), 0.5))

    def test_range_strictly_open_unit_interval(self):
        rng = np.random.default_rng(2)
        params = make_params(rng)
        for _ in range(10):
            y = Tensor(rng.uniform(-3, 3, (2, 6, 6)))
            coeffs = ba_coefficients(y, params).data
            assert (coeffs > 0).all() and (coeffs < 1).all()

    def test_matches_stage_by_stage_composition(self):
        rng = np.random.default_rng(3)
        params = make_params(rng)
        y = Tensor(rng.uniform(-1, 1, (2, 5, 5)))
        out = ba_coefficients(y, params)
        hand = sigmoid(conv2d(gelu(conv2d(conv2d(y, params.squeeze), params.local)),
                              params.unsqueeze))
        assert np.array_equal(out.data, hand.data)

    def test_locality_is_exactly_seven_by_seven(self):
        rng = np.random.default_rng(4)
        params = make_params(rng)
        y = rng.uniform(-1, 1, (2, 15, 15))
        base = ba_coefficients(Tensor(y), params).data
        bumped = y.copy()
        bumped[:, 7, 7] += 0.5
        moved = ba_coefficients(Tensor(bumped), params).data
        diff = np.abs(moved - base).sum(axis=0)
        inside = np.zeros((15, 15), dtype=bool)
        inside[4:11, 4:11] = True
        assert np.array_equal(diff[~inside], np.zeros((~inside).sum()))
        assert diff[inside].max() > 0

    def test_ratio_must_divide_channels(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="does not divide"):
            BAParams.create(4, 3, rng, "ba")

    def test_local_kernel_must_be_seven(self):
        rng = np.random.default_rng(6)
        good = BAParams.create(2, 2, rng, "ba")
        with pytest.raises(ValueError, match="local kernel"):
            BAParams(good.squeeze, Parameter(np.zeros((1, 1, 5, 5)), "ba.bad"),
                     good.unsqueeze)


class TestApply:
    def test_identity_when_coefficients_forced_to_one(self):
        rng = np.random.default_rng(7)
        params = make_params(rng)
        y = Tensor(rng.uniform(-1, 1, (2, 4, 4)))
        ones = Tensor(np.ones((2, 4, 4)))
        assert np.array_equal(hadamard(y, ones).data, y.data)

    def test_zero_input_gives_zero_output(self):
        rng = np.random.default_rng(8)
        params = make_params(rng)
        out = ba_apply(Tensor(np.zeros((2, 4, 4))), params)
        assert np.array_equal(out.data, np.zeros((2, 4, 4)))

    def test_equals_hadamard_with_coefficients(self):
        rng = np.random.default_rng(9)
        params = make_params(rng)
        y = Tensor(rng.uniform(-1, 1, (2, 5, 5)))
        out = ba_apply(y, params)
        hand = hadamard(y, ba_coefficients(y, params))
        assert np.array_equal(out.data, hand.data)

    def test_never_amplifies(self):
        rng = np.random.default_rng(10)
        params = make_params(rng)
        y = rng.uniform(-2, 2, (2, 6, 6))
        out = ba_apply(Tensor(y), params).data
        assert (np.abs(out) <= np.abs(y)).all()


class TestParamCount:
    def test_closed_form_matches_created(self):
        rng = np.random.default_rng(11)
        for c, r in [(2, 2), (4, 2), (16, 16), (8, 4)]:
            params = BAParams.create(c, r, rng, "ba")
            actual = sum(p.data.size for p in params.named_parameters())
            assert actual == ba_param_count(c, r)

    def test_hand_count(self):
        # C=4, r=2: squeeze 4*2 + unsqueeze 4*2 + local 7*7*2*2
        assert ba_param_count(4, 2) == 8 + 8 + 196
