"""Training loop: determinism, overfitting, divergence handling."""

import importlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from wingraph.data import synth_dataset
from wingraph.model import NonFiniteLogits, SegmenterConfig, build_model
from wingraph.relation import FusionType
from wingraph.tensor import backward, cross_entropy_logits
from wingraph.train import TrainingDiverged, train

TOY = SegmenterConfig(C=4, H=4, W=4, stages=((1, 2, 2),), num_classes=2,
                      r_gr=2, r_lr=2, r_ba=2, dataset_size=2)


def toy_dataset(seed=0, n=2):
    return synth_dataset("stripes", n, 4, 4, 2, seed)


class TestTrain:
    def test_zero_steps_leaves_model_unchanged(self):
        model = build_model(TOY)
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        train(model, toy_dataset(), steps=0, lr=0.1)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name])

    def test_deterministic_trajectory(self):
        reports = []
        for _ in range(2):
            model = build_model(TOY)
            reports.append(train(model, toy_dataset(), steps=20, lr=0.1))
        assert reports[0].losses == reports[1].losses

    def test_final_loss_is_read_from_the_curve(self):
        assert math.isnan(train(build_model(TOY), toy_dataset(), steps=0, lr=0.1).final_loss)
        report = train(build_model(TOY), toy_dataset(), steps=3, lr=0.1)
        assert len(report.losses) == 3 and report.final_loss == report.losses[-1]
        with pytest.raises(AttributeError):
            report.final_loss = 0.0

    def test_loss_decreases_on_fixed_batch(self):
        model = build_model(TOY)
        report = train(model, toy_dataset(n=1), steps=100, lr=0.1)
        assert report.losses[-1] < report.losses[0]

    def test_doubling_steps_never_hurts_final_loss(self):
        # the 2N-step run passes through the N-step state, so comparing
        # within one recorded curve checks the monotone trend directly
        model = build_model(TOY)
        report = train(model, toy_dataset(n=1), steps=600, lr=0.1)
        assert report.losses[599] <= report.losses[299] + 1e-6

    def test_divergence_aborts_with_diagnostic(self):
        model = build_model(TOY)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="step"):
                train(model, toy_dataset(), steps=500, lr=1e4)

    def test_non_finite_gradient_names_parameter_and_step(self, monkeypatch):
        # The loss stays finite; only step 2's gradients of two weights are
        # poisoned, and the earlier one in parameters() order is named.
        model = build_model(TOY)
        steps = []

        def poisoned_backward(loss):
            backward(loss)
            if len(steps) == 2:
                model.parameters()["stage0.attn0.wk"].grad[0, 1] = np.inf
                model.parameters()["head"].grad[0, 0, 0, 0] = np.nan
            steps.append(loss.item())

        # the package's ``train`` attribute is the function, not the module
        monkeypatch.setattr(importlib.import_module("wingraph.train"), "backward", poisoned_backward)
        with pytest.raises(TrainingDiverged,
                           match=r"^non-finite gradient of stage0\.attn0\.wk at step 2 \(lr=0\.1\)$"):
            train(model, toy_dataset(), steps=5, lr=0.1)
        assert np.isfinite(steps).all()
        assert np.isfinite(model.arena).all()

    def test_non_finite_closing_logits_diverge(self):
        # The loss of a step and its gradients are checked in the loop; the
        # closing accuracy pass checks the logits of the model it leaves.
        model = build_model(TOY)
        model.parameters()["stem"].data[0, 0, 0, 0] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and numpy's overflow warnings stay silent
            with pytest.raises(TrainingDiverged, match=r"^32 of 32 logits are not finite after 0 steps \(lr=0\.1\)$"):
                train(model, toy_dataset(), steps=0, lr=0.1)

    def test_non_finite_image_inside_a_chunk_is_named_by_its_own_count(self):
        # At the benchmark's toy scale (C=16, 8x8) one overflowing pixel makes
        # that image's logits non-finite; 5 images are one chunk of 8.
        config = SegmenterConfig(num_classes=3)
        dataset = synth_dataset("blobs", 5, config.H, config.W, config.num_classes, 0)
        dataset[2][0].data[0, 1, 2] = 1e300
        model = build_model(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                with pytest.raises(NonFiniteLogits) as alone:
                    model.predict(dataset[2][0])
                with mock.patch.object(model, "forward", wraps=model.forward) as forward:
                    with pytest.raises(NonFiniteLogits) as stacked:
                        model.predict_stack([x for x, _ in dataset])
            assert [call.args[0].shape for call in forward.call_args_list] == [(5, 3, 8, 8)]
            assert str(stacked.value) == str(alone.value)
            assert str(alone.value).endswith(" of 192 logits are not finite")
            with pytest.raises(TrainingDiverged) as diverged:
                train(model, dataset, steps=0, lr=0.1)
        assert str(diverged.value) == f"{alone.value} after 0 steps (lr=0.1)"

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(build_model(TOY), [], steps=1, lr=0.1)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match=r"^train: steps must be >= 0, got -3$"):
            train(build_model(TOY), toy_dataset(), steps=-3, lr=0.1)

    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan, np.inf])
    def test_lr_outside_open_positive_range_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            train(build_model(TOY), toy_dataset(), steps=1, lr=lr)


class CountingDataset(list):
    """A dataset that counts ``train()``'s accesses, as perfbench's ``StepClock``
    marks them: the indexing count when the one iteration starts."""

    def __init__(self, items):
        super().__init__(items)
        self.gets, self.iters, self.gets_before_iter = 0, 0, None

    def __getitem__(self, index):
        self.gets += 1
        return super().__getitem__(index)

    def __iter__(self):
        self.iters += 1
        self.gets_before_iter = self.gets
        return super().__iter__()


class TestDatasetAccess:
    # One index per step and one closing iteration after the last step bound
    # each step's time in perfbench's StepClock.
    @pytest.mark.parametrize("steps", [0, 1, 7])
    def test_indexes_once_per_step_and_iterates_once_after_the_last(self, steps):
        dataset = CountingDataset(toy_dataset(n=3))
        train(build_model(TOY), dataset, steps=steps, lr=0.1)
        assert (dataset.gets, dataset.iters, dataset.gets_before_iter) == (steps, 1, steps)


class TestArenaUpdate:
    @staticmethod
    def build(config):
        model = build_model(config)
        rng = np.random.default_rng(5)
        for name, p in model.parameters().items():
            if name.endswith(".unsqueeze"):  # zero at build, which would zero the graph gradients
                p.data = rng.normal(0.0, 0.5, p.shape)
        return model

    @pytest.mark.parametrize("variant,fusion", [("softmax", FusionType.GR_THEN_LR),
                                                ("cosine", FusionType.PARALLEL)])
    def test_one_call_update_equals_per_parameter_loop(self, variant, fusion):
        """train()'s update over the arenas gives the bytes of the loop it replaced."""
        config = SegmenterConfig(C=4, H=4, W=4, stages=((1, 2, 2), (1, 1, 2)), num_classes=2,
                                 r_gr=2, r_lr=2, r_ba=2, relation_variant=variant, fusion=fusion)
        dataset, steps, lr = synth_dataset("blobs", 3, 4, 4, 2, 7), 7, 0.05
        model = self.build(config)
        report = train(model, dataset, steps=steps, lr=lr)

        twin, losses = self.build(config), []
        for step in range(steps):
            image, labels = dataset[step % len(dataset)]
            for p in twin.parameters().values():
                p.zero_grad()
            loss = cross_entropy_logits(twin.forward(image), labels)
            losses.append(loss.item())
            backward(loss)
            for p in twin.parameters().values():
                p.data -= lr * p.grad

        assert report.losses == losses
        for name, p in twin.parameters().items():
            trained = model.parameters()[name]
            assert trained.data.tobytes() == p.data.tobytes(), name
            assert trained.grad.tobytes() == p.grad.tobytes(), name


class TestOverfit:
    def test_single_batch_overfits(self):
        # small-scale counterpart of the acceptance overfit check
        model = build_model(TOY)
        report = train(model, toy_dataset(n=1), steps=300, lr=0.2)
        assert report.final_pixel_accuracy == 1.0
