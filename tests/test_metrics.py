"""IoU and boundary metrics against hand-computed confusion matrices, and
the stacked dataset metrics against the per-sample loops they replace."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wingraph.data import DATASET_KINDS, synth_dataset
from wingraph.metrics import (
    boundary_band,
    boundary_band_accuracy,
    confusion_matrix,
    dataset_boundary_band_accuracy,
    evaluate_miou,
    miou,
    pixel_accuracy,
)
from wingraph.model import SegmenterConfig, build_model
from wingraph.train import train


class TestMiou:
    def test_perfect_prediction(self):
        target = np.array([[0, 1], [2, 0]])
        assert miou(target, target, 3).mean == 1.0

    def test_binary_complement_is_zero(self):
        target = np.array([[0, 0], [1, 1]])
        assert miou(1 - target, target, 2).mean == 0.0

    def test_hand_confusion_matrix_case(self):
        # target [[0,0],[1,1]], prediction [[0,1],[1,1]]:
        # class 0: TP=1 FP=0 FN=1 -> 1/2; class 1: TP=2 FP=1 FN=0 -> 2/3
        target = np.array([[0, 0], [1, 1]])
        pred = np.array([[0, 1], [1, 1]])
        result = miou(pred, target, 2)
        assert result.per_class == [0.5, 2.0 / 3.0]
        assert result.mean == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_confusion_sums_to_pixel_count(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, (9, 9))
        target = rng.integers(0, 4, (9, 9))
        cm = confusion_matrix(pred, target, 4)
        assert cm.sum() == 81
        assert cm[2, 3] == int(((target == 2) & (pred == 3)).sum())

    def test_absent_class_excluded_from_mean(self):
        target = np.array([[0, 0], [0, 0]])
        pred = np.array([[0, 0], [0, 0]])
        result = miou(pred, target, 3)
        assert result.per_class[0] == 1.0
        assert math.isnan(result.per_class[1]) and math.isnan(result.per_class[2])
        assert result.mean == 1.0

    def test_no_class_present_gives_nan_mean(self):
        empty = np.zeros((0, 4), dtype=int)
        result = miou(empty, empty, 2)
        assert all(math.isnan(v) for v in result.per_class)
        assert math.isnan(result.mean)
        assert result.confusion.sum() == 0

    def test_mean_stays_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pred = rng.integers(0, 3, (6, 6))
            target = rng.integers(0, 3, (6, 6))
            assert 0.0 <= miou(pred, target, 3).mean <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            confusion_matrix(np.zeros((2, 2), int), np.zeros((3, 3), int), 2)

    @pytest.mark.parametrize("pred, target, name", [
        (3, 0, "prediction"),   # used to land in cell (target 1, predicted 0)
        (0, 9, "target"),       # used to end in a numpy reshape error
        (-1, 1, "prediction"),  # used to land in cell (target 0, predicted 2)
        (0, -1, "target"),
    ])
    def test_class_id_out_of_range_names_the_range(self, pred, target, name):
        with pytest.raises(ValueError, match=rf"{name} class ids must lie in \[0, 3\)"):
            confusion_matrix(np.array([[pred]]), np.array([[target]]), 3)

    def test_last_class_id_is_in_range(self):
        assert confusion_matrix(np.array([2, 0]), np.array([2, 2]), 3)[2].tolist() == [1, 0, 1]


class TestPixelAccuracy:
    def test_simple_fraction(self):
        pred = np.array([[0, 1], [1, 1]])
        target = np.array([[0, 0], [1, 1]])
        assert pixel_accuracy(pred, target) == 0.75


class TestBoundaryBand:
    def test_stripe_edges_enumerated(self):
        # stripes of height 2 on 8 rows: class changes between rows 1|2, 3|4, 5|6
        target = np.repeat(np.array([0, 0, 1, 1, 0, 0, 1, 1])[:, None], 5, axis=1)
        band = boundary_band(target, 1)
        expected_rows = {1, 2, 3, 4, 5, 6}
        assert set(np.nonzero(band.any(axis=1))[0]) == expected_rows
        assert (band[sorted(expected_rows)]).all()
        assert not band[0].any() and not band[7].any()

    def test_band_two_widens_by_one_ring(self):
        target = np.repeat(np.array([0, 0, 0, 0, 1, 1, 1, 1])[:, None], 4, axis=1)
        assert set(np.nonzero(boundary_band(target, 1).any(axis=1))[0]) == {3, 4}
        assert set(np.nonzero(boundary_band(target, 2).any(axis=1))[0]) == {2, 3, 4, 5}

    def test_perfect_prediction_scores_one(self):
        target = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
        assert boundary_band_accuracy(target, target, 1) == 1.0
        assert boundary_band_accuracy(target, target, 3) == 1.0

    def test_uniform_target_scores_nan(self):
        uniform = np.zeros((4, 4), dtype=int)
        assert math.isnan(boundary_band_accuracy(uniform, uniform, 1))

    def test_band_restricted_accuracy(self):
        target = np.repeat(np.array([0, 0, 1, 1])[:, None], 4, axis=1)
        pred = target.copy()
        pred[0, :] = 9  # wrong, but outside the band
        assert boundary_band_accuracy(pred, target, 1) == 1.0
        pred[1, :] = 9  # wrong inside the band (rows 1 and 2 are the band)
        assert boundary_band_accuracy(pred, target, 1) == 0.5

    def test_band_must_be_positive(self):
        with pytest.raises(ValueError, match="band"):
            boundary_band(np.zeros((3, 3), int), 0)

    def test_chebyshev_metric_marks_diagonal_neighbours(self):
        target = np.zeros((5, 5), dtype=int)
        target[2, 2] = 1
        band = boundary_band(target, 1)
        assert band[1, 1] and band[3, 3] and band[2, 2]
        assert not band[0, 0]


def reference_boundary_band(target, band):
    """The per-offset loop ``boundary_band`` used before it took stacks."""
    h, w = target.shape
    mask = np.zeros((h, w), dtype=bool)
    for dy in range(-band, band + 1):
        for dx in range(-band, band + 1):
            if dy == 0 and dx == 0:
                continue
            ny, nx = h - abs(dy), w - abs(dx)
            if ny <= 0 or nx <= 0:
                continue
            ys = slice(max(0, -dy), max(0, -dy) + ny)
            xs = slice(max(0, -dx), max(0, -dx) + nx)
            ys_nb = slice(max(0, dy), max(0, dy) + ny)
            xs_nb = slice(max(0, dx), max(0, dx) + nx)
            mask[ys, xs] |= target[ys, xs] != target[ys_nb, xs_nb]
    return mask


def reference_evaluate_miou(model, dataset):
    """The per-sample confusion loop and IoU pooling ``evaluate_miou`` used
    before it scored one stack: (per-class IoU, mean, confusion)."""
    k = model.config.num_classes
    cm = np.zeros((k, k), dtype=np.int64)
    for image, labels in dataset:
        cm += confusion_matrix(model.predict(image), labels, k)
    tp = np.diagonal(cm).astype(np.float64)
    fn = cm.sum(axis=1) - tp
    fp = cm.sum(axis=0) - tp
    denom = tp + fp + fn
    per_class = [tp[c] / denom[c] if denom[c] > 0 else math.nan for c in range(k)]
    present = [v for v in per_class if not math.isnan(v)]
    return per_class, float(sum(present) / len(present)), cm


def reference_band_accuracy(model, dataset, band):
    """The per-sample loop ``dataset_boundary_band_accuracy`` used before it
    scored one stack; None where no map has a class boundary."""
    correct = 0
    total = 0
    for image, labels in dataset:
        mask = reference_boundary_band(labels, band)
        if not mask.any():
            continue
        pred = model.predict(image)
        correct += int((pred[mask] == labels[mask]).sum())
        total += int(mask.sum())
    return correct / total if total else None


class EchoModel:
    """A model whose prediction for a sample is the sample's 'image'."""

    def __init__(self, num_classes):
        self.config = SimpleNamespace(num_classes=num_classes)

    def predict(self, image):
        return image


SIDE = st.integers(1, 9)


@st.composite
def scored_samples(draw):
    """(num_classes, band, [(prediction, labels)]) for 1-4 maps of one
    shape, with sides from 1 to 9 so some are at or below the band."""
    k = draw(st.integers(1, 4))
    shape = (draw(SIDE), draw(SIDE))
    ids = arrays(np.int64, shape, elements=st.integers(0, k - 1))
    samples = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=4))
    return k, draw(st.integers(1, 3)), samples


class TestStackedMetricsMatchPerSampleLoops:
    @given(k=st.integers(1, 4), band=st.integers(1, 3),
           shape=st.one_of(st.tuples(SIDE, SIDE), st.tuples(st.integers(1, 4), SIDE, SIDE)),
           data=st.data())
    def test_boundary_band_equals_offset_loop(self, k, band, shape, data):
        target = data.draw(arrays(np.int64, shape, elements=st.integers(0, k - 1)))
        expected = (reference_boundary_band(target, band) if target.ndim == 2 else
                    np.stack([reference_boundary_band(t, band) for t in target]))
        got = boundary_band(target, band)
        assert got.dtype == bool and got.shape == target.shape
        assert np.array_equal(got, expected)

    @given(scored_samples())
    def test_evaluate_miou_equals_per_sample_loop(self, case):
        k, _, samples = case
        model = EchoModel(k)
        per_class, mean, cm = reference_evaluate_miou(model, samples)
        result = evaluate_miou(model, samples)
        assert result.confusion.tobytes() == cm.tobytes()
        assert np.array(result.per_class).tobytes() == np.array(per_class).tobytes()
        assert result.mean == mean

    @given(scored_samples())
    def test_dataset_band_accuracy_equals_per_sample_loop(self, case):
        k, band, samples = case
        expected = reference_band_accuracy(EchoModel(k), samples, band)
        got = dataset_boundary_band_accuracy(EchoModel(k), samples, band)
        if expected is None:
            assert math.isnan(got)
        else:
            assert got == expected

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(DATASET_KINDS), n=st.integers(1, 4), k=st.integers(2, 4),
           seed=st.integers(0, 2 ** 16), steps=st.integers(0, 8))
    def test_train_accuracy_equals_confusion_trace(self, kind, n, k, seed, steps):
        config = dataclasses.replace(SegmenterConfig(), num_classes=k, seed=seed)
        model = build_model(config)
        dataset = synth_dataset(kind, n, config.H, config.W, k, seed)
        report = train(model, dataset, steps, config.lr)
        cm = reference_evaluate_miou(model, dataset)[2]
        assert report.final_pixel_accuracy == float(np.trace(cm) / cm.sum())

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate_miou(EchoModel(2), [])
