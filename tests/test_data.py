"""Synthetic datasets: determinism, label validity, replay oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wingraph.data import (
    DATASET_KINDS,
    NOISE_SIGMA,
    checker_labels,
    class_palette,
    paint_discs,
    stripe_labels,
    synth_dataset,
)


class TestStripes:
    def test_binary_stripes_alternate(self):
        (labels,) = stripe_labels(8, 4, 2, [0])
        assert np.array_equal(labels[:, 0], [0, 0, 1, 1, 0, 0, 1, 1])
        assert (labels == labels[:, :1]).all()  # constant along rows

    def test_all_classes_present(self):
        for labels in stripe_labels(8, 8, 3, np.arange(8)):
            assert set(np.unique(labels)) == {0, 1, 2}

    def test_phase_shifts_the_bands(self):
        unshifted, shifted = stripe_labels(8, 2, 2, [0, 3])
        assert np.array_equal(shifted[:5], unshifted[3:])

    def test_deterministic_dataset(self):
        a = synth_dataset("stripes", 3, 8, 8, 3, seed=42)
        b = synth_dataset("stripes", 3, 8, 8, 3, seed=42)
        for (ia, la), (ib, lb) in zip(a, b):
            assert np.array_equal(ia.data, ib.data)
            assert np.array_equal(la, lb)

    def test_different_seeds_differ(self):
        a = synth_dataset("stripes", 2, 8, 8, 3, seed=0)
        b = synth_dataset("stripes", 2, 8, 8, 3, seed=1)
        assert any(not np.array_equal(ia.data, ib.data) for (ia, _), (ib, _) in zip(a, b))


class TestBlobs:
    def test_replay_oracle_matches_painted_labels(self):
        # replay the sampling stream and rasterise per pixel, later discs
        # overwriting earlier ones
        h, w, ncls, seed = 10, 12, 3, 7
        samples = synth_dataset("blobs", 5, h, w, ncls, seed)
        replay = np.random.default_rng(seed)
        for _, labels in samples:
            expected = np.zeros((h, w), dtype=np.int64)
            for cy, cx, radius, class_id in reference_discs(h, w, ncls, replay):
                for y in range(h):
                    for x in range(w):
                        if (y + 0.5 - cy) ** 2 + (x + 0.5 - cx) ** 2 <= radius ** 2:
                            expected[y, x] = class_id
            assert np.array_equal(labels, expected)
            replay.standard_normal((3, h, w))  # keep the replay stream in sync

    def test_stack_paints_each_sample_as_alone(self):
        rng = np.random.default_rng(3)
        discs = rng.uniform(0.0, 9.0, (6, 5, 3))
        discs[rng.random((6, 5)) < 0.4] = np.nan  # unused slots, anywhere in the stack
        classes = rng.integers(1, 4, (6, 5))
        stacked = paint_discs(9, 9, discs, classes)
        for i in range(6):
            assert np.array_equal(stacked[i], paint_discs(9, 9, discs[i:i + 1], classes[i:i + 1])[0])

    def test_later_discs_overwrite(self):
        (labels,) = paint_discs(5, 5, np.array([[[2.0, 2.0, 2.0], [2.0, 2.0, 1.0]]]), np.array([[1, 2]]))
        assert labels[2, 2] == 2
        assert labels[0, 2] == 1

    def test_unused_slots_paint_nothing(self):
        # sample 0 uses both slots, sample 1 only the first; its NaN slot
        # must neither paint nor undo the disc before it
        discs = np.array([[[2.0, 2.0, 2.0], [2.0, 2.0, 1.0]],
                          [[2.0, 2.0, 2.0], [np.nan, np.nan, np.nan]]])
        both, first = paint_discs(5, 5, discs, np.array([[1, 2], [1, 0]]))
        assert both[2, 2] == 2 and first[2, 2] == 1
        assert np.array_equal(first, paint_discs(5, 5, discs[1:, :1], np.array([[1]]))[0])

    def test_no_discs_paint_all_background(self):
        labels = paint_discs(3, 4, np.zeros((2, 0, 3)), np.zeros((2, 0), dtype=np.int64))
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.zeros((2, 3, 4), dtype=np.int64))


class TestChecker:
    def test_cells_cycle_classes(self):
        labels = checker_labels(8, 8, 3)
        assert labels[0, 0] == 0
        assert labels[0, 2] == 1
        assert labels[2, 2] == 2
        assert set(np.unique(labels)) == {0, 1, 2}


class TestRendering:
    def test_palette_distinct_first_channel(self):
        palette = class_palette(5)
        assert len(set(palette[:, 0])) == 5

    def test_label_ids_always_valid(self):
        for kind in ("stripes", "blobs", "checker"):
            for _, labels in synth_dataset(kind, 3, 8, 8, 3, seed=11):
                assert labels.min() >= 0 and labels.max() < 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset kind"):
            synth_dataset("noise", 1, 8, 8, 2, 0)

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    def test_negative_sample_count_rejected(self, kind):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            synth_dataset(kind, -1, 8, 8, 2, 0)

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    @pytest.mark.parametrize("h, w", [(0, 8), (8, 0), (-1, 8)])
    def test_empty_image_size_rejected(self, kind, h, w):
        with pytest.raises(ValueError, match=f"h and w must be >= 1, got h={h}, w={w}"):
            synth_dataset(kind, 2, h, w, 2, 0)

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    def test_zero_samples_make_an_empty_dataset(self, kind):
        assert synth_dataset(kind, 0, 8, 8, 2, 0) == []

    def test_samples_are_views_of_one_stack(self):
        samples = synth_dataset("blobs", 3, 6, 5, 3, seed=2)
        images, labels = samples[0][0].data.base, samples[0][1].base
        assert images.shape == (3, 3, 6, 5) and labels.shape == (3, 6, 5)
        for i, (image, label_map) in enumerate(samples):
            assert image.data.base is images and label_map.base is labels
            assert image.data.flags.c_contiguous and np.array_equal(image.data, images[i])


def reference_discs(h, w, num_classes, rng):
    """One blobs sample's discs as (cy, cx, radius, class) tuples, one
    ``rng.uniform`` per value: the first num_classes-1 discs cover every
    non-background class once, the extras pick their class at random."""
    discs = []
    for k in range((num_classes - 1) + int(rng.integers(2, 5))):
        cls = 1 + k if k < num_classes - 1 else int(rng.integers(1, num_classes))
        cy = float(rng.uniform(0, h))
        cx = float(rng.uniform(0, w))
        radius = float(rng.uniform(min(h, w) / 6.0, min(h, w) / 3.0))
        discs.append((cy, cx, radius, cls))
    return discs


def reference_synth(kind, n, h, w, num_classes, seed):
    """The per-value reference: one ``rng.uniform`` per disc coordinate, one
    masked assignment per disc, and a palette and an ``rng.normal`` per sample."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        if kind == "stripes":
            band = max(1, min(h // 4, h // num_classes))
            rows = ((np.arange(h) + int(rng.integers(0, h))) // band) % num_classes
            labels = np.repeat(rows[:, None], w, axis=1).astype(np.int64)
        elif kind == "blobs":
            labels = np.zeros((h, w), dtype=np.int64)
            yy = np.arange(h)[:, None] + 0.5
            xx = np.arange(w)[None, :] + 0.5
            for cy, cx, radius, cls in reference_discs(h, w, num_classes, rng):
                labels[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2] = cls
        else:
            labels = checker_labels(h, w, num_classes)
        img = class_palette(num_classes)[labels].transpose(2, 0, 1)
        samples.append((img + rng.normal(0.0, NOISE_SIGMA, img.shape), labels))
    return samples


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(DATASET_KINDS), n=st.integers(1, 12), h=st.integers(1, 24),
       w=st.integers(1, 24), num_classes=st.integers(2, 7), seed=st.integers(0, 2 ** 40))
@example(kind="blobs", n=64, h=8, w=8, num_classes=3, seed=5)
@example(kind="blobs", n=3, h=1, w=1, num_classes=7, seed=2 ** 40)
@example(kind="blobs", n=2, h=7, w=12, num_classes=2, seed=0)
def test_synth_dataset_matches_the_per_value_reference(kind, n, h, w, num_classes, seed):
    got = synth_dataset(kind, n, h, w, num_classes, seed)
    want = reference_synth(kind, n, h, w, num_classes, seed)
    for (image, labels), (ref_image, ref_labels) in zip(got, want, strict=True):
        assert image.data.dtype == ref_image.dtype and labels.dtype == ref_labels.dtype
        assert image.data.tobytes() == ref_image.tobytes()
        assert labels.tobytes() == ref_labels.tobytes()
