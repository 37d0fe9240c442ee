"""Synthetic segmentation datasets.

Three label-map families with known, enumerable class boundaries:

* ``stripes``  — horizontal bands cycling through the classes, with a
  per-sample phase shift;
* ``blobs``    — filled discs of random class painted over background 0,
  later discs overwriting earlier ones;
* ``checker``  — a checkerboard whose cell sum cycles through the classes.

Images are the class palette colour plus seeded Gaussian noise, so the
target is recoverable from pixel colour alone.  Everything is a pure
function of the seed.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

NOISE_SIGMA = 0.2
DATASET_KINDS = ("stripes", "blobs", "checker")


def class_palette(num_classes: int) -> np.ndarray:
    """[num_classes, 3] colours, distinct along the first channel."""
    c = np.arange(num_classes)
    return np.stack([
        (c + 0.5) / num_classes,
        1.0 - (c + 0.5) / num_classes,
        (c % 2 + 0.5) / 2.0,
    ], axis=1)


def stripe_labels(h: int, w: int, num_classes: int, phases: np.ndarray) -> np.ndarray:
    """[len(phases), H, W] horizontal bands of height max(1, min(H//4, H//num_classes)),
    each map shifted down by its phase."""
    band = max(1, min(h // 4, h // num_classes))
    rows = ((np.arange(h) + np.asarray(phases)[:, None]) // band) % num_classes
    return np.repeat(rows[:, :, None], w, axis=2).astype(np.int64)


def checker_labels(h: int, w: int, num_classes: int) -> np.ndarray:
    cell = max(1, min(h, w) // 4)
    yy = np.arange(h)[:, None] // cell
    xx = np.arange(w)[None, :] // cell
    return ((yy + xx) % num_classes).astype(np.int64)


def paint_discs(h: int, w: int, discs: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Rasterise each sample's disc slots, ``discs`` [n, S, 3] (cy, cx, radius)
    of class ids ``classes`` [n, S], over background class 0; [n, H, W] int64.

    Pixel (y, x) is inside a disc when (y + .5 - cy)^2 + (x + .5 - cx)^2 <=
    radius ** 2, the radius squared as a Python float.  Slots are painted in
    order, one [n, H, W] pass each, so later discs win; an unused slot is NaN.
    """
    yy = np.arange(h)[:, None] + 0.5
    xx = np.arange(w)[None, :] + 0.5
    cy, cx = discs[..., 0, None, None], discs[..., 1, None, None]
    r2 = np.array([r ** 2 for r in discs[..., 2].ravel().tolist()]).reshape(cy.shape)
    labels = np.zeros((len(discs), h, w), dtype=np.int64)
    for k in range(discs.shape[1]):
        inside = (yy - cy[:, k]) ** 2 + (xx - cx[:, k]) ** 2 <= r2[:, k]
        np.copyto(labels, classes[:, k, None, None], where=inside)
    return labels


def synth_dataset(kind: str, n: int, h: int, w: int, num_classes: int,
                  seed: int) -> list[tuple[Tensor, np.ndarray]]:
    """Generate ``n`` (image, label map) pairs, deterministic in ``seed``.

    Sample by sample, the stream gives a stripes sample's phase, or a blobs
    sample's ``rng.integers(2, 5)`` extra discs, ``rng.random((num_classes -
    1, 3))`` for one disc per non-background class and each extra's class and
    three uniforms; then the sample's [3, H, W] ``standard_normal`` noise.
    Painting, the palette lookup and the noise scale run once over the stack,
    so images and label maps are views into one [n, 3, H, W] and one [n, H, W]
    array.  The bytes equal one ``rng.uniform`` per disc value and one
    ``rng.normal(0, NOISE_SIGMA)`` per sample, whose added 0.0 only turns a
    -0.0 into 0.0 before a positive palette colour is added.
    """
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if h < 1 or w < 1:
        raise ValueError(f"h and w must be >= 1, got h={h}, w={w}")
    rng = np.random.default_rng(seed)
    images = np.empty((n, 3, h, w))
    phases = np.empty(n, dtype=np.int64)
    covered = num_classes - 1
    u = np.full((n, covered + 4, 3), np.nan)  # at most 4 extra discs
    classes = np.tile(np.arange(1, num_classes + 4), (n, 1))  # extras drawn below
    for i in range(n):
        if kind == "stripes":
            phases[i] = rng.integers(0, h)
        elif kind == "blobs":
            extra = int(rng.integers(2, 5))
            rng.random(out=u[i, :covered])
            for k in range(covered, covered + extra):
                classes[i, k] = rng.integers(1, num_classes)
                rng.random(out=u[i, k])
        rng.standard_normal(out=images[i])
    if kind == "stripes":
        labels = stripe_labels(h, w, num_classes, phases)
    elif kind == "blobs":
        low = np.array([0.0, 0.0, min(h, w) / 6.0])
        high = np.array([h, w, min(h, w) / 3.0])
        labels = paint_discs(h, w, low + (high - low) * u, classes)
    else:
        labels = np.repeat(checker_labels(h, w, num_classes)[None], n, axis=0)
    images *= NOISE_SIGMA
    images += class_palette(num_classes)[labels].transpose(0, 3, 1, 2)
    return [(Tensor(image), label_map) for image, label_map in zip(images, labels)]
