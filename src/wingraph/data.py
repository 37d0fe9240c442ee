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


def render_image(labels: np.ndarray, palette: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Palette colour per pixel plus Gaussian noise; [3, H, W] float64."""
    img = palette[labels].transpose(2, 0, 1)
    return img + rng.normal(0.0, NOISE_SIGMA, img.shape)


def stripe_labels(h: int, w: int, num_classes: int, phase: int = 0) -> np.ndarray:
    """Horizontal bands of height max(1, min(H//4, H//num_classes))."""
    band = max(1, min(h // 4, h // num_classes))
    rows = ((np.arange(h) + phase) // band) % num_classes
    return np.repeat(rows[:, None], w, axis=1).astype(np.int64)


def checker_labels(h: int, w: int, num_classes: int) -> np.ndarray:
    cell = max(1, min(h, w) // 4)
    yy = np.arange(h)[:, None] // cell
    xx = np.arange(w)[None, :] // cell
    return ((yy + xx) % num_classes).astype(np.int64)


def blob_discs(h: int, w: int, num_classes: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample the discs for one blobs sample: their [n, 3] (cy, cx, radius)
    array and their [n] int64 class ids.

    The first num_classes-1 discs cover every non-background class once;
    any extras pick their class at random.  Each disc's (cy, cx, radius) is
    uniform on [0, h) x [0, w) x [min(h, w)/6, min(h, w)/3), mapped from
    ``rng.random`` as ``low + (high - low) * u``, which is what
    ``rng.uniform`` computes.  The stream is consumed disc by disc (an
    extra disc's class, then its three values), as one ``rng.uniform`` call
    per value would consume it, so the floats are the same.
    """
    extra = int(rng.integers(2, 5))
    low = np.array([0.0, 0.0, min(h, w) / 6.0])
    high = np.array([h, w, min(h, w) / 3.0])
    classes = list(range(1, num_classes))
    draws = [rng.random((num_classes - 1, 3))]
    for _ in range(extra):
        classes.append(int(rng.integers(1, num_classes)))
        draws.append(rng.random((1, 3)))
    return low + (high - low) * np.concatenate(draws), np.array(classes, dtype=np.int64)


def paint_discs(h: int, w: int, discs: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Rasterise ``discs``, [n, 3] (cy, cx, radius), of class ids ``classes``
    over background class 0; later discs win overlaps.

    Pixel (y, x) is inside a disc when (y + .5 - cy)^2 + (x + .5 - cx)^2 <=
    radius ** 2, with the radius squared as a Python float.  All discs are
    tested in one [n, H, W] broadcast; each pixel takes the class of the
    last disc that holds it.
    """
    yy = np.arange(h)[:, None] + 0.5
    xx = np.arange(w)[None, :] + 0.5
    cy, cx = discs[:, :2].T[:, :, None, None]
    r2 = np.array([r ** 2 for r in discs[:, 2].tolist()])[:, None, None]
    inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= r2
    last = (np.arange(1, len(discs) + 1)[:, None, None] * inside).max(axis=0, initial=0)
    return np.concatenate(([0], classes))[last]


def synth_dataset(kind: str, n: int, h: int, w: int, num_classes: int,
                  seed: int) -> list[tuple[Tensor, np.ndarray]]:
    """Generate ``n`` (image, label map) pairs, deterministic in ``seed``."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    rng = np.random.default_rng(seed)
    palette = class_palette(num_classes)
    samples = []
    for _ in range(n):
        if kind == "stripes":
            labels = stripe_labels(h, w, num_classes, phase=int(rng.integers(0, h)))
        elif kind == "blobs":
            labels = paint_discs(h, w, *blob_discs(h, w, num_classes, rng))
        else:
            labels = checker_labels(h, w, num_classes)
        samples.append((Tensor(render_image(labels, palette, rng)), labels))
    return samples
