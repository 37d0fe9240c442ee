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

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

NOISE_SIGMA = 0.2
DATASET_KINDS = ("stripes", "blobs", "checker")


@dataclass(frozen=True)
class Disc:
    """One painted blob: centre, radius and class id."""

    cy: float
    cx: float
    radius: float
    class_id: int


def class_palette(num_classes: int) -> np.ndarray:
    """[num_classes, 3] colours, distinct along the first channel."""
    c = np.arange(num_classes)
    return np.stack([
        (c + 0.5) / num_classes,
        1.0 - (c + 0.5) / num_classes,
        (c % 2 + 0.5) / 2.0,
    ], axis=1)


def render_image(labels: np.ndarray, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Palette colour per pixel plus Gaussian noise; [3, H, W] float64."""
    palette = class_palette(num_classes)
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


def blob_discs(h: int, w: int, num_classes: int, rng: np.random.Generator) -> list[Disc]:
    """Sample the discs for one blobs sample.

    The first num_classes-1 discs cover every non-background class once;
    any extras pick their class at random.
    """
    count = (num_classes - 1) + int(rng.integers(2, 5))
    discs = []
    for k in range(count):
        cls = 1 + k if k < num_classes - 1 else int(rng.integers(1, num_classes))
        cy = float(rng.uniform(0, h))
        cx = float(rng.uniform(0, w))
        radius = float(rng.uniform(min(h, w) / 6.0, min(h, w) / 3.0))
        discs.append(Disc(cy, cx, radius, cls))
    return discs


def paint_discs(h: int, w: int, discs: list[Disc]) -> np.ndarray:
    """Rasterise discs over background class 0; later discs win overlaps."""
    labels = np.zeros((h, w), dtype=np.int64)
    yy = np.arange(h)[:, None] + 0.5
    xx = np.arange(w)[None, :] + 0.5
    for disc in discs:
        inside = (yy - disc.cy) ** 2 + (xx - disc.cx) ** 2 <= disc.radius ** 2
        labels[inside] = disc.class_id
    return labels


def validate_label_map(labels: np.ndarray, num_classes: int) -> None:
    if labels.ndim != 2:
        raise ValueError(f"label map must be 2-D, got shape {list(labels.shape)}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"label map must be integer, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"label ids must lie in [0, {num_classes})")


def synth_dataset(kind: str, n: int, h: int, w: int, num_classes: int,
                  seed: int) -> list[tuple[Tensor, np.ndarray]]:
    """Generate ``n`` (image, label map) pairs, deterministic in ``seed``."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        if kind == "stripes":
            labels = stripe_labels(h, w, num_classes, phase=int(rng.integers(0, h)))
        elif kind == "blobs":
            labels = paint_discs(h, w, blob_discs(h, w, num_classes, rng))
        else:
            labels = checker_labels(h, w, num_classes)
        validate_label_map(labels, num_classes)
        samples.append((Tensor(render_image(labels, num_classes, rng)), labels))
    return samples
