"""Synthetic segmentation datasets and portable image exchange.

Three label-map families with known, enumerable class boundaries:

* ``stripes``  — horizontal bands cycling through the classes, with a
  per-sample phase shift;
* ``blobs``    — filled discs of random class painted over background 0,
  later discs overwriting earlier ones;
* ``checker``  — a checkerboard whose cell sum cycles through the classes.

Images are the class palette colour plus seeded Gaussian noise, so the
target is recoverable from pixel colour alone.  Everything is a pure
function of the seed.

Exchange formats are binary PGM (P5, one gray level per class id) for
label maps and binary PPM (P6) for images.
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


# ---------------------------------------------------------------------------
# PGM / PPM exchange (binary variants, maxval 255)


def save_ppm(path, image: np.ndarray | Tensor) -> None:
    """Write a [3, H, W] float image as binary PPM, clipped to [0, 1]."""
    data = image.data if isinstance(image, Tensor) else np.asarray(image)
    if data.ndim != 3 or data.shape[0] != 3:
        raise ValueError(f"save_ppm expects [3,H,W], got {list(data.shape)}")
    _, h, w = data.shape
    pixels = (np.clip(data, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.transpose(1, 2, 0).tobytes())


def save_pgm(path, labels: np.ndarray) -> None:
    """Write a label map as binary PGM, class ids as gray levels."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"save_pgm expects a 2-D label map, got {list(labels.shape)}")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("save_pgm: class ids must fit one byte")
    h, w = labels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(labels.astype(np.uint8).tobytes())


def _read_netpbm(path, magic: bytes) -> tuple[int, int, bytes]:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(magic):
        raise ValueError(f"expected {magic.decode()} file, got {raw[:2]!r}")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    return w, h, raw[pos:]


def load_ppm(path) -> np.ndarray:
    w, h, body = _read_netpbm(path, b"P6")
    expected = 3 * w * h
    if len(body) < expected:
        raise ValueError(f"PPM body truncated: {len(body)} < {expected} bytes")
    pixels = np.frombuffer(body[:expected], dtype=np.uint8).reshape(h, w, 3)
    return pixels.transpose(2, 0, 1).astype(np.float64) / 255.0


def load_pgm(path) -> np.ndarray:
    w, h, body = _read_netpbm(path, b"P5")
    expected = w * h
    if len(body) < expected:
        raise ValueError(f"PGM body truncated: {len(body)} < {expected} bytes")
    return np.frombuffer(body[:expected], dtype=np.uint8).reshape(h, w).astype(np.int64)
