"""Segmentation metrics: confusion matrix, IoU, pixel and boundary-band accuracy.

Every metric takes one ``[H, W]`` map or an ``[N, H, W]`` stack of maps and
pools its counts over all of them.  ``predictions`` runs a model over a
dataset once and returns such stacks, so a dataset is scored by applying
the per-map metrics to ``predictions(model, dataset)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor


@dataclass
class MiouResult:
    """Per-class IoU (nan for classes absent from both sides) and the mean
    over the present classes (nan when none is present); the raw confusion
    matrix sums to the pixel count."""

    per_class: list[float]
    mean: float
    confusion: np.ndarray


def _same_shape(pred, target) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {list(pred.shape)} != target shape {list(target.shape)}")
    return pred, target


def predictions(model, dataset: list[tuple[Tensor, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """``[N, H, W]`` predictions and labels: one ``model.predict`` call per
    sample, in one pass over the dataset."""
    preds, labels = [], []
    for image, target in dataset:
        preds.append(model.predict(image))
        labels.append(target)
    if not labels:
        raise ValueError("predictions: empty dataset")
    return np.stack(preds), np.stack(labels)


def confusion_matrix(pred: np.ndarray, target: np.ndarray, num_classes: int) -> np.ndarray:
    """counts[t][p] = pixels with target class t predicted as p."""
    pred, target = _same_shape(pred, target)
    for name, ids in (("prediction", pred), ("target", target)):
        if ids.size and not (0 <= ids.min() and ids.max() < num_classes):
            raise ValueError(f"{name} class ids must lie in [0, {num_classes}), "
                             f"got {ids.min()}..{ids.max()}")
    flat = target.reshape(-1) * num_classes + pred.reshape(-1)
    return np.bincount(flat, minlength=num_classes ** 2).reshape(num_classes, num_classes)


def miou(pred: np.ndarray, target: np.ndarray, num_classes: int) -> MiouResult:
    """Per-class IoU = TP / (TP + FP + FN); absent classes become nan and
    are excluded from the mean, which is nan when no class is present."""
    cm = confusion_matrix(pred, target, num_classes)
    tp = np.diagonal(cm).astype(np.float64)
    fn = cm.sum(axis=1) - tp
    fp = cm.sum(axis=0) - tp
    denom = tp + fp + fn
    per_class = [tp[c] / denom[c] if denom[c] > 0 else math.nan for c in range(num_classes)]
    present = [v for v in per_class if not math.isnan(v)]
    mean = sum(present) / len(present) if present else math.nan
    return MiouResult(per_class, float(mean), cm)


def evaluate_miou(model, dataset: list[tuple[Tensor, np.ndarray]]) -> MiouResult:
    """mIoU of one confusion matrix pooled over the whole dataset."""
    return miou(*predictions(model, dataset), model.config.num_classes)


def pixel_accuracy(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _same_shape(pred, target)
    return float((pred == target).mean())


def boundary_band(target: np.ndarray, band: int) -> np.ndarray:
    """Boolean mask of pixels within ``band`` Chebyshev steps of a class change.

    A pixel belongs to the band iff some pixel of its own map at Chebyshev
    distance <= band carries a different label.  band=1 marks exactly the
    pixels flanking a boundary (both sides of it).  ``target`` is one map or
    a stack of maps on its last two axes.  Each map is edge-padded before
    the window comparison; a padded neighbour repeats the nearest in-map
    pixel, which is itself within ``band`` steps, so padding adds no pair.
    """
    if band < 1:
        raise ValueError(f"band must be >= 1, got {band}")
    target = np.asarray(target)
    if target.ndim < 2:
        raise ValueError(f"boundary_band needs [..., H, W] maps, got shape {list(target.shape)}")
    pad = [(0, 0)] * (target.ndim - 2) + [(band, band)] * 2
    windows = sliding_window_view(np.pad(target, pad, mode="edge"), (2 * band + 1,) * 2,
                                  axis=(-2, -1))
    return (windows != target[..., None, None]).any(axis=(-2, -1))


def boundary_band_accuracy(pred: np.ndarray, target: np.ndarray, band: int) -> float:
    """Pixel accuracy restricted to the boundary band of the target; nan
    when the target has no class boundary."""
    pred, target = _same_shape(pred, target)
    mask = boundary_band(target, band)
    return float((pred[mask] == target[mask]).mean()) if mask.any() else math.nan


def dataset_boundary_band_accuracy(model, dataset: list[tuple[Tensor, np.ndarray]], band: int = 1) -> float:
    """Boundary-band accuracy pooled over every sample's band pixels; nan
    when no label map has a class boundary."""
    return boundary_band_accuracy(*predictions(model, dataset), band)
