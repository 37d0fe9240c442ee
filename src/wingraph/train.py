"""Plain SGD training on per-pixel cross entropy.

One sample per step, taken round-robin from the dataset; no momentum, no
schedule, no augmentation.  The whole trajectory is a deterministic
function of the model seed and the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import pixel_accuracy
from .model import NonFiniteLogits, Segmenter
from .tensor import Tensor, backward, cross_entropy_logits


class TrainingDiverged(RuntimeError):
    """Loss or gradient became non-finite; the run is aborted with diagnostics."""


@dataclass
class TrainingReport:
    """Loss curve plus end-of-run summary."""

    losses: list[float] = field(default_factory=list)
    final_loss: float = math.nan
    final_pixel_accuracy: float = math.nan


def train(model: Segmenter, dataset: list[tuple[Tensor, np.ndarray]], steps: int,
          lr: float) -> TrainingReport:
    """Run ``steps`` SGD updates and report the recorded curve."""
    if not dataset:
        raise ValueError("train: empty dataset")
    if steps < 0:
        raise ValueError(f"train: steps must be >= 0, got {steps}")
    if not 0 < lr < math.inf:
        raise ValueError(f"train: lr must be positive and finite, got {lr}")
    report = TrainingReport()
    # p.data -= lr * p.grad for every parameter at once, into one reused buffer
    update = np.empty_like(model.arena)
    # A diverging run overflows to inf and nan; the loss, gradient and closing
    # logit checks report that as TrainingDiverged, so numpy's warnings would
    # only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(steps):
            image, labels = dataset[step % len(dataset)]
            model.zero_grad()
            loss = cross_entropy_logits(model.forward(image), labels)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(f"non-finite loss {value} at step {step} (lr={lr})")
            report.losses.append(value)
            backward(loss)
            if not np.isfinite(model.grad_arena).all():
                name = next(name for name, p in model.parameters().items()
                            if not np.isfinite(p.grad).all())
                raise TrainingDiverged(f"non-finite gradient of {name} at step {step} (lr={lr})")
            np.multiply(lr, model.grad_arena, out=update)
            model.arena -= update
        try:
            report.final_pixel_accuracy = _closing_accuracy(model, dataset)
        except NonFiniteLogits as exc:
            raise TrainingDiverged(f"{exc} after {steps} steps (lr={lr})") from exc
    if report.losses:
        report.final_loss = report.losses[-1]
    return report


def _closing_accuracy(model: Segmenter, dataset) -> float:
    """Pixel accuracy of ``model`` over ``dataset``, from one iteration over it."""
    images, labels = zip(*dataset)
    return pixel_accuracy(model.predict_stack(images), np.stack(labels))
