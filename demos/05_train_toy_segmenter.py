#!/usr/bin/env python3
"""End-to-end: train the toy windowed segmenter on synthetic stripes.

Builds the default model (window self-attention backbone + graph relation
blocks + boundary gate), overfits one small dataset, and reports mIoU and
boundary-band accuracy on held-out samples.  Also round-trips the model
through a checkpoint file and shows the evaluation is reproduced exactly.
"""

import dataclasses
import tempfile
from pathlib import Path

from wingraph.checkpoint import load_checkpoint, save_checkpoint
from wingraph.cli import EVAL_SEED_OFFSET
from wingraph.data import synth_dataset
from wingraph.metrics import boundary_band_accuracy, evaluate_miou, miou, predictions
from wingraph.model import SegmenterConfig, build_model, model_param_count
from wingraph.train import train

config = dataclasses.replace(SegmenterConfig(), steps=300, dataset_size=2)
model = build_model(config)
print(f"model: C={config.C}, stages={config.stages}, fusion={config.fusion.value}")
print(f"parameters: {model.param_count()} (closed form {model_param_count(config)})")

train_set = synth_dataset(config.dataset, config.dataset_size, config.H, config.W,
                          config.num_classes, config.seed)
eval_set = synth_dataset(config.dataset, 4, config.H, config.W,
                         config.num_classes, config.seed + EVAL_SEED_OFFSET)

report = train(model, train_set, config.steps, config.lr)
print(f"\ntrained {config.steps} steps: loss {report.losses[0]:.4f} -> {report.final_loss:.4f}")
print(f"train pixel accuracy: {report.final_pixel_accuracy:.4f}")

pred, labels = predictions(model, eval_set)
result = miou(pred, labels, config.num_classes)
print("\nheld-out per-class IoU:",
      ["%.3f" % v for v in result.per_class])
print(f"held-out mIoU: {result.mean:.4f}")
print(f"boundary-band accuracy (band=1): {boundary_band_accuracy(pred, labels, band=1):.4f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.wgts"
    save_checkpoint(model, path)
    reloaded = load_checkpoint(path)  # the file holds the config too
    again = evaluate_miou(reloaded, eval_set)
    print(f"\ncheckpoint round trip: mIoU {again.mean:.4f} "
          f"(bit-exact: {again.mean == result.mean})")
