#!/usr/bin/env python3
"""Print one sha256 digest per model configuration, to show a change keeps every float.

Each digest covers the logits, the loss, every parameter gradient and the
``predict`` output of three plain-SGD steps. There are 36 configurations:
toy (8x8, C=16, 2x2 windows) and medium (32x32, C=32, 4x4 windows) scale,
softmax and cosine relations, the three fusions, and the graph block with
the boundary gate, the graph block alone and the gate alone. All use graph
depth 2 and random unsqueeze weights, because the zero-initialised ones
would hide the graph path from the logits. The weights and the learning
rate are small because the medium cosine models overflow within three
steps at larger ones: at lr 1e-6, two of them reach losses of 2e71 and
3.5e82 and then non-finite logits, and a digest over NaN would hide every
later difference. At lr 1e-9 their logits stay below about 1e5. ``digest``
raises ``FloatingPointError``, so the script exits non-zero, when any
hashed logit, loss or gradient, or a logit behind a hashed ``predict``,
is not finite. A 37th line, ``gradcheck-all-seed0``, hashes the stdout of
``wingraph gradcheck all --seed 0``, so the same diff covers every
finite-difference check too; a failing check stops the script instead. Two more lines, ``train-out-toy-softmax`` and
``train-out-toy-cosine``, hash the file names and bytes of the directory
that ``wingraph train --out`` writes for a short toy run of each relation
variant: the arena update in ``train``, the checkpoint bytes, the loss
curve, ``metrics.csv`` and ``report.json``. After each of them an
``eval-toy-<variant>`` line hashes what ``wingraph eval`` prints on that
run's checkpoint, and then ``ablate-theta-toy`` hashes the stdout
and the CSV file of a toy ``wingraph ablate theta`` run of as many steps
(at 10 steps its five rows are all equal, so theta would go unseen). Three
closing lines, ``synth-blobs``, ``synth-stripes`` and ``synth-checker``, hash
the images, label maps and label dtype that ``synth_dataset`` makes of each
kind over a grid of sizes (1x1 and non-square ones among them), class counts
and seeds, so data the model lines never draw (checker, other sizes and
class counts) is pinned too. ``synth-blobs-many`` hashes the same of the
benchmark's own blobs data, larger sets (64 8x8 samples and 16 32x32 ones,
3 classes) at two seeds and at each seed's eval offset, ``seed + 1000003``,
so samples with different disc counts share one dataset. ``bench-grid``
hashes the deterministic columns of ``wingraph bench``'s CSV (K, D, c and
max_abs_diff; the timings are dropped) on a small grid. Only the
public ``wingraph`` API and its command-line entry point are used, so the
script runs unchanged against two revisions of the package:

    PYTHONPATH=old/src python3 tools/output_digest.py > old.txt
    PYTHONPATH=new/src python3 tools/output_digest.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import tempfile
from pathlib import Path

import numpy as np

from wingraph import (FusionType, Segmenter, SegmenterConfig, Tensor, backward, build_model,
                      cross_entropy_logits, synth_dataset)
from wingraph.cli import main as wingraph_main

SCALES = {"toy": dict(C=16, H=8, W=8, stages=((2, 2, 2), (2, 2, 2))),
          "medium": dict(C=32, H=32, W=32, stages=((2, 4, 4), (2, 4, 4)))}
COMPONENTS = {"gt_ba": (True, True), "gt": (True, False), "ba": (False, True)}
STEPS = 3
LR = 1e-9
UNSQUEEZE_STD = 0.01
TRAIN_OUT_STEPS = 20
SYNTH_SIZES = ((1, 1), (1, 6), (8, 8), (7, 12), (32, 32))
SYNTH_CLASSES = (2, 3, 5)
SYNTH_SEEDS = (0, 2 ** 40 + 7)
SYNTH_SAMPLES = 4
SYNTH_MANY = ((64, 8, 8), (16, 32, 32))
SYNTH_MANY_SEEDS = (5, 2 ** 33 + 1)
EVAL_SEED_OFFSET = 1000003
BENCH_GRID = ["--K", "4,16", "--D", "1,2", "--c", "0.25,1", "--repeats", "1"]


def configurations() -> list[tuple[str, SegmenterConfig]]:
    """The named configurations, in output order."""
    out = []
    for scale, variant, fusion, parts in itertools.product(SCALES, ("softmax", "cosine"),
                                                           FusionType, COMPONENTS):
        enable_gt, enable_ba = COMPONENTS[parts]
        config = SegmenterConfig(**SCALES[scale], relation_variant=variant, fusion=fusion,
                                 enable_gt=enable_gt, enable_ba=enable_ba, graph_depth=2,
                                 r_gr=4, r_lr=4, r_ba=4, dataset="blobs", lr=LR)
        out.append((f"{scale}-{variant}-{fusion.value}-{parts}", config))
    return out


def prepare(config: SegmenterConfig) -> tuple[Segmenter, list[tuple[Tensor, np.ndarray]]]:
    """Build the model with random unsqueeze weights, and its training data."""
    model = build_model(config)
    rng = np.random.default_rng(config.seed + 1)
    for name, p in model.parameters().items():
        if name.endswith(".unsqueeze"):
            p.data = rng.normal(0.0, UNSQUEEZE_STD, p.shape)
    data = synth_dataset(config.dataset, STEPS, config.H, config.W, config.num_classes, config.seed)
    return model, data


def check_finite(what: str, values: np.ndarray) -> None:
    """Refuse to hash a non-finite value: a digest over NaN hides later differences."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite {what}")


def digest(model: Segmenter, data: list[tuple[Tensor, np.ndarray]]) -> str:
    """Run one SGD step per sample, as ``train`` does, hashing what each step computes.

    Raises ``FloatingPointError`` when a hashed logit, loss or gradient, or
    a logit behind a hashed ``predict``, is not finite.
    """
    h = hashlib.sha256()
    for step, (image, labels) in enumerate(data):
        model.zero_grad()
        logits = model.forward(image)
        loss = cross_entropy_logits(logits, labels)
        backward(loss)
        check_finite(f"logits at step {step}", logits.data)
        check_finite(f"loss at step {step}", loss.data)
        h.update(logits.data.tobytes())
        h.update(loss.data.tobytes())
        for name, p in model.parameters().items():
            h.update(name.encode())
            if p.grad is not None:
                check_finite(f"{name} gradient at step {step}", p.grad)
                h.update(p.grad.tobytes())
                p.data -= LR * p.grad
        check_finite(f"predict logits at step {step}", model.forward(image).data)
        h.update(model.predict(image).tobytes())
    return h.hexdigest()


def run_cli(argv: list[str]) -> str:
    """Run one ``wingraph`` command and return its stdout; a non-zero exit raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wingraph_main(argv)
    if code != 0:
        raise RuntimeError(f"wingraph {argv[0]} exited {code}")
    return out.getvalue()


def gradcheck_digest() -> str:
    """Hash what ``wingraph gradcheck all --seed 0`` prints; a failing check raises."""
    return hashlib.sha256(run_cli(["gradcheck", "all", "--seed", "0"]).encode()).hexdigest()


def train_out_digests(variant: str) -> tuple[str, str]:
    """Hash the file names and bytes that a toy ``wingraph train --out`` run
    writes, and what ``wingraph eval`` prints on its checkpoint."""
    h = hashlib.sha256()
    overrides = ["--override", f"relation_variant={variant}", "--override", f"steps={TRAIN_OUT_STEPS}"]
    with tempfile.TemporaryDirectory() as out:
        run_cli(["train", "--out", out, *overrides])
        for path in sorted(Path(out).iterdir()):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
        printed = run_cli(["eval", "--checkpoint", str(Path(out) / "checkpoint.wgts"), *overrides])
    return h.hexdigest(), hashlib.sha256(printed.encode()).hexdigest()


def ablate_digest() -> str:
    """Hash the stdout and the CSV file of a toy ``wingraph ablate theta`` run."""
    with tempfile.TemporaryDirectory() as out:
        printed = run_cli(["ablate", "theta", "--out", out, "--override", f"steps={TRAIN_OUT_STEPS}"])
        csv = (Path(out) / "ablate_theta.csv").read_bytes()
    return hashlib.sha256(printed.encode() + b"\0" + csv).hexdigest()


def hash_dataset(h, dataset: list[tuple[Tensor, np.ndarray]]) -> None:
    """Feed every image, label map and label dtype of ``dataset`` to ``h``."""
    for image, labels in dataset:
        h.update(image.data.tobytes())
        h.update(labels.tobytes())
        h.update(labels.dtype.str.encode())


def synth_digest(kind: str) -> str:
    """Hash what ``synth_dataset`` makes of ``kind`` over the size, class-count and seed grid."""
    h = hashlib.sha256()
    for (height, width), num_classes, seed in itertools.product(SYNTH_SIZES, SYNTH_CLASSES, SYNTH_SEEDS):
        hash_dataset(h, synth_dataset(kind, SYNTH_SAMPLES, height, width, num_classes, seed))
    return h.hexdigest()


def synth_many_digest() -> str:
    """Hash the benchmark-sized blobs sets at each seed and its eval offset."""
    h = hashlib.sha256()
    for seed in SYNTH_MANY_SEEDS:
        for offset, (n, height, width) in itertools.product((0, EVAL_SEED_OFFSET), SYNTH_MANY):
            hash_dataset(h, synth_dataset("blobs", n, height, width, 3, seed + offset))
    return h.hexdigest()


def bench_digest() -> str:
    """Hash the K, D, c and max_abs_diff columns of ``wingraph bench``'s CSV."""
    rows = [line.split(",") for line in run_cli(["bench", *BENCH_GRID]).splitlines()]
    kept = [",".join(row[:3] + row[5:]) for row in rows]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def main() -> None:
    for name, config in configurations():
        print(name, digest(*prepare(config)))
    print("gradcheck-all-seed0", gradcheck_digest())
    for variant in ("softmax", "cosine"):
        train_out, evaluated = train_out_digests(variant)
        print(f"train-out-toy-{variant}", train_out)
        print(f"eval-toy-{variant}", evaluated)
    print("ablate-theta-toy", ablate_digest())
    for kind in ("blobs", "stripes", "checker"):
        print(f"synth-{kind}", synth_digest(kind))
    print("synth-blobs-many", synth_many_digest())
    print("bench-grid", bench_digest())


if __name__ == "__main__":
    main()
