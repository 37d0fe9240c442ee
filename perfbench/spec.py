"""What the wingraph benchmark measures: workloads, metrics and their links.

This module is the single source of truth for the benchmark's contract.
``BENCHMARK.json`` at the repository root must equal :func:`benchmark_json`
(the schema test checks it), and ``run.py`` reports exactly the metrics
listed here.

Every workload reports every end-to-end metric, because each gate compares
the same metric names on every workload:

* ``step_ms_*`` and ``train_samples_per_s`` come from ``train()`` calls;
  on ``predict_cosine_medium`` those are the set-up calls that train the
  checkpoint.
* ``predict_ms_*`` and ``eval_images_per_s`` come from ``Segmenter.predict``
  calls inside whole evaluation passes; on the train workloads those are
  the closing accuracy pass of each ``train()`` call.

Some figures are printed in the report block but not gated, because no
bound the gate allows (at most 0.25) holds them:

* the tails ``step_ms_tail`` and ``predict_ms_tail`` spread 15-35% across
  runs on a shared 2-vCPU machine, whose speed changes by ~1.5x every
  10-40 s;
* the quality figures (``final_loss``, ``final_pixel_accuracy``,
  ``eval_miou``, ``eval_boundary_acc``) are deterministic given the seed
  but spread 20-90% across seeds (a single sample's loss; a barely trained
  cosine model);
* ``failed_frac`` is exactly 0 on a clean run; the result line carries it
  as ``failed`` over ``attempted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MEDIUM_STAGES = ((2, 4, 4), (2, 4, 4))
TOY_STAGES = ((2, 2, 2), (2, 2, 2))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``train`` (the timed window is back-to-back one-epoch
    ``train()`` calls) or ``predict`` (set-up trains and checkpoints a
    model, the timed window is back-to-back evaluation passes).
    ``config`` overrides ``SegmenterConfig`` fields; ``seed`` is always
    the run's seed.
    """

    name: str
    kind: str
    config: dict
    train_size: int
    eval_size: int
    lr: float
    why: str
    # train: one-epoch train() calls whose closing report gives the quality
    # figures; predict: SGD steps the set-up spends on the checkpoint.
    quality_epochs: int = 0
    setup_steps: int = 0
    setup_repeats: int = 3


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_toy", kind="train",
        config=dict(C=16, H=8, W=8, stages=TOY_STAGES, relation_variant="softmax"),
        train_size=64, eval_size=64, lr=0.05, quality_epochs=4, setup_repeats=9,
        why=("8x8 C=16 2x2 windows GT+BA softmax theta c=0.25, 64 blobs, lr 0.05 (acceptance trend "
             "settings): 391 tape ops per forward, so per-op Python overhead sets step time")),
    Workload(
        name="train_medium", kind="train",
        config=dict(C=32, H=32, W=32, stages=MEDIUM_STAGES, relation_variant="softmax"),
        train_size=16, eval_size=16, lr=0.05, quality_epochs=4, setup_repeats=9,
        why=("32x32 C=32 4x4 windows of 8x8, softmax, 16 blobs, lr 0.05: 1279 ops on larger arrays, "
             "so numpy kernels and 16-window loops weigh more; the 3x step target")),
    Workload(
        name="predict_cosine_medium", kind="predict",
        config=dict(C=32, H=32, W=32, stages=MEDIUM_STAGES, relation_variant="cosine"),
        train_size=4, eval_size=8, lr=0.0001, setup_steps=4, setup_repeats=5,
        why=("medium cosine, checkpoint of 4 steps at lr 1e-4 reloaded, predict over 8 blobs: forward "
             "only, cosine O(K^2) loops ~80%. Training diverges at lr 0.05, 0.01 and (1 seed in 16) 0.001")),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    # One-line description printed beside the value.
    doc: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "median set-up time: synth data, build model (predict: + train, save, load checkpoint)"),
    Metric("step_ms_p50", "ms", "lower", 0.25, "median SGD step inside train()"),
    Metric("train_samples_per_s", "1/s", "higher", 0.25,
           "median over train() calls of steps / wall time, closing accuracy pass included"),
    Metric("predict_ms_p50", "ms", "lower", 0.25, "median Segmenter.predict call"),
    Metric("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of this one-workload process"),
)

# Reported in the report block but not gated.  The tails spread 15-35%
# across runs on a shared 2-vCPU machine, beyond the largest bound (0.25);
# the quality figures are deterministic given the seed but spread 20-90%
# across seeds.
INFO = (
    Metric("eval_images_per_s", "1/s", "higher",
           doc="median over evaluation passes of images / wall time"),
    Metric("step_ms_tail", "ms", "lower", doc="SGD step tail percentile"),
    Metric("predict_ms_tail", "ms", "lower", doc="Segmenter.predict tail percentile"),
    Metric("final_loss", "nats", "lower", doc="TrainingReport.final_loss of the quality train() call"),
    Metric("final_pixel_accuracy", "frac", "higher", doc="TrainingReport.final_pixel_accuracy"),
    Metric("eval_miou", "frac", "higher", doc="evaluate_miou over the held-out eval set"),
    Metric("eval_boundary_acc", "frac", "higher",
           doc="dataset_boundary_band_accuracy (band 1) over the eval set"),
    Metric("failed_frac", "frac", "lower", doc="failed operations and checks over attempted"),
)

# Module scopes of the traced forward/backward, in forward order.
SCOPES = ("stem",
          "stage0.attn0", "stage0.attn1", "stage0.gt.gr", "stage0.gt.lr",
          "stage1.attn0", "stage1.attn1", "stage1.gt.gr", "stage1.gt.lr",
          "ba", "head", "loss")


def _per_layer() -> tuple[Metric, ...]:
    out = []
    for s in SCOPES:
        out += [Metric(f"{s}.fwd_ms", "ms", "lower"), Metric(f"{s}.bwd_ms", "ms", "lower"),
                Metric(f"{s}.tape_ops", "count", "lower")]
    out += [Metric("step.zero_grad_ms", "ms", "lower"), Metric("step.forward_ms", "ms", "lower"),
            Metric("step.backward_ms", "ms", "lower"), Metric("step.update_ms", "ms", "lower"),
            Metric("step.tape_ops", "count", "lower"),
            Metric("data.synth_ms", "ms", "lower"), Metric("model.build_ms", "ms", "lower"),
            Metric("checkpoint.save_ms", "ms", "lower"), Metric("checkpoint.load_ms", "ms", "lower"),
            Metric("checkpoint.bytes", "bytes", "lower"),
            Metric("trace.step_ms", "ms", "lower"), Metric("trace.overhead_frac", "frac", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()

# Non-timing fields that must repeat exactly for the same seed.
DETERMINISTIC = ("final_loss", "final_pixel_accuracy", "eval_miou", "eval_boundary_acc",
                 "checkpoint.bytes") + tuple(f"{s}.tape_ops" for s in SCOPES) + ("step.tape_ops",)


@dataclass(frozen=True)
class Effect:
    """Which end-to-end metric a layer metric should move, and where."""

    layer: str                      # per-layer metric name or glob
    moves: tuple[str, ...]          # end-to-end metrics
    workloads: tuple[str, ...]
    note: str = ""
    unmoved: tuple[str, ...] = field(default=())  # workloads predicted unchanged


# Shares measured on the seed implementation, 2-core x86 sandbox.
LAYER_EFFECTS = (
    Effect("stage*.attn*.*", ("step_ms_p50", "train_samples_per_s"), ("train_toy", "train_medium"),
           "about 50% of the step on both train workloads; small share of cosine predict"),
    Effect("stage*.gt.lr.*", ("step_ms_p50", "predict_ms_p50"),
           ("train_toy", "train_medium", "predict_cosine_medium"),
           "~25% toy step, ~20% medium step; ~80% of predict under cosine"),
    Effect("stage*.gt.gr.*", (), (), "control: <=5% everywhere, expect no end-to-end movement",
           unmoved=("train_toy", "train_medium", "predict_cosine_medium")),
    Effect("ba.*", ("step_ms_p50", "predict_ms_p50"), ("train_toy", "train_medium"),
           "~12% toy step, ~5% medium step (7x7 conv is 49 matmuls at any size)"),
    Effect("*.bwd_ms", ("step_ms_p50", "train_samples_per_s"),
           ("train_toy", "train_medium"), "predict runs no backward",
           unmoved=("predict_cosine_medium",)),
    Effect("step.backward_ms", ("step_ms_p50", "train_samples_per_s"),
           ("train_toy", "train_medium"), "predict runs no backward",
           unmoved=("predict_cosine_medium",)),
    Effect("*.tape_ops", ("step_ms_p50",), ("train_toy",), "toy step time tracks op count"),
    Effect("checkpoint.*", ("setup_s",), ("predict_cosine_medium",), "set-up saves and reloads"),
    Effect("data.synth_ms", ("setup_s",), ("train_toy", "train_medium", "predict_cosine_medium")),
    Effect("model.build_ms", ("setup_s",), ("train_toy", "train_medium", "predict_cosine_medium")),
    Effect("stem.*", ("step_ms_p50", "predict_ms_p50"), ("train_medium",), "one 1x1 conv"),
    Effect("head.*", ("step_ms_p50", "predict_ms_p50"), ("train_medium",), "one 1x1 conv"),
    Effect("loss.*", ("step_ms_p50",), ("train_toy", "train_medium"), "cross entropy, train only"),
    Effect("step.zero_grad_ms", ("step_ms_p50",), ("train_toy",)),
    Effect("step.forward_ms", ("step_ms_p50", "predict_ms_p50"),
           ("train_toy", "train_medium", "predict_cosine_medium")),
    Effect("step.update_ms", ("step_ms_p50",), ("train_toy",)),
    Effect("step.tape_ops", ("step_ms_p50",), ("train_toy",)),
    Effect("trace.*", (), (), "tracing overhead; moves nothing untraced"),
)

RUN_SECONDS = 25


def benchmark_json() -> dict:
    """The exact content ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
