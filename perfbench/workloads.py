"""Measurement of the three workloads, untraced and traced.

Everything here calls wingraph's public functions from outside:
``train`` is timed through the dataset list it indexes (:class:`StepClock`),
``Segmenter.predict`` through an instance attribute that wraps it
(:class:`PredictClock`).  Each run returns a :class:`Result` holding the
derived metrics, the sample counts and every failed check.

Timings are reported at a reference machine speed (:class:`Meter`): the
2-vCPU sandbox this benchmark was written on drifts by up to 1.8x over
seconds to minutes as other tenants load the host, which no run length
averages away.  The raw figures are reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wingraph import (Segmenter, SegmenterConfig, build_model, evaluate_miou,
                      load_checkpoint, save_checkpoint, synth_dataset, train)
from wingraph.metrics import dataset_boundary_band_accuracy
from wingraph.train import TrainingDiverged

import tracer
from spec import SCOPES, Workload

now = tracer.now

# The eval set is drawn from a seed this far from the run's seed, so it
# never overlaps the training set.
EVAL_SEED_OFFSET = 1_000_003
NUM_CLASSES = 3
# Output checks run on this many eval images.
CHECK_IMAGES = 2


def median(values) -> float:
    """Median, or nan when a failure left no samples."""
    return statistics.median(values) if values else math.nan


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, not
    below the median and at most 99."""
    return max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / n)))) if n else 50


class Meter:
    """Timing samples, raw and scaled to a reference machine speed.

    Between timed calls :meth:`settle` times a fixed numpy kernel (small
    matmuls, exp and row sums: numpy call overhead, as in the program's
    tape ops).  Samples taken since the previous settle are scaled by
    ``REF_MS / mean(kernel time before, kernel time after)``.  Interleaved
    this way on the 2-vCPU Xeon sandbox, 20 s medians of cosine predict
    spread 7.5% scaled against 25% raw, and toy steps 5.5% against 21%.
    A change to wingraph cannot move the kernel.  Names ending in
    ``_per_s`` are rates and are divided by the factor; others are times.
    """

    # The kernel's median on that sandbox.
    REF_MS = 1.80
    _A = np.linspace(-1.0, 1.0, 16 * 64).reshape(16, 64)
    _B = np.linspace(1.0, -1.0, 64 * 16).reshape(64, 16)

    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self._settled: dict[str, int] = defaultdict(int)
        self.calibrations = [self._kernel_ms()]

    def _kernel_ms(self) -> float:
        times = []
        for _ in range(5):
            t0 = now()
            for _ in range(100):
                c = self._A @ self._B
                e = np.exp(c - c.max(axis=1, keepdims=True))
                e /= e.sum(axis=1, keepdims=True)
            times.append((now() - t0) * 1e3)
        return statistics.median(times)

    def settle(self) -> None:
        """Calibrate, and scale the samples taken since the last call."""
        ms = self._kernel_ms()
        f = self.REF_MS / ((self.calibrations[-1] + ms) / 2.0)
        self.calibrations.append(ms)
        for name, values in self.raw.items():
            scale = 1.0 / f if name.endswith("_per_s") else f
            self.scaled[name] += [v * scale for v in values[self._settled[name]:]]
            self._settled[name] = len(values)

    def drop(self, name: str) -> None:
        for d in (self.raw, self.scaled, self._settled):
            d.pop(name, None)

    def run_factor(self) -> float:
        """One factor for the whole run so far."""
        return self.REF_MS / statistics.median(self.calibrations)

    def summary(self) -> dict:
        cal = self.calibrations
        return {"ref_ms": self.REF_MS, "calibration_ms_p50": statistics.median(cal),
                "calibration_ms_min": min(cal), "calibration_ms_max": max(cal),
                "calibrations": len(cal), "run_factor": self.run_factor()}


@dataclass
class Result:
    """Metrics, sample counts and the failure tally of one run."""

    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    tails: dict[str, int] = field(default_factory=dict)
    speed: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(what)

    def summarise(self, meter: Meter) -> None:
        """Medians of every sampled figure and tails of the two latencies,
        scaled and raw."""
        for name, values in meter.scaled.items():
            self.samples[name] = len(values)
            for out, data in ((self.metrics, values), (self.raw, meter.raw[name])):
                if name in ("step_ms", "predict_ms"):
                    p = tail_percentile(len(data))
                    self.tails[name] = p
                    out[f"{name}_p50"] = median(data)
                    out[f"{name}_tail"] = float(np.percentile(data, p)) if data else math.nan
                else:
                    out[name] = median(data)
        self.speed = meter.summary()


def config_for(w: Workload, seed: int) -> SegmenterConfig:
    return SegmenterConfig(**w.config, num_classes=NUM_CLASSES, dataset="blobs",
                           dataset_size=w.train_size, lr=w.lr, seed=seed)


def make_data(w: Workload, cfg: SegmenterConfig, seed: int):
    train_set = synth_dataset("blobs", w.train_size, cfg.H, cfg.W, NUM_CLASSES, seed)
    eval_set = synth_dataset("blobs", w.eval_size, cfg.H, cfg.W, NUM_CLASSES, seed + EVAL_SEED_OFFSET)
    return train_set, eval_set


class StepClock(list):
    """A dataset list that timestamps ``train()``'s accesses.

    ``train()`` indexes the dataset once at the start of every step and
    iterates it once for its closing accuracy pass, so consecutive marks
    bound one SGD step each.
    """

    def __init__(self, items):
        super().__init__(items)
        self.marks: list[float] = []
        self.iter_mark: float | None = None

    def __getitem__(self, index):
        self.marks.append(now())
        return super().__getitem__(index)

    def __iter__(self):
        self.iter_mark = now()
        return super().__iter__()


class PredictClock:
    """Times every ``Segmenter.predict`` call made on one model."""

    def __init__(self, model: Segmenter, meter: Meter):
        self.model = model
        self.ms = meter.raw["predict_ms"]
        model.predict = self

    def __call__(self, image):
        t0 = now()
        out = Segmenter.predict(self.model, image)
        self.ms.append((now() - t0) * 1e3)
        return out


def timed_train(model, clock: StepClock, steps: int, lr: float, meter: Meter):
    """One ``train()`` call; records its step times and rates, then settles."""
    clock.marks.clear()
    clock.iter_mark = None
    t0 = now()
    report = train(model, clock, steps, lr)
    t1 = now()
    marks = clock.marks + [clock.iter_mark]
    meter.raw["step_ms"] += [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
    meter.raw["train_samples_per_s"].append(steps / (t1 - t0))
    meter.raw["eval_images_per_s"].append(len(clock) / (t1 - clock.iter_mark))
    meter.settle()
    return report


def guarded(res: Result, what: str, ops: int, fn, *args):
    """Run one operation; a raise counts ``ops`` failures and returns None."""
    res.attempted += ops
    try:
        return fn(*args)
    except (TrainingDiverged, ValueError, ArithmeticError) as exc:
        res.fail(f"{what}: {type(exc).__name__}: {exc}", ops)
        traceback.print_exc()
        return None


def check_outputs(res: Result, model, eval_set, reference) -> None:
    """Logits finite and ``predict`` equal to their argmax on a few images."""
    for image, _ in eval_set[:CHECK_IMAGES]:
        logits = Segmenter.forward(model, image).data
        res.check(bool(np.isfinite(logits).all()), "non-finite logits")
        res.check(np.array_equal(logits.argmax(axis=0), Segmenter.predict(reference, image)),
                  "predict disagrees with argmax of forward")


def check_report(res: Result, report) -> None:
    res.check(bool(np.isfinite(np.asarray(report.losses)).all()), "non-finite training loss")
    res.check(0.0 <= report.final_pixel_accuracy <= 1.0, "pixel accuracy outside [0, 1]")


def same_params(a, b) -> bool:
    pa, pb = a.parameters(), b.parameters()
    return list(pa) == list(pb) and all(pa[n].data.tobytes() == pb[n].data.tobytes() for n in pa)


def checkpoint_roundtrip(model, cfg, path: Path):
    """Save, reload through the checkpoint layer; returns (loaded, save_s, load_s)."""
    t0 = now()
    save_checkpoint(model, path)
    t1 = now()
    loaded = load_checkpoint(path, cfg)
    return loaded, t1 - t0, now() - t1


def eval_passes(res: Result, meter: Meter, model, eval_set, seconds: float, min_passes: int) -> None:
    """Alternate ``evaluate_miou`` and boundary-accuracy passes for ``seconds``.

    ``model.predict`` must be a :class:`PredictClock`.  The first pass of
    each kind gives the quality figure; every repeat must reproduce it
    exactly.
    """
    clock = model.predict
    kinds = (("eval_miou", lambda: evaluate_miou(model, eval_set)),
             ("eval_boundary_acc", lambda: dataset_boundary_band_accuracy(model, eval_set)))
    first: dict[str, object] = {}
    start = now()
    i = 0
    while i < min_passes or now() - start < seconds:
        name, fn = kinds[i % 2]
        calls = len(clock.ms)
        t0 = now()
        out = guarded(res, name, len(eval_set), fn)
        wall = now() - t0
        i += 1
        if out is None:
            break
        meter.raw["eval_images_per_s"].append((len(clock.ms) - calls) / wall)
        meter.settle()
        key = out.confusion.tobytes() if name == "eval_miou" else out
        if name not in first:
            first[name] = key
            res.metrics[name] = float(out.mean if name == "eval_miou" else out)
        else:
            res.check(key == first[name], f"repeated {name} pass changed its result")


def run_train(w: Workload, seed: int, seconds: float, res: Result) -> None:
    cfg = config_for(w, seed)
    meter = Meter()
    for _ in range(w.setup_repeats):
        t0 = now()
        train_set, eval_set = make_data(w, cfg, seed)
        model = build_model(cfg)
        meter.raw["setup_s"].append(now() - t0)
        meter.settle()

    clock = StepClock(train_set)
    PredictClock(model, meter)
    epochs = 0
    start = now()
    while epochs < w.quality_epochs or now() - start < seconds:
        report = guarded(res, "train", len(train_set), timed_train, model, clock, len(train_set),
                         w.lr, meter)
        if report is None:
            break
        epochs += 1
        check_report(res, report)
        if epochs == w.quality_epochs:
            res.metrics["final_loss"] = report.final_loss
            res.metrics["final_pixel_accuracy"] = report.final_pixel_accuracy
            eval_passes(res, meter, model, eval_set, 0.0, 2)
    res.summarise(meter)
    check_outputs(res, model, eval_set, model)


def run_predict(w: Workload, seed: int, seconds: float, res: Result, tmp: Path) -> None:
    cfg = config_for(w, seed)
    path = tmp / "model.wgts"
    meter = Meter()
    first_losses = None
    for _ in range(w.setup_repeats):
        t0 = now()
        train_set, eval_set = make_data(w, cfg, seed)
        model = build_model(cfg)
        report = guarded(res, "train checkpoint", w.setup_steps, timed_train, model,
                         StepClock(train_set), w.setup_steps, w.lr, meter)
        roundtrip = report and guarded(res, "checkpoint round trip", 1, checkpoint_roundtrip,
                                       model, cfg, path)
        meter.raw["setup_s"].append(now() - t0)
        meter.settle()
        if not roundtrip:
            res.summarise(meter)
            return
        loaded = roundtrip[0]
        check_report(res, report)
        res.check(same_params(model, loaded), "checkpoint did not reload bit-exactly")
        if first_losses is None:
            first_losses = report.losses
            res.metrics["final_loss"] = report.final_loss
            res.metrics["final_pixel_accuracy"] = report.final_pixel_accuracy
        else:
            res.check(report.losses == first_losses, "repeated set-up trained differently")
    # The set-up's closing accuracy passes ran on the training model; only
    # the loaded model's passes count towards the evaluation rate.
    meter.drop("eval_images_per_s")

    PredictClock(loaded, meter)
    eval_passes(res, meter, loaded, eval_set, seconds, 2)
    res.summarise(meter)
    check_outputs(res, loaded, eval_set, model)


def run_traced(w: Workload, seed: int, seconds: float, res: Result, tmp: Path) -> tracer.Spans:
    """Per-layer run: set-up layers, then traced steps interleaved with
    untraced ``train()`` calls of the same length for the overhead.

    Per-layer times are scaled to reference speed by one factor for the
    whole run."""
    cfg = config_for(w, seed)
    meter = Meter()
    synth_ms, build_ms, save_ms, load_ms = [], [], [], []
    for _ in range(w.setup_repeats):
        t0 = now()
        train_set, _ = make_data(w, cfg, seed)
        t1 = now()
        model = build_model(cfg)
        synth_ms.append((t1 - t0) * 1e3)
        build_ms.append((now() - t1) * 1e3)
    path = tmp / "model.wgts"
    for _ in range(w.setup_repeats):
        loaded, save_s, load_s = checkpoint_roundtrip(model, cfg, path)
        save_ms.append(save_s * 1e3)
        load_ms.append(load_s * 1e3)
        res.check(same_params(model, loaded), "checkpoint did not reload bit-exactly")
    meter.settle()

    spans = tracer.Spans()
    traced = tracer.TracedStep(model, w.lr, spans)
    clock = StepClock(train_set)
    image, labels = train_set[0]
    for what in tracer.check_against_model(traced, image, labels):
        res.fail(what)
    res.attempted += 1
    n = len(train_set)
    start = now()
    while traced.step_index == 0 or now() - start < seconds:
        if guarded(res, "untraced train", n, timed_train, model, clock, n, w.lr, meter) is None:
            break
        losses = [guarded(res, "traced step", 1, traced.step, *train_set[k]) for k in range(n)]
        meter.settle()
        if not res.check(all(v is not None and math.isfinite(v) for v in losses),
                         "non-finite traced loss"):
            break
    for what in tracer.check_against_model(traced, image, labels):
        res.fail(what)
    res.attempted += 1

    f = meter.run_factor()
    m = res.metrics
    m["data.synth_ms"] = median(synth_ms) * f
    m["model.build_ms"] = median(build_ms) * f
    m["checkpoint.save_ms"] = median(save_ms) * f
    m["checkpoint.load_ms"] = median(load_ms) * f
    m["checkpoint.bytes"] = path.stat().st_size
    for scope in SCOPES:
        m[f"{scope}.fwd_ms"] = median(spans.durations_ms(f"{scope}.fwd")) * f
        m[f"{scope}.bwd_ms"] = median(spans.durations_ms(f"{scope}.bwd")) * f
        m[f"{scope}.tape_ops"] = traced.tape_ops.get(scope, math.nan)
    for phase in ("zero_grad", "forward", "backward", "update"):
        m[f"step.{phase}_ms"] = median(spans.durations_ms(f"step.{phase}")) * f
    m["step.tape_ops"] = sum(traced.tape_ops.values())
    traced_ms = median(spans.durations_ms("step"))
    m["trace.step_ms"] = traced_ms * f
    m["trace.overhead_frac"] = traced_ms / median(meter.raw["step_ms"]) - 1.0
    res.samples["traced_steps"] = traced.step_index
    res.samples["untraced_steps"] = len(meter.raw["step_ms"])
    res.speed = meter.summary()
    return spans


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload; returns (Result, Spans or None)."""
    res = Result()
    # Move the ~23k objects that exist before the workload starts (imports
    # of the program and of this harness) out of the collector's reach.
    # Otherwise each full collection, about one per train() call, scans
    # them in a ~10 ms pause that lands on ~1.5% of the operations and
    # decides the p99.  Objects the workload creates are still collected.
    gc.collect()
    gc.freeze()
    tmp = out_dir / f"tmp-{w.name}-{seed}-{id(res)}"
    tmp.mkdir(parents=True, exist_ok=True)
    spans = None
    try:
        if trace:
            spans = run_traced(w, seed, seconds, res, tmp)
        elif w.kind == "train":
            run_train(w, seed, seconds, res)
        else:
            run_predict(w, seed, seconds, res, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not trace:
        res.metrics["peak_rss_mb"] = peak_rss_mb()
    res.metrics["failed_frac"] = res.failed / max(res.attempted, 1)
    return res, spans
