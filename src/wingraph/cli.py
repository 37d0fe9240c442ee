"""Command-line entry point.

Subcommands: ``gradcheck``, ``train``, ``eval``, ``ablate``, ``bench``.
Exit codes: 0 success, 1 verification failure, 2 configuration error.

Config files are line-oriented ``key = value`` text with ``#`` comments
(``wingraph.model.parse_config_text``); the keys are exactly the fields of
SegmenterConfig.  ``--override`` takes repeatable ``key=value`` pairs
applied on top of the file (or the defaults when no file is given).
``eval`` takes the config stored in its checkpoint; one given must equal it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .bench import run_benchmark
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import synth_dataset
from .gradcheck import SCOPE_NAMES, TOLERANCE, run_gradcheck
from .metrics import boundary_band_accuracy, miou, predictions
from .model import (MAX_CONFIG_BYTES, ConfigError, NonFiniteLogits, SegmenterConfig, build_model,
                    check_array_budget, parse_config_text, set_config_key)
from .relation import FusionType
from .train import TrainingDiverged, train

EVAL_SEED_OFFSET = 1000
GRADCHECK_SEEDS = 5


def load_config(path: str | None, overrides: list[str], seed: int | None) -> SegmenterConfig:
    values: dict = {}
    if path is not None:
        try:
            with open(path, "rb") as f:
                data = f.read(MAX_CONFIG_BYTES + 1)
            if len(data) > MAX_CONFIG_BYTES:
                raise ConfigError(f"config {path} is over {MAX_CONFIG_BYTES} bytes")
            text = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        values = parse_config_text(text, origin=path)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--override {item!r} must be KEY=VALUE")
        key, raw = item.split("=", 1)
        set_config_key(values, key.strip(), raw, "--override")
    if seed is not None:
        values["seed"] = seed
    return SegmenterConfig(**values)


def _out_files(out: str, *names: str) -> list[Path]:
    """Create the output directory ``out`` and return the paths of the files ``names`` there,
    refusing one that is a directory; commands do so before their work."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    paths = [Path(out) / name for name in names]
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
    return paths


def _csv(header: str, rows) -> str:
    """The text of every CSV report: the header line, one line per row of ``rows``, a closing newline."""
    return "\n".join([header, *rows]) + "\n"


def _iou_csv(per_class: list[float]) -> str:
    """``metrics.csv`` text; each IoU is a Python float's ``repr``, ``nan`` when undefined."""
    return _csv("class_id,iou", (f"{class_id},{float(v)!r}" for class_id, v in enumerate(per_class)))


def _emit_csv(csv_text: str, path: Path | None) -> None:
    """Print CSV text and, when a path is given, write it there."""
    print(csv_text, end="")
    if path:
        path.write_text(csv_text, encoding="ascii")


def _build_and_train(config: SegmenterConfig):
    """(model, training report) of a model built and trained as ``config`` says."""
    model = build_model(config)
    train_set = synth_dataset(config.dataset, config.dataset_size, config.H, config.W,
                              config.num_classes, config.seed)
    return model, train(model, train_set, config.steps, config.lr)


def _evaluate(model):
    """(mIoU result, boundary band accuracy) on ``model.config``'s evaluation
    set; the band accuracy is nan when no label map there has a class boundary.
    Non-finite logits raise ``NonFiniteLogits``."""
    config = model.config
    eval_set = synth_dataset(config.dataset, config.dataset_size, config.H, config.W,
                             config.num_classes, config.seed + EVAL_SEED_OFFSET)
    pred, labels = predictions(model, eval_set)
    return miou(pred, labels, config.num_classes), boundary_band_accuracy(pred, labels, band=1)


def _failure_exit(failures: list[str]) -> int:
    """Print one ``FAIL`` line per failure to stderr; exit code 1 if any, else 0."""
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_gradcheck(args) -> int:
    csv_path = _out_files(args.out, "gradcheck.csv")[0] if args.out else None
    seeds = [args.seed + i for i in range(GRADCHECK_SEEDS)]
    results = run_gradcheck(args.scope, seeds)
    _emit_csv(_csv("op,max_rel_err,samples", (f"{r.op},{r.max_rel_err:.3e},{r.samples}" for r in results)),
              csv_path)
    return _failure_exit([f"{r.op}: max relative error {r.max_rel_err:.3e} exceeds {TOLERANCE:g}"
                          for r in results if not r.passed])


def cmd_train(args) -> int:
    config = load_config(args.config, args.override, args.seed)
    checkpoint, curve_path, metrics_path, report_path = _out_files(
        args.out, "checkpoint.wgts", "loss_curve.csv", "metrics.csv", "report.json")
    model, report = _build_and_train(config)

    save_checkpoint(model, checkpoint)
    curve_path.write_text(_csv("step,loss", (f"{i},{v!r}" for i, v in enumerate(report.losses))),
                          encoding="ascii")
    result, boundary = _evaluate(model)
    metrics_path.write_text(_iou_csv(result.per_class), encoding="ascii")
    summary = {
        "param_count": model.param_count(),
        "steps": config.steps,
        "seed": config.seed,
        "final_loss": report.final_loss,
        "train_pixel_accuracy": report.final_pixel_accuracy,
        "eval_miou": result.mean,
        "eval_boundary_band_accuracy": boundary,
    }
    # JSON has no NaN or infinity; a non-finite figure (say, the loss of a
    # 0-step run) is written as null.
    summary = {k: None if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in summary.items()}
    report_path.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n", encoding="ascii")
    print(f"trained {model.param_count()} params for {config.steps} steps: "
          f"loss {report.final_loss:.4f}, eval mIoU {result.mean:.4f}")
    return 0


def cmd_eval(args) -> int:
    given = args.config is not None or args.override or args.seed is not None
    config = load_config(args.config, args.override, args.seed) if given else None
    metrics_path = _out_files(args.out, "metrics.csv")[0] if args.out else None
    model = load_checkpoint(args.checkpoint, config)
    try:
        result, boundary = _evaluate(model)
    except NonFiniteLogits as exc:
        raise CheckpointError(f"{args.checkpoint}: {exc} on an evaluation image") from exc
    if metrics_path:
        metrics_path.write_text(_iou_csv(result.per_class), encoding="ascii")
    print(f"eval mIoU {result.mean:.4f}, boundary band accuracy {boundary:.4f}")
    return 0


# axis -> (row label, SegmenterConfig field changes) per setting; all
# settings of an axis share the base config's seed.
ABLATION_AXES = {
    "theta": [(f"{c:g}", {"theta_coefficient": c}) for c in (2.0, 1.0, 0.5, 0.25, 0.125)],
    "ratio": [(str(r), {"r_gr": r, "r_lr": r}) for r in (2, 4, 8, 16, 32)],
    "fusion": [(f.value, {"fusion": f}) for f in FusionType],
    "components": [(label, {"enable_gt": gt, "enable_ba": ba}) for label, gt, ba in (
        ("baseline", False, False), ("gt", True, False), ("ba", False, True), ("gt_ba", True, True))],
}


def cmd_ablate(args) -> int:
    base = load_config(args.config, args.override, args.seed)
    settings = [(label, dataclasses.replace(base, **changes))
                for label, changes in ABLATION_AXES[args.axis]]
    csv_path = _out_files(args.out, f"ablate_{args.axis}.csv")[0] if args.out else None

    rows = []
    for label, config in settings:
        model, _ = _build_and_train(config)
        result, boundary = _evaluate(model)
        rows.append(f"{label},{result.mean!r},{boundary!r}")
        print(rows[-1], file=sys.stderr)
    _emit_csv(_csv("setting,miou,boundary_band_accuracy", rows), csv_path)
    return 0


def _parse_number_list(text: str, cast):
    try:
        return [cast(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad list {text!r}: {exc}") from exc


def cmd_bench(args) -> int:
    ks = _parse_number_list(args.K, int)
    ds = _parse_number_list(args.D, int)
    cs = _parse_number_list(args.c, float)
    if not ks or not ds or not cs or min(ks + ds) < 1 or args.repeats < 1 \
            or not all(map(math.isfinite, cs)):
        raise ConfigError(f"bench needs non-empty K, D and c lists, K, D, repeats >= 1 and finite c; "
                          f"got K={ks} D={ds} c={cs} repeats={args.repeats}")
    check_array_budget({"bench relation (K^2)": max(ks) ** 2, "bench nodes (K*D)": max(ks) * max(ds)})
    csv_path = _out_files(args.out, "bench.csv")[0] if args.out else None
    rows = run_benchmark(ks, ds, cs, repeats=args.repeats, seed=args.seed)
    _emit_csv(_csv("K,D,c,dense_ms,sparse_ms,max_abs_diff",
                   (f"{r.K},{r.D},{r.c:g},{r.dense_ms:.6f},{r.sparse_ms:.6f},{r.max_abs_diff:g}" for r in rows)),
              csv_path)
    return _failure_exit([f"sparse/dense mismatch at K={row.K} D={row.D} c={row.c:g}: {row.max_abs_diff:g}"
                          for row in rows if row.max_abs_diff != 0.0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wingraph",
                                     description="window-graph relation network toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, config=False, seed=None, out=None):
        """Add a subcommand with its shared flags; ``config`` adds --config/--override."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if config:
            p.add_argument("--config", default=None)
            p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--seed", type=int, default=seed, help="random seed")
        p.add_argument("--out", default=out, help="output directory")
        return p

    p = command("gradcheck", cmd_gradcheck, "finite-difference gradient verification", seed=0)
    p.add_argument("scope", choices=SCOPE_NAMES)

    command("train", cmd_train, "train a toy segmenter", config=True, out="out")

    p = command("eval", cmd_eval, "evaluate a checkpoint", config=True)
    p.add_argument("--checkpoint", required=True)

    p = command("ablate", cmd_ablate, "sweep one ablation axis", config=True)
    p.add_argument("axis", choices=tuple(ABLATION_AXES))

    p = command("bench", cmd_bench, "dense vs sparse propagation timing", seed=0)
    p.add_argument("--K", default="2,4,8,16")
    p.add_argument("--D", default="2,8,32")
    p.add_argument("--c", default="2,1,0.5,0.25,0.125")
    p.add_argument("--repeats", type=int, default=30)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.out == "":
            raise ConfigError("--out must name a directory, got ''")
        return args.func(args)
    except (ConfigError, CheckpointError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # NonFiniteLogits reaching here comes from evaluating a model that train or ablate just trained.
    except (TrainingDiverged, NonFiniteLogits) as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
