"""Command-line entry point.

Subcommands: ``gradcheck``, ``train``, ``eval``, ``ablate``, ``bench``.
Exit codes: 0 success, 1 verification failure, 2 configuration error.

Config files are line-oriented ``key = value`` text with ``#`` comments;
the keys are exactly the fields of SegmenterConfig.  ``--override`` takes
repeatable ``key=value`` pairs applied on top of the file (or the defaults
when no file is given).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

from .bench import format_csv, run_benchmark
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import synth_dataset
from .gradcheck import SCOPE_NAMES, TOLERANCE, run_gradcheck
from .metrics import boundary_band_accuracy, miou, predictions, write_iou_csv
from .model import ConfigError, SegmenterConfig, build_model, check_array_budget
from .relation import FusionType
from .train import TrainingDiverged, train

EVAL_SEED_OFFSET = 1000
GRADCHECK_SEEDS = 5


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_stages(text: str) -> tuple[tuple[int, int, int], ...]:
    """``2x2x2,1x4x4`` -> ((2,2,2), (1,4,4)); blocks x M x N per stage."""
    stages = []
    for part in text.split(","):
        pieces = part.strip().split("x")
        if len(pieces) != 3:
            raise ValueError(f"stage {part!r} must be blocksxMxN")
        stages.append(tuple(int(p) for p in pieces))
    return tuple(stages)


def _format_stages(stages: tuple[tuple[int, int, int], ...]) -> str:
    return ",".join("x".join(str(p) for p in stage) for stage in stages)


# (parse, format) per field type; a type not listed parses with itself and
# formats with str, which covers int, float and str fields.
_TYPE_CODECS = {
    bool: (_parse_bool, lambda value: "true" if value else "false"),
    FusionType: (FusionType, lambda value: value.value),
    tuple: (_parse_stages, _format_stages),
}
_FIELD_CODECS = {name: _TYPE_CODECS.get(typing.get_origin(tp) or tp, (tp, str))
                 for name, tp in typing.get_type_hints(SegmenterConfig).items()}


def _set_key(values: dict, key: str, raw: str, origin: str) -> None:
    if key not in _FIELD_CODECS:
        raise ConfigError(f"{origin}: unknown config key {key!r}")
    parse, _ = _FIELD_CODECS[key]
    try:
        values[key] = parse(raw.strip())
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{origin}: bad value for {key!r}: {exc}") from exc


def parse_config_text(text: str, origin: str = "config") -> dict:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        _set_key(values, key.strip(), raw, f"{origin}:{lineno}")
    return values


def load_config(path: str | None, overrides: list[str], seed: int | None) -> SegmenterConfig:
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        values = parse_config_text(text, origin=path)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--override {item!r} must be KEY=VALUE")
        key, raw = item.split("=", 1)
        _set_key(values, key.strip(), raw, "--override")
    if seed is not None:
        values["seed"] = seed
    return SegmenterConfig(**values)


def format_config(config: SegmenterConfig) -> str:
    lines = [f"{name} = {fmt(getattr(config, name))}" for name, (_, fmt) in _FIELD_CODECS.items()]
    return "\n".join(lines) + "\n"


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
    set; the band accuracy is nan when no label map there has a class boundary."""
    config = model.config
    eval_set = synth_dataset(config.dataset, config.dataset_size, config.H, config.W,
                             config.num_classes, config.seed + EVAL_SEED_OFFSET)
    pred, labels = predictions(model, eval_set)
    return miou(pred, labels, config.num_classes), boundary_band_accuracy(pred, labels, band=1)


def cmd_gradcheck(args) -> int:
    csv_path = _out_files(args.out, "gradcheck.csv")[0] if args.out else None
    seeds = [args.seed + i for i in range(GRADCHECK_SEEDS)]
    results = run_gradcheck(args.scope, seeds)
    lines = ["op,max_rel_err,samples"]
    lines += [f"{r.op},{r.max_rel_err:.3e},{r.samples}" for r in results]
    _emit_csv("\n".join(lines) + "\n", csv_path)
    failed = [r for r in results if not r.passed]
    if failed:
        for r in failed:
            print(f"FAIL {r.op}: max relative error {r.max_rel_err:.3e} "
                  f"exceeds {TOLERANCE:g}", file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, args.override, args.seed)
    checkpoint, curve_path, metrics_path, report_path = _out_files(
        args.out, "checkpoint.wgts", "loss_curve.csv", "metrics.csv", "report.json")
    model, report = _build_and_train(config)

    save_checkpoint(model, checkpoint)
    curve = "\n".join(["step,loss"] + [f"{i},{v!r}" for i, v in enumerate(report.losses)]) + "\n"
    curve_path.write_text(curve, encoding="ascii")
    result, boundary = _evaluate(model)
    write_iou_csv(metrics_path, result.per_class)
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
    config = load_config(args.config, args.override, args.seed)
    metrics_path = _out_files(args.out, "metrics.csv")[0] if args.out else None
    model = load_checkpoint(args.checkpoint, config)
    result, boundary = _evaluate(model)
    if metrics_path:
        write_iou_csv(metrics_path, result.per_class)
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

    lines = ["setting,miou,boundary_band_accuracy"]
    for label, config in settings:
        model, _ = _build_and_train(config)
        result, boundary = _evaluate(model)
        lines.append(f"{label},{result.mean!r},{boundary!r}")
        print(lines[-1], file=sys.stderr)
    _emit_csv("\n".join(lines) + "\n", csv_path)
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
    _emit_csv(format_csv(rows), csv_path)
    bad = [row for row in rows if row.max_abs_diff != 0.0]
    if bad:
        for row in bad:
            print(f"FAIL sparse/dense mismatch at K={row.K} D={row.D} c={row.c:g}: "
                  f"{row.max_abs_diff:g}", file=sys.stderr)
        return 1
    return 0


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
        return args.func(args)
    except (ConfigError, CheckpointError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
