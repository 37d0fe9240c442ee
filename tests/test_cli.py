"""CLI contract: subcommands, exit codes, file outputs, overrides."""

import collections
import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wingraph import cli, model, tensor
from wingraph.checkpoint import save_checkpoint
from wingraph.cli import load_config, main
from wingraph.metrics import MiouResult
from wingraph.model import MAX_CONFIG_BYTES, format_config, parse_config_text
from wingraph.data import DATASET_KINDS
from wingraph.graph import _VARIANTS
from wingraph.model import ConfigError, Segmenter, SegmenterConfig, build_model
from wingraph.relation import FusionType

FAST = ["--override", "C=4", "--override", "H=4", "--override", "W=4",
        "--override", "stages=1x2x2", "--override", "num_classes=2",
        "--override", "r_gr=2", "--override", "r_lr=2", "--override", "r_ba=2",
        "--override", "steps=3", "--override", "dataset_size=2",
        "--override", "lr=0.05"]


def _divisor(n):
    return st.sampled_from([d for d in range(1, n + 1) if n % d == 0])


@st.composite
def valid_configs(draw):
    """A valid SegmenterConfig, drawing a value for every field."""
    h, w = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    ratios = [draw(st.integers(1, 8)) for _ in range(3)]
    values = {
        "C": math.lcm(*ratios) * draw(st.integers(1, 4)),
        "H": h,
        "W": w,
        "stages": tuple(draw(st.lists(st.tuples(st.integers(1, 4), _divisor(h), _divisor(w)),
                                      min_size=1, max_size=3))),
        "num_classes": draw(st.integers(2, 50)),
        "fusion": draw(st.sampled_from(FusionType)),
        "r_gr": ratios[0],
        "r_lr": ratios[1],
        "r_ba": ratios[2],
        "theta_coefficient": draw(st.floats(allow_nan=False, allow_infinity=False)),
        "graph_depth": draw(st.integers(1, 8)),
        "relation_variant": draw(st.sampled_from(_VARIANTS)),
        "enable_gt": draw(st.booleans()),
        "enable_ba": draw(st.booleans()),
        "seed": draw(st.integers(0, 2 ** 63)),
        "dataset": draw(st.sampled_from(DATASET_KINDS)),
        "dataset_size": draw(st.integers(1, 10 ** 6)),
        "steps": draw(st.integers(0, 10 ** 6)),
        "lr": draw(st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)),
    }
    # a new field must get a strategy here before this test passes
    assert set(values) == {f.name for f in dataclasses.fields(SegmenterConfig)}
    return SegmenterConfig(**values)


@pytest.fixture(scope="class")
def no_array_budget():
    """Lift the array budget while Hypothesis draws: ``valid_configs`` covers
    field ranges whose arrays no budget allows, to test the text codec."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "ARRAY_BUDGET", math.inf)
        yield


class TestConfigText:
    @pytest.mark.usefixtures("no_array_budget")
    @given(valid_configs())
    @example(SegmenterConfig())
    def test_roundtrip_through_text(self, config):
        parsed = SegmenterConfig(**parse_config_text(format_config(config)))
        assert parsed == config

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# header\n\nC = 8  # trailing\n")
        assert values == {"C": 8}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("depth = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("C = many\n")

    def test_stages_syntax(self):
        values = parse_config_text("stages = 2x2x2,1x4x4\n")
        assert values["stages"] == ((2, 2, 2), (1, 4, 4))

    def test_override_wins_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("C = 8\nseed = 3\n")
        config = load_config(str(path), ["C=16"], seed=None)
        assert config.C == 16 and config.seed == 3

    def test_config_over_the_cap_is_refused(self, tmp_path):
        path = tmp_path / "long.cfg"
        path.write_text("# padding\n" * (MAX_CONFIG_BYTES // 10 + 1) + "C = 16\n")
        with pytest.raises(ConfigError, match=f"is over {MAX_CONFIG_BYTES} bytes"):
            load_config(str(path), [], seed=None)

    def test_seed_flag_wins_over_everything(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n")
        assert load_config(str(path), [], seed=11).seed == 11

    def test_seed_flag_replaces_an_invalid_file_seed(self, tmp_path, capsys):
        # --seed goes in before the config is made, so the file's seed is
        # never checked on its own.
        path = tmp_path / "run.cfg"
        path.write_text("seed = -1\n")
        assert main(["train", "--config", str(path), "--seed", "5",
                     "--out", str(tmp_path / "run")] + FAST) == 0
        assert json.loads((tmp_path / "run" / "report.json").read_text())["seed"] == 5


class TestGradcheckCommand:
    def test_tensor_ops_pass_with_csv(self, capsys):
        assert main(["gradcheck", "tensor_ops"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "op,max_rel_err,samples"
        assert any(line.startswith("matmul,") for line in lines)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda p: p * 1.1, "FAIL gelu: max relative error "),
        (lambda p: np.full_like(p, np.nan), "FAIL gelu: max relative error nan"),
    ], ids=["scaled", "all_nan"])
    def test_corrupted_gradient_exits_one_naming_op(self, corrupt, message, capsys, monkeypatch):
        real = tensor.gelu

        def corrupted(x):
            out = real(x)
            if out._backward is not None:
                original = out._backward
                out._backward = lambda g: tuple(corrupt(p) for p in original(g))
            return out

        monkeypatch.setattr(tensor, "gelu", corrupted)
        assert main(["gradcheck", "tensor_ops"]) == 1
        assert message in capsys.readouterr().err

    def test_writes_csv_file(self, tmp_path, capsys):
        assert main(["gradcheck", "gr", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "gradcheck.csv").read_text().startswith("op,max_rel_err,samples")


class TestTrainCommand:
    def test_produces_all_output_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST) == 0
        for name in ("checkpoint.wgts", "loss_curve.csv", "metrics.csv", "report.json"):
            assert (out / name).exists(), name
        curve = (out / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "step,loss" and len(curve) == 4
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "class_id,iou"

    def test_same_seed_byte_identical_metrics(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--out", str(a), "--seed", "5"] + FAST) == 0
        assert main(["train", "--out", str(b), "--seed", "5"] + FAST) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "loss_curve.csv").read_bytes() == (b / "loss_curve.csv").read_bytes()

    def test_disabling_gt_drops_param_count_by_closed_form(self, tmp_path, capsys):
        from wingraph.relation import gt_param_count
        from wingraph.windows import WindowGrid

        on, off = tmp_path / "on", tmp_path / "off"
        assert main(["train", "--out", str(on)] + FAST) == 0
        assert main(["train", "--out", str(off), "--override", "enable_gt=false"] + FAST) == 0
        count_on = json.loads((on / "report.json").read_text())["param_count"]
        count_off = json.loads((off / "report.json").read_text())["param_count"]
        grid = WindowGrid(4, 4, 4, 2, 2)
        assert count_on - count_off == gt_param_count(4, grid, 2, 2, 1)

    def test_invalid_override_key_exits_two(self, capsys):
        assert main(["train", "--override", "bogus=1"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_zero_step_report_is_strict_json(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST + ["--override", "steps=0"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["steps"] == 0 and report["final_loss"] is None

    def test_eval_set_without_class_boundary_reports_null_band_accuracy(self, tmp_path, capsys):
        # One-row stripes are one class per image, so no label map has a boundary.
        flat = ["--override", "H=1", "--override", "stages=1x1x1", "--override", "steps=1"]
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + flat) == 0
        for name in ("checkpoint.wgts", "loss_curve.csv", "metrics.csv", "report.json"):
            assert (out / name).exists(), name

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["eval_boundary_band_accuracy"] is None
        assert main(["eval", "--checkpoint", str(out / "checkpoint.wgts")] + flat) == 0
        assert "boundary band accuracy nan" in capsys.readouterr().out
        assert main(["ablate", "fusion"] + flat) == 0
        assert all(row.endswith(",nan") for row in capsys.readouterr().out.splitlines()[1:])

    def test_diverged_training_exits_one(self, tmp_path):
        # In a subprocess, so that stderr also holds any numpy warning, as a user would see it.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "wingraph", "train", "--out", str(tmp_path / "run")]
                              + FAST + ["--override", "lr=1e300"], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("training diverged: non-finite loss")

    def test_violated_constraint_exits_two_naming_it(self, capsys):
        assert main(["train"] + FAST + ["--override", "r_gr=3"]) == 2
        assert "r_gr=3 does not divide" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST) == 0
        ckpt = str(out / "checkpoint.wgts")
        assert main(["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "e")] + FAST) == 0
        assert (tmp_path / "e" / "metrics.csv").exists()

    def test_metrics_rows_are_plain_numbers(self, tmp_path, capsys):
        # miou's per-class IoUs are numpy floats; their repr is not a number.
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST) == 0
        ckpt = str(out / "checkpoint.wgts")
        assert main(["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "e")] + FAST) == 0
        for path in (out / "metrics.csv", tmp_path / "e" / "metrics.csv"):
            header, *rows = path.read_text(encoding="ascii").splitlines()
            assert header == "class_id,iou" and len(rows) == 2
            for class_id, row in enumerate(rows):
                cid, iou = row.split(",")
                assert int(cid) == class_id
                assert 0.0 <= float(iou) <= 1.0 or math.isnan(float(iou))

    def test_metrics_csv_header_and_nan_formatting(self, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "model.wgts"
        save_checkpoint(build_model(SegmenterConfig()), ckpt)
        result = MiouResult([np.float64(0.5), math.nan, 1.0], 0.75, np.zeros((3, 3)))
        monkeypatch.setattr(cli, "_evaluate", lambda model: (result, 0.5))
        assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")]) == 0
        lines = (tmp_path / "e" / "metrics.csv").read_text(encoding="ascii").splitlines()
        assert lines == ["class_id,iou", "0,0.5", "1,nan", "2,1.0"]

    def test_predicts_each_eval_image_once(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST) == 0
        calls = collections.Counter()
        predict = Segmenter.predict

        def counted(model, image):
            calls[image.data.tobytes()] += 1
            return predict(model, image)

        monkeypatch.setattr(Segmenter, "predict", counted)
        assert main(["eval", "--checkpoint", str(out / "checkpoint.wgts")] + FAST) == 0
        assert "boundary band accuracy nan" not in capsys.readouterr().out
        assert sorted(calls.values()) == [1, 1]  # dataset_size=2 distinct images

    def test_non_utf8_stored_config_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST) == 0
        ckpt = out / "checkpoint.wgts"
        raw = bytearray(ckpt.read_bytes())
        raw[10] = 0xFF  # first byte of the stored config text
        ckpt.write_bytes(bytes(raw))
        assert main(["eval", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "bad stored config" in err and "utf-8" in err and "Traceback" not in err

    def test_overflowing_checkpoint_is_one_line_without_warnings(self, tmp_path, capsys):
        command = _overflowing_checkpoint(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {command[-1]}: 192 of 192 logits are not finite "
                                "on an evaluation image\n")

    def test_trailing_bytes_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST) == 0
        ckpt = out / "checkpoint.wgts"
        ckpt.write_bytes(ckpt.read_bytes() + b"extra")
        assert main(["eval", "--checkpoint", str(ckpt)] + FAST) == 2
        err = capsys.readouterr().err
        assert "trailing bytes" in err and "Traceback" not in err

    def test_nan_weight_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST) == 0
        ckpt = out / "checkpoint.wgts"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:-8] + struct.pack("<d", float("nan")))  # the last weight
        assert main(["eval", "--checkpoint", str(ckpt)] + FAST) == 2
        err = capsys.readouterr().err
        assert "holds a NaN or an infinity" in err and "Traceback" not in err

    def test_out_naming_a_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST) == 0
        ckpt = str(out / "checkpoint.wgts")
        assert main(["eval", "--checkpoint", ckpt, "--out", ckpt] + FAST) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_without_flags_reproduces_the_training_run(self, tmp_path, capsys):
        # The relation variant and theta leave no trace in the weights; the
        # stored config carries them.
        out, again = tmp_path / "run", tmp_path / "again"
        cosine = FAST + ["--override", "relation_variant=cosine", "--override", "theta_coefficient=0.5"]
        assert main(["train", "--out", str(out)] + cosine) == 0
        trained = capsys.readouterr().out.split("eval mIoU ")[1].strip()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.wgts"), "--out", str(again)]) == 0
        assert capsys.readouterr().out.startswith(f"eval mIoU {trained}, ")
        assert (again / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("flags, named", [
        (["--override", "enable_ba=false"], ["enable_ba = false given, enable_ba = true stored"]),
        (["--override", "theta_coefficient=2", "--override", "relation_variant=cosine"],
         ["theta_coefficient = 2.0 given, theta_coefficient = 0.25 stored",
          "relation_variant = cosine given, relation_variant = softmax stored"]),
        (["--seed", "7"], ["seed = 7 given, seed = 0 stored"]),
        (["--config", "{config}"], ["fusion = parallel given, fusion = gr_then_lr stored"]),
    ], ids=["override", "two_fields", "seed", "config_file"])
    def test_disagreeing_config_exits_two_naming_the_fields(self, tmp_path, capsys, flags, named):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)] + FAST) == 0
        config = tmp_path / "run.cfg"
        config.write_text("fusion = parallel\n")
        flags = [flag.format(config=config) for flag in flags]
        assert main(["eval", "--checkpoint", str(out / "checkpoint.wgts")] + FAST + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config differs from the checkpoint's: ")
        assert all(field in err for field in named) and err.count(" given, ") == len(named)


class TestAblateCommand:
    def _rows(self, capsys, axis, extra=()):
        assert main(["ablate", axis] + FAST + list(extra)) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "setting,miou,boundary_band_accuracy"
        return lines[1:]

    def test_theta_axis_five_rows(self, capsys):
        rows = self._rows(capsys, "theta")
        assert [r.split(",")[0] for r in rows] == ["2", "1", "0.5", "0.25", "0.125"]

    def test_fusion_axis_three_rows(self, capsys):
        rows = self._rows(capsys, "fusion")
        assert [r.split(",")[0] for r in rows] == ["gr_then_lr", "lr_then_gr", "parallel"]

    def test_components_axis_four_rows(self, capsys):
        rows = self._rows(capsys, "components")
        assert [r.split(",")[0] for r in rows] == ["baseline", "gt", "ba", "gt_ba"]

    def test_ratio_axis_needs_divisible_channels(self, capsys):
        # C=4 cannot host r=8..32; the constraint is named
        assert main(["ablate", "ratio"] + FAST) == 2
        assert "does not divide" in capsys.readouterr().err

    def test_ratio_axis_five_rows_with_wide_channels(self, capsys):
        rows = self._rows(capsys, "ratio", ("--override", "C=32"))
        assert [r.split(",")[0] for r in rows] == ["2", "4", "8", "16", "32"]


class TestBenchCommand:
    def test_csv_contract_and_exit_zero(self, capsys):
        assert main(["bench", "--K", "2,4", "--D", "2", "--c", "1,0.25",
                     "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "K,D,c,dense_ms,sparse_ms,max_abs_diff"
        assert len(lines) == 5
        assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])

    def test_row_formats(self, capsys):
        assert main(["bench", "--K", "2", "--D", "2", "--c", "1", "--repeats", "2"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "K,D,c,dense_ms,sparse_ms,max_abs_diff"
        k, d, c, dense_ms, sparse_ms, diff = row.split(",")
        assert (k, d, c, diff) == ("2", "2", "1", "0")
        assert re.fullmatch(r"\d+\.\d{6}", dense_ms) and re.fullmatch(r"\d+\.\d{6}", sparse_ms)

    def test_bad_list_exits_two(self, capsys):
        assert main(["bench", "--K", "two"]) == 2


@given(st.text(), st.lists(st.text()))
def test_csv_is_header_rows_and_closing_newline(header, rows):
    """Every report is built by ``_csv``; a generator of rows gives the same text as a list."""
    expected = "\n".join([header, *rows]) + "\n"
    assert cli._csv(header, rows) == expected
    assert cli._csv(header, iter(rows)) == expected


def _non_utf8_config(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"dataset = caf\xe9\n")
    return ["train", "--config", str(path)]


def _file_as_out(command):
    """``command`` with ``--out`` naming an existing file."""
    def case(tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        return command + ["--out", str(taken)]
    return case


def _empty_out(command):
    """``command`` with an empty ``--out``, which names no directory."""
    return lambda tmp_path: command + ["--out", ""]


def _dir_as_file(command, name):
    """``command`` writing to an ``--out`` directory that holds a directory named ``name``."""
    def case(tmp_path):
        (tmp_path / "out" / name).mkdir(parents=True)
        return command + ["--out", str(tmp_path / "out")]
    return case


def _eval_command(tmp_path):
    """``eval`` of a readable checkpoint of the default model, so that a run reaches its write."""
    path = tmp_path / "default.wgts"
    save_checkpoint(build_model(SegmenterConfig()), path)
    return ["eval", "--checkpoint", str(path)]


def _overflowing_checkpoint(tmp_path):
    """``eval`` of a loadable checkpoint whose first stem value, 1e300, overflows the logits."""
    path = tmp_path / "overflowing.wgts"
    overflowing = build_model(SegmenterConfig())
    overflowing.parameters()["stem"].data[0, 0, 0, 0] = 1e300
    save_checkpoint(overflowing, path)
    return ["eval", "--checkpoint", str(path)]


def _config_dev_zero(tmp_path):
    """``/dev/zero`` as the config: an endless file, which must not be read whole."""
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero here")
    return ["train", "--config", "/dev/zero"]


def _config_over_the_cap(tmp_path):
    path = tmp_path / "sparse.cfg"
    path.write_bytes(b"")
    os.truncate(path, 2 ** 24)  # sparse: no disk blocks, but far over MAX_CONFIG_BYTES
    return ["train", "--config", str(path)]


def _config_line_without_equals(tmp_path):
    path = tmp_path / "no_equals.cfg"
    path.write_text("C 4\n")
    return ["train", "--config", str(path)]


def _bad_override(item):
    return lambda tmp_path: ["train", "--override", item, "--out", str(tmp_path / "out")]


UNREADABLE_INPUTS = {
    "missing_config": lambda tmp_path: ["train", "--config", str(tmp_path / "missing.cfg")],
    "non_utf8_config": _non_utf8_config,
    "config_is_dev_zero": _config_dev_zero,
    "config_over_the_size_cap": _config_over_the_cap,
    "missing_checkpoint": lambda tmp_path: ["eval", "--checkpoint", str(tmp_path / "none.wgts")],
    "checkpoint_overflows_the_logits": _overflowing_checkpoint,
    "bench_zero_repeats": lambda tmp_path: ["bench", "--repeats", "0"],
    "bench_zero_K": lambda tmp_path: ["bench", "--K", "0"],
    "bench_zero_D": lambda tmp_path: ["bench", "--D", "0"],
    "negative_seed_override": lambda tmp_path: [
        "train", "--override", "seed=-1", "--out", str(tmp_path / "out")],
    "gradcheck_negative_seed": lambda tmp_path: ["gradcheck", "gr", "--seed", "-1"],
    "bench_negative_seed": lambda tmp_path: [
        "bench", "--seed", "-1", "--K", "2", "--D", "2", "--c", "1", "--repeats", "1"],
    "bench_nan_c": lambda tmp_path: ["bench", "--K", "2", "--D", "2", "--c", "nan", "--repeats", "1"],
    "bench_inf_c": lambda tmp_path: ["bench", "--K", "2", "--D", "2", "--c", "inf", "--repeats", "1"],
    "nan_lr": lambda tmp_path: ["train", "--override", "lr=nan", "--out", str(tmp_path / "out")],
    "inf_lr": lambda tmp_path: ["train", "--override", "lr=inf", "--out", str(tmp_path / "out")],
    "nan_theta_coefficient": lambda tmp_path: [
        "train", "--override", "theta_coefficient=nan", "--out", str(tmp_path / "out")],
    "inf_theta_coefficient": lambda tmp_path: [
        "train", "--override", "theta_coefficient=inf", "--out", str(tmp_path / "out")],
    "train_out_is_a_file": _file_as_out(["train"]),
    "gradcheck_out_is_a_file": _file_as_out(["gradcheck", "gr"]),
    "ablate_out_is_a_file": _file_as_out(["ablate", "theta"]),
    "bench_out_is_a_file": _file_as_out(["bench"]),
    "eval_out_is_a_file": lambda tmp_path: _file_as_out(_eval_command(tmp_path))(tmp_path),
    **{f"train_{name.replace('.', '_')}_is_a_directory": _dir_as_file(["train"], name)
       for name in ("checkpoint.wgts", "loss_curve.csv", "metrics.csv", "report.json")},
    "eval_metrics_csv_is_a_directory": lambda tmp_path: _dir_as_file(
        _eval_command(tmp_path), "metrics.csv")(tmp_path),
    "gradcheck_csv_is_a_directory": _dir_as_file(["gradcheck", "gr"], "gradcheck.csv"),
    "ablate_csv_is_a_directory": _dir_as_file(["ablate", "theta"], "ablate_theta.csv"),
    "bench_csv_is_a_directory": _dir_as_file(["bench"], "bench.csv"),
    **{f"{command[0]}_out_is_empty": _empty_out(command)
       for command in (["train"], ["gradcheck", "gr"], ["ablate", "theta"], ["bench"])},
    "eval_out_is_empty": lambda tmp_path: _eval_command(tmp_path) + ["--out", ""],
    "bool_override_not_a_bool": _bad_override("enable_gt=maybe"),
    "stages_override_not_three_numbers": _bad_override("stages=2x2"),
    "config_line_without_equals": _config_line_without_equals,
    "override_without_equals": _bad_override("C"),
    "unknown_fusion_override": _bad_override("fusion=diagonal"),
    # Each needs one array far over the budget, and is refused before any is allocated.
    "over_budget_parameter_arena": _bad_override("C=1000000"),
    "over_budget_image_stack": _bad_override("dataset_size=100000000"),
    "over_budget_confusion_matrix": lambda tmp_path: _bad_override("num_classes=20000000")(tmp_path) + [
        "--override", "C=1", "--override", "H=1", "--override", "W=1", "--override", "stages=1x1x1",
        "--override", "enable_gt=false", "--override", "enable_ba=false"],
    "over_budget_bench_relation": lambda tmp_path: ["bench", "--K", "100000", "--D", "2", "--c", "0.25"],
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_untrusted_input_exits_two_without_traceback(case, tmp_path, capsys, monkeypatch):
    """Each case is refused before the command's work, so it writes no file. It runs
    from ``tmp_path``, so an output that a relative or empty ``--out`` puts in the
    working directory lands there and fails the listing."""
    monkeypatch.chdir(tmp_path)
    argv = UNREADABLE_INPUTS[case](tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


SIZES = st.one_of(st.sampled_from([1, 2, 4, 8]), st.integers(1, 64), st.integers(1, 2 ** 40))
SIZE_FIELDS = ("C", "H", "W", "num_classes", "r_gr", "r_lr", "r_ba", "graph_depth", "dataset_size")


@st.composite
def sized_commands(draw):
    """A ``bench`` command whose K and D lists, or a ``train`` command whose size
    fields, are drawn up to 2**40; a train run takes at most one step."""
    def size_list():
        return ",".join(map(str, draw(st.lists(SIZES, min_size=1, max_size=2))))

    if draw(st.booleans()):
        return ["bench", "--K", size_list(), "--D", size_list(), "--c", "0.5", "--repeats", "1"]
    fields = draw(st.dictionaries(st.sampled_from(SIZE_FIELDS), SIZES, max_size=2))
    if draw(st.booleans()):
        fields["stages"] = ",".join("x".join(map(str, stage)) for stage in
                                    draw(st.lists(st.tuples(SIZES, SIZES, SIZES), min_size=1, max_size=2)))
    fields["steps"] = draw(st.integers(0, 1))
    return ["train"] + FAST + [arg for key, value in fields.items() for arg in ("--override", f"{key}={value}")]


@settings(max_examples=60, deadline=None)
@given(sized_commands())
def test_any_size_runs_or_exits_two_without_traceback(command):
    # A 2**12-value budget keeps every run that is let through small, and
    # lets FAST's toy config through.
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(model, "ARRAY_BUDGET", 2 ** 12)
        assert main(command + ["--out", out]) in (0, 2)


class TestSubprocessEntry:
    def test_module_invocation(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "wingraph", "gradcheck", "graph"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("op,max_rel_err,samples")
