"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``; the
run-based tests call ``run.py`` as the benchmark driver would, with short
windows, and take a few minutes.
"""

from __future__ import annotations

import fnmatch
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SEED = 7
HELD_OUT_SEED = 20231
SECONDS = "1"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Metrics the benchmark promises, with their units.
END_TO_END_UNITS = {
    "setup_s": "s", "step_ms_p50": "ms", "train_samples_per_s": "1/s",
    "predict_ms_p50": "ms", "peak_rss_mb": "MB",
}
INFO_UNITS = {"eval_images_per_s": "1/s", "step_ms_tail": "ms", "predict_ms_tail": "ms",
              "final_loss": "nats",
              "final_pixel_accuracy": "frac", "eval_miou": "frac", "eval_boundary_acc": "frac",
              "failed_frac": "frac"}
SCOPES = ["stem", "ba", "head", "loss"] + [f"stage{s}.{part}" for s in (0, 1)
                                          for part in ("attn0", "attn1", "gt.gr", "gt.lr")]
PER_LAYER_UNITS = {f"{s}.{k}": u for s in SCOPES
                   for k, u in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("tape_ops", "count"))}
PER_LAYER_UNITS.update({
    "step.zero_grad_ms": "ms", "step.forward_ms": "ms", "step.backward_ms": "ms",
    "step.update_ms": "ms", "step.tape_ops": "count", "data.synth_ms": "ms",
    "model.build_ms": "ms", "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes", "trace.step_ms": "ms", "trace.overhead_frac": "frac",
})
TAPE_OPS = {"train_toy": 391, "train_medium": 1279}


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_benchmark_json_meets_the_contract():
    b = spec.benchmark_json()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert b["paths"] == ["perfbench"] and (ROOT / "perfbench").is_dir()
    assert 1 <= b["run_seconds"] <= 60
    assert 2 <= len(b["workloads"]) <= 8
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(b["end_to_end"]) <= 16 and 1 <= len(b["per_layer"]) <= 128
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [w["name"] for w in b["workloads"]]
    assert len(names) == len(set(names))
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in b["end_to_end"] + b["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert len(json.dumps(b)) < 64 * 1024


def test_every_named_metric_has_its_unit():
    assert {m.name: m.unit for m in spec.END_TO_END} == END_TO_END_UNITS
    assert {m.name: m.unit for m in spec.INFO} == INFO_UNITS
    assert {m.name: m.unit for m in spec.PER_LAYER} == PER_LAYER_UNITS


def test_layer_effects_cover_every_layer_metric():
    e2e = {m.name for m in spec.END_TO_END}
    for effect in spec.LAYER_EFFECTS:
        assert set(effect.moves) <= e2e, effect
        assert set(effect.workloads) | set(effect.unmoved) <= set(spec.WORKLOADS), effect
        assert any(fnmatch.fnmatchcase(m.name, effect.layer) for m in spec.PER_LAYER), effect
    for m in spec.PER_LAYER:
        assert any(fnmatch.fnmatchcase(m.name, e.layer) for e in spec.LAYER_EFFECTS), m.name


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("REPORT "))[len("REPORT "):])
    return report, json.loads(lines[-1])


@pytest.fixture(scope="session")
def runs():
    """(workload, seed, trace, repeat) -> (report, result), run lazily once."""
    cache = {}

    def get(workload, seed, trace, repeat=0):
        key = (workload, seed, trace, repeat)
        if key not in cache:
            proc = run_bench(workload, seed, trace)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
            cache[key] = parse(proc)
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_run_reports_every_metric_and_passes_its_checks(runs, workload, trace):
    report, result = runs(workload, SEED, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
    if not trace:
        for name in END_TO_END_UNITS:
            assert result["metrics"][name]["value"] > 0, name
        for name, unit in INFO_UNITS.items():
            assert report["units"][name] == unit and report["metrics"][name] is not None
        assert report["metrics"]["failed_frac"] == 0
        assert set(report["tail_percentile"]) == {"step_ms", "predict_ms"}
    for key in ("python", "numpy", "openblas_threads", "nproc"):
        assert key in report["env"]
    assert int(report["env"]["openblas_threads"]) <= report["env"]["nproc"]


@pytest.mark.parametrize("workload", sorted(TAPE_OPS))
def test_step_tape_ops_match_the_roadmap_counts(runs, workload):
    _, result = runs(workload, SEED, 1)
    assert result["metrics"]["step.tape_ops"]["value"] == TAPE_OPS[workload]


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_same_seed_gives_identical_non_timing_fields(runs, workload):
    for trace in (0, 1):
        a, _ = runs(workload, SEED, trace)
        b, _ = runs(workload, SEED, trace, repeat=1)
        fields = [f for f in spec.DETERMINISTIC if f in a["metrics"]]
        assert fields, trace
        assert {f: a["metrics"][f] for f in fields} == {f: b["metrics"][f] for f in fields}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_held_out_seed_runs_clean(runs, workload, trace):
    _, result = runs(workload, HELD_OUT_SEED, trace)
    assert result["correct"] is True and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("train_toy", SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
