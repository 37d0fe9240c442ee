"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The soft trend criteria (7 and 8) train 15 small
models for 2000 steps each, two at a time, and take about a minute;
everything else is fast.
"""

import dataclasses
import multiprocessing
import time

import numpy as np
import pytest

from wingraph.boundary import BAParams, ba_apply, ba_coefficients
from wingraph.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from wingraph.data import synth_dataset
from wingraph.gradcheck import TOLERANCE, run_gradcheck
from wingraph.graph import make_theta, node_update, node_update_sparse, relation_cosine, relation_softmax, sparsify
from wingraph.metrics import boundary_band_accuracy, evaluate_miou, miou, predictions
from wingraph.model import ConfigError, SegmenterConfig, build_model, baseline_param_count, model_param_count
from wingraph.relation import FusionType, RelationParams, graph_transformer_block
from wingraph.tensor import Tensor
from wingraph.train import train
from wingraph.windows import WindowGrid

GRADCHECK_SEEDS = [0, 1, 2, 3, 4]
TREND_SEEDS = [0, 1, 2, 3, 4]

# protocol for the soft trend criteria: enough samples that extra capacity
# generalises instead of memorising noise, and a stable step size
TREND = dict(dataset="blobs", train_size=64, eval_size=16, steps=2000, lr=0.05)

# mIoU here lives in [0, 1]; "0.5 mIoU points" on the usual 0-100 scale
NON_INFERIORITY = 0.005


def _report(num: int, text: str) -> None:
    print(f"\n[criterion {num:02d}] PASS - {text}")


# (label, enable_gt, enable_ba), longest training first so the pool's last
# jobs are its shortest
TREND_LABELS = (("gtba", True, True), ("ba", False, True), ("baseline", False, False))


def _trend_run(job):
    label, enable_gt, enable_ba, seed = job
    train_set = synth_dataset(TREND["dataset"], TREND["train_size"], 8, 8, 3, seed)
    eval_set = synth_dataset(TREND["dataset"], TREND["eval_size"], 8, 8, 3, seed + 1000)
    config = SegmenterConfig(seed=seed, dataset=TREND["dataset"],
                             enable_gt=enable_gt, enable_ba=enable_ba,
                             steps=TREND["steps"], lr=TREND["lr"])
    model = build_model(config)
    train(model, train_set, TREND["steps"], TREND["lr"])
    pred, labels = predictions(model, eval_set)
    return (label, seed), {
        "miou": miou(pred, labels, config.num_classes).mean,
        "boundary": boundary_band_accuracy(pred, labels, band=1),
    }


@pytest.fixture(scope="module")
def trend_runs():
    """Train baseline / BA-only / GT+BA models for every trend seed, two at a time.

    Each run is a pure function of its seed and label, so the figures do not
    depend on which worker trains it."""
    jobs = [(label, gt, ba, seed) for label, gt, ba in TREND_LABELS for seed in TREND_SEEDS]
    # spawn, not fork: numpy's BLAS has started a thread in this process
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        return dict(pool.map(_trend_run, jobs, chunksize=1))


def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    results = run_gradcheck("all", GRADCHECK_SEEDS)
    elapsed = time.perf_counter() - start
    worst = max(results, key=lambda r: r.max_rel_err)
    for result in results:
        assert result.max_rel_err < TOLERANCE, f"{result.op}: {result.max_rel_err:.3e}"
    assert elapsed < 120.0, f"gradcheck all took {elapsed:.1f}s"
    _report(1, f"gradcheck all over {len(GRADCHECK_SEEDS)} seeds: {len(results)} ops, "
               f"worst {worst.op} at {worst.max_rel_err:.2e} < 1e-4, {elapsed:.1f}s < 120s")


def test_criterion_02_sparse_dense_oracle():
    points = 0
    for k in (2, 4, 8, 16):
        for d in (2, 8, 32):
            for c in (2.0, 1.0, 0.5, 0.25, 0.125):
                rng = np.random.default_rng(1000 * k + 10 * d + int(8 * c))
                nodes = Tensor(rng.uniform(-1, 1, (k, d)))
                rel = relation_softmax(nodes)
                pruned = sparsify(rel, make_theta(rel.values, c))
                dense = node_update(pruned, nodes).data
                sparse = node_update_sparse(pruned, nodes.data)
                assert np.abs(dense - sparse).max() == 0.0, (k, d, c)
                points += 1
    _report(2, f"sparse path == dense masked product, max |diff| 0.0 at all {points} grid points")


def test_criterion_03_relation_invariants():
    rng = np.random.default_rng(42)
    trials = 1000
    for _ in range(trials):
        k = int(rng.integers(1, 10))
        d = int(rng.integers(1, 9))
        nodes = Tensor(rng.normal(0, 1, (k, d)))

        cos = relation_cosine(nodes).values.data
        assert np.abs(cos - cos.T).max() < 1e-12
        assert np.array_equal(np.diagonal(cos), np.ones(k))
        assert (cos >= -1.0).all() and (cos <= 1.0).all()

        soft = relation_softmax(nodes)
        assert np.abs(soft.values.data.sum(axis=1) - 1.0).max() < 1e-9

        theta_lo = make_theta(soft.values, float(rng.uniform(0.0, 1.0)))
        theta_hi = theta_lo + float(rng.uniform(0.0, 0.5))
        once = sparsify(soft, theta_lo)
        twice = sparsify(once, theta_lo)
        assert np.array_equal(once.values.data, twice.values.data)
        assert once.kept_edges() >= sparsify(soft, theta_hi).kept_edges()
    _report(3, f"{trials} randomized trials: cosine symmetric/unit-diagonal/bounded, "
               f"softmax row-stochastic within 1e-9, sparsify idempotent and monotone")


def test_criterion_04_zero_init_identity():
    rng = np.random.default_rng(7)
    c, h, w = 8, 8, 8
    grid = WindowGrid(c, h, w, 2, 2)
    x = Tensor(rng.uniform(-1, 1, (c, h, w)))
    gr = RelationParams.create(c, 4, grid.h_w * grid.w_w, 1, rng, "gr")
    lr = RelationParams.create(c, 4, 1, 1, rng, "lr")
    for fusion in FusionType:
        out = graph_transformer_block(x, grid, gr, lr, fusion)
        assert np.array_equal(out.data, x.data), fusion

    ba = BAParams.create(c, 4, rng, "ba")
    y = Tensor(rng.uniform(-1, 1, (c, h, w)))
    coeffs = ba_coefficients(y, ba)
    assert np.array_equal(coeffs.data, np.full((c, h, w), 0.5))
    assert np.array_equal(ba_apply(y, ba).data, y.data * 0.5)
    _report(4, "all three zero-init fusions return x exactly; zero-init gate "
               "yields coefficients 0.5 and output y/2 exactly")


def _ablation_grid():
    base = SegmenterConfig()
    configs = [dataclasses.replace(base, theta_coefficient=c)
               for c in (2.0, 1.0, 0.5, 0.25, 0.125)]
    wide = dataclasses.replace(base, C=32)
    configs += [dataclasses.replace(wide, r_gr=r, r_lr=r) for r in (2, 4, 8, 16, 32)]
    configs += [dataclasses.replace(base, fusion=f) for f in FusionType]
    configs += [dataclasses.replace(base, enable_gt=gt, enable_ba=ba)
                for gt in (False, True) for ba in (False, True)]
    return configs


def test_criterion_05_param_count_oracle():
    configs = _ablation_grid()
    for config in configs:
        assert build_model(config).param_count() == model_param_count(config), config

    toy = SegmenterConfig()
    full = model_param_count(toy)
    base = baseline_param_count(toy)
    overhead = (full - base) / base
    assert overhead < 0.30, f"GT+BA overhead {overhead:.1%}"
    _report(5, f"parameter counts match closed forms for all {len(configs)} ablation "
               f"configs; toy GT+BA overhead {overhead:.1%} < 30%")


def test_criterion_06_overfit_sanity():
    config = SegmenterConfig()  # C=16, two stages, 2x2 windows, 3 classes
    assert config.C == 16 and len(config.stages) == 2
    assert all((m, n) == (2, 2) for _, m, n in config.stages)
    assert config.num_classes == 3

    start = time.perf_counter()
    model = build_model(config)
    batch = synth_dataset("stripes", 1, config.H, config.W, config.num_classes, config.seed)
    report = train(model, batch, steps=500, lr=config.lr)
    elapsed = time.perf_counter() - start
    assert report.final_pixel_accuracy >= 0.99, report.final_pixel_accuracy
    assert elapsed < 300.0, f"overfit took {elapsed:.1f}s"
    _report(6, f"default toy model reached {report.final_pixel_accuracy:.3f} pixel accuracy "
               f"on one fixed batch in 500 steps ({elapsed:.1f}s < 5min)")


def test_criterion_07_ablation_trend(trend_runs):
    base = float(np.mean([trend_runs[("baseline", s)]["miou"] for s in TREND_SEEDS]))
    gtba = float(np.mean([trend_runs[("gtba", s)]["miou"] for s in TREND_SEEDS]))
    assert gtba >= base - NON_INFERIORITY, f"gtba {gtba:.4f} vs baseline {base:.4f}"
    _report(7, f"5-seed mean mIoU on blobs: GT+BA {gtba:.4f} vs baseline {base:.4f} "
               f"(non-inferiority margin {NON_INFERIORITY})")


def test_criterion_08_boundary_proxy(trend_runs):
    base = float(np.mean([trend_runs[("baseline", s)]["boundary"] for s in TREND_SEEDS]))
    ba = float(np.mean([trend_runs[("ba", s)]["boundary"] for s in TREND_SEEDS]))
    assert ba >= base - NON_INFERIORITY, f"ba {ba:.4f} vs baseline {base:.4f}"
    _report(8, f"5-seed mean boundary-band accuracy (band=1): BA {ba:.4f} vs "
               f"no-BA {base:.4f} (non-inferiority margin {NON_INFERIORITY})")


def test_criterion_09_miou_unit_cases():
    target = np.array([[0, 0], [1, 1]])
    assert miou(target, target, 2).mean == 1.0
    assert miou(1 - target, target, 2).mean == 0.0
    hand = miou(np.array([[0, 1], [1, 1]]), target, 2)
    assert hand.per_class == [0.5, 2.0 / 3.0]
    assert hand.mean == (0.5 + 2.0 / 3.0) / 2.0
    _report(9, "mIoU unit cases exact: perfect 1.0, complement 0.0, hand matrix 7/12")


def test_criterion_10_checkpoint_roundtrip(tmp_path):
    config = SegmenterConfig(C=4, H=4, W=4, stages=((1, 2, 2),), num_classes=2,
                             r_gr=2, r_lr=2, r_ba=2)
    model = build_model(config)
    dataset = synth_dataset("stripes", 2, 4, 4, 2, 0)
    train(model, dataset, steps=10, lr=0.1)
    path = tmp_path / "model.wgts"
    save_checkpoint(model, path)

    before = evaluate_miou(model, dataset)
    after = evaluate_miou(load_checkpoint(path, config), dataset)
    assert before.mean == after.mean
    assert np.array_equal(before.confusion, after.confusion)

    raw = path.read_bytes()
    bad_magic = tmp_path / "magic.wgts"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad_magic, config)

    short = tmp_path / "short.wgts"
    short.write_bytes(raw[:-10])
    with pytest.raises(CheckpointError, match="truncated blob"):
        load_checkpoint(short, config)

    with pytest.raises(ConfigError, match="enable_gt = false given, enable_gt = true stored"):
        load_checkpoint(path, dataclasses.replace(config, enable_gt=False))
    _report(10, "save->load->evaluate bit-exact; bad magic, truncated blob and "
                "a config other than the stored one all rejected with the declared errors")
