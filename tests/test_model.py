"""Model assembly: validation, determinism, parameter-count closed forms."""

import dataclasses

import numpy as np
import pytest

from wingraph import model as model_module
from wingraph.checkpoint import load_checkpoint, save_checkpoint
from wingraph.model import (
    ConfigError,
    Segmenter,
    SegmenterConfig,
    baseline_param_count,
    build_model,
    model_param_count,
)
from wingraph.data import synth_dataset
from wingraph.relation import FusionType
from wingraph.tensor import Tensor, backward, cross_entropy_logits
from wingraph.train import train

TOY = SegmenterConfig(C=4, H=4, W=4, stages=((1, 2, 2),), num_classes=2,
                      r_gr=2, r_lr=2, r_ba=2, dataset_size=2, steps=5)


class TestConfigValidation:
    def test_default_config_is_valid(self):
        SegmenterConfig()

    @pytest.mark.parametrize("field,value,message", [
        ("C", 0, "C must be positive"),
        ("stages", (), "stages must not be empty"),
        ("stages", ((1, 3, 2),), "M=3 does not divide H"),
        ("stages", ((1, 2, 3),), "N=3 does not divide W"),
        ("stages", ((0, 2, 2),), "block count"),
        ("num_classes", 1, "num_classes"),
        ("r_gr", 3, "r_gr=3 does not divide"),
        ("r_lr", 5, "r_lr=5 does not divide"),
        ("r_ba", 7, "r_ba=7 does not divide"),
        ("graph_depth", 0, "graph_depth"),
        ("relation_variant", "euclid", "relation_variant"),
        ("dataset", "mnist", "dataset"),
        ("dataset_size", 0, "dataset_size"),
        ("steps", -1, "steps"),
        ("lr", 0.0, "lr"),
        ("fusion", "gr_then_lr", "fusion"),
    ])
    def test_named_constraint_failures(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(SegmenterConfig(), **{field: value})

    def test_ratio_checks_skipped_when_modules_disabled(self):
        dataclasses.replace(SegmenterConfig(), C=6, r_gr=4, r_lr=4, r_ba=4,
                            enable_gt=False, enable_ba=False)

    def test_invalid_config_cannot_be_made(self):
        # Construction and dataclasses.replace both run the checks, so no
        # invalid config reaches param_spec or model_param_count.
        with pytest.raises(ConfigError, match=r"^r_gr=3 does not divide C=16$"):
            SegmenterConfig(r_gr=3)
        with pytest.raises(ConfigError, match=r"^C must be positive, got 0$"):
            dataclasses.replace(SegmenterConfig(), C=0)

    def test_built_model_config_is_frozen(self):
        # The checks run once, at construction, so a model's config must not
        # be able to change under its arena.  A copy of TOY keeps a failure
        # here from reaching the other tests.
        model = build_model(dataclasses.replace(TOY))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.config.C = 8
        assert model.config.C == 4


class TestArrayBudget:
    # Each row is over the 2**27-value budget in exactly the array it names
    # and far under it in every other, so only the closed forms are compared.
    @pytest.mark.parametrize("fields,term", [
        (dict(C=10 ** 6), "parameter arena"),
        (dict(dataset_size=10 ** 8), "image stack"),
        (dict(H=4096, W=4096, stages=((1, 4096, 4096),), dataset_size=1,
              enable_gt=False, enable_ba=False), "feature map"),
        (dict(C=1, H=4096, W=4096, stages=((1, 4096, 4096),), num_classes=10, dataset_size=1,
              enable_gt=False, enable_ba=False), "logits"),
        (dict(C=1, H=1, W=1, stages=((1, 1, 1),), num_classes=20000,
              enable_gt=False, enable_ba=False), "confusion matrix"),
        (dict(H=128, W=128, stages=((1, 1, 1),), enable_gt=False), "stage 0 attention scores"),
        (dict(H=128, W=128, stages=((1, 128, 128),)), "stage 0 global relation"),
        (dict(r_ba=1, H=2048, W=2048, stages=((1, 2048, 2048),), dataset_size=1,
              enable_gt=False), "boundary gate patches"),
    ])
    def test_over_budget_array_is_named(self, fields, term):
        with pytest.raises(ConfigError, match=rf"^{term} .* values; the budget is 134217728 per array$"):
            SegmenterConfig(**fields)

    # An 8x8 sample is 192 values; with the budget at 1000 of them the image
    # stack is the config's largest array.
    def test_at_the_budget_is_allowed(self, monkeypatch):
        monkeypatch.setattr(model_module, "ARRAY_BUDGET", 192 * 1000)
        assert SegmenterConfig(dataset_size=1000).dataset_size == 1000

    def test_just_over_the_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(model_module, "ARRAY_BUDGET", 192 * 1000)
        with pytest.raises(ConfigError, match=r"^image stack \(dataset_size\*3\*H\*W\) needs 192192 values; "
                                              r"the budget is 192000 per array$"):
            SegmenterConfig(dataset_size=1001)


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = build_model(TOY)
        b = build_model(TOY)
        for name, p in a.parameters().items():
            assert np.array_equal(p.data, b.parameters()[name].data), name

    def test_different_seed_differs(self):
        a = build_model(TOY)
        b = build_model(dataclasses.replace(TOY, seed=1))
        assert any(not np.array_equal(p.data, b.parameters()[n].data)
                   for n, p in a.parameters().items())

    def test_parameter_names_unique_and_ordered(self):
        model = build_model(TOY)
        names = list(model.parameters())
        assert len(names) == len(set(names))
        assert names[0] == "stem" and names[-1] == "head"

    def test_baseline_param_count_closed_form(self):
        config = dataclasses.replace(TOY, enable_gt=False, enable_ba=False)
        model = build_model(config)
        # stem 3*4 + one attention block 3*16 + head 4*2
        assert baseline_param_count(config) == 12 + 48 + 8
        assert model.param_count() == baseline_param_count(config)

    def test_full_param_count_closed_form(self):
        for flags in [(False, False), (True, False), (False, True), (True, True)]:
            config = dataclasses.replace(TOY, enable_gt=flags[0], enable_ba=flags[1])
            assert build_model(config).param_count() == model_param_count(config)

    def test_enabling_modules_strictly_increases_count(self):
        base = build_model(dataclasses.replace(TOY, enable_gt=False, enable_ba=False))
        gt = build_model(dataclasses.replace(TOY, enable_gt=True, enable_ba=False))
        both = build_model(dataclasses.replace(TOY, enable_gt=True, enable_ba=True))
        assert base.param_count() < gt.param_count() < both.param_count()

    def test_invalid_config_raises_before_building(self):
        with pytest.raises(ConfigError):
            build_model(dataclasses.replace(TOY, r_gr=3))


class TestForward:
    def test_logit_shape(self):
        model = build_model(TOY)
        image = synth_dataset("stripes", 1, 4, 4, 2, 0)[0][0]
        assert model.forward(image).shape == (2, 4, 4)

    def test_rejects_wrong_image_shape(self):
        model = build_model(TOY)
        from wingraph.tensor import Tensor
        with pytest.raises(ValueError, match="expects"):
            model.forward(Tensor(np.zeros((3, 8, 8))))

    def test_forward_is_finite(self):
        model = build_model(dataclasses.replace(TOY, seed=3))
        for image, _ in synth_dataset("blobs", 3, 4, 4, 2, 5):
            assert np.isfinite(model.forward(image).data).all()

    def test_forward_deterministic(self):
        model = build_model(TOY)
        image = synth_dataset("checker", 1, 4, 4, 2, 1)[0][0]
        assert np.array_equal(model.forward(image).data, model.forward(image).data)

    def test_all_fusions_run(self):
        image = synth_dataset("stripes", 1, 4, 4, 2, 0)[0][0]
        for fusion in FusionType:
            model = build_model(dataclasses.replace(TOY, fusion=fusion))
            assert model.forward(image).shape == (2, 4, 4)


def tape_ops(out) -> int:
    """Op nodes (``_backward is not None``) reachable from ``out``."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


class TestTapeSize:
    # The benchmark's toy and medium training scales: windows are one stack
    # axis, so the tape does not grow with the window count, and each module
    # scope is one op, whatever the relation.  Per stage: 2 attention blocks
    # and the 2 graph branches; then stem, the boundary gate, head and loss:
    # 2 * (2 + 2) + 4 = 12.  Parallel fusion records both branches as one
    # op: 2 * (2 + 1) + 4 = 10.
    @pytest.mark.parametrize("variant", ["softmax", "cosine"])
    @pytest.mark.parametrize("scale", [
        dict(C=16, H=8, W=8, stages=((2, 2, 2), (2, 2, 2))),
        dict(C=32, H=32, W=32, stages=((2, 4, 4), (2, 4, 4))),
    ], ids=["toy", "medium"])
    @pytest.mark.parametrize("fusion,ops", [(FusionType.GR_THEN_LR, 12), (FusionType.PARALLEL, 10)],
                             ids=["series", "parallel"])
    def test_training_loss_records_one_op_per_scope(self, scale, variant, fusion, ops):
        config = SegmenterConfig(**scale, relation_variant=variant, fusion=fusion)
        image, labels = synth_dataset("blobs", 1, config.H, config.W, config.num_classes, 0)[0]
        loss = cross_entropy_logits(build_model(config).forward(image), labels)
        assert tape_ops(loss) == ops


class TestTapeFreePredict:
    @staticmethod
    def build(variant, fusion, enable_gt, enable_ba):
        config = dataclasses.replace(TOY, relation_variant=variant, fusion=fusion,
                                     enable_gt=enable_gt, enable_ba=enable_ba)
        model = build_model(config)
        rng = np.random.default_rng(11)
        for name, p in model.parameters().items():
            if name.endswith(".unsqueeze"):
                p.data = rng.normal(0.0, 0.5, p.shape)
        return model

    @staticmethod
    def step_grads(model, image, labels) -> dict:
        model.zero_grad()
        backward(cross_entropy_logits(model.forward(image), labels))
        grads = {name: p.grad.tobytes() for name, p in model.parameters().items()}
        for p in model.parameters().values():
            p.data -= 0.1 * p.grad
        return grads

    @pytest.mark.parametrize("enable_gt,enable_ba", [(True, True), (True, False), (False, True)],
                             ids=["gt_ba", "gt", "ba"])
    @pytest.mark.parametrize("fusion", list(FusionType), ids=lambda f: f.value)
    @pytest.mark.parametrize("variant", ["softmax", "cosine"])
    def test_predict_records_no_tape_and_keeps_training_exact(
            self, monkeypatch, variant, fusion, enable_gt, enable_ba):
        model = self.build(variant, fusion, enable_gt, enable_ba)
        (image, labels), (image2, labels2) = synth_dataset("blobs", 2, 4, 4, 2, 3)

        created = []
        init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        pred = model.predict(image)
        monkeypatch.undo()
        assert created
        assert all(t._parents == () and t._backward is None for t in created)
        assert pred.tobytes() == model.forward(image).data.argmax(axis=0).tobytes()

        with pytest.raises(ValueError, match="expects"):
            model.predict(Tensor(np.zeros((3, 5, 4))))
        assert all(p.requires_grad for p in model.parameters().values())

        fresh = self.build(variant, fusion, enable_gt, enable_ba)
        assert self.step_grads(model, image2, labels2) == self.step_grads(fresh, image2, labels2)
        model.predict(image)
        assert self.step_grads(model, image, labels) == self.step_grads(fresh, image, labels)


def assert_in_arenas(model) -> None:
    """Every parameter's data and grad are its C-contiguous slices of the arenas."""
    start = 0
    for name, p in model.parameters().items():
        stop = start + p.data.size
        for held, arena in ((p.data, model.arena), (p.grad, model.grad_arena)):
            assert held.flags.c_contiguous and held.shape == p.shape, name
            assert np.shares_memory(held, arena[start:stop]), name
        start = stop
    assert start == model.arena.size == model.grad_arena.size == model.param_count()


class TestParameterArena:
    """Each model parameter stays a view into its model's two arenas."""

    def test_build_lays_parameters_out_in_order(self):
        model = build_model(TOY)
        assert_in_arenas(model)
        assert model.arena.tobytes() == b"".join(p.data.tobytes() for p in model.parameters().values())
        assert not model.grad_arena.any()

    def test_train_keeps_views_and_updates_through_them(self):
        model = build_model(TOY)
        before = model.arena.copy()
        train(model, synth_dataset("stripes", 2, 4, 4, 2, 0), steps=3, lr=0.1)
        assert_in_arenas(model)
        assert not np.array_equal(model.arena, before)

    def test_given_arena_is_taken_over_without_draws(self):
        values = np.arange(model_param_count(TOY), dtype=np.float64)
        model = Segmenter(TOY, values)
        assert model.arena is values
        assert model.arena.tobytes() == np.arange(values.size, dtype=np.float64).tobytes()
        assert_in_arenas(model)
        for bad in (values[:-1], values.astype(np.float32)):
            with pytest.raises(ValueError, match="arena must be"):
                Segmenter(TOY, bad)

    def test_checkpoint_loads_into_the_arena_and_trains(self, tmp_path):
        trained = build_model(TOY)
        dataset = synth_dataset("stripes", 2, 4, 4, 2, 0)
        train(trained, dataset, steps=3, lr=0.1)
        save_checkpoint(trained, tmp_path / "m.wgts")
        loaded = load_checkpoint(tmp_path / "m.wgts", TOY)
        assert_in_arenas(loaded)
        assert loaded.arena.tobytes() == trained.arena.tobytes()

        train(loaded, dataset, steps=3, lr=0.1)
        assert_in_arenas(loaded)
        unchanged = [n for n, p in loaded.parameters().items()
                     if np.array_equal(p.data, trained.parameters()[n].data)]
        assert unchanged == []

    def test_assignment_writes_into_the_view(self):
        model = build_model(TOY)
        head = model.parameters()["head"]
        view = head.data
        head.data = np.full(head.shape, 2.5)
        head.grad = np.full(head.shape, -1.0)
        assert head.data is view and (view == 2.5).all() and (head.grad == -1.0).all()
        assert_in_arenas(model)
        head.grad = None
        assert not model.grad_arena.any()
        assert_in_arenas(model)

    def test_wrong_shape_assignment_raises(self):
        model = build_model(TOY)
        head = model.parameters()["head"]
        before = model.arena.copy()
        for bad in (np.zeros(head.data.size), np.zeros(head.shape + (1,)), 0.0):
            with pytest.raises(ValueError, match="head: data has shape"):
                head.data = bad
            with pytest.raises(ValueError, match="head: grad has shape"):
                head.grad = bad
        assert model.arena.tobytes() == before.tobytes()
        assert_in_arenas(model)

    def test_zero_grad_after_a_parameter_zero_grad(self):
        model = build_model(TOY)
        image, labels = synth_dataset("stripes", 1, 4, 4, 2, 0)[0]
        backward(cross_entropy_logits(model.forward(image), labels))
        assert model.grad_arena.any()
        for p in model.parameters().values():
            p.zero_grad()
        assert_in_arenas(model)
        assert not model.grad_arena.any()
        backward(cross_entropy_logits(model.forward(image), labels))
        model.zero_grad()
        assert_in_arenas(model)
        assert not model.grad_arena.any()
