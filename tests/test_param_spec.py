"""The parameter spec table: one (name, shape, init std) row per parameter.

``param_spec(config)`` is the only place a model's parameters are defined.
These tests check it against the built model, the closed-form counts and
the per-module ``rng.normal`` draws that built models before the table.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wingraph.boundary import LOCAL_KERNEL, BAParams
from wingraph.model import (
    SegmenterConfig,
    WindowAttention,
    baseline_param_count,
    build_model,
    model_param_count,
    param_spec,
)
from wingraph.relation import FusionType, RelationParams

SCALES = {"toy": dict(C=16, H=8, W=8, stages=((2, 2, 2), (2, 2, 2))),
          "medium": dict(C=32, H=32, W=32, stages=((2, 4, 4), (2, 4, 4)))}
FLAGS = [(True, True), (True, False), (False, True), (False, False)]


def reference_arena(config: SegmenterConfig) -> np.ndarray:
    """Every parameter drawn as its module drew it before the spec table: one
    ``rng.normal`` call per weight from the config seed, zeros for the
    unsqueeze weights, concatenated in ``parameters()`` order."""
    rng = np.random.default_rng(config.seed)
    c = config.C
    parts = [rng.normal(0.0, 3 ** -0.5, (c, 3, 1, 1))]
    for blocks, m, n in config.stages:
        for _ in range(3 * blocks):
            parts.append(rng.normal(0.0, 1.0 / c, (c, c)))
        if config.enable_gt:
            for ratio, pixels in ((config.r_gr, (config.H // m) * (config.W // n)), (config.r_lr, 1)):
                c_sq = c // ratio
                dim = c_sq * pixels
                parts += [rng.normal(0.0, c ** -0.5, (c_sq, c, 1, 1)), np.zeros((c, c_sq, 1, 1))]
                parts += [rng.normal(0.0, dim ** -0.5, (dim, dim)) for _ in range(config.graph_depth)]
    if config.enable_ba:
        c_sq = c // config.r_ba
        parts += [rng.normal(0.0, c ** -0.5, (c_sq, c, 1, 1)),
                  rng.normal(0.0, (LOCAL_KERNEL ** 2 * c_sq) ** -0.5, (c_sq, c_sq, LOCAL_KERNEL, LOCAL_KERNEL)),
                  np.zeros((c, c_sq, 1, 1))]
    parts.append(rng.normal(0.0, c ** -0.5, (config.num_classes, c, 1, 1)))
    return np.concatenate([p.reshape(-1) for p in parts])


def module_rows(model) -> dict:
    """Each module attribute's parameter, keyed by the name its place in the model gives it."""
    rows = {"stem": model.stem, "head": model.head}
    for s, stage in enumerate(model.stages):
        for b, block in enumerate(stage.attention):
            rows.update({f"stage{s}.attn{b}.{w}": getattr(block, w) for w in ("wq", "wk", "wv")})
        for branch in ("gr", "lr") if stage.gr is not None else ():
            params = getattr(stage, branch)
            prefix = f"stage{s}.gt.{branch}"
            rows.update({f"{prefix}.squeeze": params.squeeze, f"{prefix}.unsqueeze": params.unsqueeze})
            rows.update({f"{prefix}.graph{l}": w for l, w in enumerate(params.graph)})
    if model.ba is not None:
        rows.update({f"ba.{w}": getattr(model.ba, w) for w in ("squeeze", "local", "unsqueeze")})
    return rows


@settings(max_examples=60, deadline=None)
@given(scale=st.sampled_from(sorted(SCALES)), variant=st.sampled_from(["softmax", "cosine"]),
       fusion=st.sampled_from(list(FusionType)), flags=st.sampled_from(FLAGS),
       depth=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_spec_matches_model_counts_and_reference_draws(scale, variant, fusion, flags, depth, seed):
    config = SegmenterConfig(**SCALES[scale], relation_variant=variant, fusion=fusion,
                             enable_gt=flags[0], enable_ba=flags[1], graph_depth=depth, seed=seed)
    spec = param_spec(config)
    model = build_model(config)
    names = [name for name, _, _ in spec]
    assert len(set(names)) == len(names)
    assert names == list(model.parameters())
    assert [shape for _, shape, _ in spec] == [p.shape for p in model.parameters().values()]
    total = sum(int(np.prod(shape)) for _, shape, _ in spec)
    assert total == model.param_count() == model_param_count(config)
    if flags == (False, False):
        assert total == baseline_param_count(config)
    rows = module_rows(model)
    assert sorted(rows) == sorted(names)
    assert all(p.name == name for name, p in rows.items())
    assert model.arena.tobytes() == reference_arena(config).tobytes()


def test_standalone_modules_own_their_rows_and_draw_as_a_model_does():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    block = WindowAttention.create(4, rng, "attn")
    gr = RelationParams.create(4, 2, 4, 2, rng, "gr")
    ba = BAParams.create(4, 2, rng, "ba")
    expected = [ref.normal(0.0, 0.25, (4, 4)) for _ in range(3)]
    expected += [ref.normal(0.0, 0.5, (2, 4, 1, 1)), np.zeros((4, 2, 1, 1))]
    expected += [ref.normal(0.0, 8 ** -0.5, (8, 8)) for _ in range(2)]
    expected += [ref.normal(0.0, 0.5, (2, 4, 1, 1)), ref.normal(0.0, 98 ** -0.5, (2, 2, 7, 7)),
                 np.zeros((4, 2, 1, 1))]
    params = block.named_parameters() + gr.named_parameters() + ba.named_parameters()
    assert [p.data.tobytes() for p in params] == [e.tobytes() for e in expected]
    assert [p.name for p in gr.named_parameters()] == ["gr.squeeze", "gr.unsqueeze", "gr.graph0", "gr.graph1"]

    view = gr.unsqueeze.data
    gr.unsqueeze.data = np.ones(view.shape)
    gr.unsqueeze.grad = None
    assert gr.unsqueeze.data is view and (view == 1.0).all() and not gr.unsqueeze.grad.any()
    assert np.shares_memory(gr.unsqueeze.data, gr.squeeze.data.base)


def test_spec_needs_no_model_and_marks_zero_rows():
    config = dataclasses.replace(SegmenterConfig(), graph_depth=2)
    zero_rows = [name for name, _, std in param_spec(config) if std == 0.0]
    assert zero_rows == ["stage0.gt.gr.unsqueeze", "stage0.gt.lr.unsqueeze",
                         "stage1.gt.gr.unsqueeze", "stage1.gt.lr.unsqueeze", "ba.unsqueeze"]
