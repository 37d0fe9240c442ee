"""Toy windowed segmentation model.

Structure: a 1x1 stem lifts the 3-channel image to C feature channels;
each stage runs a few plain window self-attention blocks and, when
enabled, one graph relation block; a boundary-attention gate (when
enabled) reweighs the final features; a 1x1 classifier produces per-pixel
logits.  Spatial size never changes, no convolution carries a bias, and
every weight is drawn deterministically from the config seed.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .boundary import LOCAL_KERNEL, BAParams, ba_apply, ba_param_count
from .data import DATASET_KINDS
from .graph import GraphConfig, _VARIANTS
from .relation import (
    FusionType,
    RelationParams,
    graph_transformer_block,
    gt_param_count,
)
from .tensor import (
    Parameter,
    SpecRow,
    Tensor,
    _matmul_data,
    _matmul_grads,
    _op,
    _softmax_data,
    _softmax_grad,
    conv2d,
    draw_parameters,
)
from .windows import WindowGrid, _check_map, _layout_moves, _regroup_data


class ConfigError(ValueError):
    """A segmenter configuration violates a named constraint."""


class NonFiniteLogits(ValueError):
    """``Segmenter.predict`` met a NaN or an infinity among its logits, so no class
    decision is defined."""


# predict_stack's size rule, in floats of the stacked C*H*W feature maps per
# forward: toy images (C=16, 8x8) go 8 at a time, medium ones (C=32, 32x32)
# one at a time.  In a sweep of tape-free forwards, toy took 0.49 ms per image
# alone, 0.22 in chunks of 8, 0.20 of 16 and 0.17 of 64, while its peak traced
# memory grew by about 82 KB per image (5.3 MB at 64); medium took 6.6 ms per
# image in chunks of 1 and 6.0-7.0 in chunks of 2-8, at 2.9 MB per image.
_PREDICT_CHUNK_FLOATS = 8192

# The most float64 values any one array may hold: 2**27, 1 GiB.  A config or
# ``bench`` request whose closed-form array sizes exceed it is refused before
# anything is allocated; every shipped configuration is far below it.
ARRAY_BUDGET = 2 ** 27


def check_array_budget(sizes: dict[str, int]) -> None:
    """Raise ``ConfigError`` naming the first array in ``sizes`` over ``ARRAY_BUDGET``."""
    for term, size in sizes.items():
        if size > ARRAY_BUDGET:
            raise ConfigError(f"{term} needs {size} values; the budget is {ARRAY_BUDGET} per array")


@dataclass(frozen=True)
class SegmenterConfig:
    """Everything needed to build, train and evaluate one model.

    ``stages`` lists (attention blocks, M, N) per stage; M x N is that
    stage's window grid.  The enable flags switch the graph block and the
    boundary gate independently so ablation grids can toggle them.  A config
    is checked when it is made, by the constructor or ``dataclasses.replace``,
    which raise ``ConfigError`` for the first rule it breaks, the array budget
    last; once made it cannot change.
    """

    C: int = 16
    H: int = 8
    W: int = 8
    stages: tuple[tuple[int, int, int], ...] = ((2, 2, 2), (2, 2, 2))
    num_classes: int = 3
    fusion: FusionType = FusionType.GR_THEN_LR
    r_gr: int = 16
    r_lr: int = 16
    r_ba: int = 16
    theta_coefficient: float = 0.25
    graph_depth: int = 1
    relation_variant: str = "softmax"
    enable_gt: bool = True
    enable_ba: bool = True
    seed: int = 0
    dataset: str = "stripes"
    dataset_size: int = 4
    steps: int = 500
    lr: float = 0.2

    def __post_init__(self) -> None:
        if self.C < 1:
            raise ConfigError(f"C must be positive, got {self.C}")
        if self.H < 1 or self.W < 1:
            raise ConfigError(f"H and W must be positive, got {self.H}x{self.W}")
        if not self.stages:
            raise ConfigError("stages must not be empty")
        for idx, stage in enumerate(self.stages):
            if len(stage) != 3:
                raise ConfigError(f"stage {idx} must be (blocks, M, N), got {stage!r}")
            blocks, m, n = stage
            if blocks < 1:
                raise ConfigError(f"stage {idx}: block count must be >= 1, got {blocks}")
            if m < 1 or self.H % m != 0:
                raise ConfigError(f"stage {idx}: M={m} does not divide H={self.H}")
            if n < 1 or self.W % n != 0:
                raise ConfigError(f"stage {idx}: N={n} does not divide W={self.W}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if not isinstance(self.fusion, FusionType):
            raise ConfigError(f"fusion must be a FusionType, got {self.fusion!r}")
        for name, enabled in (("r_gr", self.enable_gt), ("r_lr", self.enable_gt), ("r_ba", self.enable_ba)):
            ratio = getattr(self, name)
            if enabled and (ratio < 1 or self.C % ratio != 0):
                raise ConfigError(f"{name}={ratio} does not divide C={self.C}")
        if self.graph_depth < 1:
            raise ConfigError(f"graph_depth must be >= 1, got {self.graph_depth}")
        if not np.isfinite(self.theta_coefficient):
            raise ConfigError(f"theta_coefficient must be finite, got {self.theta_coefficient}")
        if self.relation_variant not in _VARIANTS:
            raise ConfigError(f"relation_variant must be one of {_VARIANTS}, got {self.relation_variant!r}")
        if self.dataset not in DATASET_KINDS:
            raise ConfigError(f"dataset must be one of {DATASET_KINDS}, got {self.dataset!r}")
        if self.dataset_size < 1:
            raise ConfigError(f"dataset_size must be >= 1, got {self.dataset_size}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        hw, k = self.H * self.W, LOCAL_KERNEL
        sizes = {"parameter arena": model_param_count(self),
                 "image stack (dataset_size*3*H*W)": self.dataset_size * 3 * hw,
                 "feature map (C*H*W)": self.C * hw, "logits (num_classes*H*W)": self.num_classes * hw,
                 "confusion matrix (num_classes^2)": self.num_classes ** 2}
        for s, (_, m, n) in enumerate(self.stages):
            # M*N windows of (h_w*w_w)^2 attention scores; the local relation stack is as large
            sizes[f"stage {s} attention scores (M*N*(h_w*w_w)^2)"] = hw * (hw // (m * n))
            if self.enable_gt:
                sizes[f"stage {s} global relation ((M*N)^2)"] = (m * n) ** 2
        if self.enable_ba:
            sizes["boundary gate patches (7*(C/r_ba)*(H+6)*(W+6))"] = \
                k * (self.C // self.r_ba) * (self.H + k - 1) * (self.W + k - 1)
        check_array_budget(sizes)

    def graph_config(self) -> GraphConfig:
        return GraphConfig(variant=self.relation_variant,
                           theta_coefficient=self.theta_coefficient)


# The most bytes of ``key = value`` config text that a ``--config`` file or a
# checkpoint may hold; a full config is about 275 bytes.
MAX_CONFIG_BYTES = 2 ** 16


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


def set_config_key(values: dict, key: str, raw: str, origin: str) -> None:
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
        set_config_key(values, key.strip(), raw, f"{origin}:{lineno}")
    return values


def format_config(config: SegmenterConfig) -> str:
    """Every field as one ``key = value`` line; ``parse_config_text`` reads it back to an equal config."""
    lines = [f"{name} = {fmt(getattr(config, name))}" for name, (_, fmt) in _FIELD_CODECS.items()]
    return "\n".join(lines) + "\n"


@dataclass
class WindowAttention:
    """Plain scaled dot-product self-attention inside each window.

    ``forward`` is one tape op with parents (x, wq, wk, wv).  Windows are
    the stack axis: each window's tokens attend among themselves.  Forward
    and backward take the steps, raw-array helpers and operand layouts of
    the op chain ``window_tokens`` -> ``matmul`` (q, k, v) -> ``transpose``
    -> ``matmul`` -> ``scalar_mul`` -> ``softmax_rows`` -> ``matmul`` ->
    ``merge_tokens`` -> ``add``, so output and gradients are byte-identical
    to that chain.  Arrays feeding several steps get their gradient parts
    added in the chain's tape order: the tokens (q + k) + v, the block input
    g + the regrouped tokens' gradient.  An [N, C, H, W] stack of images
    runs as N*K windows, each the slice its own image's call makes.  The
    tape op keeps only its input (a parent) and the softmax weights; the
    backward rebuilds the tokens, q, k^T and v by calling the forward's own
    ``project``, three small GEMMs and one transpose copy, rather than hold
    them (768 KiB per medium block, beside the weights' 512 KiB).
    """

    wq: Parameter
    wk: Parameter
    wv: Parameter

    @staticmethod
    def spec(c: int, prefix: str) -> list[SpecRow]:
        """The block's parameter rows, in ``named_parameters`` order."""
        return [(f"{prefix}.{w}", (c, c), 1.0 / c) for w in ("wq", "wk", "wv")]

    @classmethod
    def create(cls, c: int, rng: np.random.Generator, prefix: str) -> "WindowAttention":
        _, _, params = draw_parameters(cls.spec(c, prefix), rng)
        return cls(*params)

    def forward(self, x: Tensor, grid: WindowGrid) -> Tensor:
        to_tokens, from_tokens = _layout_moves(grid, "tokens", images=_check_map(x, grid))
        wq, wk, wv = self.wq.data, self.wk.data, self.wv.data
        scale = wq.shape[0] ** -0.5

        def project():
            """The tokens, q, k^T and v, each contiguous as the chain's Tensor was, for its BLAS calls."""
            tokens = np.ascontiguousarray(_regroup_data(x.data, *to_tokens))
            return (tokens, _matmul_data(tokens, wq), np.ascontiguousarray(_matmul_data(tokens, wk).mT),
                    _matmul_data(tokens, wv))

        _, q, kt, v = project()
        # The scores buffer is private, so scaling and softmax work in place.
        att = _matmul_data(q, kt)
        att *= scale
        _softmax_data(att, out=att)
        mixed = _matmul_data(att, v)

        def _bw(g):
            # The tape holds x and att alone; project() rebuilds the rest.
            tokens, q, kt, v = project()
            d_att, dv = _matmul_grads(att, v, _regroup_data(g, *to_tokens))
            d_scores = _softmax_grad(att, d_att)
            d_scores *= scale
            dq, d_kt = _matmul_grads(q, kt, d_scores)
            d_tokens, dwq = _matmul_grads(tokens, wq, dq)
            d_tok_k, dwk = _matmul_grads(tokens, wk, d_kt.mT)
            d_tok_v, dwv = _matmul_grads(tokens, wv, dv)
            d_tokens += d_tok_k  # each is a fresh product, so summed in place
            d_tokens += d_tok_v
            return g + _regroup_data(d_tokens, *from_tokens), dwq, dwk, dwv

        return _op(x.data + _regroup_data(mixed, *from_tokens), (x, self.wq, self.wk, self.wv), _bw)

    def named_parameters(self) -> list[Parameter]:
        return [self.wq, self.wk, self.wv]


@dataclass
class _Stage:
    grid: WindowGrid
    attention: list[WindowAttention]
    gr: RelationParams | None = None
    lr: RelationParams | None = None


class Segmenter:
    """The assembled model; build via :func:`build_model`.

    Its parameters' values and gradients are views into two flat float64
    arenas, ``arena`` and ``grad_arena``, in ``parameters()`` order.  Given
    ``arena``, every value in ``param_spec(config)`` order, the model takes
    it over as its own arena and draws nothing; otherwise it draws the
    values from the config seed.
    """

    def __init__(self, config: SegmenterConfig, arena: np.ndarray | None = None):
        self.config = config
        rng = np.random.default_rng(config.seed) if arena is None else None
        self.arena, self.grad_arena, params = draw_parameters(param_spec(config), rng, arena)
        self._params = {p.name: p for p in params}
        # Each module takes its parameters in param_spec's order.
        take = iter(params)
        self.stem = next(take)
        self.stages: list[_Stage] = []
        for blocks, m, n in config.stages:
            grid = WindowGrid(config.C, config.H, config.W, m, n)
            stage = _Stage(grid, [WindowAttention(*islice(take, 3)) for _ in range(blocks)])
            if config.enable_gt:
                stage.gr = RelationParams(next(take), next(take), tuple(islice(take, config.graph_depth)))
                stage.lr = RelationParams(next(take), next(take), tuple(islice(take, config.graph_depth)))
            self.stages.append(stage)
        self.ba = BAParams(*islice(take, 3)) if config.enable_ba else None
        self.head = next(take)

    def parameters(self) -> dict[str, Parameter]:
        return self._params

    def param_count(self) -> int:
        return self.arena.size

    def zero_grad(self) -> None:
        self.grad_arena.fill(0.0)

    def forward(self, image: Tensor) -> Tensor:
        """Map a [3, H, W] image to [num_classes, H, W] logits, or an [N, 3, H, W]
        stack to [N, num_classes, H, W]; each image's logits are its own call's bytes."""
        cfg = self.config
        if image.ndim not in (3, 4) or image.shape[-3:] != (3, cfg.H, cfg.W):
            raise ValueError(f"forward expects [3,{cfg.H},{cfg.W}] images or an [N,3,{cfg.H},{cfg.W}] "
                             f"stack, got {list(image.shape)}")
        h = conv2d(image, self.stem)
        gcfg = cfg.graph_config()
        for stage in self.stages:
            for block in stage.attention:
                h = block.forward(h, stage.grid)
            if stage.gr is not None:
                h = graph_transformer_block(h, stage.grid, stage.gr, stage.lr, cfg.fusion, gcfg)
        if self.ba is not None:
            h = ba_apply(h, self.ba)
        return conv2d(h, self.head)

    def predict(self, image: Tensor) -> np.ndarray:
        """Hard per-pixel class decisions for one [3, H, W] image, computed
        without an autodiff tape.

        ``forward`` runs with every parameter's ``requires_grad`` cleared, so
        no op records tape links and each intermediate is freed once used;
        the flags are set again afterwards, also when ``forward`` raises.
        Logits that are not all finite raise ``NonFiniteLogits``: argmax would
        turn them into classes.  numpy's floating-point warnings on the way
        there are silenced, as they would only repeat that error.
        """
        if image.ndim != 3:
            raise ValueError(f"predict expects one [3,H,W] image, got {list(image.shape)}; "
                             "predict_stack takes a sequence of images")
        return self._decide(image)

    def predict_stack(self, images: typing.Sequence[Tensor]) -> np.ndarray:
        """``predict`` over a dataset's [3, H, W] images: [N, H, W] decisions,
        byte-equal to N ``predict`` calls, from one tape-free forward per chunk,
        stacked one chunk at a time.  The first image with a non-finite logit
        raises its own ``predict`` error.  Chunks of one image are ``predict``
        calls on the given tensors, so a caller that times or counts
        ``predict`` still sees each of them."""
        if not images:
            raise ValueError("predict_stack: no images")
        chunk = max(1, _PREDICT_CHUNK_FLOATS // (self.config.C * self.config.H * self.config.W))
        if chunk == 1:
            return np.stack([self.predict(image) for image in images])
        return np.concatenate([self._decide(Tensor(np.stack([image.data for image in images[i:i + chunk]])))
                               for i in range(0, len(images), chunk)])

    def _decide(self, images: Tensor) -> np.ndarray:
        """Class decisions of one image or a stack, from a forward without a tape."""
        for p in self._params.values():
            p.requires_grad = False
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                logits = self.forward(images).data
        finally:
            for p in self._params.values():
                p.requires_grad = True
        finite = np.isfinite(logits)
        if not finite.all():
            cfg = self.config
            per_image = finite.reshape(-1, cfg.num_classes * cfg.H * cfg.W)
            first = per_image[np.flatnonzero(~per_image.all(axis=1))[0]]
            raise NonFiniteLogits(f"{first.size - np.count_nonzero(first)} of {first.size} logits are not finite")
        return logits.argmax(axis=-3)


def param_spec(config: SegmenterConfig) -> list[SpecRow]:
    """Every parameter's (name, shape, init std) row, in ``parameters()`` order.

    It depends on the config alone; a model's arena is these rows drawn in
    order from the config seed (see ``draw_parameters``).
    """
    c = config.C
    rows = [("stem", (c, 3, 1, 1), 3 ** -0.5)]
    for s, (blocks, m, n) in enumerate(config.stages):
        for b in range(blocks):
            rows += WindowAttention.spec(c, f"stage{s}.attn{b}")
        if config.enable_gt:
            pixels = (config.H // m) * (config.W // n)
            rows += RelationParams.spec(c, config.r_gr, pixels, config.graph_depth, f"stage{s}.gt.gr")
            rows += RelationParams.spec(c, config.r_lr, 1, config.graph_depth, f"stage{s}.gt.lr")
    if config.enable_ba:
        rows += BAParams.spec(c, config.r_ba, "ba")
    rows.append(("head", (config.num_classes, c, 1, 1), c ** -0.5))
    return rows


def build_model(config: SegmenterConfig) -> Segmenter:
    """Deterministically initialise a model from the config."""
    return Segmenter(config)


def baseline_param_count(config: SegmenterConfig) -> int:
    """Closed form with the graph block and boundary gate disabled:
    stem (3C) + 3C^2 per attention block + classifier (C * num_classes)."""
    total = 3 * config.C
    for blocks, _, _ in config.stages:
        total += blocks * 3 * config.C ** 2
    total += config.C * config.num_classes
    return total


def model_param_count(config: SegmenterConfig) -> int:
    """Closed-form count for any enable-flag combination."""
    total = baseline_param_count(config)
    if config.enable_gt:
        for _, m, n in config.stages:
            grid = WindowGrid(config.C, config.H, config.W, m, n)
            total += gt_param_count(config.C, grid, config.r_gr, config.r_lr, config.graph_depth)
    if config.enable_ba:
        total += ba_param_count(config.C, config.r_ba)
    return total
