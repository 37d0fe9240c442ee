"""Boundary-aware attention: sigmoid gating learned from local context.

A feature map is squeezed along channels, mixed spatially by a 7x7
convolution, passed through GELU, restored to full channel width and
normalised by a sigmoid.  The result is a per-entry coefficient in (0, 1)
used to reweigh the input features, strengthening pixels that matter for
the classification near object edges and damping the rest.  No extra
annotation is involved anywhere.

``ba_coefficients`` and ``ba_apply`` each record one tape op, built on the
raw helper ``_gate`` (``_conv2d`` -> ``_conv2d`` -> ``_gelu`` -> ``_conv2d``
-> ``_sigmoid``), and are byte-identical to the op chain of the public ops
(then ``hadamard``); ``ba_apply``'s input gets its gradient as g * a + the
gate's part.  Both also take an [N, C, H, W] stack of images, as ``conv2d``
does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, SpecRow, Tensor, _conv2d, _gelu, _op, _sigmoid, draw_parameters

LOCAL_KERNEL = 7


@dataclass
class BAParams:
    """Squeeze / local 7x7 / unsqueeze convolution weights."""

    squeeze: Parameter
    local: Parameter
    unsqueeze: Parameter

    def __post_init__(self):
        if self.local.shape[2] != LOCAL_KERNEL or self.local.shape[3] != LOCAL_KERNEL:
            raise ValueError(f"BAParams: local kernel must be {LOCAL_KERNEL}x{LOCAL_KERNEL}, "
                             f"got {list(self.local.shape)}")

    @staticmethod
    def spec(c: int, r_ba: int, prefix: str) -> list[SpecRow]:
        """The gate's parameter rows, in ``named_parameters`` order."""
        if r_ba < 1 or c % r_ba != 0:
            raise ValueError(f"boundary attention: compression ratio {r_ba} does not divide {c} channels")
        c_sq = c // r_ba
        return [(f"{prefix}.squeeze", (c_sq, c, 1, 1), c ** -0.5),
                (f"{prefix}.local", (c_sq, c_sq, LOCAL_KERNEL, LOCAL_KERNEL),
                 (LOCAL_KERNEL ** 2 * c_sq) ** -0.5),
                (f"{prefix}.unsqueeze", (c, c_sq, 1, 1), 0.0)]

    @classmethod
    def create(cls, c: int, r_ba: int, rng: np.random.Generator, prefix: str) -> "BAParams":
        _, _, params = draw_parameters(cls.spec(c, r_ba, prefix), rng)
        return cls(*params)

    def named_parameters(self) -> list[Parameter]:
        return [self.squeeze, self.local, self.unsqueeze]


def _gate(yd: np.ndarray, params: BAParams):
    """The coefficients of raw ``yd`` and their pullback to (y, squeeze, local, unsqueeze)."""
    if yd.ndim not in (3, 4):
        raise ValueError(f"ba_coefficients: need [C,H,W] or [N,C,H,W] features, got {list(yd.shape)}")
    h, squeeze_pb = _conv2d(yd, params.squeeze.data)
    h, local_pb = _conv2d(h, params.local.data)
    h, gelu_pb = _gelu(h)
    h, unsqueeze_pb = _conv2d(h, params.unsqueeze.data)
    a, sigmoid_pb = _sigmoid(h)

    def pullback(g):
        dh, d_unsqueeze = unsqueeze_pb(*sigmoid_pb(g))
        dh, d_local = local_pb(*gelu_pb(dh))
        dy, d_squeeze = squeeze_pb(dh)
        return dy, d_squeeze, d_local, d_unsqueeze

    return a, pullback


def ba_coefficients(y: Tensor, params: BAParams) -> Tensor:
    """Attention coefficients, strictly inside (0, 1), same shape as ``y``.

    Pipeline: squeeze -> 7x7 conv -> GELU -> unsqueeze -> sigmoid.  The
    7x7 stage is the only spatial mixing, so a perturbation at one pixel
    can only move coefficients within its 7x7 neighbourhood.
    """
    a, pullback = _gate(y.data, params)
    return _op(a, (y, *params.named_parameters()), pullback)


def ba_apply(y: Tensor, params: BAParams) -> Tensor:
    """Reweigh features by their attention coefficients (elementwise)."""
    yd = y.data
    a, pullback = _gate(yd, params)

    def _bw(g):
        dy, *d_params = pullback(g * yd)
        return g * a + dy, *d_params

    return _op(yd * a, (y, *params.named_parameters()), _bw)


def ba_param_count(c: int, r_ba: int) -> int:
    """Closed form: squeeze + unsqueeze 1x1 pairs plus the 7x7 local mixer."""
    c_sq = c // r_ba
    return 2 * c * c_sq + LOCAL_KERNEL ** 2 * c_sq ** 2
