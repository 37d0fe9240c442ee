"""Boundary-aware attention: sigmoid gating learned from local context.

A feature map is squeezed along channels, mixed spatially by a 7x7
convolution, passed through GELU, restored to full channel width and
normalised by a sigmoid.  The result is a per-entry coefficient in (0, 1)
used to reweigh the input features, strengthening pixels that matter for
the classification near object edges and damping the rest.  No extra
annotation is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, Tensor, conv2d, gelu, hadamard, sigmoid

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

    @classmethod
    def create(cls, c: int, r_ba: int, rng: np.random.Generator, prefix: str) -> "BAParams":
        if r_ba < 1 or c % r_ba != 0:
            raise ValueError(f"boundary attention: compression ratio {r_ba} does not divide {c} channels")
        c_sq = c // r_ba
        squeeze = Parameter(rng.normal(0.0, c ** -0.5, (c_sq, c, 1, 1)), f"{prefix}.squeeze")
        local = Parameter(rng.normal(0.0, (LOCAL_KERNEL ** 2 * c_sq) ** -0.5,
                                     (c_sq, c_sq, LOCAL_KERNEL, LOCAL_KERNEL)), f"{prefix}.local")
        unsqueeze = Parameter(np.zeros((c, c_sq, 1, 1)), f"{prefix}.unsqueeze")
        return cls(squeeze, local, unsqueeze)

    def named_parameters(self) -> list[Parameter]:
        return [self.squeeze, self.local, self.unsqueeze]


def ba_coefficients(y: Tensor, params: BAParams) -> Tensor:
    """Attention coefficients, strictly inside (0, 1), same shape as ``y``.

    Pipeline: squeeze -> 7x7 conv -> GELU -> unsqueeze -> sigmoid.  The
    7x7 stage is the only spatial mixing, so a perturbation at one pixel
    can only move coefficients within its 7x7 neighbourhood.
    """
    if y.ndim != 3:
        raise ValueError(f"ba_coefficients: need [C,H,W] features, got {list(y.shape)}")
    h = conv2d(y, params.squeeze)
    h = conv2d(h, params.local)
    h = gelu(h)
    h = conv2d(h, params.unsqueeze)
    return sigmoid(h)


def ba_apply(y: Tensor, params: BAParams) -> Tensor:
    """Reweigh features by their attention coefficients (elementwise)."""
    return hadamard(y, ba_coefficients(y, params))


def ba_param_count(c: int, r_ba: int) -> int:
    """Closed form: squeeze + unsqueeze 1x1 pairs plus the 7x7 local mixer."""
    c_sq = c // r_ba
    return 2 * c * c_sq + LOCAL_KERNEL ** 2 * c_sq ** 2
