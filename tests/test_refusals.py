"""Each input check refuses its bad input with its own exception and message.

One row per check that no other test reaches; deleting a check fails its row.
"""

import numpy as np
import pytest

from wingraph.bench import run_benchmark
from wingraph.boundary import ba_coefficients
from wingraph.data import synth_dataset
from wingraph.graph import RelationMatrix, node_update, relation_softmax
from wingraph.metrics import boundary_band
from wingraph.model import ConfigError, SegmenterConfig, build_model
from wingraph.relation import RelationParams, graph_transformer_block
from wingraph.tensor import Tensor, apply_mask, conv2d, cross_entropy_logits, stack, transpose
from wingraph.windows import WindowGrid


def zeros(*shape):
    return Tensor(np.zeros(shape))


_SMALL = SegmenterConfig(C=4, H=4, W=4, stages=((1, 2, 2),), num_classes=2, r_gr=2, r_lr=2, r_ba=2)

REFUSALS = {
    "predict_given_a_stack": (lambda: build_model(_SMALL).predict(zeros(2, 3, 4, 4)),
                              ValueError, "predict expects one [3,H,W] image, got [2, 3, 4, 4]"),
    "predict_stack_of_nothing": (lambda: build_model(_SMALL).predict_stack([]), ValueError,
                                 "predict_stack: no images"),
    "config_zero_height": (lambda: SegmenterConfig(H=0), ConfigError, "H and W must be positive"),
    "config_stage_of_two": (lambda: SegmenterConfig(stages=((1, 2),)), ConfigError,
                            "stage 0 must be (blocks, M, N)"),
    "relation_depth_zero": (lambda: RelationParams.spec(4, 2, 1, 0, "gr"), ValueError,
                            "gr: at least one graph round required"),
    "fusion_not_a_fusion_type": (lambda: graph_transformer_block(None, None, None, None, "gr_then_lr"),
                                 ValueError, "unknown fusion type"),
    "window_grid_zero_field": (lambda: WindowGrid(4, 4, 4, 0, 1), ValueError, "WindowGrid: M must be positive"),
    "boundary_band_of_1d": (lambda: boundary_band(np.zeros(3), 1), ValueError, "boundary_band needs [..., H, W]"),
    "item_of_several": (lambda: zeros(2).item(), ValueError, "item() needs a single-element tensor"),
    "transpose_rank_1": (lambda: transpose(zeros(3)), ValueError, "transpose: rank-2 or rank-3"),
    "stack_of_nothing": (lambda: stack([]), ValueError, "stack: need at least one tensor"),
    "stack_mismatched": (lambda: stack([zeros(2), zeros(3)]), ValueError, "stack: shape mismatch [2] vs [3]"),
    "apply_mask_mismatched": (lambda: apply_mask(zeros(2), np.ones(3, bool)), ValueError,
                              "apply_mask: shape mismatch [2] vs [3]"),
    "conv2d_wrong_ranks": (lambda: conv2d(zeros(4, 4), zeros(1, 1, 1, 1)), ValueError,
                           "conv2d: need [C,H,W] or [N,C,H,W] input"),
    "conv2d_non_square_kernel": (lambda: conv2d(zeros(1, 4, 4), zeros(1, 1, 3, 1)), ValueError,
                                 "conv2d: square kernels only, got 3x1"),
    "cross_entropy_rank_2_logits": (lambda: cross_entropy_logits(zeros(2, 2), np.zeros(2, int)), ValueError,
                                    "cross_entropy_logits: need [classes,H,W] logits"),
    "cross_entropy_mismatched_labels": (lambda: cross_entropy_logits(zeros(2, 3, 3), np.zeros((3, 2), int)),
                                        ValueError, "cross_entropy_logits: label shape [3, 2] does not match"),
    "synth_dataset_one_class": (lambda: synth_dataset("blobs", 1, 4, 4, 1, 0), ValueError,
                                "num_classes must be >= 2"),
    "run_benchmark_zero_repeats": (lambda: run_benchmark([2], [2], [1.0], repeats=0), ValueError,
                                   "repeats must be >= 1"),
    "ba_coefficients_rank_2": (lambda: ba_coefficients(zeros(4, 4), None), ValueError,
                               "ba_coefficients: need [C,H,W] or [N,C,H,W]"),
    "graph_nodes_rank_1": (lambda: relation_softmax(zeros(3)), ValueError,
                           "relation_softmax: [K, D] nodes or a [B, K, D] stack required"),
    "node_update_mismatched_relation": (lambda: node_update(RelationMatrix(zeros(3, 3)), zeros(2, 4)), ValueError,
                                        "node_update: relation [3, 3] does not match nodes [2, 4]"),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message)


def test_unpruned_relation_keeps_every_edge():
    assert RelationMatrix(zeros(2, 3, 3)).kept_edges() == 18
