"""wingraph: window-level graph relation networks with boundary-aware
attention, built on a small float64 numpy autodiff core."""

from .boundary import BAParams, ba_apply, ba_coefficients, ba_param_count
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import synth_dataset
from .graph import (
    GraphConfig,
    RelationMatrix,
    make_theta,
    node_update,
    node_update_sparse,
    relation_cosine,
    relation_softmax,
    run_graph,
    sparsify,
)
from .metrics import (
    EmptyBandError,
    MiouResult,
    boundary_band_accuracy,
    confusion_matrix,
    evaluate_miou,
    miou,
    pixel_accuracy,
)
from .model import ConfigError, Segmenter, SegmenterConfig, build_model, model_param_count
from .relation import (
    FusionType,
    RelationParams,
    global_relation,
    graph_transformer_block,
    gt_param_count,
    local_relation,
)
from .tensor import (
    Parameter,
    Tensor,
    add,
    backward,
    conv2d,
    cross_entropy_logits,
    gelu,
    hadamard,
    matmul,
    sigmoid,
    softmax_rows,
    sum_all,
)
from .train import TrainingDiverged, TrainingReport, train
from .windows import WindowGrid, merge, partition

__version__ = "0.1.0"
