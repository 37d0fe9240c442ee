"""wingraph: window-level graph relation networks with boundary-aware attention on a
small float64 numpy autodiff core.  The root keeps only the names ``perfbench/`` and
``tools/`` import from it; import any other name from its module.  The root ``train``
is the function; reach the module it shadows with ``importlib.import_module("wingraph.train")``."""

from .boundary import ba_apply
from .checkpoint import load_checkpoint, save_checkpoint
from .data import synth_dataset
from .metrics import evaluate_miou
from .model import Segmenter, SegmenterConfig, build_model
from .relation import FusionType, global_relation, local_relation
from .tensor import Tensor, backward, conv2d, cross_entropy_logits, hadamard, sum_all
from .train import train

__version__ = "0.1.0"
