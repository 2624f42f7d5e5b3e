"""Group-specific mixture-of-experts lab: MI-driven routing, fairness metrics,
deterministic synthetic data, and a small from-scratch autodiff engine."""

from .tensor import (
    ParamSet, ShapeError, Tensor, conv2d, cross_entropy, dense, expert_conv2d, global_avg_pool,
    matmul, no_grad,
)
from .moe import (
    GroupStats,
    RoutingBatch,
    moe_forward,
    route_scores,
    select_expert,
    selection_probabilities,
)
from .objectives import JointDistribution, LossConfig, estimate_joint, mutual_information, total_loss
from .fairness import (
    FairnessReport,
    GroupClassConfusion,
    PredictionLog,
    build_report,
    confusion,
    eopp_eodd,
    fate,
    group_prf1,
)
from .data import Dataset, Sample, SynthConfig, generate, load, save, split
from .model import ConvLayer, Model, ModelConfig, build_model, load_checkpoint, save_checkpoint
from .training import TrainConfig, ablate_moe_layers, evaluate, router_depth_report, train

__all__ = [name for name in dir() if not name.startswith("_")]
