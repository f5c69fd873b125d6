"""Sparse mixture-of-experts transformers and efficient ensembles.

The package builds small vision transformers whose MLP blocks can be
replaced by sparsely routed expert mixtures, and layers several ensemble
mechanisms on top: partitioned batch ensembles that tile the batch across
expert groups, multi-head routing, rank-1 batch ensembles, MC-dropout,
multi-input multi-output heads, and plain deep ensembles.  Everything is
numpy-based with a minimal reverse-mode autodiff core, so every number a
test asserts can be recomputed by hand or by a brute-force oracle.

Companion pieces: an analytic FLOPs model, calibration/diversity/OOD
metrics, performance-versus-compute analyzers, and a CLI (``moelab``)
that runs deterministic experiments from JSON configs.
"""

from .analyzer import (
    SIZE_LADDER,
    CostPoint,
    PhiFit,
    fit_phi,
    improvement_table,
    load_reference_points,
    normalized_gain,
    normalized_improvement,
    pareto_frontier,
)
from .checkpoint import (
    Checkpoint,
    adapt_checkpoint_be,
    adapt_checkpoint_mimo,
    adapt_checkpoint_pbe,
    apply_checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    state_dict,
)
from .cli import ExperimentConfig, main
from .dataset import Dataset, DatasetSpec, make_dataset, make_synthetic_dataset
from .errors import ConfigError, DivergenceError, EvaluationError, FitError
from .flops import (
    FlopsReport,
    deep_ensemble_flops,
    flops_estimate,
    flops_forward,
    tiling_saving,
)
from .gradcheck import finite_difference_check
from .layers import (
    BatchEnsembleDense,
    BeMLP,
    ExpertMLP,
    MoELayer,
    be_dense_forward,
    layer_forward,
    split_members,
    tile,
    untile,
)
from .losses import (
    AuxLossState,
    LossConfig,
    importance_loss,
    load_loss,
    member_avg_cross_entropy,
    omega_partition,
    total_loss,
)
from .metrics import (
    EvalReport,
    MetricAccumulator,
    ece,
    fewshot_probe,
    kl_diversity,
    nll_error,
    ood_metrics,
    ood_scores,
    pair_diversity,
)
from .model import (
    PRESET_NAMES,
    VARIANTS,
    Model,
    ModelSpec,
    PredictionBundle,
    build_model,
    deep_ensemble_predict,
    forward,
    mc_dropout_predict,
    moe_block_positions,
    preset,
)
from .rng import Rng
from .routing import (
    CapacityConfig,
    RouterParams,
    RoutingDecision,
    capacity_filter,
    make_router,
    partitioned_gate,
)
from .svg import ScatterPlot, Series, render_scatter
from .tensor import Tensor
from .trainer import TrainConfig, evaluate, lr_at, sgd_step, train

__version__ = "0.1.0"

__all__ = [
    "AuxLossState",
    "BatchEnsembleDense",
    "BeMLP",
    "CapacityConfig",
    "Checkpoint",
    "ConfigError",
    "CostPoint",
    "Dataset",
    "DatasetSpec",
    "DivergenceError",
    "EvalReport",
    "EvaluationError",
    "ExperimentConfig",
    "ExpertMLP",
    "FitError",
    "FlopsReport",
    "LossConfig",
    "MetricAccumulator",
    "Model",
    "ModelSpec",
    "MoELayer",
    "PRESET_NAMES",
    "PhiFit",
    "PredictionBundle",
    "Rng",
    "RouterParams",
    "RoutingDecision",
    "SIZE_LADDER",
    "ScatterPlot",
    "Series",
    "Tensor",
    "TrainConfig",
    "VARIANTS",
    "adapt_checkpoint_be",
    "adapt_checkpoint_mimo",
    "adapt_checkpoint_pbe",
    "apply_checkpoint",
    "be_dense_forward",
    "build_model",
    "capacity_filter",
    "checkpoint_from_model",
    "deep_ensemble_flops",
    "deep_ensemble_predict",
    "ece",
    "evaluate",
    "fewshot_probe",
    "finite_difference_check",
    "fit_phi",
    "flops_estimate",
    "flops_forward",
    "forward",
    "importance_loss",
    "improvement_table",
    "kl_diversity",
    "layer_forward",
    "load_checkpoint",
    "load_loss",
    "load_reference_points",
    "lr_at",
    "main",
    "make_dataset",
    "make_router",
    "make_synthetic_dataset",
    "mc_dropout_predict",
    "member_avg_cross_entropy",
    "model_from_checkpoint",
    "moe_block_positions",
    "nll_error",
    "normalized_gain",
    "normalized_improvement",
    "omega_partition",
    "ood_metrics",
    "ood_scores",
    "pair_diversity",
    "pareto_frontier",
    "partitioned_gate",
    "preset",
    "render_scatter",
    "save_checkpoint",
    "sgd_step",
    "split_members",
    "state_dict",
    "tile",
    "tiling_saving",
    "total_loss",
    "train",
    "untile",
]
