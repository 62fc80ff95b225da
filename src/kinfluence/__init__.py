"""Influence-function unlearning in parameter space and in the dual kernel space."""

from .datasets import (
    LabeledDataset,
    SplitDataset,
    load_cifar_binary,
    load_idx,
    make_blobs,
    split_forget,
    subset_per_class,
)
from .dual import (
    DualCoefficients,
    DualUnlearner,
    map_to_params,
    predict_changes_dual,
)
from .infinite import (
    AnalyticNtkSpec,
    FunctionState,
    InfiniteInfluenceResult,
    analytic_ntk,
    fit_outputs,
    infinite_influence,
    infinite_predict,
    kgd_train,
)
from .kernels import (
    KernelMatrix,
    empirical_ntk,
    read_kernel_cache,
    sharded_matvec,
    write_kernel_cache,
)
from .losses import CROSS_ENTROPY, SQUARED
from .models import (
    Linearization,
    LinearizedModel,
    ModelSpec,
    load_params,
    model_outputs,
    save_params,
    stacked_jacobian,
)
from .primal import (
    PrimalUnlearner,
    predict_changes_primal,
    removal_system,
)
from .report import InfluenceReport, MetricsRow
from .solvers import CgOptions, CgResult, cg_solve
from .training import (
    Optimizer,
    RiskConfig,
    StopRule,
    TrainReport,
    fit_linearized_exact,
    risk_grad,
    risk_hessian_op,
    risk_value,
    train,
)

__version__ = "0.1.0"
