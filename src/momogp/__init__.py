"""Multi-output mixtures of Gaussian process experts, structured as
probabilistic circuits with exact single-output GP leaves."""

__version__ = "0.1.0"

from .circuit import (
    Circuit,
    LeafNode,
    ProductXNode,
    ProductYNode,
    Region,
    StructureConfig,
    SumNode,
    TREE_ENUM_CAP,
    build,
    count_induced_trees,
    validate,
)
from .data_pipeline import (
    Dataset,
    PcaTransform,
    PipelineTransforms,
    Standardization,
    apply_pca,
    apply_standardization,
    fit_pca,
    load_csv,
    split,
    standardize,
    synth_multioutput,
)
from .errors import (
    CapacityError,
    MomogpError,
    NotFittedError,
    NumericalError,
    SchemaError,
)
from .gp_leaf import GpLeaf, KernelHyperparams
from .inference import (
    compute_evidence,
    log_predictive_density_batch,
    predict_batch,
    renormalize,
)
from .metrics import EvalResult, mae, mean_nlpd, per_output_rmse, rmse
from .serialize import ModelBundle, load_model, save_model
from .training import TrainConfig, TrainReport, train

__all__ = [
    "Circuit",
    "LeafNode",
    "ProductXNode",
    "ProductYNode",
    "Region",
    "StructureConfig",
    "SumNode",
    "TREE_ENUM_CAP",
    "build",
    "count_induced_trees",
    "validate",
    "Dataset",
    "PcaTransform",
    "PipelineTransforms",
    "Standardization",
    "apply_pca",
    "apply_standardization",
    "fit_pca",
    "load_csv",
    "split",
    "standardize",
    "synth_multioutput",
    "CapacityError",
    "MomogpError",
    "NotFittedError",
    "NumericalError",
    "SchemaError",
    "GpLeaf",
    "KernelHyperparams",
    "compute_evidence",
    "log_predictive_density_batch",
    "predict_batch",
    "renormalize",
    "EvalResult",
    "mae",
    "mean_nlpd",
    "per_output_rmse",
    "rmse",
    "ModelBundle",
    "load_model",
    "save_model",
    "TrainConfig",
    "TrainReport",
    "train",
]
