"""Correlation-information stack for spatiotemporal traffic forecasting.

The package measures nonlinear dependence between sensor series with the
maximal information coefficient, turns those degrees into spatial and
temporal correlation structures, and feeds both into an encoder-decoder
forecaster whose attention and graph layers are correlation-aware.
"""

from .errors import (CorrstnError, ConfigError, DataError, ComputeError,
                     GraphError)
from .mic import admissible_shapes, mic, mic_full, pairwise_mic
from .scorr import (SCorrTensor, compute_scorr, top_u_normalize, save_scorr,
                    load_scorr, export_scorr_csv)
from .tcorr import (PERIODS, PeriodSpec, TCorrWeights, anchor_positions,
                    compute_tcorr, select_periods, combine_verdicts,
                    build_tcorr_report, save_report, load_report)
from .data import (SpatioTemporalTensor, SampleSet, save_tensor, load_tensor,
                   load_dataset, split_ranges, fit_normalization, normalize,
                   denormalize, assemble_samples, generate_synthetic)
from .autodiff import Tensor
from .neural import (add_self_loops, laplacian_normalize, causal_mask,
                     LayerNorm, TemporalConv, CIATT, CIGNN)
from .model import (ModelConfig, PRESETS, save_config, load_config, CorrSTN,
                    build_model, Adam, mae_loss, TrainingData, train, predict,
                    save_checkpoint, load_checkpoint)
from .metrics import (mae, rmse, mape, compute_report, evaluate,
                      save_metric_report, load_metric_report,
                      export_horizon_csv)

__version__ = "0.1.0"

__all__ = [
    "CorrstnError", "ConfigError", "DataError", "ComputeError", "GraphError",
    "admissible_shapes", "mic", "mic_full", "pairwise_mic",
    "SCorrTensor", "compute_scorr", "top_u_normalize", "save_scorr",
    "load_scorr", "export_scorr_csv",
    "PERIODS", "PeriodSpec", "TCorrWeights", "anchor_positions",
    "compute_tcorr", "select_periods", "combine_verdicts",
    "build_tcorr_report", "save_report", "load_report",
    "SpatioTemporalTensor", "SampleSet", "save_tensor", "load_tensor",
    "load_dataset", "split_ranges", "fit_normalization", "normalize",
    "denormalize", "assemble_samples", "generate_synthetic",
    "Tensor",
    "add_self_loops", "laplacian_normalize", "causal_mask", "LayerNorm",
    "TemporalConv", "CIATT", "CIGNN",
    "ModelConfig", "PRESETS", "save_config", "load_config", "CorrSTN",
    "build_model", "Adam", "mae_loss", "TrainingData", "train", "predict",
    "save_checkpoint", "load_checkpoint",
    "mae", "rmse", "mape", "compute_report", "evaluate",
    "save_metric_report", "load_metric_report", "export_horizon_csv",
    "__version__",
]
