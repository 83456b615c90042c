"""Correlation-information stack for spatiotemporal traffic forecasting.

The package measures nonlinear dependence between sensor series with the
maximal information coefficient, turns those degrees into spatial and
temporal correlation structures, and feeds both into an encoder-decoder
forecaster whose attention and graph layers are correlation-aware.
"""

from .errors import (CorrstnError, ConfigError, DimensionError,
                     DataError, OutOfRangeError, EmptyAnchorError,
                     ComputeError, GraphError)
from .mic import (DEFAULT_ETA, MicResult, admissible_shapes, mic, mic_full,
                  pairwise_mic)
from .scorr import (SCorrTensor, TopUSCorr, compute_scorr, windowed_scorr,
                    top_u_normalize, topu_mixing_matrix, identity_topu,
                    save_scorr, load_scorr, export_scorr_csv)
from .tcorr import (PERIODS, PeriodSpec, TCorrWeights, TCorrReport,
                    anchor_positions, compute_tcorr, weighted_tcorr,
                    select_periods, combine_verdicts, build_tcorr_report,
                    save_report, load_report)
from .data import (SpatioTemporalTensor, TrafficDataset, SampleSet,
                   save_tensor, load_tensor, load_edges, load_dataset,
                   split_ranges, fit_normalization, normalize, denormalize,
                   assemble_samples, generate_synthetic)
from .autodiff import Tensor, Parameter, Module, conv1d_temporal, xavier_uniform
from .neural import (NormalizedAdjacency, add_self_loops, laplacian_normalize,
                     causal_mask, cignn_forward, key_value_heads,
                     attend_heads,
                     Linear, LayerNorm, TemporalConv, CIATT, CIGNN)
from .model import (ModelConfig, PRESETS, config_hash, save_config,
                    load_config, CorrSTN, build_model, Adam, mae_loss,
                    TrainingData, TrainingLog, train, predict,
                    save_checkpoint, load_checkpoint)
from .metrics import (mae, rmse, mape, MetricReport, compute_report, evaluate,
                      save_metric_report, load_metric_report,
                      export_horizon_csv)

__version__ = "0.1.0"

__all__ = [
    "CorrstnError", "ConfigError", "DimensionError", "DataError",
    "OutOfRangeError", "EmptyAnchorError", "ComputeError", "GraphError",
    "DEFAULT_ETA", "MicResult", "admissible_shapes", "mic", "mic_full",
    "pairwise_mic",
    "SCorrTensor", "TopUSCorr", "compute_scorr", "windowed_scorr",
    "top_u_normalize", "topu_mixing_matrix", "identity_topu",
    "save_scorr", "load_scorr", "export_scorr_csv",
    "PERIODS", "PeriodSpec", "TCorrWeights", "TCorrReport",
    "anchor_positions", "compute_tcorr", "weighted_tcorr", "select_periods",
    "combine_verdicts", "build_tcorr_report", "save_report", "load_report",
    "SpatioTemporalTensor", "TrafficDataset", "SampleSet",
    "save_tensor", "load_tensor", "load_edges", "load_dataset",
    "split_ranges", "fit_normalization", "normalize", "denormalize",
    "assemble_samples", "generate_synthetic",
    "Tensor", "Parameter", "Module", "xavier_uniform",
    "NormalizedAdjacency", "add_self_loops", "laplacian_normalize",
    "causal_mask", "cignn_forward", "key_value_heads", "attend_heads",
    "conv1d_temporal",
    "Linear", "LayerNorm", "TemporalConv", "CIATT", "CIGNN",
    "ModelConfig", "PRESETS", "config_hash", "save_config", "load_config",
    "CorrSTN", "build_model", "Adam", "mae_loss", "TrainingData",
    "TrainingLog", "train", "predict", "save_checkpoint", "load_checkpoint",
    "mae", "rmse", "mape", "MetricReport", "compute_report", "evaluate",
    "save_metric_report", "load_metric_report", "export_horizon_csv",
    "__version__",
]
