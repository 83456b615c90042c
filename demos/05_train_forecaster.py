"""Train the encoder-decoder forecaster on a small synthetic network.

Fits spatial correlations on the training split, trains a one-layer model
with teacher forcing, picking its best epoch by the MAE of true
autoregressive forecasts on held-out windows, then reports that epoch's
forecast errors. Runs in well under a minute.
"""

import numpy as np

from corrstn import (ModelConfig, PeriodSpec, TrainingData, add_self_loops,
                     assemble_samples, build_model, compute_scorr, evaluate,
                     fit_normalization, generate_synthetic,
                     laplacian_normalize, normalize, split_ranges, train)
from corrstn.data import SpatioTemporalTensor

ds = generate_synthetic(n_sensors=4, weeks=2, interval_minutes=30,
                        noise_sigma=0.05, seed=7)
x = ds.tensor
train_range, val_range, test_range = split_ranges(x.n_timestamps)
print(f"synthetic network: {x.n_sensors} sensors, {x.n_timestamps} steps "
      f"of {x.interval_minutes} min, splits {train_range}/{val_range}/{test_range}")

ds.norm_params = fit_normalization(x, train_range)
x_norm = SpatioTemporalTensor(normalize(x.data, ds.norm_params),
                              interval_minutes=x.interval_minutes)

# spatial artifacts come from the training split only
train_slice = SpatioTemporalTensor(
    x_norm.data[train_range[0]:train_range[1]],
    interval_minutes=x.interval_minutes)
scorr = compute_scorr(train_slice)
adj = laplacian_normalize(add_self_loops(ds.adjacency))

config = ModelConfig(encoder_layers=1, decoder_layers=1, d_model=16, heads=2,
                     top_u=2, periods=("hourly",), learning_rate=0.01)
model = build_model(config, scorr, adj, x.n_sensors, seed=5)
n_params = sum(p.data.size for p in model.parameters())
print(f"model: {config.encoder_layers}+{config.decoder_layers} layers, "
      f"d_model={config.d_model}, {n_params} parameters")

# the period blocks' offsets at this interval, as `corrstn train` derives them
spec = PeriodSpec.from_interval(x.interval_minutes, tau=config.tau)
offsets = {p: spec.offset_for(p) for p in config.periods}
train_samples = assemble_samples(x_norm, train_range, config.periods,
                                 offsets, config.horizon)
val_samples = assemble_samples(x_norm, val_range, config.periods,
                               offsets, config.horizon)
print(f"samples: {len(train_samples)} train, {len(val_samples)} val")

log = train(model, TrainingData(train_samples, val_samples, ds.norm_params),
            config, epochs=12, patience=12, seed=0)
first, last = log.rows[0], log.rows[-1]
print(f"\ntrained {len(log.rows)} epochs: autoregressive val MAE "
      f"{first.val_mae:.4f} -> {last.val_mae:.4f} "
      f"(best {log.best_val_mae:.4f} at epoch {log.best_epoch})")

report = evaluate(model, val_samples, ds)
print(f"\nepoch {log.best_epoch}, restored: autoregressive validation "
      f"forecast, original units:")
print(f"  MAE  {report.overall['mae']:.4f}")
print(f"  RMSE {report.overall['rmse']:.4f}")
print(f"  MAPE {report.overall['mape'] * 100:.2f}%")
print("per-horizon MAE (steps 1, 6, 12): "
      + ", ".join(f"{report.per_horizon[h, 0]:.4f}" for h in (0, 5, 11)))
