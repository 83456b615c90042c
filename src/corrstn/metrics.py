"""Forecast error metrics and per-horizon evaluation reports.

MAPE excludes points whose true value is zero from both numerator and
denominator (crowd-flow data contains real zeros) and reports how many were
masked. Values are fractions; the CLI scales to percent for display.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import denormalize, read_json, write_csv, write_json
from .errors import ConfigError, DataError, DimensionError


def _check_shapes(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DimensionError(f"shape mismatch: pred {pred.shape}, truth {truth.shape}")
    if pred.size == 0:
        raise DataError("empty arrays")
    return pred, truth


def mae(pred, truth) -> float:
    pred, truth = _check_shapes(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


def rmse(pred, truth) -> float:
    pred, truth = _check_shapes(pred, truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def mape(pred, truth) -> float:
    """Mean absolute percentage error over points with truth != 0, as a
    fraction. All-zero truth returns nan (undefined metric)."""
    pred, truth = _check_shapes(pred, truth)
    valid = truth != 0
    if not valid.any():
        return float("nan")
    return float(np.mean(np.abs(pred[valid] - truth[valid]) / np.abs(truth[valid])))


@dataclass
class MetricReport:
    overall: dict            # {"mae", "rmse", "mape"}
    per_horizon: np.ndarray  # (L, 3) columns mae, rmse, mape
    n_points: int
    mape_masked: int

    @property
    def mape_defined(self) -> bool:
        return not np.isnan(self.overall["mape"])


def compute_report(pred: np.ndarray, truth: np.ndarray) -> MetricReport:
    """Report over (S, L, ...) arrays; axis 1 is the forecast horizon."""
    pred, truth = _check_shapes(pred, truth)
    if pred.ndim < 2:
        raise DimensionError(f"need (samples, horizon, ...), got {pred.shape}")
    horizon = pred.shape[1]
    rows = np.empty((horizon, 3))
    for h in range(horizon):
        rows[h] = (mae(pred[:, h], truth[:, h]),
                   rmse(pred[:, h], truth[:, h]),
                   mape(pred[:, h], truth[:, h]))
    overall = {"mae": mae(pred, truth), "rmse": rmse(pred, truth),
               "mape": mape(pred, truth)}
    return MetricReport(overall=overall, per_horizon=rows, n_points=pred.size,
                        mape_masked=int((truth == 0).sum()))


def evaluate(model, samples, dataset) -> MetricReport:
    """Autoregressive forecasts over a SampleSet, scored in original units."""
    if len(samples) == 0:
        raise DataError("empty sample set")
    if dataset.norm_params is None:
        raise ConfigError("dataset has no fitted normalization parameters")
    pred_norm = model.forecast(samples.encoder_input)
    pred = denormalize(pred_norm[..., 0], dataset.norm_params, attribute=0)
    truth = denormalize(samples.target[..., 0], dataset.norm_params, attribute=0)
    return compute_report(pred, truth)


# ---------------------------------------------------------------------------
# report IO

_METRICS = ("mae", "rmse", "mape")


def _json_number(value):
    """A metric for plain JSON: an undefined one (NaN) is null."""
    value = float(value)
    return None if np.isnan(value) else value


def _metric(value) -> float:
    """A stored metric: a finite JSON number, or null for an undefined one."""
    if value is None:
        return float("nan")
    if type(value) not in (int, float) or not np.isfinite(value):
        raise ValueError(f"metric {value!r} is not a number or null")
    return float(value)


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"count {value!r} is not a non-negative int")
    return value


def report_to_dict(report: MetricReport) -> dict:
    return {
        "overall": {k: _json_number(v) for k, v in report.overall.items()},
        "per_horizon": [
            {"horizon": h + 1, "mae": _json_number(r[0]),
             "rmse": _json_number(r[1]), "mape": _json_number(r[2])}
            for h, r in enumerate(report.per_horizon)
        ],
        "n_points": report.n_points,
        "mape_masked": report.mape_masked,
    }


def report_from_dict(payload: dict) -> MetricReport:
    overall, rows = payload["overall"], payload["per_horizon"]
    if set(overall) != set(_METRICS):
        raise ValueError(f"overall has {sorted(overall)}, not {list(_METRICS)}")
    if not rows:
        raise ValueError("no per_horizon rows")
    for h, row in enumerate(rows, start=1):
        if set(row) != {"horizon", *_METRICS} \
                or (type(row["horizon"]), row["horizon"]) != (int, h):
            raise ValueError(f"per_horizon row {h} is {row!r}, not horizon "
                             f"{h} with {', '.join(_METRICS)}")
    return MetricReport(
        overall={k: _metric(overall[k]) for k in _METRICS},
        per_horizon=np.array([[_metric(r[k]) for k in _METRICS] for r in rows],
                             dtype=np.float64),
        n_points=_count(payload["n_points"]),
        mape_masked=_count(payload["mape_masked"]))


def save_metric_report(report: MetricReport, path) -> None:
    write_json(path, report_to_dict(report))


def load_metric_report(path) -> MetricReport:
    """A report saved by `save_metric_report`. Bad JSON, a missing field, an
    `overall` that is not exactly mae/rmse/mape, `per_horizon` rows that are
    not horizons 1..L in order, a metric that is not a finite number or null,
    or a count that is not a non-negative int is a DataError."""
    try:
        return report_from_dict(read_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed metric report ({exc!r})") from None


def export_horizon_csv(report: MetricReport, path) -> None:
    write_csv(path, "horizon,mae,rmse,mape",
              ((h, *row) for h, row in enumerate(report.per_horizon, start=1)))
