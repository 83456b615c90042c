"""Temporal correlation of periodic history with the prediction window.

For each sensor and attribute, the hourly/daily/weekly block preceding an
anchor timestamp is compared (via MIC at the fixed grid bound m^0.6,
`mic.ETA`) against the block immediately after it; averaging over anchors and
weighting by period type gives the statistics that drive the periodic-data
selection verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import SpatioTemporalTensor
from .errors import ConfigError, DataError, EmptyAnchorError
from .mic import ETA, MicStats, _grid_search, _profile, _score

PERIODS = ("hourly", "daily", "weekly")


@dataclass(frozen=True)
class PeriodSpec:
    """Window length tau plus the lookback offsets of the three period types."""

    tau: int = 12
    hourly_offset: int = 12
    daily_offset: int = 288
    weekly_offset: int = 2016

    def __post_init__(self):
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if not self.hourly_offset <= self.daily_offset <= self.weekly_offset:
            raise ConfigError(
                "offsets must be ordered hourly <= daily <= weekly, got "
                f"{self.hourly_offset}/{self.daily_offset}/{self.weekly_offset}")
        if min(self.hourly_offset, self.tau) < 1:
            raise ConfigError("offsets and tau must be positive")

    @classmethod
    def from_interval(cls, interval_minutes: int, tau: int = 12) -> "PeriodSpec":
        if 60 % interval_minutes != 0:
            raise ConfigError(
                f"interval_minutes must divide 60, got {interval_minutes}")
        hourly = 60 // interval_minutes
        return cls(tau=tau, hourly_offset=hourly, daily_offset=24 * hourly,
                   weekly_offset=7 * 24 * hourly)

    def offset_for(self, period: str) -> int:
        if period not in PERIODS:
            raise ConfigError(f"unknown period {period!r}")
        return getattr(self, f"{period}_offset")


@dataclass(frozen=True)
class TCorrWeights:
    """Period-type weights; defaults follow the forecasting-uncertainty rule
    of discounting older history."""

    hourly: float = 0.95
    daily: float = 0.95
    weekly: float = 0.85

    def __post_init__(self):
        for p in PERIODS:
            w = getattr(self, p)
            if not 0.0 < w <= 1.0:
                raise ConfigError(f"{p} weight must be in (0, 1], got {w}")

    def for_period(self, period: str) -> float:
        if period not in PERIODS:
            raise ConfigError(f"unknown period {period!r}")
        return getattr(self, period)


def anchor_positions(n_timestamps: int, spec: PeriodSpec) -> np.ndarray:
    """Anchors with full weekly history and a full target window, stepping by
    tau so successive targets do not overlap: an anchor t reads rows
    t - weekly_offset + 1 through t + tau, so t + tau <= n_timestamps - 1."""
    return np.arange(spec.weekly_offset - 1, n_timestamps - spec.tau, spec.tau)


def compute_tcorr(x: SpatioTemporalTensor, spec: PeriodSpec, period: str, *,
                  stats: MicStats | None = None) -> np.ndarray:
    """Unweighted temporal correlation degrees, shape (N, C).

    For each of the anchor_positions of x's length, the period block before
    it and the target block after it are both sliced from x; entry (i, c) is
    the anchor-average of mic(block[:, i, c], target[:, i, c]). Windows are
    scored in batches of whole anchors and accumulated in anchor order, so
    results are bit-reproducible and equal a per-window loop over
    `mic_full`. `stats`, when given, counts the windows scored.
    """
    if period not in PERIODS:
        raise ConfigError(f"unknown period {period!r}")
    t_total, n, c = x.data.shape
    anchors = anchor_positions(t_total, spec)
    if anchors.size == 0:
        raise EmptyAnchorError(
            f"no admissible anchors: need >= {spec.weekly_offset + spec.tau} "
            f"timestamps, got {t_total}")
    tau = spec.tau
    offset = spec.offset_for(period)
    search = _grid_search(tau)
    per_anchor = n * c
    steps = np.arange(tau)
    acc = np.zeros(per_anchor, dtype=np.float64)
    chunk = max(1, search.batch // per_anchor)
    for s in range(0, anchors.size, chunk):
        t = anchors[s:s + chunk]
        windows = t.size * per_anchor
        # (2 * anchors, tau, N, C) -> one tau-long row per window: every
        # (anchor, sensor, attribute) period block, then its target block
        starts = np.concatenate([t - offset + 1, t + 1])
        blocks = x.data[starts[:, None] + steps]
        rows = blocks.transpose(0, 2, 3, 1).reshape(2 * windows, tau)
        values, grids, degenerate = _score(
            search, _profile(rows), np.arange(windows),
            np.arange(windows, 2 * windows))
        for per_window in values.reshape(t.size, per_anchor):
            acc += per_window
        if stats is not None:
            stats.add(grids, degenerate)
    return (acc / anchors.size).reshape(n, c)


def weighted_tcorr(raw: np.ndarray, period: str,
                   weights: TCorrWeights | None = None) -> np.ndarray:
    """Scale raw degrees by the period-type weight."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.min() < 0.0 or raw.max() > 1.0:
        raise ConfigError("raw temporal correlation degrees must be in [0, 1]")
    return raw * (weights or TCorrWeights()).for_period(period)


def select_periods(delta_hd: float, delta_hw: float, delta_dw: float) -> tuple[str, ...]:
    """Decision rule mapping the contribution gaps to a period subset.

    Hourly is always the basis. Daily/weekly join when they beat hourly; when
    both beat hourly, the daily-vs-weekly gap decides whether weekly stays
    (ties keep daily alone: the cheaper window).
    """
    for name, d in (("hd", delta_hd), ("hw", delta_hw), ("dw", delta_dw)):
        if not np.isfinite(d):
            raise ConfigError(f"delta_{name} must be finite, got {d}")
    if delta_hd > 0 and delta_hw > 0:
        if delta_dw > 0:
            return ("hourly", "daily", "weekly")
        return ("hourly", "daily")
    if delta_hd > 0:
        return ("hourly", "daily")
    if delta_hw > 0:
        return ("hourly", "weekly")
    return ("hourly",)


def attribute_verdicts(deltas: dict[str, np.ndarray]) -> list[tuple[str, ...]]:
    """`select_periods` of each attribute's 'hd'/'hw'/'dw' deltas."""
    return [select_periods(float(hd), float(hw), float(dw))
            for hd, hw, dw in zip(deltas["hd"], deltas["hw"], deltas["dw"])]


def combine_verdicts(verdicts: list[tuple[str, ...]]) -> tuple[str, ...]:
    """Single verdict for the model: strict majority across attributes, ties
    toward fewer periods. Hourly is always present."""
    if not verdicts:
        raise ConfigError("no attribute verdicts to combine")
    chosen = ["hourly"]
    for p in ("daily", "weekly"):
        if 2 * sum(p in v for v in verdicts) > len(verdicts):
            chosen.append(p)
    return tuple(chosen)


@dataclass
class TCorrReport:
    """Weighted per-sensor degrees, attribute means, gaps, and verdicts."""

    per_sensor: dict[str, np.ndarray]        # period -> (N, C) weighted
    averages: dict[str, np.ndarray]          # period -> (C,)
    deltas: dict[str, np.ndarray]            # 'hd'/'hw'/'dw' -> (C,)
    verdict: list[tuple[str, ...]]           # one subset per attribute
    weights: TCorrWeights = field(default_factory=TCorrWeights)
    tau: int = 12
    dataset: str = ""

    @property
    def combined_verdict(self) -> tuple[str, ...]:
        return combine_verdicts(self.verdict)


def build_tcorr_report(x: SpatioTemporalTensor, spec: PeriodSpec,
                       weights: TCorrWeights | None = None,
                       dataset: str = "", *,
                       stats: MicStats | None = None) -> TCorrReport:
    """Weighted tcorr of every period over all anchor_positions of x, its sensor
    averages and their deltas, and the periods each attribute's deltas select."""
    weights = weights or TCorrWeights()
    per_sensor = {}
    averages = {}
    for p in PERIODS:
        raw = compute_tcorr(x, spec, p, stats=stats)
        per_sensor[p] = weighted_tcorr(raw, p, weights)
        averages[p] = per_sensor[p].mean(axis=0)
    deltas = {
        "hd": averages["daily"] - averages["hourly"],
        "hw": averages["weekly"] - averages["hourly"],
        "dw": averages["weekly"] - averages["daily"],
    }
    return TCorrReport(per_sensor=per_sensor, averages=averages, deltas=deltas,
                       verdict=attribute_verdicts(deltas), weights=weights,
                       tau=spec.tau, dataset=dataset)


# ---------------------------------------------------------------------------
# report IO

def report_to_dict(report: TCorrReport) -> dict:
    return {
        "dataset": report.dataset,
        "eta": ETA,
        "tau": report.tau,
        "weights": {p: report.weights.for_period(p) for p in PERIODS},
        "per_period_means": {p: report.averages[p].tolist() for p in PERIODS},
        "deltas": {k: v.tolist() for k, v in report.deltas.items()},
        "verdict": [list(v) for v in report.verdict],
        "combined_verdict": list(report.combined_verdict),
        "per_sensor": {p: report.per_sensor[p].tolist() for p in PERIODS},
    }


def report_from_dict(payload: dict) -> TCorrReport:
    weights = TCorrWeights(**payload["weights"])
    return TCorrReport(
        per_sensor={p: np.asarray(payload["per_sensor"][p], dtype=np.float64)
                    for p in PERIODS},
        averages={p: np.asarray(payload["per_period_means"][p], dtype=np.float64)
                  for p in PERIODS},
        deltas={k: np.asarray(payload["deltas"][k], dtype=np.float64)
                for k in ("hd", "hw", "dw")},
        verdict=[tuple(v) for v in payload["verdict"]],
        weights=weights, tau=payload["tau"],
        dataset=payload["dataset"])


def save_report(report: TCorrReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def load_report(path) -> TCorrReport:
    """A report saved by `save_report`; bad JSON, a missing field, a weight
    outside (0, 1], an empty verdict or an array whose shape does not fit
    the verdict's C attributes is a DataError: per-sensor degrees must be
    (N, C), means and deltas (C,). So is a non-finite delta, and a stored
    verdict or combined verdict that is not the one the deltas select: every
    reader of a report picks its periods from the deltas, and a stored
    verdict that says otherwise was edited."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
            report = report_from_dict(payload)
            stored_combined = tuple(payload["combined_verdict"])
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise DataError(f"{path}: malformed tcorr report ({exc!r})") from None
    n_attr = len(report.verdict)
    if n_attr == 0:
        raise DataError(f"{path}: malformed tcorr report (no attribute verdicts)")
    for field_name, arrays, ndim in (("per_sensor", report.per_sensor, 2),
                                     ("per_period_means", report.averages, 1),
                                     ("deltas", report.deltas, 1)):
        for key, v in arrays.items():
            if v.ndim != ndim or v.shape[-1] != n_attr:
                raise DataError(
                    f"{path}: malformed tcorr report ({field_name} {key} has "
                    f"shape {v.shape}, expected {'(N, C)' if ndim == 2 else '(C,)'} "
                    f"with C = {n_attr}, the verdict's attribute count)")
    for key, v in report.deltas.items():
        if not np.isfinite(v).all():
            raise DataError(f"{path}: malformed tcorr report (deltas {key} "
                            f"{v.tolist()} are not all finite)")
    verdict = attribute_verdicts(report.deltas)
    combined = combine_verdicts(verdict)
    if report.verdict != verdict or stored_combined != combined:
        raise DataError(
            f"{path}: tcorr report verdict {[list(v) for v in report.verdict]} "
            f"and combined verdict {list(stored_combined)} disagree with its "
            f"deltas, which select {[list(v) for v in verdict]} and "
            f"{list(combined)}")
    return report
