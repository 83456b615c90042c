"""Temporal correlation of periodic history with the prediction window.

For each sensor and attribute, the hourly/daily/weekly block preceding an
anchor timestamp (placed by `PeriodSpec`) is compared via MIC at the fixed
grid bound m^0.6, `mic.ETA`, against the block immediately after it;
averaging over anchors and weighting by period type gives the per-sensor
degrees of a `TCorrReport`. Its period means, their gaps and the selection
verdicts are derived from those degrees, never stored apart from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SpatioTemporalTensor, read_json, write_json
from .errors import ConfigError, DataError, EmptyAnchorError
from .mic import ETA, MicStats, _grid_search, _profile, _score

PERIODS = ("hourly", "daily", "weekly")


@dataclass(frozen=True)
class PeriodSpec:
    """Window length tau at an interval dividing 60 minutes. Offsets are
    derived: hourly is tau (the block right before the target), daily and
    weekly a day and a week of steps; tau <= a day keeps all off the target."""

    tau: int = 12
    interval_minutes: int = 5
    hourly_offset: int = field(init=False)
    daily_offset: int = field(init=False)
    weekly_offset: int = field(init=False)

    def __post_init__(self):
        if self.interval_minutes < 1 or 60 % self.interval_minutes != 0:
            raise ConfigError("interval_minutes must divide 60, got "
                              f"{self.interval_minutes}")
        day = 24 * 60 // self.interval_minutes
        if not 1 <= self.tau <= day:
            raise ConfigError(f"tau must be in [1, {day}] (a day of steps), "
                              f"got {self.tau}")
        for period, offset in zip(PERIODS, (self.tau, day, 7 * day)):
            object.__setattr__(self, f"{period}_offset", offset)

    @classmethod
    def from_interval(cls, interval_minutes: int, tau: int = 12) -> "PeriodSpec":
        return cls(tau=tau, interval_minutes=interval_minutes)

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
    offset = spec.offset_for(period)
    t_total, n, c = x.data.shape
    anchors = anchor_positions(t_total, spec)
    if anchors.size == 0:
        raise EmptyAnchorError(
            f"no admissible anchors: need >= {spec.weekly_offset + spec.tau} "
            f"timestamps, got {t_total}")
    tau = spec.tau
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
    """Weighted per-sensor degrees, the one stored fact of a report; their
    attribute means, the gaps between those, and the periods each attribute's
    gaps select are derived from them on every read."""

    per_sensor: dict[str, np.ndarray]        # period -> (N, C) weighted
    weights: TCorrWeights = field(default_factory=TCorrWeights)
    tau: int = 12
    dataset: str = ""

    @property
    def averages(self) -> dict[str, np.ndarray]:    # period -> (C,)
        return {p: self.per_sensor[p].mean(axis=0) for p in PERIODS}

    @property
    def deltas(self) -> dict[str, np.ndarray]:      # 'hd'/'hw'/'dw' -> (C,)
        a = self.averages
        return {"hd": a["daily"] - a["hourly"], "hw": a["weekly"] - a["hourly"],
                "dw": a["weekly"] - a["daily"]}

    @property
    def verdict(self) -> list[tuple[str, ...]]:     # one subset per attribute
        d = self.deltas
        return [select_periods(float(hd), float(hw), float(dw))
                for hd, hw, dw in zip(d["hd"], d["hw"], d["dw"])]

    @property
    def combined_verdict(self) -> tuple[str, ...]:
        return combine_verdicts(self.verdict)


def build_tcorr_report(x: SpatioTemporalTensor, spec: PeriodSpec,
                       weights: TCorrWeights | None = None,
                       dataset: str = "", *,
                       stats: MicStats | None = None) -> TCorrReport:
    """Weighted tcorr of every period over all anchor_positions of x."""
    weights = weights or TCorrWeights()
    per_sensor = {p: weighted_tcorr(compute_tcorr(x, spec, p, stats=stats),
                                    p, weights)
                  for p in PERIODS}
    return TCorrReport(per_sensor=per_sensor, weights=weights, tau=spec.tau,
                       dataset=dataset)


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


def save_report(report: TCorrReport, path) -> None:
    write_json(path, report_to_dict(report))


def load_report(path) -> TCorrReport:
    """A report saved by `save_report`. Bad JSON, a missing field or a weight
    outside (0, 1] is a DataError, and so are per-sensor degrees that are not
    one (N, C) shape with N, C >= 1 for all three periods, or not all within
    [0, the period's weight], and a tau that is not a positive int. The
    stored means, deltas, verdicts and combined verdict must then equal
    exactly what the per-sensor degrees give: every reader of a report takes
    them from the degrees, and a stored copy that says otherwise was edited."""
    def malformed(why: str) -> DataError:
        return DataError(f"{path}: malformed tcorr report ({why})")

    try:
        payload = read_json(path)
        report = TCorrReport(
            per_sensor={p: np.asarray(payload["per_sensor"][p],
                                      dtype=np.float64) for p in PERIODS},
            weights=TCorrWeights(**payload["weights"]),
            tau=payload["tau"], dataset=payload["dataset"])
        stored = {k: payload[k] for k in ("per_period_means", "deltas",
                                          "verdict", "combined_verdict")}
    except (ValueError, KeyError, TypeError, OverflowError,
            ConfigError) as exc:
        raise malformed(repr(exc)) from None
    shape = report.per_sensor["hourly"].shape
    for p, v in report.per_sensor.items():
        weight = report.weights.for_period(p)
        if v.shape != shape or v.ndim != 2 or 0 in shape:
            raise malformed(f"per_sensor {p} has shape {v.shape}, expected one "
                            f"(N, C) shape with N, C >= 1 for all periods")
        # written so that NaN, which fails every comparison, is refused too
        if not np.all((v >= 0.0) & (v <= weight)):
            raise malformed(f"per_sensor {p} has degrees NaN or outside "
                            f"[0, {weight}], its weight")
    if type(report.tau) is not int or report.tau < 1:
        raise malformed(f"tau {report.tau!r} is not a positive int")
    derived = report_to_dict(report)
    for key in ("per_period_means", "deltas"):
        if stored[key] != derived[key]:
            raise malformed(f"{key} {stored[key]} disagree with its per-sensor "
                            f"degrees, which give {derived[key]}")
    if [stored["verdict"], stored["combined_verdict"]] != \
            [derived["verdict"], derived["combined_verdict"]]:
        raise malformed(
            f"verdict {stored['verdict']} and combined verdict "
            f"{stored['combined_verdict']} disagree with its deltas, which "
            f"select {derived['verdict']} and {derived['combined_verdict']}")
    return report
