import itertools

import numpy as np
import pytest

from corrstn import (PERIODS, PeriodSpec, SpatioTemporalTensor, TCorrWeights,
                     anchor_positions, build_tcorr_report, combine_verdicts,
                     compute_tcorr, load_report, mic, save_report,
                     select_periods)
from corrstn.errors import ConfigError, EmptyAnchorError, OutOfRangeError
from corrstn.mic import DEFAULT_ETA, MicStats, _GridSearch
from corrstn.tcorr import weighted_tcorr
from oracles import tcorr_per_window


def _tensor(t, n=2, c=1, seed=0, interval=5):
    data = np.random.default_rng(seed).normal(size=(t, n, c))
    return SpatioTemporalTensor(data, interval_minutes=interval)


def test_period_spec_defaults_match_five_minute_sampling():
    spec = PeriodSpec()
    assert (spec.tau, spec.hourly_offset, spec.daily_offset,
            spec.weekly_offset) == (12, 12, 288, 2016)
    assert PeriodSpec.from_interval(5) == spec


def test_period_spec_from_other_intervals():
    spec = PeriodSpec.from_interval(30, tau=4)
    assert (spec.hourly_offset, spec.daily_offset, spec.weekly_offset) == (2, 48, 336)
    with pytest.raises(ConfigError):
        PeriodSpec.from_interval(7)


def test_period_spec_validation():
    with pytest.raises(ConfigError):
        PeriodSpec(tau=0)
    with pytest.raises(ConfigError):
        PeriodSpec(hourly_offset=10, daily_offset=5, weekly_offset=20)


def test_weights_defaults_and_validation():
    w = TCorrWeights()
    assert (w.hourly, w.daily, w.weekly) == (0.95, 0.95, 0.85)
    with pytest.raises(ConfigError):
        TCorrWeights(daily=0.0)
    with pytest.raises(ConfigError):
        TCorrWeights(weekly=1.2)


def test_compute_tcorr_refuses_anchors_out_of_range():
    spec = PeriodSpec.from_interval(60, tau=3)  # offsets 1 / 24 / 168
    x = _tensor(t=200)
    with pytest.raises(OutOfRangeError):
        compute_tcorr(x, spec, "weekly", anchors=[150, 166])  # window starts at -1
    with pytest.raises(OutOfRangeError):
        compute_tcorr(x, spec, "hourly", anchors=[100, 197])  # target ends at 200
    # the last in-range anchor on each side
    compute_tcorr(x, spec, "weekly", anchors=[167, 196])


def test_anchor_positions_step_tau():
    spec = PeriodSpec.from_interval(60, tau=3)  # weekly offset 168
    anchors = anchor_positions(400, spec)
    assert anchors[0] == 167
    assert np.all(np.diff(anchors) == 3)
    assert anchors[-1] + 3 <= 400 - 1 + 1
    assert anchors[-1] + spec.tau <= 399 + 1


def test_compute_tcorr_single_anchor_matches_mic():
    spec = PeriodSpec.from_interval(60, tau=8)
    x = _tensor(t=400, n=3, c=2, seed=1, interval=60)
    t = 250
    got = compute_tcorr(x, spec, "daily", anchors=[t])
    # the window for offset P covers [t-P+1, t-P+tau], the target [t+1, t+tau]
    daily, target = x.data[227:235], x.data[251:259]
    for i in range(3):
        for a in range(2):
            assert got[i, a] == mic(daily[:, i, a], target[:, i, a])


def test_compute_tcorr_averages_over_anchors():
    spec = PeriodSpec.from_interval(60, tau=6)
    x = _tensor(t=420, n=2, c=1, seed=3, interval=60)
    single = [compute_tcorr(x, spec, "hourly", anchors=[t])
              for t in (200, 230, 260)]
    combined = compute_tcorr(x, spec, "hourly", anchors=[200, 230, 260])
    assert np.allclose(combined, sum(single) / 3, atol=1e-15)


def test_compute_tcorr_matches_per_window_loop_across_batches():
    # rounded values give tied windows, and on the coarse sensors also
    # zero-variance ones; 10 sensors x 3 attributes over 200 anchors is more
    # windows than one kernel batch
    spec = PeriodSpec.from_interval(60, tau=12)
    rng = np.random.default_rng(9)
    t_total = spec.weekly_offset + spec.tau * 201
    scale = np.where(np.arange(10) < 4, 0.3, 2.0)[None, :, None]
    series = np.round(rng.normal(size=(t_total, 10, 3)) * scale)
    anchors = anchor_positions(t_total, spec)
    windows = anchors.size * 30
    assert windows > _GridSearch(spec.tau, DEFAULT_ETA).batch
    stats = MicStats()
    got = compute_tcorr(SpatioTemporalTensor(series, interval_minutes=60),
                        spec, "daily", stats=stats)
    offset = spec.daily_offset
    want = tcorr_per_window(series, series, offset, spec.tau, anchors)
    assert np.array_equal(got, want)
    flat = sum(int(np.ptp(series[t - offset + 1:t - offset + 1 + spec.tau, i, a]) == 0
                   or np.ptp(series[t + 1:t + 1 + spec.tau, i, a]) == 0)
               for t in anchors for i in range(10) for a in range(3))
    assert flat > 0
    assert (stats.scored, stats.degenerate) == (windows, flat)
    assert stats.grid_shapes == {(2, 2): windows - flat}


def test_compute_tcorr_empty_anchors():
    spec = PeriodSpec.from_interval(5)
    with pytest.raises(EmptyAnchorError):
        compute_tcorr(_tensor(t=500), spec, "hourly")


def test_weighted_tcorr_applies_exact_weights():
    raw = np.array([[0.4, 0.8], [0.0, 1.0]])
    assert np.array_equal(weighted_tcorr(raw, "hourly"), raw * 0.95)
    assert np.array_equal(weighted_tcorr(raw, "daily"), raw * 0.95)
    assert np.array_equal(weighted_tcorr(raw, "weekly"), raw * 0.85)
    with pytest.raises(ConfigError):
        weighted_tcorr(np.array([1.2]), "daily")


# the verdict expected for every sign pattern (hd, hw, dw); hourly is always
# kept, daily joins when it beats hourly, weekly needs to beat both
_DECISION_TABLE = {
    (1, 1, 1): ("hourly", "daily", "weekly"),
    (1, 1, 0): ("hourly", "daily"),
    (1, 1, -1): ("hourly", "daily"),
    (1, 0, 1): ("hourly", "daily"),
    (1, 0, 0): ("hourly", "daily"),
    (1, 0, -1): ("hourly", "daily"),
    (1, -1, 1): ("hourly", "daily"),
    (1, -1, 0): ("hourly", "daily"),
    (1, -1, -1): ("hourly", "daily"),
    (0, 1, 1): ("hourly", "weekly"),
    (0, 1, 0): ("hourly", "weekly"),
    (0, 1, -1): ("hourly", "weekly"),
    (0, 0, 1): ("hourly",),
    (0, 0, 0): ("hourly",),
    (0, 0, -1): ("hourly",),
    (0, -1, 1): ("hourly",),
    (0, -1, 0): ("hourly",),
    (0, -1, -1): ("hourly",),
    (-1, 1, 1): ("hourly", "weekly"),
    (-1, 1, 0): ("hourly", "weekly"),
    (-1, 1, -1): ("hourly", "weekly"),
    (-1, 0, 1): ("hourly",),
    (-1, 0, 0): ("hourly",),
    (-1, 0, -1): ("hourly",),
    (-1, -1, 1): ("hourly",),
    (-1, -1, 0): ("hourly",),
    (-1, -1, -1): ("hourly",),
}


def test_select_periods_decision_table():
    assert len(_DECISION_TABLE) == 27
    for signs, want in _DECISION_TABLE.items():
        deltas = [s * 0.1 for s in signs]
        assert select_periods(*deltas) == want, signs


def test_select_periods_rejects_nan():
    with pytest.raises(ConfigError):
        select_periods(float("nan"), 0.1, 0.1)


def test_combine_verdicts_majority():
    hdw = ("hourly", "daily", "weekly")
    hd = ("hourly", "daily")
    h = ("hourly",)
    assert combine_verdicts([hd, hd, h]) == hd
    assert combine_verdicts([hdw, hd, h]) == hd          # weekly only 1/3
    assert combine_verdicts([hdw, hdw, h]) == hdw
    assert combine_verdicts([hd, h]) == h                # tie drops daily
    assert combine_verdicts([h]) == h
    with pytest.raises(ConfigError):
        combine_verdicts([])


def test_report_round_trip(tmp_path):
    x = _tensor(t=420, n=3, c=2, seed=8, interval=60)
    spec = PeriodSpec.from_interval(60, tau=6)
    report = build_tcorr_report(x, spec, dataset="unit")
    assert set(report.per_sensor) == set(PERIODS)
    for p in PERIODS:
        assert report.per_sensor[p].shape == (3, 2)
        assert np.allclose(report.averages[p],
                           report.per_sensor[p].mean(axis=0), atol=1e-15)
    assert np.allclose(report.deltas["hd"],
                       report.averages["daily"] - report.averages["hourly"],
                       atol=1e-15)
    path = tmp_path / "report.json"
    save_report(report, path)
    loaded = load_report(path)
    assert loaded.dataset == "unit"
    assert loaded.verdict == report.verdict
    assert loaded.combined_verdict == report.combined_verdict
    for p in PERIODS:
        assert np.allclose(loaded.per_sensor[p], report.per_sensor[p],
                           atol=1e-15)
