import numpy as np
import pytest

from corrstn import (PERIODS, PeriodSpec, SpatioTemporalTensor, TCorrWeights,
                     anchor_positions, assemble_samples, build_tcorr_report,
                     combine_verdicts, compute_tcorr, load_report, mic,
                     save_report, select_periods)
from corrstn import tcorr as tcorr_mod
from corrstn.errors import ConfigError, EmptyAnchorError
from corrstn.mic import MicStats, _GridSearch
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
    assert (spec.hourly_offset, spec.daily_offset, spec.weekly_offset) == (4, 48, 336)
    with pytest.raises(ConfigError):
        PeriodSpec.from_interval(7)


def test_period_spec_validation():
    with pytest.raises(ConfigError):
        PeriodSpec(tau=0)
    with pytest.raises(ConfigError, match="interval_minutes must divide 60"):
        PeriodSpec(interval_minutes=7)
    # one day of hourly steps is 24: a longer window would overlap its target
    with pytest.raises(ConfigError, match=r"tau must be in \[1, 24\]"):
        PeriodSpec(tau=25, interval_minutes=60)
    assert PeriodSpec(tau=24, interval_minutes=60).daily_offset == 24


def _assert_blocks_precede_targets(period, tau, anchors, blocks, targets):
    """Each target is the tau rows after its anchor, and its period block
    shares no row with it; the hourly block is the tau rows up to the
    anchor, so its last row is the anchor itself."""
    for anchor, block, target in zip(anchors, blocks.tolist(), targets.tolist()):
        assert target == list(range(anchor + 1, anchor + tau + 1))
        assert not set(block) & set(target), (period, anchor)
        if period == "hourly":
            assert block == list(range(anchor - tau + 1, anchor + 1))


@pytest.mark.parametrize("interval", (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60))
def test_period_blocks_never_overlap_their_target_at_any_interval(
        monkeypatch, interval):
    # the hourly offset was once 60 // interval steps: at 15 minutes 4, so 8
    # of the 12 hourly rows tcorr scored were rows of their own target, and
    # assemble_samples refused it as shorter than the horizon
    spec = PeriodSpec.from_interval(interval, tau=12)
    tau, t_total = spec.tau, spec.weekly_offset + 3 * spec.tau
    # one sensor whose value is its row index: the rows read are the values
    x = SpatioTemporalTensor(np.arange(t_total, dtype=np.float64)[:, None, None],
                             interval_minutes=interval)
    anchors = anchor_positions(t_total, spec).tolist()
    assert len(anchors) == 3
    # compute_tcorr profiles one tau-long row per window: the period blocks
    # of all anchors, then their targets
    profile, scored = tcorr_mod._profile, []
    monkeypatch.setattr(tcorr_mod, "_profile",
                        lambda rows: scored.append(rows.astype(int)) or profile(rows))
    for period in PERIODS:
        scored.clear()
        compute_tcorr(x, spec, period)
        (rows,) = scored
        _assert_blocks_precede_targets(period, tau, anchors, rows[:3], rows[3:])
    # assemble_samples puts the period blocks side by side, slow to fast
    samples = assemble_samples(x, (0, t_total), PERIODS,
                               {p: spec.offset_for(p) for p in PERIODS}, tau)
    encoder = samples.encoder_input[:][..., 0, 0].astype(int)
    targets = samples.target[..., 0, 0].astype(int)
    assert len(samples) == t_total - spec.weekly_offset - tau + 1
    for k, period in enumerate(samples.periods):
        _assert_blocks_precede_targets(period, tau, samples.anchors.tolist(),
                                       encoder[:, k * tau:(k + 1) * tau], targets)


def test_weights_defaults_and_validation():
    w = TCorrWeights()
    assert (w.hourly, w.daily, w.weekly) == (0.95, 0.95, 0.85)
    with pytest.raises(ConfigError):
        TCorrWeights(daily=0.0)
    with pytest.raises(ConfigError):
        TCorrWeights(weekly=1.2)


def test_anchor_positions_step_tau():
    spec = PeriodSpec.from_interval(60, tau=3)  # weekly offset 168
    anchors = anchor_positions(400, spec)
    assert anchors[0] == 167
    assert np.all(np.diff(anchors) == 3)
    # the next anchor, 398, would need target rows 399-401 of 0-399
    assert anchors[-1] == 395


@pytest.mark.parametrize("t_total", range(188, 206))
def test_last_anchor_target_ends_inside_the_series(t_total):
    # hourly data, tau 12: the first anchor is 167, and whenever
    # t_total - 12 - 167 is a multiple of 12 (191 and 203 here) the last
    # anchor's target block once needed row t_total
    spec = PeriodSpec.from_interval(60)
    anchors = anchor_positions(t_total, spec)
    assert anchors[0] == 167 and anchors[-1] + spec.tau <= t_total - 1
    assert anchors[-1] + 2 * spec.tau > t_total - 1
    x = _tensor(t=t_total, n=2, c=1, seed=t_total, interval=60)
    for period in PERIODS:
        offset = spec.offset_for(period)
        want = tcorr_per_window(x.data, x.data, offset, spec.tau, anchors)
        assert np.array_equal(compute_tcorr(x, spec, period), want)


def test_compute_tcorr_single_anchor_matches_mic():
    # 176 rows leave one anchor, 167, whose target block ends on row 175
    spec = PeriodSpec.from_interval(60, tau=8)
    x = _tensor(t=176, n=3, c=2, seed=1, interval=60)
    assert anchor_positions(176, spec).tolist() == [167]
    got = compute_tcorr(x, spec, "daily")
    # the window for offset P covers [t-P+1, t-P+tau], the target [t+1, t+tau]
    daily, target = x.data[144:152], x.data[168:176]
    for i in range(3):
        for a in range(2):
            assert got[i, a] == mic(daily[:, i, a], target[:, i, a])


def test_compute_tcorr_averages_over_anchors():
    spec = PeriodSpec.from_interval(60, tau=6)
    x = _tensor(t=420, n=2, c=1, seed=3, interval=60)
    anchors = anchor_positions(420, spec)
    assert anchors.size > 30
    for period in PERIODS:
        want = tcorr_per_window(x.data, x.data, spec.offset_for(period), spec.tau,
                                anchors)
        assert np.array_equal(compute_tcorr(x, spec, period), want)


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
    assert windows > _GridSearch(spec.tau).batch
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


def test_saved_report_loads_and_saves_to_the_same_bytes(tmp_path):
    # the means, deltas and verdicts are derived from the per-sensor degrees
    # on load, and a saved file must carry exactly what they derive to
    x = _tensor(t=420, n=3, c=2, seed=8, interval=60)
    report = build_tcorr_report(x, PeriodSpec.from_interval(60, tau=6),
                                dataset="unit")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_report(report, first)
    save_report(load_report(first), second)
    assert second.read_bytes() == first.read_bytes()
