import itertools
import math
import re

import numpy as np
import pytest

from corrstn import (SpatioTemporalTensor, assemble_samples, denormalize,
                     fit_normalization, generate_synthetic, load_dataset,
                     load_tensor, normalize, save_tensor, split_ranges)
from corrstn.data import EncoderWindows, iterate_batches, load_edges, save_edges
from corrstn.errors import ConfigError, DataError, DimensionError
from oracles import encoder_by_gather, synthetic_by_sines, traced_peak


def _tensor(t=40, n=3, c=2, seed=0):
    data = np.random.default_rng(seed).normal(size=(t, n, c)) * 5 + 10
    return SpatioTemporalTensor(data, interval_minutes=5)


def test_tensor_validation():
    with pytest.raises(DimensionError):
        SpatioTemporalTensor(np.zeros((4, 3)))
    with pytest.raises(DataError):
        SpatioTemporalTensor(np.full((2, 2, 1), np.nan))
    with pytest.raises(ConfigError):
        SpatioTemporalTensor(np.zeros((2, 2, 1)), interval_minutes=0)


def test_binary_round_trip(tmp_path):
    x = _tensor()
    path = tmp_path / "series.sttf"
    save_tensor(x, path)
    loaded = load_tensor(path)
    assert loaded.interval_minutes == 5
    assert np.array_equal(loaded.data, x.data)
    # header: magic, version, T, N, C, interval as little-endian u32
    raw = path.read_bytes()
    assert raw[:4] == b"STTF"
    assert int.from_bytes(raw[8:12], "little") == 40
    assert len(raw) == 24 + 40 * 3 * 2 * 8


def test_binary_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.sttf"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(DataError):
        load_tensor(path)
    truncated = tmp_path / "short.sttf"
    save_tensor(_tensor(), truncated)
    blob = truncated.read_bytes()
    truncated.write_bytes(blob[:-8])
    with pytest.raises(DataError):
        load_tensor(truncated)


def test_csv_round_trip_and_sensor_ordering(tmp_path):
    x = _tensor(t=6, n=3, c=2)
    path = tmp_path / "series.csv"
    ids = ["s10", "s2", "s1"]
    # repr of a Python float parses back to the same bits
    path.write_text("timestamp,sensor,attr0,attr1\n" + "".join(
        f"{t},{ids[n]}," + ",".join(repr(float(v)) for v in x.data[t, n]) + "\n"
        for t in range(6) for n in range(3)))
    ds = load_dataset(path)
    # lexicographic: s1 < s10 < s2 -> columns permuted vs original 0,1,2
    assert ds.sensor_ids == ["s1", "s10", "s2"]
    assert np.array_equal(ds.tensor.data[:, 0], x.data[:, 2])
    assert np.array_equal(ds.tensor.data[:, 1], x.data[:, 0])
    assert np.array_equal(ds.tensor.data[:, 2], x.data[:, 1])


def test_csv_missing_combination(tmp_path):
    path = tmp_path / "holes.csv"
    path.write_text("timestamp,sensor,attr0\n0,a,1.0\n0,b,2.0\n1,a,3.0\n")
    with pytest.raises(DataError):
        load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_csv_non_finite_value_is_not_a_hole(tmp_path, value):
    # every (timestamp, sensor) combination is present; one value is not finite
    path = tmp_path / "series.csv"
    path.write_text(f"timestamp,sensor,flow\n0,a,1.0\n0,b,{value}\n"
                    "1,a,3.0\n1,b,4.0\n")
    with pytest.raises(DataError, match="NaN or infinite"):
        load_dataset(path)


def test_csv_duplicate_row_names_its_line(tmp_path):
    # a repeated (timestamp, sensor) row must not silently replace the first
    path = tmp_path / "dup.csv"
    path.write_text("timestamp,sensor,flow\n0,a,1.0\n0,b,2.0\n1,a,3.0\n"
                    "1,b,4.0\n1,a,9.0\n")
    with pytest.raises(DataError, match=r"dup\.csv:6: duplicate row"):
        load_dataset(path)


def test_edges_undirected_default(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\na,b,2.0\nb,c,0.5\n")
    adj = load_edges(path, ["a", "b", "c"])
    assert adj[0, 1] == 2.0 and adj[1, 0] == 2.0
    assert adj[1, 2] == 0.5 and adj[2, 1] == 0.5
    assert adj[0, 2] == 0.0


def test_edges_directed_flag_and_errors(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("# directed=true\nfrom,to\na,b\n")
    adj = load_edges(path, ["a", "b"])
    assert adj[0, 1] == 1.0 and adj[1, 0] == 0.0
    bad = tmp_path / "bad.csv"
    for text in ("from,to\na,zzz\n", "from\na,b\n", "from,to,weight\na,b,nan\n",
                 "from,to,weight\na,b,inf\n", "from,to,weight\na,b,-2\n"):
        bad.write_text(text)
        with pytest.raises(DataError, match=re.escape(f"{bad}:")):
            load_edges(bad, ["a", "b"])


def test_edges_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    weights = rng.uniform(0.1, 3.0, size=(5, 5)) * (rng.random((5, 5)) < 0.6)
    adjacency = np.triu(weights, k=1) + np.triu(weights, k=1).T
    ids = ["s3", "s0", "s11", "s2", "s7"]
    path = tmp_path / "edges.csv"
    save_edges(path, adjacency, ids)
    assert path.read_text().startswith("# directed=false\nfrom,to,weight\n")
    assert np.array_equal(load_edges(path, ids), adjacency)


def test_split_ranges_truncation():
    assert split_ranges(100) == ((0, 60), (60, 80), (80, 100))
    # 6:2:2 with awkward totals: boundaries truncate, test gets the remainder
    assert split_ranges(17) == ((0, 10), (10, 13), (13, 17))
    with pytest.raises(ConfigError):
        split_ranges(10, (0.5, 0.2, 0.2))


@pytest.mark.parametrize("ratios", [(float("nan"), 0.5, 0.5),
                                    (0.5, float("nan"), 0.5),
                                    (float("inf"), 0.5, 0.5)])
def test_split_ranges_refuses_non_finite_ratios(ratios):
    # NaN compares false both ways, so a range check alone lets it through
    with pytest.raises(ConfigError, match="finite"):
        split_ranges(100, ratios)


def test_normalize_round_trip_and_train_only_fit():
    x = _tensor(t=50, n=2, c=2, seed=3)
    params = fit_normalization(x, (0, 30))
    assert params.shape == (2, 2)
    scaled = normalize(x.data, params)
    train = scaled[:30]
    # train block exactly fills [-1, 1]; later rows may exceed it
    assert abs(train.min() + 1.0) < 1e-12 and abs(train.max() - 1.0) < 1e-12
    for a in range(2):
        assert np.allclose(denormalize(scaled[..., a], params, attribute=a),
                           x.data[..., a], atol=1e-12)
    flat = x.data.copy()
    flat[:, :, 1] = 7.0
    with pytest.raises(DataError):
        fit_normalization(SpatioTemporalTensor(flat), (0, 30))


def test_assemble_samples_alignment():
    x = _tensor(t=60, n=2, c=2, seed=4)
    offsets = {"hourly": 4, "daily": 16}
    got = assemble_samples(x, (20, 40), ("hourly", "daily"), offsets, horizon=4)
    # anchors: first 19 (split start - 1), last 35 (39 - horizon)
    assert got.anchors[0] == 19 and got.anchors[-1] == 35
    assert len(got) == 17
    assert got.periods == ("daily", "hourly")   # slow block first
    t = int(got.anchors[0])
    daily = x.data[t - 16 + 1:t - 16 + 5]
    hourly = x.data[t - 4 + 1:t - 4 + 5]
    assert np.array_equal(got.encoder_input[0][:4], daily)
    assert np.array_equal(got.encoder_input[0][4:], hourly)
    assert np.array_equal(got.decoder_input[0], x.data[t:t + 4])
    assert np.array_equal(got.target[0], x.data[t + 1:t + 5, :, :1])


@pytest.mark.parametrize("periods", [("hourly",), ("daily", "hourly"),
                                     ("weekly", "daily", "hourly")])
def test_assemble_samples_are_views_equal_to_gathers(periods):
    x = _tensor(t=70, n=3, c=2, seed=8)
    offsets = {"hourly": 4, "daily": 9, "weekly": 21}
    got = assemble_samples(x, (30, 55), periods, offsets, horizon=4)
    steps = got.anchors[:, None] + np.arange(4)[None, :]
    encoder = encoder_by_gather(x.data, got.anchors, got.periods, offsets, 4)
    assert isinstance(got.encoder_input, EncoderWindows)
    assert np.array_equal(got.encoder_input, encoder)
    assert np.array_equal(got.decoder_input, x.data[steps])
    assert np.array_equal(got.target, x.data[steps + 1][..., :1])
    for view in (got.decoder_input, got.target):
        assert np.shares_memory(view, x.data)
        assert not view.flags.writeable


_INDEX_KINDS = [0, 7, -1, -22, slice(None), slice(3, 17), slice(2, None, 3),
                slice(None, None, -4), np.array([4, 0, 4, -1, 11]), [2, 1],
                np.arange(22) % 2 == 0]
# a sample index, then an index into the gathered rows
_THEN_KINDS = [(0, np.s_[:4]), (slice(None), np.s_[:, 0, 0, 0]),
               (np.array([5, 3]), np.s_[:, 4:, 1]), (-2, np.s_[..., 1]),
               (slice(1, 9, 2), np.s_[:, -1, :, 0:1])]


@pytest.mark.parametrize("periods", [("hourly",), ("daily", "hourly"),
                                     ("weekly", "daily", "hourly")])
def test_encoder_windows_gather_like_the_oracle(periods):
    x = _tensor(t=70, n=3, c=2, seed=9)
    offsets = {"hourly": 4, "daily": 9, "weekly": 21}
    samples = assemble_samples(x, (30, 55), periods, offsets, horizon=4)
    got = samples.encoder_input
    want = encoder_by_gather(x.data, samples.anchors, samples.periods, offsets, 4)
    assert got.shape == want.shape == (22, 4 * len(periods), 3, 2)
    assert (got.ndim, got.dtype, len(got)) == (4, np.float64, 22)
    assert got.nbytes == want.nbytes
    for key in _INDEX_KINDS:
        rows = got[key]
        assert isinstance(rows, np.ndarray)
        assert rows.flags.c_contiguous and rows.dtype == np.float64
        assert not np.shares_memory(rows, x.data)
        assert np.array_equal(rows, want[key]) and rows.shape == want[key].shape
    for key, then in _THEN_KINDS:
        rows = got[key][then]
        assert np.array_equal(rows, want[key][then]) and rows.shape == want[key][then].shape
    whole = np.asarray(got)
    assert np.array_equal(whole, want) and not np.shares_memory(whole, x.data)
    with pytest.raises(IndexError):
        got[22]
    # only the sample axis is indexed; the caller slices the gathered rows
    for key in [(0, [0, 1]), (Ellipsis, 0), (0, slice(None, 4)),
                (slice(None), 0, 0, 0), (np.array([5, 3]), Ellipsis, 1)]:
        with pytest.raises(IndexError):
            got[key]
    with pytest.raises(ValueError):
        np.asarray(got, copy=False)


def test_assembling_bench_sized_splits_copies_no_encoder_rows():
    # the benchmark's train-pems08 shape: 3 weeks at 5 minutes, N = 96, C = 3;
    # its train and val encoder inputs come to 221.5 MiB when materialized
    x = SpatioTemporalTensor(np.zeros((3 * 2016, 96, 3)), interval_minutes=5)
    ranges = split_ranges(x.n_timestamps)
    periods = ("hourly", "daily", "weekly")
    offsets = {"hourly": 12, "daily": 288, "weekly": 2016}
    peak, splits = traced_peak(lambda: [
        assemble_samples(x, ranges[k], periods, offsets, 12) for k in (0, 1)])
    assert [len(s) for s in splits] == [1601, 1199]
    assert sum(s.encoder_input.nbytes for s in splits) == 232_243_200
    assert peak < 2 ** 20


def test_assemble_samples_guards():
    x = _tensor(t=30)
    with pytest.raises(ConfigError):
        assemble_samples(x, (0, 30), ("daily",), {"daily": 10}, 4)
    with pytest.raises(ConfigError):
        assemble_samples(x, (0, 30), ("hourly",), {"hourly": 2}, 4)
    with pytest.raises(DataError):
        assemble_samples(x, (0, 8), ("hourly",), {"hourly": 12}, 4)


def test_iterate_batches_cover_everything():
    x = _tensor(t=40)
    samples = assemble_samples(x, (10, 38), ("hourly",), {"hourly": 6}, 3)
    seen = []
    for enc, dec, tgt in iterate_batches(samples, 4, np.random.default_rng(0)):
        assert enc.shape[0] == dec.shape[0] == tgt.shape[0] <= 4
        seen.extend(enc[:, 0, 0, 0].tolist())
    assert sorted(seen) == sorted(samples.encoder_input[:][:, 0, 0, 0].tolist())


def test_synthetic_determinism_and_shape():
    a = generate_synthetic(n_sensors=4, weeks=2, seed=5)
    b = generate_synthetic(n_sensors=4, weeks=2, seed=5)
    c = generate_synthetic(n_sensors=4, weeks=2, seed=6)
    assert np.array_equal(a.tensor.data, b.tensor.data)
    assert not np.array_equal(a.tensor.data, c.tensor.data)
    assert a.tensor.data.shape == (2 * 7 * 288, 4, 1)
    with pytest.raises(ConfigError):
        generate_synthetic(n_sensors=4, weeks=1)


def test_synthetic_ring_adjacency():
    ds = generate_synthetic(n_sensors=5, weeks=2, seed=0)
    adj = ds.adjacency
    assert np.array_equal(adj, adj.T)
    for i in range(5):
        assert adj[i, (i + 1) % 5] == 1.0
        assert adj[i, i] == 0.0
    assert adj.sum() == 10.0


def test_synthetic_daily_signal_dominates():
    ds = generate_synthetic(n_sensors=3, weeks=2, daily_amplitude=1.0,
                            weekly_amplitude=0.0, noise_sigma=0.05, seed=1)
    series = ds.tensor.data[:, 0, 0]
    day = 288
    # day-over-day correlation far above half-day correlation
    daily_corr = np.corrcoef(series[:-day], series[day:])[0, 1]
    offset_corr = np.corrcoef(series[:-(day // 2)], series[day // 2:])[0, 1]
    assert daily_corr > 0.9
    assert daily_corr > offset_corr + 0.3


# N, C and weeks cycle through the amplitude, noise and interval cases so
# that each size, attribute count and length meets both noise settings
_SYNTH_CASES = [
    dict(n_sensors=(1, 16, 3, 7, 12)[i % 5], n_attributes=1 + i % 3,
         weeks=2 + i // 2 % 2, interval_minutes=interval,
         daily_amplitude=daily, weekly_amplitude=weekly, noise_sigma=noise,
         seed=100 + i)
    for i, (interval, (daily, weekly), noise) in enumerate(itertools.product(
        (5, 15, 30), ((0.0, 0.0), (1.0, 0.0), (0.0, 0.7), (1.3, 0.6)), (0.0, 0.2)))]


@pytest.mark.parametrize("kwargs", _SYNTH_CASES,
                         ids=lambda k: "-".join(str(v) for v in k.values()))
def test_synthetic_matches_the_per_sine_oracle(kwargs):
    got = generate_synthetic(**kwargs).tensor.data
    want = synthetic_by_sines(**kwargs)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-11
    if kwargs["daily_amplitude"] == kwargs["weekly_amplitude"] == 0.0:
        # noise only (or base only): no rounding to differ by
        assert got.tobytes() == want.tobytes()


def test_synthetic_same_seed_gives_equal_bytes():
    kwargs = dict(n_sensors=6, weeks=3, weekly_amplitude=0.5, seed=17,
                  n_attributes=3, interval_minutes=15)
    first = generate_synthetic(**kwargs).tensor.data
    assert first.tobytes() == generate_synthetic(**kwargs).tensor.data.tobytes()


def test_synthetic_peak_memory_is_the_output_plus_a_block():
    kwargs = dict(n_sensors=96, weeks=3, weekly_amplitude=0.5, seed=1,
                  n_attributes=3)
    peak, data = traced_peak(lambda: generate_synthetic(**kwargs).tensor.data)
    assert peak <= data.nbytes + 4 * 2 ** 20


@pytest.mark.parametrize("bad", [
    dict(interval_minutes=0), dict(interval_minutes=-5),
    dict(interval_minutes=7), dict(noise_sigma=-0.1),
    dict(noise_sigma=math.nan), dict(n_attributes=0), dict(n_sensors=0),
    dict(weeks=2.5), dict(weeks=True), dict(daily_amplitude=math.inf),
    dict(weekly_amplitude=math.nan), dict(base=-math.inf)])
def test_synthetic_refuses_bad_arguments_before_drawing(bad, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the arguments")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ConfigError):
        generate_synthetic(**{"n_sensors": 3, "weeks": 2, **bad})
