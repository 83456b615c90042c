import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrstn import (SCorrTensor, SpatioTemporalTensor, compute_scorr,
                     export_scorr_csv, load_scorr, mic, save_scorr,
                     top_u_normalize)
from corrstn.errors import ConfigError, DataError, DimensionError
from oracles import top_u_mixing_by_loop


def _make_tensor(t=96, n=5, c=2, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(t, 1, c))
    data = base + 0.5 * rng.normal(size=(t, n, c))
    return SpatioTemporalTensor(data, interval_minutes=5)


def test_scorr_tensor_validation():
    with pytest.raises(DimensionError):
        SCorrTensor(np.zeros((3, 4, 2)))
    with pytest.raises(DataError):
        SCorrTensor(np.full((3, 3, 1), 1.5))
    with pytest.raises(DataError):
        SCorrTensor(np.full((3, 3, 1), np.nan))


def test_compute_scorr_structure():
    x = _make_tensor()
    s = compute_scorr(x)
    n, c = x.data.shape[1], x.data.shape[2]
    assert s.degrees.shape == (n, n, c)
    for attr in range(c):
        sl = s.degrees[:, :, attr]
        assert np.array_equal(sl, sl.T)
        assert np.array_equal(np.diag(sl), np.ones(n))
        assert sl.min() >= 0.0 and sl.max() <= 1.0
    with pytest.raises(DimensionError):
        compute_scorr(SpatioTemporalTensor(x.data[:1], interval_minutes=5))


def test_compute_scorr_matches_direct_mic():
    x = _make_tensor(t=64, n=4, c=1, seed=2)
    s = compute_scorr(x)
    for i in range(4):
        for j in range(4):
            if i != j:
                want = mic(x.data[:, i, 0], x.data[:, j, 0])
                assert s.degrees[i, j, 0] == want


def test_compute_scorr_serial_parallel_identical():
    x = _make_tensor(t=72, n=6, c=2, seed=4)
    assert np.array_equal(compute_scorr(x, workers=1).degrees,
                          compute_scorr(x, workers=3).degrees)


# the package's `mic` name is the function, so the module comes from the
# import system
_mic = importlib.import_module("corrstn.mic")
# the one context the MIC kernel opens its pool from
_FORK = _mic.multiprocessing.get_context("fork")


def _count_pools(monkeypatch) -> list:
    """Record every pool the MIC kernel opens. Two usable CPUs are reported,
    so a 2-worker pool opens on a host with fewer too."""
    opened = []
    real_pool = _FORK.Pool

    def counting_pool(*args, **kwargs):
        opened.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(_FORK, "Pool", counting_pool)
    monkeypatch.setattr(_mic, "_usable_cpus", lambda: 2)
    return opened


class _InlinePool:
    """A fork-context `Pool` stand-in that runs the initializer and every
    task in this process, so no worker process starts."""

    def __init__(self, processes, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, tasks):
        return [func(task) for task in tasks]


def test_pool_opens_at_most_one_worker_per_usable_cpu(monkeypatch):
    opened = []

    def inline_pool(processes, **kwargs):
        opened.append(processes)
        return _InlinePool(processes, **kwargs)

    monkeypatch.setattr(_FORK, "Pool", inline_pool)
    monkeypatch.setattr(_mic, "_WORKER_STATE", {})   # the stand-in's workers
    monkeypatch.setattr(_mic, "_usable_cpus", lambda: 3)
    assert _mic.pool_workers(100_000, 20) == 3
    assert _mic.pool_workers(2, 20) == 2
    assert _mic.pool_workers(4, 1) == 1   # one pair-attribute: no pool
    x = _make_tensor(t=60, n=5, c=2, seed=8)
    capped = compute_scorr(x, workers=100_000)
    assert opened == [3]
    assert np.array_equal(capped.degrees, compute_scorr(x, workers=1).degrees)
    # one usable CPU: no pool at all
    monkeypatch.setattr(_mic, "_usable_cpus", lambda: 1)
    assert np.array_equal(compute_scorr(x, workers=4).degrees, capped.degrees)
    assert opened == [3]


def test_usable_cpus_reads_affinity_else_cpu_count(monkeypatch):
    if hasattr(_mic.os, "sched_getaffinity"):
        assert _mic._usable_cpus() == len(_mic.os.sched_getaffinity(0))
        monkeypatch.delattr(_mic.os, "sched_getaffinity")
    monkeypatch.setattr(_mic.os, "cpu_count", lambda: 5)
    assert _mic._usable_cpus() == 5


def test_compute_scorr_opens_one_pool(monkeypatch):
    # every attribute shares the pool of one run
    opened = _count_pools(monkeypatch)
    x = _make_tensor(t=72, n=6, c=3, seed=5)
    pooled = compute_scorr(x, workers=2)
    assert len(opened) == 1
    assert np.array_equal(pooled.degrees, compute_scorr(x, workers=1).degrees)
    assert len(opened) == 1


_SPAWN_DEFAULT = """
import importlib, json, multiprocessing
import numpy as np
mic = importlib.import_module("corrstn.mic")
multiprocessing.set_start_method("spawn")
fork = multiprocessing.get_context("fork")
real_pool, opened = fork.Pool, []
def pool(*args, **kwargs):
    opened.append(args)
    return real_pool(*args, **kwargs)
fork.Pool = pool
mic._usable_cpus = lambda: 2
columns = np.random.default_rng(9).normal(size=(40, 5, 2))
serial = mic.pairwise_mic(columns, workers=1)
pooled = mic.pairwise_mic(columns, workers=2)
print(json.dumps({"default": multiprocessing.get_start_method(),
                  "fork_pools": len(opened),
                  "equal": pooled.tobytes() == serial.tobytes()}))
"""


def test_pool_forks_whatever_the_default_start_method():
    # a fresh process whose default is spawn, as forkserver is on Python
    # 3.14: the kernel still opens its one pool from the fork context
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SPAWN_DEFAULT],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == {"default": "spawn", "fork_pools": 1,
                                       "equal": True}


def test_top_u_normalize_selects_largest():
    degrees = np.zeros((4, 4, 1))
    vals = np.array([[1.0, 0.9, 0.2, 0.5],
                     [0.9, 1.0, 0.8, 0.1],
                     [0.2, 0.8, 1.0, 0.7],
                     [0.5, 0.1, 0.7, 1.0]])
    degrees[:, :, 0] = vals
    r = top_u_normalize(SCorrTensor(degrees), u=2)
    assert r.shape == (4, 4) and r.dtype == np.float64
    # row 0: self (1.0) then sensor 1 (0.9), softmaxed
    e = np.exp([1.0, 0.9])
    assert np.allclose(r[0], [*(e / e.sum()), 0.0, 0.0], atol=1e-15)
    # row 3: self, then sensor 2 (0.7)
    assert np.flatnonzero(r[3]).tolist() == [2, 3]
    assert r[3, 3] > r[3, 2]


def test_top_u_normalize_tie_breaks_to_lower_index():
    degrees = np.ones((3, 3, 1)) * 0.5
    for i in range(3):
        degrees[i, i, 0] = 1.0
    r = top_u_normalize(SCorrTensor(degrees), u=2)
    # all off-diagonal degrees tie at 0.5; the lower sensor index wins
    assert np.flatnonzero(r[2]).tolist() == [0, 2]
    assert np.flatnonzero(r[0]).tolist() == [0, 1]


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("tied", [False, True])
def test_top_u_normalize_matches_loop_oracle(c, tied):
    rng = np.random.default_rng(10 * c + tied)
    for _ in range(5):
        n = int(rng.integers(2, 8))
        degrees = rng.uniform(size=(n, n, c))
        if tied:
            # one decimal: many equal degrees within a row
            degrees = np.round(degrees, 1)
        for u in range(1, n + 1):
            got = top_u_normalize(SCorrTensor(degrees), u)
            want = top_u_mixing_by_loop(degrees, u)
            assert np.abs(got - want).max() <= 1e-15, (n, u)


def test_top_u_validation():
    s = SCorrTensor(np.tile(np.eye(3)[:, :, None], (1, 1, 2)))
    with pytest.raises(ConfigError):
        top_u_normalize(s, u=4)
    with pytest.raises(ConfigError):
        top_u_normalize(s, u=0)


def test_mixing_matrix_rows_sum_to_one():
    x = _make_tensor(t=60, n=5, c=3, seed=9)
    r = top_u_normalize(compute_scorr(x), u=3)
    assert r.shape == (5, 5)
    assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)


def test_mixing_matrix_averages_attributes():
    degrees = np.ones((2, 2, 2))
    degrees[0, 1, 0] = 0.2    # attr 0 prefers self, attr 1 ties
    r = top_u_normalize(SCorrTensor(degrees), u=1)
    # attr 0 row 0 selects sensor 0; attr 1 ties 0 vs 1 -> lower index 0
    assert r[0, 0] == 1.0 and r[0, 1] == 0.0


def test_identity_topu_is_noop():
    # with the self-degree each row's strict maximum, top-1 selects the
    # sensor itself: the mixing matrix is the identity
    degrees = np.random.default_rng(0).uniform(0.1, 0.9, size=(6, 6, 3))
    for attr in range(3):
        np.fill_diagonal(degrees[:, :, attr], 1.0)
    r = top_u_normalize(SCorrTensor(degrees), u=1)
    assert np.array_equal(r, np.eye(6))
    keys = np.random.default_rng(0).normal(size=(6, 4))
    assert np.array_equal(r @ keys, keys)


def test_save_load_round_trip(tmp_path):
    s = compute_scorr(_make_tensor(t=48, n=4, c=2, seed=5))
    path = tmp_path / "corr.scor"
    save_scorr(s, path)
    loaded = load_scorr(path)
    assert np.array_equal(loaded.degrees, s.degrees)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.scor"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError):
        load_scorr(path)


def test_load_rejects_nan_degree(tmp_path):
    path = tmp_path / "corr.scor"
    save_scorr(compute_scorr(_make_tensor(t=48, n=3, c=1, seed=5)), path)
    raw = bytearray(path.read_bytes())
    raw[28:36] = np.array([np.nan], dtype="<f8").tobytes()   # degree (0, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="NaN") as err:
        load_scorr(path)
    assert str(path) in str(err.value)


def test_csv_export_round_trips_values(tmp_path):
    s = compute_scorr(_make_tensor(t=48, n=3, c=2, seed=6))
    path = tmp_path / "corr.csv"
    export_scorr_csv(s, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sensor_i,sensor_j,attribute,degree"
    assert len(lines) == 1 + 3 * 3 * 2
    for line in lines[1:]:
        i, j, c, v = line.split(",")
        assert float(v) == s.degrees[int(i), int(j), int(c)]
