import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from corrstn import admissible_shapes, mic, mic_full, pairwise_mic
from corrstn.errors import DimensionError
from corrstn.mic import MicStats, _GridSearch, _grid_search, _profile, _score
from oracles import grid_shapes, mic_brute_force


def test_admissible_shapes_match_oracle():
    for m in [4, 5, 8, 12, 16, 19, 36, 64, 100, 255]:
        got = admissible_shapes(m)
        want = grid_shapes(m, 0.6)
        assert sorted(got) == sorted(want), m


def test_admissible_shapes_strict_bound():
    # 32**0.6 is 8 in exact arithmetic: no grid of 8 or more cells is admissible
    shapes = admissible_shapes(32)
    assert (2, 3) in shapes and (2, 4) not in shapes and (4, 2) not in shapes
    assert all(a * b < 16 ** 0.6 for a, b in admissible_shapes(16))


def test_mic_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(6, 50))
        style = rng.integers(0, 3)
        x = rng.normal(size=m)
        if style == 0:
            y = rng.normal(size=m)
        elif style == 1:
            y = x ** 2 + 0.3 * rng.normal(size=m)
        else:
            y = rng.integers(0, 3, size=m).astype(float)  # heavy ties
        got = mic(x, y)
        want = mic_brute_force(x.tolist(), y.tolist())
        assert abs(got - want) < 1e-12


def test_mic_symmetry_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(5, 64))
        x = rng.normal(size=m)
        y = rng.normal(size=m) if m % 2 else np.round(rng.normal(size=m), 1)
        assert mic(x, y) == mic(y, x)


def test_mic_monotone_invariance_bit_exact():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(5, 64))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        base = mic(x, y)
        assert mic(np.exp(x), y) == base
        assert mic(x, y ** 3 + 2.0 * y) == base
        assert mic(3.0 * x + 1.0, np.arctan(y)) == base


def test_mic_self_identity_even_lengths():
    # equal-count (2, 2) grids split an even sample perfectly, giving exactly
    # one bit of shared information
    rng = np.random.default_rng(3)
    for m in range(12, 65, 2):
        x = rng.normal(size=m)
        assert mic(x, x) == 1.0


def test_mic_zero_variance_degenerate():
    x = np.ones(20)
    y = np.arange(20.0)
    result = mic_full(x, y)
    assert result.value == 0.0
    assert result.degenerate
    assert not mic_full(y, y).degenerate


def test_mic_range():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m = int(rng.integers(4, 64))
        v = mic(rng.normal(size=m), rng.normal(size=m))
        assert 0.0 <= v <= 1.0


def test_mic_full_reports_grid():
    rng = np.random.default_rng(17)
    x = rng.normal(size=40)
    r = mic_full(x, x)
    assert r.value == 1.0
    a, b = r.grid_shape
    assert a >= 2 and b >= 2 and a * b < 40 ** 0.6


def test_mic_short_and_invalid_input():
    with pytest.raises(DimensionError):
        mic([1.0], [2.0])
    with pytest.raises(DimensionError):
        mic([1.0, 2.0, 3.0], [1.0, 2.0])


def test_mic_small_m_uses_fallback_grid():
    # 4**0.6 < 4 leaves no admissible shape; the 2x2 fallback still scores
    v = mic([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert v == 1.0


def test_pairwise_mic_matches_scalar_calls():
    rng = np.random.default_rng(23)
    cols = rng.normal(size=(60, 5))
    got = pairwise_mic(cols)
    assert got.shape == (5, 5)
    for i in range(5):
        assert got[i, i] == 1.0
        for j in range(i + 1, 5):
            assert got[i, j] == got[j, i]
            assert got[i, j] == mic(cols[:, i], cols[:, j])


def test_pairwise_mic_refuses_a_list_of_sequences():
    # converting k sequences would silently read them as (k, m)
    cols = np.random.default_rng(29).normal(size=(40, 3))
    for columns in ([cols[:, i] for i in range(3)], cols.T.tolist(), cols[:, 0]):
        with pytest.raises(DimensionError):
            pairwise_mic(columns)


def test_pairwise_mic_parallel_bit_equal():
    rng = np.random.default_rng(31)
    cols = rng.normal(size=(80, 6))
    serial = pairwise_mic(cols, workers=1)
    parallel = pairwise_mic(cols, workers=3)
    assert np.array_equal(serial, parallel)


@pytest.mark.parametrize("workers", [1, 2])
def test_pairwise_mic_stack_equals_per_slice_calls(workers):
    # an (m, k, c) stack is c independent matrices, whether or not its
    # slices share one pool
    rng = np.random.default_rng(53)
    stack = rng.normal(size=(150, 5, 3))
    stack[:, 1, :] = np.round(stack[:, 0, :])          # tied, dependent
    stack[:, 3, 1] = 4.0                               # zero variance, one slice
    stack_stats = MicStats()
    got = pairwise_mic(stack, workers=workers, stats=stack_stats)
    assert got.shape == (5, 5, 3)
    slice_stats = MicStats()
    for s in range(3):
        want = pairwise_mic(stack[:, :, s], workers=workers, stats=slice_stats)
        assert want.shape == (5, 5)
        assert np.array_equal(got[:, :, s], want)
    assert stack_stats == slice_stats
    assert (stack_stats.scored, stack_stats.degenerate) == (30, 4)


def _unique_row_count(grids, degenerate):
    """The grid-shape count as np.unique over the live (P, 2) rows."""
    won, counts = np.unique(grids[~degenerate], axis=0, return_counts=True)
    return Counter({(a, b): n for (a, b), n in zip(won.tolist(), counts.tolist())})


def test_stats_count_shapes_as_unique_rows():
    # winners of a scored batch with degenerate pairs (shape (0, 0)) among
    # them, then shapes far apart on both sides, then a degenerate-only batch
    rng = np.random.default_rng(61)
    cols = rng.normal(size=(60, 8))
    cols[:, 3] = 1.0                                   # zero variance
    cols[:, 5] = np.round(cols[:, 0])                  # tied, dependent
    i, j = np.triu_indices(8, 1)
    _, scored, flat = _score(_GridSearch(60), _profile(cols.T), i, j)
    spread = rng.integers(2, 140, size=(500, 2))
    spread[::7] = 0
    batches = [(scored, flat), (spread, spread[:, 0] == 0),
               (scored[flat], flat[flat])]
    assert flat.any() and not flat.all()
    stats, want = MicStats(), Counter()
    for grids, degenerate in batches:
        stats.add(grids, degenerate)
        want += _unique_row_count(grids, degenerate)
    assert stats.grid_shapes == want
    assert all(type(a) is int and type(b) is int for a, b in stats.grid_shapes)
    assert stats.scored == sum(d.size for _, d in batches)
    assert stats.degenerate == sum(int(d.sum()) for _, d in batches)
    assert sum(stats.grid_shapes.values()) == stats.scored - stats.degenerate


@pytest.mark.parametrize("m", [3, 4, 12, 97, 3001])
def test_pair_result_independent_of_batch(m):
    # a pair's value and grid shape are bit-equal alone, mid-batch, on either
    # side of a chunk boundary, and in the serial or pool path
    rng = np.random.default_rng(m)
    cols = rng.normal(size=(m, 6))
    cols[:, 1] = np.round(cols[:, 0])                  # tied, dependent
    cols[:, 2] = cols[:, 0] ** 2 + 0.1 * rng.normal(size=m)
    cols[:, 3] = 2.5                                   # zero variance
    cols[:, 4] = rng.integers(0, 2, size=m)            # heavy ties
    i, j = np.triu_indices(6, 1)
    alone = [mic_full(cols[:, a], cols[:, b]) for a, b in zip(i, j)]
    search = _GridSearch(m)
    profile = _profile(cols.T)
    for batch in (1, 2, 4, search.batch):
        search.batch = batch
        values, grids, degenerate = _score(search, profile, i, j)
        for p, want in enumerate(alone):
            assert values[p] == want.value
            assert degenerate[p] == want.degenerate
            shape = None if degenerate[p] else tuple(grids[p].tolist())
            assert shape == want.grid_shape
    serial_stats, pool_stats = MicStats(), MicStats()
    serial = pairwise_mic(cols, stats=serial_stats)
    pooled = pairwise_mic(cols, workers=2, stats=pool_stats)
    assert np.array_equal(serial, pooled)
    assert serial[i, j].tolist() == [r.value for r in alone]
    assert serial_stats == pool_stats
    flat = sum(r.degenerate for r in alone)
    assert (serial_stats.scored, serial_stats.degenerate) == (15, flat)
    assert sum(serial_stats.grid_shapes.values()) == 15 - flat



def test_cached_grid_tables_leave_results_unchanged():
    # the tables are built once per length; repeated and interleaved calls
    # at several lengths match freshly built tables bit for bit
    rng = np.random.default_rng(41)
    lengths = (12, 97, 12, 3001, 97, 12, 3001)
    pairs = {m: rng.normal(size=(2, m)) for m in set(lengths)}
    for m in lengths:
        x, y = pairs[m][0], np.exp(pairs[m][0]) + 0.3 * pairs[m][1]
        got = mic_full(x, y)
        fresh = _GridSearch(m)
        assert np.array_equal(_grid_search(m).shapes, fresh.shapes)
        values, grids, _ = _score(fresh, _profile(np.stack([x, y])),
                                  np.array([0]), np.array([1]))
        assert got.value == values[0]
        assert got.grid_shape == tuple(grids[0].tolist())
    assert _grid_search(97) is _grid_search(97)
    assert _grid_search(97) is not _grid_search(12)


_FRESH_TABLE = """
import sys
import numpy as np
from corrstn import mic_full
print("numpy.ma" in sys.modules)
x, y = np.random.default_rng(3).normal(size=(2, 3628))
mic_full(x, y)
print("numpy.ma" in sys.modules)
"""


def test_building_a_table_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, which doubled the first
    # table build of a process at m = 3628 and added 1.3 MB of RSS; the
    # first mic_full of a fresh process builds a table and scores a pair
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _FRESH_TABLE],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    at_import, after = done.stdout.split()
    if at_import == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself (1.x)")
    assert after == "False"
