"""Maximal information coefficient (MIC) between equal-length scalar sequences.

The coefficient is the maximum, over admissible grid shapes (a, b) with
a*b < m**ETA, of the grid mutual information normalized by log2(min(a, b)).
ETA = 0.6 is the standard grid bound B(m) = m^0.6 of Reshef et al. (Science
2011); SCorr and TCorr both run at it, so it is a constant, not an option.
For every shape the cell boundaries are placed at equal-count rank quantiles
of each axis independently, which makes the statistic deterministic and
invariant under strictly monotone transformations of either sequence. This is
an equal-count rank grid on both axes: neither Reshef et al.'s ApproxMaxMI,
which optimizes the x-axis partition, nor minepy's MIC_e.

One batched kernel scores every pair: `mic`, `pairwise_mic` and the tcorr
windows all pass (P, m) batches of rank sequences through it. All shapes that
share their shorter side are scored from one count table, built by one
`bincount` and a prefix sum over rank blocks. A point's bin key is one lookup
of its rank in a precomputed column-block table plus its position's row
block. The prefix sums run on the integer counts, and each shape's cells are
gathered from them by precomputed flat indices and turned into floats once,
so every count is exact. The MI sums run in a different order than a
per-shape loop would use, so values can differ from one in the last bits (the
brute-force oracle tolerance stays 1e-12); a pair's value and grid shape never
depend on the batch it is scored in.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError

ETA = 0.6


@dataclass(frozen=True)
class MicResult:
    """MIC value plus diagnostics from the grid search."""

    value: float
    degenerate: bool
    grid_shape: tuple[int, int] | None


@dataclass
class MicStats:
    """Counts from the MIC kernel over one or more calls: inputs scored,
    degenerate (zero-variance) ones, and how often each grid shape won."""

    scored: int = 0
    degenerate: int = 0
    grid_shapes: Counter = field(default_factory=Counter)

    def add(self, grids: np.ndarray, degenerate: np.ndarray) -> None:
        """Count a batch: (P, 2) winning shapes and (P,) degenerate flags."""
        self.scored += int(degenerate.size)
        self.degenerate += int(degenerate.sum())
        live = grids[~degenerate]
        if not live.size:
            return
        # one integer code a * width + b per shape: a bincount of codes is
        # far cheaper than np.unique over (P, 2) rows
        width = int(live[:, 1].max()) + 1
        counts = np.bincount(live[:, 0] * width + live[:, 1])
        for code in np.flatnonzero(counts).tolist():
            self.grid_shapes[divmod(code, width)] += int(counts[code])

    def to_dict(self, unit: str) -> dict:
        """Manifest form; `unit` names what was scored (pairs, windows)."""
        return {unit: self.scored, "degenerate": self.degenerate,
                "grid_shapes": {f"{a}x{b}": n
                                for (a, b), n in sorted(self.grid_shapes.items())}}


def _as_sequence(values, name="sequence") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise DimensionError(f"{name} needs at least 2 values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


def admissible_shapes(m: int) -> list[tuple[int, int]]:
    """All grid shapes (a, b) with a, b >= 2 and a*b strictly below m**ETA.

    Falls back to the minimal 2x2 grid when the bound admits no shape at all
    (very short sequences), so MIC stays defined for every m >= 2.
    """
    bound = float(m) ** ETA
    shapes = []
    a = 2
    while a * 2 < bound:
        b = 2
        while a * b < bound:
            shapes.append((a, b))
            b += 1
        a += 1
    if not shapes:
        shapes = [(2, 2)]
    return shapes


def _block_edges(m: int, n: int) -> list[int]:
    """First rank of each of the n equal-count rank blocks of m points, then m.

    Rank r falls in block (r * n) // m, whose first rank is ceil(k * m / n).
    """
    return [-(-k * m // n) for k in range(n + 1)]


# Bytes a kernel call may hold per batch: a constant, not an option. Each
# pair's result depends on its own row only, so the batch it lands in never
# changes it; the cap keeps peak memory flat however many pairs a call gets.
_BATCH_BYTES = 1 << 22


@dataclass(frozen=True)
class _ShapeGroup:
    """The shapes whose shorter side has n blocks, scored from one table.

    Rows of the table are blocks of positions in the rank sequence the group
    reads: sigma (x-ranks) or, when transposed, its inverse (y-ranks). Its n
    columns are blocks of the values of that sequence.
    """

    n: int
    transposed: bool
    n_fine: int              # finest row blocks: union of every long side's edges
    fine_key: np.ndarray     # (m,) finest row block of each position, times n
    col_block: np.ndarray    # (m,) column block of each rank: (rank * n) // m
    lo: np.ndarray           # per cell of every table: flat prefix-sum cell of
    hi: np.ndarray           # its row's first finest block / one past its last
    m_over_o: np.ndarray     # per cell of every table: m / (row * column size)
    starts: np.ndarray       # offset of each shape's table in a cell row
    normalizers: np.ndarray  # log2(min(a, b)) per shape
    shape_index: np.ndarray  # position of each shape in _GridSearch.shapes


class _GridSearch:
    """Precomputed tables of the equal-count grid search at length m.

    Shapes are grouped by their shorter side n. The long-side blocks of every
    shape in a group are unions of one finest partition, so one count table
    over (finest block, n-block) gives every table of the group by prefix
    sums. Shapes with b <= a read the pair's sigma; shapes with a < b read
    its inverse and score the transposed table, which has the same MI. All
    tables depend only on m, never on the data.
    """

    def __init__(self, m: int):
        self.m = m
        shapes = admissible_shapes(m)
        # b-major, a ascending: `best` keeps the first maximum in this order
        order = sorted(shapes, key=lambda s: (s[1], s[0]))
        self.shapes = np.array(order, dtype=np.int64)
        long_sides: dict[tuple[int, bool], list[int]] = {}
        for a, b in order:
            key = (b, False) if b <= a else (a, True)
            long_sides.setdefault(key, []).append(a if b <= a else b)
        index = {shape: k for k, shape in enumerate(order)}
        self.groups = []
        for (n, transposed), rows in sorted(long_sides.items()):
            rows.sort()
            edges = [_block_edges(m, r) for r in rows]
            row_lo = np.array([e for block in edges for e in block[:-1]])
            row_hi = np.array([e for block in edges for e in block[1:]])
            # every block edge of the group, sorted: its lows and m. A set,
            # not np.unique, which imports numpy.ma on its first call
            fine = np.array(sorted({e for block in edges for e in block}))
            outer = (row_hi - row_lo)[:, None] * np.diff(_block_edges(m, n))[None, :]
            columns = np.arange(n)
            self.groups.append(_ShapeGroup(
                n=n,
                transposed=transposed,
                n_fine=fine.size - 1,
                fine_key=np.repeat(np.arange(fine.size - 1) * n, np.diff(fine)),
                col_block=np.arange(m) * n // m,
                lo=(np.searchsorted(fine, row_lo)[:, None] * n + columns).ravel(),
                hi=(np.searchsorted(fine, row_hi)[:, None] * n + columns).ravel(),
                m_over_o=(m / outer.astype(np.float64)).ravel(),
                starts=np.cumsum([0] + [r * n for r in rows[:-1]]),
                normalizers=np.log2([float(min(r, n)) for r in rows]),
                shape_index=np.array([index[(n, r) if transposed else (r, n)]
                                      for r in rows])))
        self._needs_inverse = any(g.transposed for g in self.groups)
        # about eight m-long int64 rows (ranks, orders, sigma, bin keys) and
        # four cell-long rows (the two gathered integer tables, their float
        # copy, terms) are alive per pair. The counts and their prefix sums,
        # at most 1.5 such rows each, fit in the slack: tracemalloc peaks per
        # pair are 0.71, 0.79 and 0.80 of this estimate at m = 12, 288, 3628
        cells = max(g.m_over_o.size for g in self.groups)
        self.batch = max(1, _BATCH_BYTES // (64 * m + 32 * cells))

    def best(self, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Max normalized MI over all shapes, and the index of the winning shape.

        sigma is a (P, m) batch: each row is a y-rank sequence reordered by
        ascending x-rank, so the x-axis binning is the same for every pair.
        Each row's result depends on that row alone.
        """
        m = self.m
        p = sigma.shape[0]
        inverse = None
        if self._needs_inverse:
            inverse = np.empty_like(sigma)
            inverse[np.arange(p)[:, None], sigma] = np.arange(m)
        scores = np.empty((p, len(self.shapes)))
        for g in self.groups:
            size = g.n_fine * g.n
            key = np.take(g.col_block, inverse if g.transposed else sigma)
            key += g.fine_key
            key += np.arange(0, p * size, size)[:, None]
            counts = np.bincount(key.ravel(), minlength=p * size)
            cum = np.zeros((p, g.n_fine + 1, g.n), dtype=np.int64)
            np.cumsum(counts.reshape(p, g.n_fine, g.n), axis=1, out=cum[:, 1:])
            cum = cum.reshape(p, -1)
            c = np.take(cum, g.hi, axis=1)
            c -= np.take(cum, g.lo, axis=1)
            c = c.astype(np.float64)
            # c * log2(c * m / o), with empty cells contributing 0
            terms = c * g.m_over_o
            terms[terms == 0.0] = 1.0
            np.log2(terms, out=terms)
            terms *= c
            mi = np.add.reduceat(terms, g.starts, axis=1) / m
            scores[:, g.shape_index] = mi / g.normalizers
        winners = scores.argmax(axis=1)
        values = np.clip(scores[np.arange(p), winners], 0.0, 1.0)
        return values, winners


@functools.lru_cache(maxsize=16)
def _grid_search(m: int) -> _GridSearch:
    """The grid-search tables for length m, built once and shared read-only.
    Building them is most of a one-off `mic` call's cost at any length."""
    return _GridSearch(m)


def _profile(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort order, ranks and zero-variance flag of each row of an
    (R, m) array. A stable sort fixes tie handling: equal values keep their
    input order."""
    order = np.argsort(rows, axis=1, kind="stable")
    ranks = np.empty_like(order)
    ranks[np.arange(rows.shape[0])[:, None], order] = np.arange(rows.shape[1])
    return order, ranks, np.ptp(rows, axis=1) == 0.0


def _score(search: _GridSearch, profile, i: np.ndarray,
           j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MIC value, winning (a, b) shape and degenerate flag of each pair
    (row i[p], row j[p]) of a profiled array, in batches of search.batch.

    Degenerate pairs (a zero-variance row) score 0 with shape (0, 0).
    """
    order, ranks, flat = profile
    values = np.zeros(i.size)
    grids = np.zeros((i.size, 2), dtype=np.int64)
    degenerate = flat[i] | flat[j]
    live = np.flatnonzero(~degenerate)
    for s in range(0, live.size, search.batch):
        sel = live[s:s + search.batch]
        x, y = i[sel], j[sel]
        # Orient each pair so that x has the smaller rank key (the bytes of
        # its int64 ranks). mic(x, y), mic(y, x) and mic(x, g(y)) for
        # increasing g then run through bit-identical float summations.
        kx, ky = ranks[x].view(np.uint8), ranks[y].view(np.uint8)
        rows = np.arange(sel.size)
        first = (kx != ky).argmax(axis=1)
        swap = kx[rows, first] > ky[rows, first]
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        sigma = ranks[y[:, None], order[x]]
        values[sel], winners = search.best(sigma)
        grids[sel] = search.shapes[winners]
    return values, grids, degenerate


def mic_full(x, y) -> MicResult:
    """MIC with diagnostics. Zero-variance input yields value 0, flagged."""
    x = _as_sequence(x, "x")
    y = _as_sequence(y, "y")
    if x.size != y.size:
        raise DimensionError(f"length mismatch: {x.size} vs {y.size}")
    values, grids, degenerate = _score(_grid_search(x.size),
                                       _profile(np.stack([x, y])),
                                       np.array([0]), np.array([1]))
    if degenerate[0]:
        return MicResult(0.0, True, None)
    return MicResult(float(values[0]), False, tuple(grids[0].tolist()))


def mic(x, y) -> float:
    """MIC of two equal-length sequences, in [0, 1]."""
    return mic_full(x, y).value


# ---------------------------------------------------------------------------
# pairwise matrix

_WORKER_STATE: dict = {}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_workers(workers: int, pair_attrs: int) -> int:
    """Workers `pairwise_mic` runs with: `workers`, capped at one per usable
    CPU, or 1 (no pool) for fewer than 2 pair-attributes (`pair_attrs`)."""
    return 1 if pair_attrs < 2 else min(workers, _usable_cpus())


def _worker_init(stack):
    _WORKER_STATE.update(stack=stack, search=_grid_search(stack.shape[0]),
                         slice=None, profile=None)


def _worker_chunk(task):
    """Score one (slice, pairs) task. Tasks arrive slice-major, so a worker
    ranks each slice's columns about once and keeps only the current one."""
    s, i, j = task
    state = _WORKER_STATE
    if state["slice"] != s:
        state["profile"] = _profile(state["stack"][:, :, s].T)
        state["slice"] = s
    return _score(state["search"], state["profile"], i, j)


def pairwise_mic(columns, workers: int = 1, *,
                 stats: MicStats | None = None) -> np.ndarray:
    """Symmetric matrix of MIC values between all column pairs.

    `columns` is an (m, k) array, giving a (k, k) matrix, or an (m, k, c)
    stack of c such arrays, giving a (k, k, c) stack with slice s scored from
    columns[:, :, s] alone. A stack runs in one pool of `workers` processes
    shared by all its slices, sized by `pool_workers`. The pool forks its
    workers on every Python version and platform default.
    The diagonal is 1 by convention; pairs involving a zero-variance column
    are 0. Results are bit-identical for any worker count because each cell
    is a pure function of its two columns. `stats`, when given, counts the
    pairs scored.
    """
    # a list is refused, not converted: k sequences would read as (k, m)
    if not isinstance(columns, np.ndarray) or columns.ndim not in (2, 3):
        raise DimensionError("columns must be an (m, k) or (m, k, c) ndarray, got "
                             f"{getattr(columns, 'shape', type(columns).__name__)}")
    stack = np.asarray(columns, dtype=np.float64)
    matrix = stack.ndim == 2
    if matrix:
        stack = stack[:, :, None]
    m, k, c = stack.shape
    if m < 2:
        raise DimensionError(f"columns need at least 2 values, got {m}")
    if not np.all(np.isfinite(stack)):
        raise DataError("columns contain non-finite values")

    result = np.repeat(np.eye(k)[:, :, None], c, axis=2)
    i, j = np.triu_indices(k, 1)
    workers = pool_workers(workers, i.size * c)
    if i.size and c:
        if workers <= 1:
            search = _grid_search(m)
            scored = [_score(search, _profile(stack[:, :, s].T), i, j)
                      for s in range(c)]
        else:
            chunks = np.array_split(np.arange(i.size), min(i.size, workers * 8))
            tasks = [(s, i[p], j[p]) for s in range(c) for p in chunks]
            # fork on every Python (3.14 defaults to forkserver): workers
            # inherit the stack and stay this process's children
            with multiprocessing.get_context("fork").Pool(
                    workers, initializer=_worker_init, initargs=(stack,)) as pool:
                scored = pool.map(_worker_chunk, tasks)
        values, grids, degenerate = (np.concatenate(part) for part in zip(*scored))
        values = values.reshape(c, i.size).T
        result[i, j] = values
        result[j, i] = values
        if stats is not None:
            stats.add(grids, degenerate)
    return result[:, :, 0] if matrix else result
