"""One benchmark workload in one process: set up, warm up, measure, check.

bench/run.py starts this script once per workload run and reads the JSON
object it prints as its last line. Usage:

    python3 bench/workload.py --workload forecast --seed 1 --seconds 30 \
        --trace 0 --workdir .bench_work/forecast

Every input is generated from --seed. The amount of measured work is derived
from --seconds alone, never from a clock, so two runs with the same
arguments do the same work and their per-layer counts repeat exactly.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy loads it; one thread per
# process keeps the 2-worker scorr pool from oversubscribing the cores and
# makes timings independent of how many cores the machine has.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

# the package binds the name `mic` to the function, not the module
from corrstn import cli, data, metrics, mic, model, scorr, tcorr  # noqa: E402
from corrstn.neural import add_self_loops, laplacian_normalize  # noqa: E402

from tracing import LAYER_UNITS, Tracer, patch  # noqa: E402

N_ATTRIBUTES = 3
WEEKS = 3            # the least that leaves weekly history for train/val/test
SETUP_REPS = {"correlate": 9, "train-pems08": 3, "forecast": 7}


def machine_facts() -> dict:
    """Facts that decide how comparable two results are."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and every child it waited for
    (the scorr pool workers); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def seeded_scorr(seed: int, n: int, c: int) -> scorr.SCorrTensor:
    """Symmetric correlation degrees in [0, 1] with a unit diagonal."""
    u = np.random.default_rng(seed).uniform(0.0, 1.0, (n, n, c))
    degrees = (u + u.transpose(1, 0, 2)) / 2.0
    degrees[np.arange(n), np.arange(n), :] = 1.0
    return scorr.SCorrTensor(degrees)


@contextlib.contextmanager
def on_cpu(k: int):
    """Run the block on the k-th usable CPU, counting round-robin.

    On a shared host each virtual CPU drifts between fast and slow spells of
    its own; samples that alternate CPUs average those spells instead of
    riding one of them.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(cpus)[k % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def close(a, b, tol: float = 1e-12) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def subset(samples: data.SampleSet, index) -> data.SampleSet:
    return data.SampleSet(encoder_input=samples.encoder_input[index],
                          decoder_input=samples.decoder_input[index],
                          target=samples.target[index],
                          anchors=samples.anchors[index],
                          periods=samples.periods)


def prepared(n_sensors: int, seed: int, config: model.ModelConfig):
    """Synthetic dataset, fitted normalization and per-period offsets, the
    way `corrstn train` and `corrstn evaluate` prepare their input."""
    ds = data.generate_synthetic(n_sensors=n_sensors, weeks=WEEKS,
                                 weekly_amplitude=0.5, seed=seed,
                                 n_attributes=N_ATTRIBUTES)
    x = ds.tensor
    ranges = data.split_ranges(x.n_timestamps)
    ds.norm_params = data.fit_normalization(x, ranges[0])
    x_norm = data.SpatioTemporalTensor(data.normalize(x.data, ds.norm_params),
                                       interval_minutes=x.interval_minutes)
    spec = tcorr.PeriodSpec.from_interval(x.interval_minutes, tau=config.tau)
    offsets = {p: spec.offset_for(p) for p in config.periods}
    return ds, x_norm, ranges, offsets


class Run:
    """State of one workload run: seed, work size, tracer, results."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.workdir = args.workdir
        self.tracer = Tracer() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict = {}     # end-to-end, by name
        self.details: dict = {}     # named figures behind the metrics
        self.step_seconds: list[float] = []
        self.p90_ms = 0.0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check(self, label: str, ok) -> None:
        """One checked operation; a falsy outcome counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def label(self, text: str) -> None:
        if self.tracer is not None:
            self.tracer.run = text

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def setup(self, workload: str, build):
        """Run build() SETUP_REPS times and keep the last result; the median
        time is the set-up cost. Only the last repetition is traced."""
        reps = SETUP_REPS[workload]
        times = []
        for rep in range(reps):
            result = None   # free the previous repetition first
            if rep == reps - 1 and self.tracer is not None:
                self.tracer.install()
            started = time.perf_counter()
            result = build()
            times.append(time.perf_counter() - started)
        return result, statistics.median(times)


# ---------------------------------------------------------------------------
# correlate: the MIC stages of the CLI

CORRELATE_SENSORS = 16
CORRELATE_SPOT_PAIRS = 8
NOMINAL_ROUND_S = 4.5    # sizes the rounds from --seconds; never measured


def run_correlate(run: Run) -> None:
    """Rounds of `corrstn scorr --workers 2`, `tcorr` and `select` with CLI
    defaults (train split, m = 3628 at 3 weeks) on weekly-dominant data."""
    series = run.path("traffic.sttf")

    def build():
        ds = data.generate_synthetic(n_sensors=CORRELATE_SENSORS, weeks=WEEKS,
                                     weekly_amplitude=0.5, seed=run.seed,
                                     n_attributes=N_ATTRIBUTES)
        data.save_tensor(ds.tensor, series)
        return ds

    ds, setup_s = run.setup("correlate", build)
    run.metrics["setup_s"] = setup_s

    scor, report, verdict = (run.path(n) for n in ("spatial.scor", "tcorr.json",
                                                   "select.json"))
    argv = {"scorr": ["scorr", "--data", series, "--out", scor, "--workers", "2"],
            "tcorr": ["tcorr", "--data", series, "--out", report],
            "select": ["select", "--report", report, "--out", verdict]}
    # one sample of each command per round, rounds back to back, so that
    # every stage is a median over samples spread across the whole run
    rounds = max(3, round(run.seconds / NOMINAL_ROUND_S))
    times = {name: [] for name in argv}
    for r in range(rounds):
        for name in argv:
            run.label(f"{name}-{r}")
            # tcorr and select are single-threaded, so they alternate CPUs;
            # scorr's pool uses all of them
            cpu = contextlib.nullcontext() if name == "scorr" else on_cpu(r)
            started = time.perf_counter()
            with cpu, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv[name])
            times[name].append(time.perf_counter() - started)
            if code != 0:
                run.check(f"round {r}: corrstn {name} exited {code}", False)
                return
    with run.untraced():
        check_correlate(run, ds, scor, report, verdict)

    scorr_s, tcorr_s, select_s = (statistics.median(times[n]) for n in argv)
    round_s = statistics.median(map(sum, zip(*times.values())))
    run.metrics["primary_ms"] = 1e3 * scorr_s
    # the three commands back to back, as a user runs them; tcorr alone
    # spreads too much from run to run to gate on
    run.metrics["secondary_ms"] = 1e3 * round_s
    run.details.update(scorr_s=(scorr_s, "s"), tcorr_s=(tcorr_s, "s"),
                       select_s=(select_s, "s"), rounds=(rounds, "count"))


def check_correlate(run: Run, ds, scor, report_path, verdict_path) -> None:
    x = ds.tensor
    (s0, s1), _, _ = data.split_ranges(x.n_timestamps)
    train = x.data[s0:s1]
    n = x.n_sensors

    degrees = scorr.load_scorr(scor).degrees
    diag = degrees[np.arange(n), np.arange(n), :]
    run.check("scorr symmetric, unit diagonal, in [0, 1]",
              np.array_equal(degrees, degrees.transpose(1, 0, 2))
              and np.all(diag == 1.0)
              and degrees.min() >= 0.0 and degrees.max() <= 1.0)

    # the 2-worker values must equal the one-pair function bit for bit
    rng = np.random.default_rng(run.seed)
    spots = []
    while len(spots) < CORRELATE_SPOT_PAIRS:
        i, j = (int(v) for v in rng.choice(n, 2, replace=False))
        spots.append((i, j, int(rng.integers(N_ATTRIBUTES))))
    run.check("scorr spot pairs equal mic.mic",
              all(degrees[i, j, a] == mic(train[:, i, a], train[:, j, a])
                  for i, j, a in spots))

    # one tcorr entry, recomputed from its anchors
    report = tcorr.load_report(report_path)
    spec = tcorr.PeriodSpec.from_interval(x.interval_minutes, tau=report.tau)
    period = tcorr.PERIODS[int(rng.integers(len(tcorr.PERIODS)))]
    i, a = int(rng.integers(n)), int(rng.integers(N_ATTRIBUTES))
    offset, tau = spec.offset_for(period), spec.tau
    values = [mic(train[t - offset + 1:t - offset + 1 + tau, i, a],
                      train[t + 1:t + 1 + tau, i, a])
              for t in tcorr.anchor_positions(len(train), spec)]
    expected = report.weights.for_period(period) * sum(values) / len(values)
    run.check(f"tcorr[{period}][{i}, {a}] recomputed",
              close(report.per_sensor[period][i, a], expected))

    with open(verdict_path) as fh:
        combined = json.load(fh)["combined_verdict"]
    run.check(f"weekly-dominant verdict {combined} includes weekly",
              "weekly" in combined)


# ---------------------------------------------------------------------------
# train-pems08: one epoch of the pems08 preset, at N=96 rather than PEMS08's
# 170 sensors, whose memory-bound steps drift with the host from run to run

TRAIN_SENSORS = 96
NOMINAL_STEP_S = 1.2     # sizes the epoch from --seconds; never measured


class StepClock:
    """Times each training step (zero_grad to the end of Adam.step) and
    keeps each step's loss, by wrapping the calls model.train makes. Steps
    run on each usable CPU in turn, as in on_cpu."""

    def __init__(self, run: Run):
        self.run = run
        self.losses: list[float] = []
        self.ended: list[float] = []
        self._started = 0.0
        self._cpus = os.sched_getaffinity(0)
        self._undo = []

    def __enter__(self):
        zero_grad, step, loss = model.CorrSTN.zero_grad, model.Adam.step, model.mae_loss

        def timed_zero_grad(net):
            cpus = sorted(self._cpus)
            os.sched_setaffinity(0, {cpus[len(self.ended) % len(cpus)]})
            self._started = time.perf_counter()
            zero_grad(net)

        def timed_step(optimizer):
            step(optimizer)
            self.ended.append(time.perf_counter())
            self.run.step_seconds.append(self.ended[-1] - self._started)

        def kept_loss(pred, target):
            out = loss(pred, target)
            self.losses.append(float(out.data))
            return out

        self._undo = [patch(model.CorrSTN, "zero_grad", timed_zero_grad),
                      patch(model.Adam, "step", timed_step),
                      patch(model, "mae_loss", kept_loss)]
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self._cpus)
        while self._undo:
            self._undo.pop()()


def run_train(run: Run) -> None:
    """One model.train epoch, batch 1, over a fixed slice of the training
    split plus a one-sample validation slice. SCorr comes from the seed, so
    no MIC work runs."""
    config = model.ModelConfig.from_dict(
        {**model.PRESETS["pems08"].to_dict(), "batch_size": 1})
    n_train = max(2, int(run.seconds / NOMINAL_STEP_S))

    def build():
        ds, x_norm, ranges, offsets = prepared(TRAIN_SENSORS, run.seed, config)
        # the whole splits, as `corrstn train` assembles them
        train_set = data.assemble_samples(x_norm, ranges[0], config.periods,
                                          offsets, config.horizon)
        val_set = data.assemble_samples(x_norm, ranges[1], config.periods,
                                        offsets, config.horizon)
        order = np.random.default_rng(run.seed).permutation(len(train_set))
        batches = model.TrainingData(subset(train_set, np.sort(order[:n_train])),
                                     subset(val_set, slice(0, 1)), ds.norm_params)
        adj = laplacian_normalize(add_self_loops(ds.adjacency))
        net = model.build_model(config, seeded_scorr(run.seed, TRAIN_SENSORS,
                                                     N_ATTRIBUTES),
                                adj, TRAIN_SENSORS, seed=run.seed)
        return batches, net, (train_set, val_set)

    # the whole splits stay referenced through the run, as in `corrstn train`
    (batches, net, _splits), setup_s = run.setup("train-pems08", build)

    # warm-up: one untimed forward + backward; no optimizer step, so the
    # timed epoch starts from the built weights
    started = time.perf_counter()
    with run.untraced():
        train_set = batches.train
        net.zero_grad()
        loss = model.mae_loss(net.forward(train_set.encoder_input[:1],
                                          train_set.decoder_input[:1]),
                              train_set.target[:1])
        loss.backward()
        net.zero_grad()
        del loss
    run.metrics["setup_s"] = setup_s + time.perf_counter() - started

    run.label("epoch-1")
    with StepClock(run) as clock:
        started = time.perf_counter()
        log = model.train(net, batches, config, epochs=1, patience=1, seed=run.seed)
        ended = time.perf_counter()
    epoch_s = ended - started

    for k, value in enumerate(clock.losses):
        run.check(f"step {k}: loss {value} finite", np.isfinite(value))
    run.check("epoch trained every sample", len(run.step_seconds) == n_train
              and len(log.rows) == 1 and np.isfinite(log.rows[0].val_mae))
    with run.untraced():
        path = run.path("checkpoint.cstn")
        model.save_checkpoint(net, config, path)
        loaded = model.load_checkpoint(path, config)
    state = net.state_dict()
    run.check("checkpoint round trip bit-equal",
              loaded.keys() == state.keys() and all(
                  loaded[k].shape == state[k].shape
                  and loaded[k].tobytes() == state[k].tobytes() for k in state))

    step_s = statistics.median(run.step_seconds)
    run.metrics["primary_ms"] = 1e3 * step_s / config.batch_size
    run.metrics["secondary_ms"] = 1e3 * epoch_s / n_train
    run.details.update(
        train_samples_per_s=(n_train / epoch_s, "samples/s"),
        steady_samples_per_s=(config.batch_size / step_s, "samples/s"),
        validation_ms=(1e3 * (ended - clock.ended[-1]), "ms"),
        train_samples=(n_train, "count"))


# ---------------------------------------------------------------------------
# forecast: closed-loop single-window requests and batched evaluates

FORECAST_SENSORS = 16
FORECAST_ROUNDS = 6


def run_forecast(run: Run) -> None:
    """Default model with all three periods, restored from a checkpoint as
    `corrstn evaluate` does; one client sends predict requests back to back."""
    config = model.ModelConfig(periods=("hourly", "daily", "weekly"))
    n_requests = max(100, 10 * run.seconds // 3)
    n_evaluate = max(FORECAST_ROUNDS, 2 * run.seconds)
    ckpt = run.path("checkpoint.cstn")

    def build():
        ds, x_norm, ranges, offsets = prepared(FORECAST_SENSORS, run.seed, config)
        test = data.assemble_samples(x_norm, ranges[2], config.periods, offsets,
                                     config.horizon)
        corr = seeded_scorr(run.seed, FORECAST_SENSORS, N_ATTRIBUTES)
        adj = laplacian_normalize(add_self_loops(ds.adjacency))
        model.save_checkpoint(model.build_model(config, corr, adj, FORECAST_SENSORS,
                                                seed=run.seed), config, ckpt)
        net = model.build_model(config, corr, adj, FORECAST_SENSORS, seed=run.seed)
        net.load_state_dict(model.load_checkpoint(ckpt, config))
        return ds, test, net

    (ds, test, net), setup_s = run.setup("forecast", build)
    norm = ds.norm_params
    order = np.random.default_rng(run.seed).permutation(len(test))[:n_requests]

    started = time.perf_counter()
    with run.untraced():
        model.predict(net, test.encoder_input[:1], norm)
    run.metrics["setup_s"] = setup_s + time.perf_counter() - started

    # requests and evaluate slices alternate, and each round runs on the
    # next CPU, so both metrics sample the whole run on every core
    spots = {0, n_requests // 2, n_requests - 1}
    latencies, predictions = [], []
    evaluate_s = 0.0
    for r, chunk in enumerate(np.array_split(np.arange(n_requests), FORECAST_ROUNDS)):
        with on_cpu(r):
            for k in chunk:
                run.label(f"request-{k}")
                window = test.encoder_input[order[k]:order[k] + 1]
                began = time.perf_counter()
                pred = model.predict(net, window, norm)
                latencies.append(time.perf_counter() - began)
                predictions.append(pred)
                with run.untraced():
                    check_request(run, net, window, pred, norm, k, k in spots)

            # the round's first windows, already predicted one by one
            run.label(f"evaluate-{chunk[0]}")
            first = chunk[:n_evaluate // FORECAST_ROUNDS]
            chosen = subset(test, order[first])
            began = time.perf_counter()
            report = metrics.evaluate(net, chosen, ds)
            evaluate_s += time.perf_counter() - began
            truth = data.denormalize(chosen.target[..., 0], norm, attribute=0)
            single = np.concatenate([predictions[k] for k in first])[..., 0]
            run.check(f"evaluate over requests {first[0]}-{first[-1]}: MAE equals "
                      "metrics.mae of their predictions",
                      close(report.overall["mae"], metrics.mae(single, truth)))

    n_evaluated = FORECAST_ROUNDS * (n_evaluate // FORECAST_ROUNDS)
    p50, p90 = np.percentile(latencies, [50, 90])
    run.metrics["primary_ms"] = 1e3 * p50
    run.metrics["secondary_ms"] = 1e3 * evaluate_s / n_evaluated
    run.details.update(forecast_p50_ms=(1e3 * p50, "ms"),
                       forecast_p90_ms=(1e3 * p90, "ms"),
                       evaluate_samples_per_s=(n_evaluated / evaluate_s, "samples/s"),
                       requests=(n_requests, "count"))
    run.p90_ms = 1e3 * p90


def check_request(run: Run, net, window, pred, norm, k: int, spot: bool) -> None:
    """Step 0 equals one teacher-forced pass from the last observation; on
    spot requests every step k equals a pass over the rebuilt prefix."""
    lo, hi = norm[0]
    as_norm = 2.0 * (pred[:, :, :, 0] - lo) / (hi - lo) - 1.0
    dec = window[:, -1:].copy()
    steps = pred.shape[1] if spot else 1
    ok = True
    for step in range(steps):
        out = net.forward(window, dec).data[:, -1, :, 0]
        ok = ok and close(data.denormalize(out, norm, attribute=0), pred[:, step, :, 0])
        nxt = dec[:, -1:].copy()
        nxt[:, 0, :, 0] = as_norm[:, step]
        dec = np.concatenate([dec, nxt], axis=1)
    run.check(f"request {k}: rollout matches forward passes", ok)


# ---------------------------------------------------------------------------

WORKLOADS = {"correlate": run_correlate, "train-pems08": run_train,
             "forecast": run_forecast}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)

    run = Run(args)
    try:
        WORKLOADS[args.workload](run)
    except Exception as exc:   # a crashed workload is a failed operation
        run.check(f"{type(exc).__name__}: {exc}", False)
        traceback.print_exc()
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    run.metrics["peak_rss_mb"] = peak_rss_mb()

    result = {"workload": args.workload, "seed": args.seed,
              "attempted": max(run.attempted, 1), "failed": run.failed,
              "failures": run.failures[:20], "metrics": run.metrics,
              "details": run.details, "machine": machine_facts()}
    if run.tracer is not None:
        layers = run.tracer.layer_metrics(run.step_seconds, run.p90_ms)
        result["layers"] = {name: {"value": value, "unit": LAYER_UNITS[name]}
                            for name, value in layers.items()}
        trace_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(trace_dir, exist_ok=True)
        run.tracer.write(os.path.join(trace_dir, f"trace-{args.workload}.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
