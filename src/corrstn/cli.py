"""Command-line entry point.

Subcommands: synth, scorr, tcorr, select, train, predict, evaluate,
export-plot-data. `main` parses argv with one parser, built once per
process, and runs the subcommand's `cmd_*` function, looked up on each
call, with a Manifest. The function returns the manifest's path, and `main`
writes it there: every run writes a manifest JSON, except a select run
without --out or --manifest. The manifest records the resolved
arguments, seed, build version, stage timings and peak resident memory.
train, predict and evaluate get their data, samples and model from one
loader, which also records their sample counts and the byte budget of a
forecast or validation chunk with the windows it gives; train prints one
progress line per epoch to stderr. Exit codes: 0 success, 2 configuration
error, 3 data error (any OSError too), 4 compute error.

scorr and tcorr score MIC at its one grid bound, m^0.6, and tcorr at the
model's 12-step window. scorr is the only subcommand that runs worker
processes: --workers of them (default 1), forked, at most one per usable CPU;
it prints and records the count that ran.
"""

from __future__ import annotations

import argparse
import functools
import os
import resource
import subprocess
import sys
import time

import numpy as np

from . import __version__, data as data_mod, metrics as metrics_mod
from . import model as model_mod, scorr as scorr_mod, tcorr as tcorr_mod
from .errors import (ComputeError, ConfigError, CorrstnError, DataError)
from .mic import MicStats, pool_workers
from .neural import add_self_loops, laplacian_normalize

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


@functools.lru_cache(maxsize=None)
def _git_describe() -> str:
    """The build version, from one git run per process at most."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return f"corrstn-{__version__}"


class Manifest:
    def __init__(self, command: str, args: argparse.Namespace):
        self.payload = {
            "command": command,
            "args": dict(sorted(vars(args).items())),
            "seed": getattr(args, "seed", None),
            "version": None,    # resolved when the manifest is written
            "outputs": [],
            "timings": {},
        }
        self._marks = {}

    def start(self, stage: str) -> None:
        self._marks[stage] = time.perf_counter()

    def stop(self, stage: str) -> None:
        self.payload["timings"][stage] = round(
            time.perf_counter() - self._marks.pop(stage), 6)

    def add_output(self, path) -> None:
        self.payload["outputs"].append(str(path))

    def write(self, path) -> None:
        # the largest resident set of this process or of a child it waited
        # for (scorr's pool workers); ru_maxrss is in KiB on Linux
        self.payload["peak_rss_bytes"] = 1024 * max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        self.payload["version"] = _git_describe()
        data_mod.write_json(path, self.payload)
        print(f"manifest: {path}")


def _manifest_path(args, primary_output) -> str:
    return args.manifest or str(primary_output) + ".manifest.json"


def _three_numbers(text: str, what: str) -> tuple:
    """--ratios and --weights: three comma-separated numbers."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated {what}, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{what} must be numbers, got {text!r}")


_SPLITS = ("train", "val", "test")


def _load_data(args) -> tuple:
    """Every subcommand's --data (with --edges where it takes them) and the
    ranges --ratios cuts it into; None for --split all, the whole series."""
    dataset = data_mod.load_dataset(args.data, getattr(args, "edges", None))
    split = getattr(args, "split", "train")
    if split not in _SPLITS + ("all",):
        raise ConfigError(f"split must be train/val/test/all, got {split!r}")
    return dataset, None if split == "all" else data_mod.split_ranges(
        dataset.tensor.n_timestamps, _three_numbers(args.ratios, "ratios"))


def _load_split(args) -> data_mod.SpatioTemporalTensor:
    """scorr/tcorr input: the --split piece of --data."""
    dataset, ranges = _load_data(args)
    x = dataset.tensor
    if ranges is None:
        return x
    s0, s1 = ranges[_SPLITS.index(args.split)]
    return data_mod.SpatioTemporalTensor(x.data[s0:s1],
                                         interval_minutes=x.interval_minutes)


def _require_timestamps(args, piece, need: int, command: str) -> None:
    """A split too short for `command`: a DataError naming file and split."""
    n = piece.n_timestamps
    if n < need:
        raise DataError(f"{args.data}: the {args.split} split has {n} "
                        f"timestamp{'s' * (n != 1)}, {command} needs at least {need}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args, manifest: Manifest) -> str:
    manifest.start("generate")
    ds = data_mod.generate_synthetic(
        n_sensors=args.sensors, weeks=args.weeks,
        daily_amplitude=args.daily_amplitude,
        weekly_amplitude=args.weekly_amplitude, noise_sigma=args.noise,
        seed=args.seed, interval_minutes=args.interval,
        n_attributes=args.attributes, base=args.base)
    manifest.stop("generate")
    data_mod.save_tensor(ds.tensor, args.out)
    manifest.add_output(args.out)
    if args.edges_out:
        data_mod.save_edges(args.edges_out, ds.adjacency, ds.sensor_ids)
        manifest.add_output(args.edges_out)
    t, n, c = ds.tensor.data.shape
    print(f"wrote {args.out}: T={t} N={n} C={c} interval={args.interval}min")
    return _manifest_path(args, args.out)


def cmd_scorr(args, manifest: Manifest) -> str:
    if args.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {args.workers}")
    piece = _load_split(args)
    _require_timestamps(args, piece, 2, "scorr")
    n, c = piece.n_sensors, piece.n_attributes
    pair_attrs = n * (n - 1) // 2 * c
    workers = pool_workers(args.workers, pair_attrs)
    stats = MicStats()
    manifest.start("scorr")
    s = scorr_mod.compute_scorr(piece, workers=workers, stats=stats)
    manifest.stop("scorr")
    scorr_mod.save_scorr(s, args.out)
    manifest.add_output(args.out)
    if args.csv_out:
        scorr_mod.export_scorr_csv(s, args.csv_out)
        manifest.add_output(args.csv_out)
    elapsed = manifest.payload["timings"]["scorr"]
    rate = pair_attrs / elapsed if elapsed > 0 else float("inf")
    print(f"{pair_attrs} pair-attrs (N={n}, C={c}, T={piece.n_timestamps}) in "
          f"{elapsed:.3f}s with {workers} workers: {rate:.1f} pair-attrs/s")
    manifest.payload["workers_run"] = workers
    manifest.payload["mic"] = stats.to_dict("pairs")
    return _manifest_path(args, args.out)


def cmd_tcorr(args, manifest: Manifest) -> str:
    piece = _load_split(args)
    spec = tcorr_mod.PeriodSpec.from_interval(piece.interval_minutes)
    # the first anchor needs a week of history and a target window
    _require_timestamps(args, piece, spec.weekly_offset + spec.tau, "tcorr")
    weights = tcorr_mod.TCorrWeights(
        *_three_numbers(args.weights, "hourly,daily,weekly weights"))
    stats = MicStats()
    manifest.start("tcorr")
    report = tcorr_mod.build_tcorr_report(
        piece, spec, weights=weights, dataset=os.path.basename(args.data),
        stats=stats)
    manifest.stop("tcorr")
    manifest.payload["mic"] = stats.to_dict("windows")
    tcorr_mod.save_report(report, args.out)
    manifest.add_output(args.out)
    for period in tcorr_mod.PERIODS:
        means = ", ".join(f"{v:.4f}" for v in report.averages[period])
        print(f"{period:7s} mean = [{means}]")
    for key, label in (("hd", "daily-hourly"), ("hw", "weekly-hourly"),
                       ("dw", "weekly-daily")):
        vals = ", ".join(f"{v:+.4f}" for v in report.deltas[key])
        print(f"delta {label:13s} = [{vals}]")
    print(f"verdict: {' | '.join(','.join(v) for v in report.verdict)}"
          f" -> combined: {','.join(report.combined_verdict)}")
    print(f"computed in {manifest.payload['timings']['tcorr']:.3f}s")
    return _manifest_path(args, args.out)


def cmd_select(args, manifest: Manifest) -> str | None:
    report = tcorr_mod.load_report(args.report)
    verdicts, combined = report.verdict, report.combined_verdict
    for a, v in enumerate(verdicts):
        print(f"attribute {a}: {','.join(v)}")
    print(f"combined: {','.join(combined)}")
    if args.out:
        data_mod.write_json(args.out, {"verdict": [list(v) for v in verdicts],
                                       "combined_verdict": list(combined)})
        manifest.add_output(args.out)
    return _manifest_path(args, args.out) if args.out or args.manifest else None


def _resolve_config(args) -> model_mod.ModelConfig:
    if args.config:
        config = model_mod.load_config(args.config)
    elif args.preset:
        if args.preset not in model_mod.PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"have {sorted(model_mod.PRESETS)}")
        config = model_mod.PRESETS[args.preset]
    else:
        config = model_mod.ModelConfig()
    if args.tcorr_report:
        report = tcorr_mod.load_report(args.tcorr_report)
        config = model_mod.ModelConfig.from_dict(
            {**config.to_dict(), "periods": list(report.combined_verdict)})
    return config


def _load_model(args, config, manifest: Manifest, splits, seed: int):
    """train/predict/evaluate plumbing: the dataset, normalized on its
    training split; the samples of each split in `splits`; and the model
    built from --scorr and --edges. Records the sample counts, and the byte
    budget of one forecast chunk with the windows per chunk that it gives
    this model."""
    dataset, ranges = _load_data(args)
    x = dataset.tensor
    dataset.norm_params = data_mod.fit_normalization(x, ranges[0])
    x_norm = data_mod.SpatioTemporalTensor(
        data_mod.normalize(x.data, dataset.norm_params),
        interval_minutes=x.interval_minutes)
    spec = tcorr_mod.PeriodSpec.from_interval(x.interval_minutes, tau=config.tau)
    offsets = {p: spec.offset_for(p) for p in config.periods}
    samples = [data_mod.assemble_samples(x_norm, ranges[_SPLITS.index(split)],
                                         config.periods, offsets, config.horizon)
               for split in splits]
    manifest.payload["samples"] = dict(zip(splits, map(len, samples)))
    if not os.path.exists(args.scorr):
        raise DataError(f"missing correlation file {args.scorr}; "
                        f"produce it with: corrstn scorr")
    scorr = scorr_mod.load_scorr(args.scorr)
    if (scorr.n_sensors, scorr.n_attributes) != (x.n_sensors, x.n_attributes):
        raise DataError(
            f"{args.scorr} is for {scorr.n_sensors} sensors x "
            f"{scorr.n_attributes} attributes, but {args.data} has "
            f"{x.n_sensors} x {x.n_attributes}")
    adj = laplacian_normalize(add_self_loops(dataset.adjacency))
    model = model_mod.build_model(config, scorr, adj, x.n_sensors, seed=seed)
    manifest.payload["chunk"] = {
        "budget_bytes": model_mod.CHUNK_BYTES,
        "windows": model_mod.chunk_windows(model.config, model.n_sensors)}
    return dataset, samples, model


def _print_epoch(row) -> None:
    """One progress line per epoch, on stderr so stdout stays as it was."""
    print(f"epoch {row.epoch}: train MAE {row.train_mae:.6f}, "
          f"val MAE {row.val_mae:.6f}, {row.seconds:.2f} s",
          file=sys.stderr, flush=True)


def cmd_train(args, manifest: Manifest) -> str:
    model_mod.check_schedule(args.epochs, args.patience)
    config = _resolve_config(args)
    dataset, (train_samples, val_samples), model = _load_model(
        args, config, manifest, ("train", "val"), seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest.start("train")
    log = model_mod.train(
        model, model_mod.TrainingData(train_samples, val_samples,
                                      dataset.norm_params),
        config, epochs=args.epochs, patience=args.patience, seed=args.seed,
        on_epoch=_print_epoch)
    manifest.stop("train")
    log_path = os.path.join(args.out_dir, "train_log.csv")
    log.to_csv(log_path)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.cstn")
    model_mod.save_checkpoint(model, config, ckpt_path)
    cfg_path = os.path.join(args.out_dir, "config.json")
    model_mod.save_config(config, cfg_path)
    for path in (ckpt_path, cfg_path, log_path):
        manifest.add_output(path)
    print(f"trained {len(log.rows)} epochs "
          f"({'stopped early, ' if log.stopped_early else ''}"
          f"best epoch {log.best_epoch}, val MAE {log.best_val_mae:.6f})")
    print(f"checkpoint: {ckpt_path}")
    return os.path.join(args.out_dir, "manifest.json")


def _restore_model(args, manifest: Manifest):
    """predict/evaluate plumbing: the dataset, the --split samples and the
    model with its checkpoint's weights, so the build seed is irrelevant."""
    config = model_mod.load_config(args.config)
    dataset, (samples,), model = _load_model(args, config, manifest,
                                             (args.split,), seed=0)
    if not os.path.exists(args.checkpoint):
        raise DataError(f"missing checkpoint {args.checkpoint}; "
                        f"produce it with: corrstn train")
    model.load_state_dict(model_mod.load_checkpoint(args.checkpoint, config))
    return dataset, samples, model


def cmd_predict(args, manifest: Manifest) -> str:
    dataset, samples, model = _restore_model(args, manifest)
    manifest.start("predict")
    pred = model_mod.predict(model, samples.encoder_input, dataset.norm_params)
    manifest.stop("predict")
    # np.save appends .npy to a path without it; a file object it writes as is
    with open(args.out, "wb") as fh:
        np.save(fh, pred)
    manifest.add_output(args.out)
    print(f"{pred.shape[0]} forecasts of {pred.shape[1]} steps x "
          f"{pred.shape[2]} sensors -> {args.out}")
    return _manifest_path(args, args.out)


def cmd_evaluate(args, manifest: Manifest) -> str:
    dataset, samples, model = _restore_model(args, manifest)
    manifest.start("evaluate")
    report = metrics_mod.evaluate(model, samples, dataset)
    manifest.stop("evaluate")
    metrics_mod.save_metric_report(report, args.out)
    manifest.add_output(args.out)
    if args.horizon_csv:
        metrics_mod.export_horizon_csv(report, args.horizon_csv)
        manifest.add_output(args.horizon_csv)
    o = report.overall
    mape_text = f"{o['mape'] * 100:.2f}%" if report.mape_defined else "undefined"
    print(f"MAE={o['mae']:.4f} RMSE={o['rmse']:.4f} MAPE={mape_text} "
          f"({len(samples)} samples, {report.mape_masked} zero-truth points masked)")
    return _manifest_path(args, args.out)


def cmd_export_plot_data(args, manifest: Manifest) -> str:
    # every input is loaded and checked before any output is written
    reports = [metrics_mod.load_metric_report(p) for p in args.metric_reports or ()]
    if reports:
        labels = args.labels.split(",") if args.labels else \
            [os.path.basename(p) for p in args.metric_reports]
        if len(labels) != len(reports):
            raise ConfigError(f"{len(labels)} labels for {len(reports)} reports")
        first, horizons = args.metric_reports[0], len(reports[0].per_horizon)
        for path, rep in zip(args.metric_reports, reports):
            if len(rep.per_horizon) != horizons:
                raise DataError(f"{path}: {len(rep.per_horizon)} horizons, but "
                                f"{first} has {horizons}")
    tcorr_report = tcorr_mod.load_report(args.tcorr_report) if args.tcorr_report \
        else None
    if not reports and tcorr_report is None:
        raise ConfigError("nothing to export: pass --metric-reports and/or "
                          "--tcorr-report")
    os.makedirs(args.out_dir, exist_ok=True)
    tables = {}     # file name: (header, rows)
    if reports:
        tables["horizon_curves.csv"] = "label,horizon,mae,rmse,mape", (
            (label, h, *row) for label, rep in zip(labels, reports)
            for h, row in enumerate(rep.per_horizon, start=1))
        if len(reports) > 1:
            stacked = np.stack([r.per_horizon for r in reports])
            # (L, 3, 2): each metric's mean and sample std side by side
            cells = np.stack([stacked.mean(axis=0), stacked.std(axis=0, ddof=1)], axis=2)
            tables["horizon_aggregate.csv"] = (
                "horizon,mae_mean,mae_std,rmse_mean,rmse_std,mape_mean,mape_std",
                ((h, *row.ravel()) for h, row in enumerate(cells, start=1)))
            overall = np.array([[r.overall["mae"], r.overall["rmse"],
                                 r.overall["mape"]] for r in reports])
            m, s = overall.mean(axis=0), overall.std(axis=0, ddof=1)
            print(f"across {len(reports)} runs: "
                  f"MAE {m[0]:.4f} +/- {s[0]:.4f}, RMSE {m[1]:.4f} +/- {s[1]:.4f}, "
                  f"MAPE {m[2] * 100:.2f}% +/- {s[2] * 100:.2f}%")
    if tcorr_report is not None:
        tables["tcorr_scatter.csv"] = "period,sensor,attribute,weighted_degree", (
            (period, i, a, v) for period in tcorr_mod.PERIODS
            for i, row in enumerate(tcorr_report.per_sensor[period])
            for a, v in enumerate(row))
        tables["tcorr_means.csv"] = "period,attribute,mean", (
            (period, a, v) for period in tcorr_mod.PERIODS
            for a, v in enumerate(tcorr_report.averages[period]))
    for name, (header, rows) in tables.items():
        path = os.path.join(args.out_dir, name)
        data_mod.write_csv(path, header, rows)
        manifest.add_output(path)
        print(f"wrote {path}")
    return os.path.join(args.out_dir, "manifest.json")


# ---------------------------------------------------------------------------
# parser

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `corrstn` parser, built once per process. A flag that several
    subcommands take with one meaning and default is declared once, in a
    parent parser; --out, --split, --config and --tcorr-report differ
    between subcommands and are declared in each."""
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True)
    data.add_argument("--ratios", default="0.6,0.2,0.2")
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--edges", default=None)
    graph.add_argument("--scorr", required=True)
    manifest = argparse.ArgumentParser(add_help=False)
    manifest.add_argument("--manifest", default=None)

    parser = argparse.ArgumentParser(
        prog="corrstn",
        description="Correlation-information toolkit for traffic forecasting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[manifest],
                       help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--edges-out", default=None)
    p.add_argument("--sensors", type=int, required=True)
    p.add_argument("--weeks", type=int, required=True)
    p.add_argument("--daily-amplitude", type=float, default=1.0)
    p.add_argument("--weekly-amplitude", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interval", type=int, default=5)
    p.add_argument("--attributes", type=int, default=1)
    p.add_argument("--base", type=float, default=10.0)

    p = sub.add_parser("scorr", parents=[data, manifest],
                       help="spatial correlation tensor")
    p.add_argument("--out", required=True)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--split", default="train")

    p = sub.add_parser("tcorr", parents=[data, manifest],
                       help="temporal correlation report")
    p.add_argument("--out", required=True)
    p.add_argument("--weights", default="0.95,0.95,0.85")
    p.add_argument("--split", default="train")

    p = sub.add_parser("select", parents=[manifest],
                       help="periodic-data selection verdict")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("train", parents=[data, graph],
                       help="train the forecaster")
    p.add_argument("--config", default=None)
    p.add_argument("--preset", default=None)
    p.add_argument("--tcorr-report", default=None,
                   help="set config periods from a tcorr verdict")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=20)

    for name in ("predict", "evaluate"):
        p = sub.add_parser(name, parents=[data, graph, manifest],
                           help=f"{name} with a trained checkpoint")
        p.add_argument("--config", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--split", default="test", choices=_SPLITS)
        if name == "evaluate":
            p.add_argument("--horizon-csv", default=None)

    p = sub.add_parser("export-plot-data", help="CSV series for plotting")
    p.add_argument("--metric-reports", nargs="*", default=[])
    p.add_argument("--labels", default=None)
    p.add_argument("--tcorr-report", default=None)
    p.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = Manifest(args.command, args)
    # built on each call, so a cmd_* rebound on this module is the one that runs
    command = {"synth": cmd_synth, "scorr": cmd_scorr, "tcorr": cmd_tcorr,
               "select": cmd_select, "train": cmd_train, "predict": cmd_predict,
               "evaluate": cmd_evaluate,
               "export-plot-data": cmd_export_plot_data}[args.command]
    try:
        path = command(args, manifest)
        if path is not None:
            manifest.write(path)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ComputeError, CorrstnError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
