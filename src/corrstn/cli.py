"""Command-line entry point.

Subcommands: synth, scorr, tcorr, select, train, predict, evaluate,
export-plot-data. Every run writes a manifest JSON, except a select run
without --out or --manifest, recording the resolved arguments, seed, build
version, stage timings and peak resident memory;
train, predict and evaluate also record their sample counts and the byte
budget of a forecast or validation chunk with the windows it gives, and
train prints one progress line per epoch to stderr. Exit codes:
0 success, 2 configuration error, 3 data error (any OSError too), 4 compute
error.

scorr and tcorr score MIC at its one grid bound, m^0.6, and tcorr at the
model's 12-step window. scorr is the only subcommand that runs worker
processes: --workers of them (default 1), forked, at most one per usable CPU;
it prints and records the count that ran.
"""

from __future__ import annotations

import argparse
import functools
import json
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
            "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
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
        with open(path, "w") as fh:
            json.dump(self.payload, fh, indent=2, default=str)
            fh.write("\n")
        print(f"manifest: {path}")


def _manifest_path(args, primary_output) -> str:
    return getattr(args, "manifest", None) or str(primary_output) + ".manifest.json"


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

def cmd_synth(args) -> int:
    manifest = Manifest("synth", args)
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
    manifest.write(_manifest_path(args, args.out))
    return 0


def cmd_scorr(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {args.workers}")
    manifest = Manifest("scorr", args)
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
    manifest.write(_manifest_path(args, args.out))
    return 0


def cmd_tcorr(args) -> int:
    manifest = Manifest("tcorr", args)
    piece = _load_split(args)
    spec = tcorr_mod.PeriodSpec.from_interval(piece.interval_minutes)
    # the first anchor needs a week of history and a target window
    _require_timestamps(args, piece, spec.weekly_offset + spec.tau, "tcorr")
    weights = tcorr_mod.TCorrWeights(
        *_three_numbers(args.weights, "hourly,daily,weekly weights"))
    stats = MicStats()
    manifest.start("tcorr")
    report = tcorr_mod.build_tcorr_report(
        piece, spec, weights=weights,
        dataset=args.dataset_name or os.path.basename(args.data), stats=stats)
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
    manifest.write(_manifest_path(args, args.out))
    return 0


def cmd_select(args) -> int:
    manifest = Manifest("select", args)
    report = tcorr_mod.load_report(args.report)
    verdicts, combined = report.verdict, report.combined_verdict
    for a, v in enumerate(verdicts):
        print(f"attribute {a}: {','.join(v)}")
    print(f"combined: {','.join(combined)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"verdict": [list(v) for v in verdicts],
                       "combined_verdict": list(combined)}, fh, indent=2)
            fh.write("\n")
        manifest.add_output(args.out)
    if args.out or args.manifest:
        manifest.write(_manifest_path(args, args.out))
    return 0


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
    if getattr(args, "tcorr_report", None):
        report = tcorr_mod.load_report(args.tcorr_report)
        config = model_mod.ModelConfig.from_dict(
            {**config.to_dict(), "periods": list(report.combined_verdict)})
    return config


def _load_pipeline(args, config):
    """Shared train/predict/evaluate plumbing: load, split, normalize."""
    dataset, ranges = _load_data(args)
    x = dataset.tensor
    dataset.norm_params = data_mod.fit_normalization(x, ranges[0])
    x_norm = data_mod.SpatioTemporalTensor(
        data_mod.normalize(x.data, dataset.norm_params),
        interval_minutes=x.interval_minutes)
    spec = tcorr_mod.PeriodSpec.from_interval(x.interval_minutes, tau=config.tau)
    offsets = {p: spec.offset_for(p) for p in config.periods}
    return dataset, x_norm, ranges, offsets


def _build_from_artifacts(args, config, dataset, seed: int):
    if not os.path.exists(args.scorr):
        raise DataError(f"missing correlation file {args.scorr}; "
                        f"produce it with: corrstn scorr")
    scorr = scorr_mod.load_scorr(args.scorr)
    x = dataset.tensor
    if (scorr.n_sensors, scorr.n_attributes) != (x.n_sensors, x.n_attributes):
        raise DataError(
            f"{args.scorr} is for {scorr.n_sensors} sensors x "
            f"{scorr.n_attributes} attributes, but {args.data} has "
            f"{x.n_sensors} x {x.n_attributes}")
    adj = laplacian_normalize(add_self_loops(dataset.adjacency))
    return model_mod.build_model(config, scorr, adj, dataset.tensor.n_sensors,
                                 seed=seed)


def _record_chunks(manifest: Manifest, model) -> None:
    """The byte budget of one forecast chunk, and the windows per chunk that
    it gives this model."""
    manifest.payload["chunk"] = {
        "budget_bytes": model_mod.CHUNK_BYTES,
        "windows": model_mod.chunk_windows(model.config, model.n_sensors)}


def _print_epoch(row) -> None:
    """One progress line per epoch, on stderr so stdout stays as it was."""
    print(f"epoch {row.epoch}: train MAE {row.train_mae:.6f}, "
          f"val MAE {row.val_mae:.6f}, {row.seconds:.2f} s",
          file=sys.stderr, flush=True)


def cmd_train(args) -> int:
    model_mod.check_schedule(args.epochs, args.patience)
    manifest = Manifest("train", args)
    config = _resolve_config(args)
    dataset, x_norm, ranges, offsets = _load_pipeline(args, config)
    train_samples = data_mod.assemble_samples(x_norm, ranges[0], config.periods,
                                              offsets, config.horizon)
    val_samples = data_mod.assemble_samples(x_norm, ranges[1], config.periods,
                                            offsets, config.horizon)
    manifest.payload["samples"] = {"train": len(train_samples),
                                   "val": len(val_samples)}
    model = _build_from_artifacts(args, config, dataset, args.seed)
    _record_chunks(manifest, model)
    os.makedirs(args.out_dir, exist_ok=True)
    log_path = os.path.join(args.out_dir, "train_log.csv")
    manifest.start("train")
    log = model_mod.train(
        model, model_mod.TrainingData(train_samples, val_samples,
                                      dataset.norm_params),
        config, epochs=args.epochs, patience=args.patience, seed=args.seed,
        log_path=log_path, on_epoch=_print_epoch)
    manifest.stop("train")
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
    manifest.write(os.path.join(args.out_dir, "manifest.json"))
    return 0


def _restore_model(args):
    """predict/evaluate plumbing: the trained model and the --split samples.
    The weights come from the checkpoint, so the build seed is irrelevant."""
    config = model_mod.load_config(args.config)
    dataset, x_norm, ranges, offsets = _load_pipeline(args, config)
    model = _build_from_artifacts(args, config, dataset, seed=0)
    if not os.path.exists(args.checkpoint):
        raise DataError(f"missing checkpoint {args.checkpoint}; "
                        f"produce it with: corrstn train")
    model.load_state_dict(model_mod.load_checkpoint(args.checkpoint, config))
    split_range = ranges[_SPLITS.index(args.split)]
    samples = data_mod.assemble_samples(x_norm, split_range, config.periods,
                                        offsets, config.horizon)
    return dataset, samples, model


def cmd_predict(args) -> int:
    manifest = Manifest("predict", args)
    dataset, samples, model = _restore_model(args)
    manifest.payload["samples"] = {args.split: len(samples)}
    _record_chunks(manifest, model)
    manifest.start("predict")
    pred = model_mod.predict(model, samples.encoder_input, dataset.norm_params)
    manifest.stop("predict")
    np.save(args.out, pred)
    manifest.add_output(args.out)
    print(f"{pred.shape[0]} forecasts of {pred.shape[1]} steps x "
          f"{pred.shape[2]} sensors -> {args.out}")
    manifest.write(_manifest_path(args, args.out))
    return 0


def cmd_evaluate(args) -> int:
    manifest = Manifest("evaluate", args)
    dataset, samples, model = _restore_model(args)
    manifest.payload["samples"] = {args.split: len(samples)}
    _record_chunks(manifest, model)
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
    manifest.write(_manifest_path(args, args.out))
    return 0


def cmd_export_plot_data(args) -> int:
    manifest = Manifest("export-plot-data", args)
    # every input is loaded and checked before any output is written
    reports = [metrics_mod.load_metric_report(p) for p in args.metric_reports or ()]
    if reports:
        labels = args.labels.split(",") if args.labels else \
            [os.path.basename(p) for p in args.metric_reports]
        if len(labels) != len(reports):
            raise ConfigError(f"{len(labels)} labels for {len(reports)} reports")
    tcorr_report = tcorr_mod.load_report(args.tcorr_report) if args.tcorr_report \
        else None
    if not reports and tcorr_report is None:
        raise ConfigError("nothing to export: pass --metric-reports and/or "
                          "--tcorr-report")
    os.makedirs(args.out_dir, exist_ok=True)
    wrote = []
    if reports:
        path = os.path.join(args.out_dir, "horizon_curves.csv")
        with open(path, "w") as fh:
            fh.write("label,horizon,mae,rmse,mape\n")
            for label, rep in zip(labels, reports):
                for h, row in enumerate(rep.per_horizon, start=1):
                    fh.write(f"{label},{h},{float(row[0])!r},{float(row[1])!r},"
                             f"{float(row[2])!r}\n")
        wrote.append(path)
        if len(reports) > 1:
            stacked = np.stack([r.per_horizon for r in reports])
            mean = stacked.mean(axis=0)
            std = stacked.std(axis=0, ddof=1)
            path = os.path.join(args.out_dir, "horizon_aggregate.csv")
            with open(path, "w") as fh:
                fh.write("horizon,mae_mean,mae_std,rmse_mean,rmse_std,"
                         "mape_mean,mape_std\n")
                for h in range(mean.shape[0]):
                    cells = []
                    for col in range(3):
                        cells += [repr(float(mean[h, col])), repr(float(std[h, col]))]
                    fh.write(f"{h + 1}," + ",".join(cells) + "\n")
            wrote.append(path)
            overall = np.array([[r.overall["mae"], r.overall["rmse"],
                                 r.overall["mape"]] for r in reports])
            m, s = overall.mean(axis=0), overall.std(axis=0, ddof=1)
            print(f"across {len(reports)} runs: "
                  f"MAE {m[0]:.4f} +/- {s[0]:.4f}, RMSE {m[1]:.4f} +/- {s[1]:.4f}, "
                  f"MAPE {m[2] * 100:.2f}% +/- {s[2] * 100:.2f}%")
    if tcorr_report is not None:
        path = os.path.join(args.out_dir, "tcorr_scatter.csv")
        with open(path, "w") as fh:
            fh.write("period,sensor,attribute,weighted_degree\n")
            for period in tcorr_mod.PERIODS:
                values = tcorr_report.per_sensor[period]
                for i in range(values.shape[0]):
                    for a in range(values.shape[1]):
                        fh.write(f"{period},{i},{a},{float(values[i, a])!r}\n")
        wrote.append(path)
        path = os.path.join(args.out_dir, "tcorr_means.csv")
        with open(path, "w") as fh:
            fh.write("period,attribute,mean\n")
            for period in tcorr_mod.PERIODS:
                for a, v in enumerate(tcorr_report.averages[period]):
                    fh.write(f"{period},{a},{float(v)!r}\n")
        wrote.append(path)
    for path in wrote:
        manifest.add_output(path)
        print(f"wrote {path}")
    manifest.write(os.path.join(args.out_dir, "manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrstn",
        description="Correlation-information toolkit for traffic forecasting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
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
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("scorr", help="spatial correlation tensor")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--split", default="train")
    p.add_argument("--ratios", default="0.6,0.2,0.2")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_scorr)

    p = sub.add_parser("tcorr", help="temporal correlation report")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weights", default="0.95,0.95,0.85")
    p.add_argument("--dataset-name", default=None)
    p.add_argument("--split", default="train")
    p.add_argument("--ratios", default="0.6,0.2,0.2")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_tcorr)

    p = sub.add_parser("select", help="periodic-data selection verdict")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="train the forecaster")
    p.add_argument("--data", required=True)
    p.add_argument("--edges", default=None)
    p.add_argument("--scorr", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--preset", default=None)
    p.add_argument("--tcorr-report", default=None,
                   help="set config periods from a tcorr verdict")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--ratios", default="0.6,0.2,0.2")
    p.set_defaults(func=cmd_train)

    for name, func in (("predict", cmd_predict), ("evaluate", cmd_evaluate)):
        p = sub.add_parser(name, help=f"{name} with a trained checkpoint")
        p.add_argument("--data", required=True)
        p.add_argument("--edges", default=None)
        p.add_argument("--scorr", required=True)
        p.add_argument("--config", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--split", default="test", choices=_SPLITS)
        p.add_argument("--ratios", default="0.6,0.2,0.2")
        p.add_argument("--manifest", default=None)
        if name == "evaluate":
            p.add_argument("--horizon-csv", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("export-plot-data", help="CSV series for plotting")
    p.add_argument("--metric-reports", nargs="*", default=[])
    p.add_argument("--labels", default=None)
    p.add_argument("--tcorr-report", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_export_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
