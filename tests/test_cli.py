import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrstn import (SCorrTensor, cli, compute_scorr, load_metric_report,
                     load_scorr, load_tensor, save_scorr)
from corrstn import model as model_mod
from corrstn.metrics import compute_report, save_metric_report
from test_scorr import _FORK, _InlinePool, _mic


# a 12-step horizon needs the hourly offset >= 12, so 5-minute sampling;
# tiny split ratios keep the trained stages fast
_RATIOS = "0.1,0.1,0.8"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth -> scorr -> tcorr -> train -> evaluate pipeline, shared."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.sttf"
    edges = root / "edges.csv"
    rc = cli.main(["synth", "--out", str(data), "--edges-out", str(edges),
                   "--sensors", "4", "--weeks", "2", "--interval", "5",
                   "--noise", "0.05", "--seed", "11"])
    assert rc == 0
    scorr = root / "corr.scor"
    assert cli.main(["scorr", "--data", str(data), "--out", str(scorr)]) == 0
    tcorr = root / "tcorr.json"
    assert cli.main(["tcorr", "--data", str(data), "--out", str(tcorr)]) == 0
    config = root / "config.json"
    config.write_text(json.dumps({
        "encoder_layers": 1, "decoder_layers": 1, "d_model": 8, "heads": 2,
        "top_u": 2, "periods": ["hourly"], "learning_rate": 0.01,
        "batch_size": 16}))
    run = root / "run"
    assert cli.main(["train", "--data", str(data), "--edges", str(edges),
                     "--scorr", str(scorr), "--config", str(config),
                     "--out-dir", str(run), "--seed", "1", "--ratios", _RATIOS,
                     "--epochs", "3", "--patience", "5"]) == 0
    return root


def test_synth_outputs(workdir):
    x = load_tensor(workdir / "data.sttf")
    assert x.data.shape == (4032, 4, 1)
    assert x.interval_minutes == 5
    manifest = json.loads((workdir / "data.sttf.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 11
    assert "generate" in manifest["timings"]
    edges = (workdir / "edges.csv").read_text().splitlines()
    assert edges[0] == "# directed=false"
    assert edges[1] == "from,to,weight"


def test_scorr_output_and_throughput(workdir, capsys):
    s = load_scorr(workdir / "corr.scor")
    assert s.degrees.shape == (4, 4, 1)
    rc = cli.main(["scorr", "--data", str(workdir / "data.sttf"),
                   "--out", str(workdir / "corr2.scor")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pair-attrs/s" in out
    assert np.array_equal(load_scorr(workdir / "corr2.scor").degrees, s.degrees)
    diagnostics = json.loads((workdir / "corr.scor.manifest.json").read_text())["mic"]
    assert diagnostics["pairs"] == 6
    assert diagnostics["degenerate"] + sum(diagnostics["grid_shapes"].values()) == 6


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bad_scorr_worker_count_is_config_error(workdir, tmp_path, capsys,
                                                workers):
    rc = cli.main(["scorr", "--data", str(workdir / "data.sttf"),
                   "--out", str(tmp_path / "out.scor"), "--workers", workers])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out.scor").exists()


def test_scorr_pool_through_entry_point(tmp_path):
    # the installed entry point, in its own process, with and without a pool
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    data = tmp_path / "data.sttf"
    assert cli.main(["synth", "--out", str(data), "--sensors", "6",
                     "--weeks", "2", "--interval", "60", "--attributes", "2",
                     "--seed", "5"]) == 0
    outputs = []
    for workers in ("2", "1"):
        out = tmp_path / f"w{workers}.scor"
        done = subprocess.run(
            [sys.executable, "-m", "corrstn.cli", "scorr", "--data", str(data),
             "--out", str(out), "--workers", workers],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        ran = min(int(workers), _mic._usable_cpus())
        assert f"with {ran} workers" in done.stdout
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["args"]["workers"] == int(workers)
        assert manifest["workers_run"] == ran
        assert manifest["mic"]["pairs"] == 2 * 6 * 5 // 2
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_scorr_reports_the_workers_that_ran(workdir, tmp_path, capsys,
                                            monkeypatch):
    # --workers 4 on two usable CPUs runs, prints and records a 2-worker
    # pool; the stand-in pool runs its tasks here, so no process starts
    opened = []

    def inline_pool(processes, **kwargs):
        opened.append(processes)
        return _InlinePool(processes, **kwargs)

    monkeypatch.setattr(_FORK, "Pool", inline_pool)
    monkeypatch.setattr(_mic, "_WORKER_STATE", {})
    monkeypatch.setattr(_mic, "_usable_cpus", lambda: 2)
    out = tmp_path / "w4.scor"
    assert cli.main(["scorr", "--data", str(workdir / "data.sttf"),
                     "--out", str(out), "--workers", "4"]) == 0
    assert opened == [2]
    assert "with 2 workers" in capsys.readouterr().out
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    assert (manifest["args"]["workers"], manifest["workers_run"]) == (4, 2)
    assert out.read_bytes() == (workdir / "corr.scor").read_bytes()


def test_tcorr_report_and_select(workdir, capsys):
    report = json.loads((workdir / "tcorr.json").read_text())
    assert report["combined_verdict"][0] == "hourly"
    # 12-step windows admit only the 2x2 grid
    diagnostics = json.loads((workdir / "tcorr.json.manifest.json").read_text())["mic"]
    windows = diagnostics["windows"]
    assert windows > 0 and windows % (4 * 3) == 0       # sensors x periods
    assert diagnostics["degenerate"] + diagnostics["grid_shapes"]["2x2"] == windows
    rc = cli.main(["select", "--report", str(workdir / "tcorr.json"),
                   "--out", str(workdir / "verdict.json")])
    assert rc == 0
    assert "combined:" in capsys.readouterr().out
    verdict = json.loads((workdir / "verdict.json").read_text())
    assert verdict == {"verdict": report["verdict"],
                       "combined_verdict": report["combined_verdict"]}
    # the report records the fixed MIC grid bound and the model's window
    assert (report["eta"], report["tau"]) == (0.6, 12)


def test_select_writes_manifest_without_out(workdir, tmp_path):
    manifest = tmp_path / "sel.manifest.json"
    assert cli.main(["select", "--report", str(workdir / "tcorr.json"),
                     "--manifest", str(manifest)]) == 0
    payload = json.loads(manifest.read_text())
    assert payload["command"] == "select"
    assert payload["outputs"] == []


def test_git_runs_once_per_process_and_only_for_a_manifest(workdir, tmp_path,
                                                           monkeypatch):
    runs = []
    real_run = subprocess.run

    def counted(*args, **kwargs):
        runs.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli.subprocess, "run", counted)
    cli._git_describe.cache_clear()
    report = str(workdir / "tcorr.json")
    # select with neither --out nor --manifest writes nothing
    assert cli.main(["select", "--report", report]) == 0
    assert runs == []
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert cli.main(["select", "--report", report, "--out", str(out)]) == 0
    assert len(runs) == 1
    payloads = [json.loads(Path(f"{out}.manifest.json").read_text())
                for out in outs]
    assert list(payloads[0])[:6] == ["command", "args", "seed", "version",
                                     "outputs", "timings"]
    assert payloads[0]["version"] == payloads[1]["version"] == cli._git_describe()


def test_train_artifacts(workdir):
    run = workdir / "run"
    assert (run / "checkpoint.cstn").exists()
    assert (run / "config.json").exists()
    log = (run / "train_log.csv").read_text().strip().splitlines()
    assert log[0] == "epoch,train_mae,val_mae,val_rmse,val_mape,seconds"
    assert len(log) == 4
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert any(p.endswith("checkpoint.cstn") for p in manifest["outputs"])


def test_evaluate_and_horizon_export(workdir):
    run = workdir / "run"
    report_path = workdir / "metrics.json"
    csv_path = workdir / "horizons.csv"
    rc = cli.main(["evaluate", "--data", str(workdir / "data.sttf"),
                   "--edges", str(workdir / "edges.csv"),
                   "--scorr", str(workdir / "corr.scor"),
                   "--config", str(run / "config.json"),
                   "--checkpoint", str(run / "checkpoint.cstn"),
                   "--out", str(report_path), "--horizon-csv", str(csv_path),
                   "--split", "val", "--ratios", _RATIOS])
    assert rc == 0
    report = load_metric_report(report_path)
    assert report.overall["mae"] <= report.overall["rmse"]
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 13 and lines[0] == "horizon,mae,rmse,mape"


def test_train_keeps_the_epoch_whose_val_mae_evaluate_reports(workdir, tmp_path):
    # train scores each epoch with the autoregressive rollout, so the best
    # logged val_mae is what `evaluate --split val` reports on the checkpoint
    run = tmp_path / "run"
    artifacts = ["--data", str(workdir / "data.sttf"),
                 "--edges", str(workdir / "edges.csv"),
                 "--scorr", str(workdir / "corr.scor"), "--ratios", _RATIOS]
    assert cli.main(["train", *artifacts, "--config", str(workdir / "config.json"),
                     "--out-dir", str(run), "--seed", "2",
                     "--epochs", "2"]) == 0
    assert cli.main(["evaluate", *artifacts, "--config", str(run / "config.json"),
                     "--checkpoint", str(run / "checkpoint.cstn"),
                     "--out", str(tmp_path / "eval.json"), "--split", "val"]) == 0
    rows = (run / "train_log.csv").read_text().splitlines()[1:]
    best = min(float(row.split(",")[2]) for row in rows)
    assert json.loads((tmp_path / "eval.json").read_text())["overall"]["mae"] == best


def test_predict_writes_forecasts(workdir):
    run = workdir / "run"
    out = workdir / "pred.npy"
    rc = cli.main(["predict", "--data", str(workdir / "data.sttf"),
                   "--edges", str(workdir / "edges.csv"),
                   "--scorr", str(workdir / "corr.scor"),
                   "--config", str(run / "config.json"),
                   "--checkpoint", str(run / "checkpoint.cstn"),
                   "--out", str(out), "--split", "val", "--ratios", _RATIOS])
    assert rc == 0
    pred = np.load(out)
    assert pred.ndim == 4 and pred.shape[1:] == (12, 4, 1)


def test_manifests_record_peak_rss_and_sample_counts(workdir, tmp_path):
    run = workdir / "run"
    manifest = json.loads((run / "manifest.json").read_text())
    # 4032 steps split 0.1/0.1/0.8 with a 12-step hourly lookback and horizon:
    # train anchors 11..390, val anchors 402..793
    assert manifest["samples"] == {"train": 380, "val": 392}
    assert manifest["peak_rss_bytes"] > 2**20
    # the budget and the windows it gives the fixture's config at N=4
    config = model_mod.load_config(run / "config.json")
    chunk = {"budget_bytes": model_mod.CHUNK_BYTES,
             "windows": model_mod.chunk_windows(config, 4)}
    assert chunk["windows"] >= 64
    assert manifest["chunk"] == chunk
    for command, out in (("predict", tmp_path / "pred.npy"),
                         ("evaluate", tmp_path / "metrics.json")):
        assert cli.main([command, "--data", str(workdir / "data.sttf"),
                         "--edges", str(workdir / "edges.csv"),
                         "--scorr", str(workdir / "corr.scor"),
                         "--config", str(run / "config.json"),
                         "--checkpoint", str(run / "checkpoint.cstn"),
                         "--out", str(out), "--split", "val",
                         "--ratios", _RATIOS]) == 0
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["samples"] == {"val": 392}
        assert manifest["peak_rss_bytes"] > 2**20
        assert manifest["chunk"] == chunk


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_unknown_split_is_refused(workdir, tmp_path, command):
    run = workdir / "run"
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--data", str(workdir / "data.sttf"),
                  "--edges", str(workdir / "edges.csv"),
                  "--scorr", str(workdir / "corr.scor"),
                  "--config", str(run / "config.json"),
                  "--checkpoint", str(run / "checkpoint.cstn"),
                  "--out", str(tmp_path / "out"), "--split", "tset",
                  "--ratios", _RATIOS])
    assert exit_info.value.code != 0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["scorr", "tcorr"])
def test_scorr_tcorr_unknown_split_is_config_error(workdir, tmp_path, capsys,
                                                   command):
    rc = cli.main([command, "--data", str(workdir / "data.sttf"),
                   "--out", str(tmp_path / "out"), "--split", "tset"])
    assert rc == 2
    assert "split must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scorr_split_all_reads_the_whole_series(workdir, tmp_path):
    out = tmp_path / "all.scor"
    assert cli.main(["scorr", "--data", str(workdir / "data.sttf"),
                     "--out", str(out), "--split", "all"]) == 0
    want = compute_scorr(load_tensor(workdir / "data.sttf"))
    assert np.array_equal(load_scorr(out).degrees, want.degrees)


@pytest.mark.parametrize("command", ["scorr", "tcorr"])
def test_split_all_does_not_parse_ratios(workdir, tmp_path, command):
    # the whole series is never cut, so ratios that do not sum to 1 are no
    # reason to refuse it
    assert cli.main([command, "--data", str(workdir / "data.sttf"),
                     "--out", str(tmp_path / "out"), "--split", "all",
                     "--ratios", "0.5,0.5,0.5"]) == 0


def test_export_plot_data_aggregates(workdir, capsys):
    plots = workdir / "plots"
    rc = cli.main(["export-plot-data",
                   "--metric-reports", str(workdir / "metrics.json"),
                   str(workdir / "metrics.json"),
                   "--labels", "a,b",
                   "--tcorr-report", str(workdir / "tcorr.json"),
                   "--out-dir", str(plots)])
    assert rc == 0
    assert "+/-" in capsys.readouterr().out
    curves = (plots / "horizon_curves.csv").read_text().strip().splitlines()
    assert curves[0] == "label,horizon,mae,rmse,mape"
    assert len(curves) == 1 + 24   # 12 horizons x 2 labelled reports
    agg = (plots / "horizon_aggregate.csv").read_text().strip().splitlines()
    assert len(agg) == 13
    # identical reports -> zero sample std
    assert all(float(line.split(",")[2]) == 0.0 for line in agg[1:])
    assert (plots / "tcorr_scatter.csv").exists()
    assert (plots / "tcorr_means.csv").exists()


def test_exit_code_config_error(tmp_path, capsys):
    rc = cli.main(["synth", "--out", str(tmp_path / "x.sttf"),
                   "--sensors", "4", "--weeks", "1"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--interval", "0"], ["--interval", "-5"], ["--noise", "-0.1"],
    ["--noise", "nan"], ["--attributes", "0"], ["--daily-amplitude", "inf"],
    ["--weekly-amplitude", "nan"], ["--base", "nan"]])
def test_synth_refuses_bad_arguments(tmp_path, capsys, extra):
    out = tmp_path / "x.sttf"
    rc = cli.main(["synth", "--out", str(out), "--sensors", "4", "--weeks", "2",
                   *extra])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["scorr", "tcorr"])
def test_non_finite_split_ratio_is_config_error(workdir, tmp_path, capsys,
                                                command):
    rc = cli.main([command, "--data", str(workdir / "data.sttf"),
                   "--out", str(tmp_path / "out"), "--ratios", "nan,0.5,0.5"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("weights", ["0.9,0.9", "0.9,0.9,x", "0.9,0.9,2"])
def test_bad_tcorr_weights_are_config_error(workdir, tmp_path, capsys, weights):
    rc = cli.main(["tcorr", "--data", str(workdir / "data.sttf"),
                   "--out", str(tmp_path / "out"), "--weights", weights])
    assert rc == 2
    assert "weight" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_prints_one_progress_line_per_epoch(workdir, tmp_path, capsys):
    # a learning rate this large makes validation oscillate, so patience 1
    # stops the second run early
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "encoder_layers": 1, "decoder_layers": 1, "d_model": 8, "heads": 2,
        "top_u": 2, "periods": ["hourly"], "learning_rate": 1.0,
        "batch_size": 16}))
    for epochs, patience, early in ((3, 5, False), (8, 1, True)):
        run = tmp_path / f"run{epochs}"
        assert cli.main(["train", "--data", str(workdir / "data.sttf"),
                         "--edges", str(workdir / "edges.csv"),
                         "--scorr", str(workdir / "corr.scor"),
                         "--config", str(config), "--out-dir", str(run),
                         "--seed", "1", "--ratios", _RATIOS,
                         "--epochs", str(epochs),
                         "--patience", str(patience)]) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        logged = (run / "train_log.csv").read_text().splitlines()[1:]
        assert ("stopped early" in captured.out) == early
        assert len(lines) == len(logged)
        assert len(logged) < epochs if early else len(logged) == epochs
        for k, (line, row) in enumerate(zip(lines, logged), start=1):
            train_mae, val_mae = (float(v) for v in row.split(",")[1:3])
            assert line.startswith(f"epoch {k}: train MAE {train_mae:.6f}, "
                                   f"val MAE {val_mae:.6f}, ")
            assert line.endswith(" s")
        assert "train MAE" not in captured.out


@pytest.mark.parametrize("epochs, patience", [(0, 20), (-3, -1), (2, 0)])
def test_train_refuses_fewer_than_one_epoch_or_patience(workdir, tmp_path,
                                                        capsys, epochs, patience):
    run = tmp_path / "run"
    rc = cli.main(["train", "--data", str(workdir / "data.sttf"),
                   "--edges", str(workdir / "edges.csv"),
                   "--scorr", str(workdir / "corr.scor"),
                   "--config", str(workdir / "config.json"),
                   "--out-dir", str(run), "--ratios", _RATIOS,
                   "--epochs", str(epochs), "--patience", str(patience)])
    assert rc == 2
    assert "need epochs >= 1 and patience >= 1" in capsys.readouterr().err
    # refused before any set-up: no output directory is created
    assert not run.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_nan_correlation_degree_is_data_error(workdir, tmp_path, capsys,
                                              command):
    bad = tmp_path / "nan.scor"
    raw = bytearray((workdir / "corr.scor").read_bytes())
    raw[28:36] = np.array([np.nan], dtype="<f8").tobytes()   # degree (0, 1)
    bad.write_bytes(bytes(raw))
    run = workdir / "run"
    args = {"train": ["--out-dir", str(tmp_path / "run")],
            "evaluate": ["--checkpoint", str(run / "checkpoint.cstn"),
                         "--out", str(tmp_path / "m.json")],
            "predict": ["--checkpoint", str(run / "checkpoint.cstn"),
                        "--out", str(tmp_path / "f.npy")]}[command]
    rc = cli.main([command, "--data", str(workdir / "data.sttf"),
                   "--edges", str(workdir / "edges.csv"), "--scorr", str(bad),
                   "--config", str(run / "config.json"), "--ratios", _RATIOS,
                   *args])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "NaN" in err
    assert not (tmp_path / "run" / "checkpoint.cstn").exists()


def test_exit_code_missing_data(tmp_path, capsys):
    rc = cli.main(["scorr", "--data", str(tmp_path / "nope.sttf"),
                   "--out", str(tmp_path / "out.scor")])
    assert rc == 3


def test_missing_artifact_names_producer(workdir, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workdir / "data.sttf"),
                   "--scorr", str(tmp_path / "absent.scor"),
                   "--out-dir", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "corrstn scorr" in err


@pytest.mark.parametrize("sensors, attributes", [(3, 1), (4, 2)])
def test_scorr_for_other_data_is_data_error(workdir, tmp_path, capsys, sensors,
                                            attributes):
    # the workdir data has 4 sensors and 1 attribute
    other = tmp_path / "other.scor"
    save_scorr(SCorrTensor(np.ones((sensors, sensors, attributes))), other)
    rc = cli.main(["train", "--data", str(workdir / "data.sttf"),
                   "--scorr", str(other), "--out-dir", str(tmp_path / "run"),
                   "--ratios", _RATIOS, "--epochs", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(other) in err and str(workdir / "data.sttf") in err
    assert not (tmp_path / "run" / "checkpoint.cstn").exists()


def test_checkpoint_for_other_sensor_count_is_data_error(workdir, tmp_path, capsys):
    # the config hash leaves out the sensor count, so the config check passes
    # and only the parameter shapes tell the 4-sensor checkpoint apart
    data, scorr = tmp_path / "six.sttf", tmp_path / "six.scor"
    assert cli.main(["synth", "--out", str(data), "--sensors", "6", "--weeks", "2",
                     "--interval", "5", "--seed", "3"]) == 0
    assert cli.main(["scorr", "--data", str(data), "--out", str(scorr)]) == 0
    run = workdir / "run"
    rc = cli.main(["evaluate", "--data", str(data), "--scorr", str(scorr),
                   "--config", str(run / "config.json"),
                   "--checkpoint", str(run / "checkpoint.cstn"),
                   "--out", str(tmp_path / "m.json"), "--ratios", _RATIOS])
    assert rc == 3
    assert "data error: spatial_emb: shape" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("which", ["series", "edges"])
def test_file_that_is_not_utf8_is_data_error(workdir, tmp_path, capsys, which):
    # both once escaped as UnicodeDecodeError: a traceback and exit 1
    if which == "series":
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"timestamp,sensor,flow\n0,a\xff,1.0\n1,a\xff,2.0\n")
        argv = ["scorr", "--data", str(bad), "--out", str(tmp_path / "out.scor")]
    else:
        bad = tmp_path / "bad_edges.csv"
        bad.write_bytes(b"from,to\n0,1\n1,\xff\n")
        argv = ["train", "--data", str(workdir / "data.sttf"), "--edges", str(bad),
                "--scorr", str(workdir / "corr.scor"), "--ratios", _RATIOS,
                "--epochs", "1", "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "not UTF-8" in err
    assert list(tmp_path.iterdir()) == [bad]


# cut None keeps the whole checkpoint and appends 700 bytes after its last
# block, which once loaded without an error
@pytest.mark.parametrize("cut", [20, 44, 50, 60, -3,
                                 pytest.param(None, id="appended-bytes")])
def test_truncated_checkpoint_is_data_error(workdir, tmp_path, capsys, cut):
    run = workdir / "run"
    raw = (run / "checkpoint.cstn").read_bytes()
    short = tmp_path / "short.cstn"
    short.write_bytes(raw + bytes(700) if cut is None else raw[:cut])
    rc = cli.main(["evaluate", "--data", str(workdir / "data.sttf"),
                   "--edges", str(workdir / "edges.csv"),
                   "--scorr", str(workdir / "corr.scor"),
                   "--config", str(run / "config.json"),
                   "--checkpoint", str(short), "--out", str(tmp_path / "m.json"),
                   "--ratios", _RATIOS])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(short) in err
    assert ("after the checkpoint's last block" if cut is None
            else "truncated checkpoint") in err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_non_utf8_checkpoint_name_or_config_is_refused(workdir, tmp_path, capsys,
                                                      command):
    # both once escaped as UnicodeDecodeError: a traceback and exit 1
    run = workdir / "run"
    raw = bytearray((run / "checkpoint.cstn").read_bytes())
    # magic and version, config hash, block count, first name's length
    assert raw[48:52] == b"enc_"
    raw[48] = 0xFF
    ckpt = tmp_path / "bad.cstn"
    ckpt.write_bytes(bytes(raw))
    config = tmp_path / "bad.json"
    config.write_bytes(b"\xff" + (run / "config.json").read_bytes())
    common = [command, "--data", str(workdir / "data.sttf"),
              "--edges", str(workdir / "edges.csv"),
              "--scorr", str(workdir / "corr.scor"),
              "--out", str(tmp_path / "out"), "--ratios", _RATIOS]
    rc = cli.main(common + ["--config", str(run / "config.json"),
                            "--checkpoint", str(ckpt)])
    assert rc == 3
    assert str(ckpt) in capsys.readouterr().err
    rc = cli.main(common + ["--config", str(config),
                            "--checkpoint", str(run / "checkpoint.cstn")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(config) in err and "can't decode" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ['"ab"', "[]", "3"])
def test_config_that_is_not_a_json_object_is_config_error(workdir, tmp_path, capsys,
                                                          text):
    # "ab" once escaped from dict() as a bare ValueError, a traceback and
    # exit 1, and [] ran as the default config
    config = tmp_path / "bad.json"
    config.write_text(text)
    rc = cli.main(["train", "--data", str(workdir / "data.sttf"),
                   "--scorr", str(workdir / "corr.scor"), "--config", str(config),
                   "--out-dir", str(tmp_path / "run"), "--ratios", _RATIOS,
                   "--epochs", "1"])
    assert rc == 2
    assert str(config) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_with_dropout_is_config_error(workdir, tmp_path, capsys):
    # the model has no dropout; a config that sets one must not train or
    # evaluate without it
    saved = json.loads((workdir / "run" / "config.json").read_text())
    assert saved["dropout"] == 0.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**saved, "dropout": 0.1}))
    rc = cli.main(["train", "--data", str(workdir / "data.sttf"),
                   "--scorr", str(workdir / "corr.scor"), "--config", str(config),
                   "--out-dir", str(tmp_path / "run"), "--ratios", _RATIOS,
                   "--epochs", "1"])
    assert rc == 2
    assert "dropout" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    rc = cli.main(["evaluate", "--data", str(workdir / "data.sttf"),
                   "--scorr", str(workdir / "corr.scor"), "--config", str(config),
                   "--checkpoint", str(workdir / "run" / "checkpoint.cstn"),
                   "--out", str(tmp_path / "m.json"), "--ratios", _RATIOS])
    assert rc == 2
    assert not (tmp_path / "m.json").exists()


def test_scorr_on_a_one_timestamp_split_is_data_error(tmp_path, capsys):
    # 3 timestamps split 0.6/0.2/0.2 leave one in each split; MIC needs two,
    # and the shortfall once escaped as a compute error, exit 4
    data = tmp_path / "short.csv"
    data.write_text("timestamp,sensor,flow\n" + "".join(
        f"{t},{s},{t + s}.0\n" for t in range(3) for s in range(2)))
    out = tmp_path / "s.scor"
    assert cli.main(["scorr", "--data", str(data), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(data) in err and "train split" in err
    assert not out.exists()


def test_tcorr_on_a_short_split_is_data_error(tmp_path, capsys):
    # with too few timestamps for one anchor, tcorr once printed "no
    # admissible anchors" with neither the file nor the split
    data = tmp_path / "short.csv"
    data.write_text("timestamp,sensor,flow\n" + "".join(
        f"{t},{s},{t + s}.0\n" for t in range(3) for s in range(2)))
    out = tmp_path / "r.json"
    assert cli.main(["tcorr", "--data", str(data), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(data) in err and "train split" in err
    assert "has 1 timestamp, tcorr needs at least 2028" in err
    assert not out.exists()


def test_config_error_names_the_config_file(workdir, tmp_path, capsys):
    # a field that its own check refuses once printed no path, where a
    # config that is not a JSON object printed one
    saved = json.loads((workdir / "run" / "config.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**saved, "heads": 5}))
    rc = cli.main(["evaluate", "--data", str(workdir / "data.sttf"),
                   "--scorr", str(workdir / "corr.scor"), "--config", str(config),
                   "--checkpoint", str(workdir / "run" / "checkpoint.cstn"),
                   "--out", str(tmp_path / "m.json"), "--ratios", _RATIOS])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{config}: d_model {saved['d_model']} not divisible by heads 5" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("interval", [7, 0])
def test_sttf_interval_that_does_not_divide_an_hour_is_data_error(
        workdir, tmp_path, capsys, interval):
    # the interval comes from the file's header: it once loaded, and tcorr
    # and train then exited 2 with a configuration error and no path
    data = tmp_path / "odd.sttf"
    raw = bytearray((workdir / "data.sttf").read_bytes())
    raw[20:24] = interval.to_bytes(4, "little")
    data.write_bytes(bytes(raw))
    for command in (["scorr", "--out", str(tmp_path / "s.scor")],
                    ["tcorr", "--out", str(tmp_path / "r.json")],
                    ["train", "--scorr", str(workdir / "corr.scor"),
                     "--out-dir", str(tmp_path / "run"), "--epochs", "1"]):
        assert cli.main([command[0], "--data", str(data), *command[1:]]) == 3
        err = capsys.readouterr().err
        assert f"{data}: interval_minutes must divide 60, got {interval}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["odd.sttf"]


@pytest.mark.parametrize("flag", ["--data", "--out"])
def test_a_directory_as_data_or_out_is_data_error(workdir, tmp_path, capsys, flag):
    # IsADirectoryError once escaped as a traceback and exit 1
    paths = {"--data": str(workdir / "data.sttf"), "--out": str(tmp_path / "s.scor"),
             flag: str(tmp_path)}
    rc = cli.main(["scorr", "--data", paths["--data"], "--out", paths["--out"]])
    assert rc == 3
    assert "data error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# a report of zero attributes: every shape check passes, and combining its
# verdicts once failed as a configuration error, exit 2
_EMPTY_REPORT = json.dumps({
    "dataset": "", "eta": 0.6, "tau": 12,
    "weights": {"hourly": 0.95, "daily": 0.95, "weekly": 0.85},
    "per_period_means": {"hourly": [], "daily": [], "weekly": []},
    "deltas": {"hd": [], "hw": [], "dw": []},
    "verdict": [], "combined_verdict": ["hourly"],
    "per_sensor": {"hourly": [[], []], "daily": [[], []], "weekly": [[], []]}})
# a weight outside (0, 1] once failed as a configuration error, exit 2,
# without the report's path
_HEAVY_WEIGHT_REPORT = json.dumps({
    **json.loads(_EMPTY_REPORT),
    "weights": {"hourly": 2.0, "daily": 0.95, "weekly": 0.85}})


@pytest.mark.parametrize("text", ['{"verdict": [[', "{}", "[]",
                                  '{"deltas": {"hd": [0.1]}}',
                                  pytest.param(_EMPTY_REPORT, id="no-attributes"),
                                  pytest.param(_HEAVY_WEIGHT_REPORT,
                                               id="weight-above-one")])
def test_malformed_report_is_data_error(tmp_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text)
    assert cli.main(["select", "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert "malformed tcorr report" in err and str(report) in err
    assert cli.main(["export-plot-data", "--metric-reports", str(report),
                     "--out-dir", str(tmp_path / "plots")]) == 3


@pytest.mark.parametrize("field, value", [
    ("per_sensor", [0.1, 0.2]),                 # (N,) instead of (N, C)
    ("per_sensor", [[0.1, 0.2], [0.3, 0.4]]),   # C = 2 against one verdict
    ("per_period_means", [[0.1]]),              # (1, 1) instead of (C,)
    ("per_period_means", [0.1, 0.2]),           # two means for C = 1
    ("per_sensor", [["a"]] * 4),                # not numbers
])
def test_export_refuses_misshapen_tcorr_report_before_writing(
        workdir, tmp_path, capsys, field, value):
    payload = json.loads((workdir / "tcorr.json").read_text())
    payload[field]["hourly"] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    rng = np.random.default_rng(0)
    metrics = tmp_path / "metrics.json"
    save_metric_report(compute_report(rng.uniform(1, 2, (3, 12, 4)),
                                      rng.uniform(1, 2, (3, 12, 4))), metrics)
    plots = tmp_path / "plots"
    rc = cli.main(["export-plot-data", "--metric-reports", str(metrics),
                   "--tcorr-report", str(report), "--out-dir", str(plots)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "malformed tcorr report" in err and str(report) in err
    assert not plots.exists()


def test_select_refuses_report_with_mismatched_attributes(workdir, tmp_path,
                                                         capsys):
    payload = json.loads((workdir / "tcorr.json").read_text())
    payload["verdict"].append(["hourly"])   # one attribute more than deltas
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert cli.main(["select", "--report", str(report)]) == 3
    assert "malformed tcorr report" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["verdict", "combined_verdict"])
def test_report_whose_verdict_disagrees_with_its_deltas_is_data_error(
        workdir, tmp_path, capsys, field):
    # select once re-derived the verdict from the deltas while train read
    # the stored one, so one edited report gave them different periods
    payload = json.loads((workdir / "tcorr.json").read_text())
    other = ["hourly"] if payload["combined_verdict"] != ["hourly"] \
        else ["hourly", "daily"]
    payload[field] = [other] if field == "verdict" else other
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert cli.main(["select", "--report", str(report)]) == 3
    assert "disagree with its deltas" in capsys.readouterr().err
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(workdir / "data.sttf"),
                     "--edges", str(workdir / "edges.csv"),
                     "--scorr", str(workdir / "corr.scor"),
                     "--config", str(workdir / "config.json"),
                     "--tcorr-report", str(report), "--out-dir", str(run),
                     "--ratios", _RATIOS, "--epochs", "1"]) == 3
    assert str(report) in capsys.readouterr().err
    assert not run.exists()


def test_unknown_preset_is_config_error(workdir, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workdir / "data.sttf"),
                   "--scorr", str(workdir / "corr.scor"),
                   "--preset", "bogus", "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    assert "preset" in capsys.readouterr().err


def test_console_script_entry_point(workdir, tmp_path):
    # the installed executable wires argv through the same main()
    result = subprocess.run(
        [sys.executable, "-m", "corrstn.cli", "--version"],
        capture_output=True, text=True)
    assert result.returncode == 0


@pytest.mark.parametrize("argv", [["scorr", "--eta", "0.6"],
                                  ["tcorr", "--eta", "0.6"],
                                  ["tcorr", "--tau", "12"]])
def test_mic_bound_and_tcorr_window_are_not_options(workdir, tmp_path, capsys,
                                                    argv):
    # MIC runs at its one grid bound and tcorr at the model's 12-step window
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--data", str(workdir / "data.sttf"), "--out", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def _parser_flags() -> set:
    """(subcommand, flag) for every flag a `corrstn` subcommand accepts."""
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    return {(name, flag) for name, sub in subcommands.choices.items()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings}


def test_readme_cli_reference_documents_every_flag():
    # rows of the flag table: | `--flag ARG` | command, command | meaning | default |
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI reference\n", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`--"):
            flag = cells[0].strip("`").split()[0]
            documented |= {(name.strip(), flag) for name in cells[1].split(",")}
    flags = _parser_flags()
    assert sorted(flags - documented) == [], "missing from the README"
    assert sorted(documented - flags) == [], "in the README but not the parser"
