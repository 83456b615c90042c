import json
import math

import numpy as np
import pytest

from corrstn import (compute_report, export_horizon_csv, load_metric_report,
                     mae, mape, rmse, save_metric_report)
from corrstn.errors import DataError, DimensionError
from oracles import metrics_brute_force


def test_metrics_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(30):
        size = int(rng.integers(1, 40))
        pred = rng.normal(size=size) * 10
        truth = rng.normal(size=size) * 10
        if rng.random() < 0.3:
            truth[rng.integers(0, size)] = 0.0  # exercise the mask
        want = metrics_brute_force(pred.tolist(), truth.tolist())
        got = (mae(pred, truth), rmse(pred, truth), mape(pred, truth))
        for g, w in zip(got, want):
            if math.isnan(w):
                assert math.isnan(g)
            else:
                assert abs(g - w) < 1e-9


def test_worked_example():
    pred = np.array([2.0, 4.0])
    truth = np.array([1.0, 2.0])
    assert mae(pred, truth) == 1.5
    assert abs(rmse(pred, truth) - math.sqrt(2.5)) < 1e-12
    # |2-1|/1 = 1 and |4-2|/2 = 1, so the masked mean is exactly 1
    assert mape(pred, truth) == 1.0


def test_mape_masks_zero_truth():
    pred = np.array([1.0, 5.0, 3.0])
    truth = np.array([2.0, 0.0, 4.0])
    assert abs(mape(pred, truth) - (0.5 + 0.25) / 2) < 1e-15
    assert math.isnan(mape(np.ones(3), np.zeros(3)))


def test_shape_and_empty_guards():
    with pytest.raises(DimensionError):
        mae(np.ones(3), np.ones(4))
    with pytest.raises(DataError):
        rmse(np.array([]), np.array([]))


def test_mae_never_exceeds_rmse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pred = rng.normal(size=(8, 12, 3))
        truth = rng.normal(size=(8, 12, 3))
        report = compute_report(pred, truth)
        assert report.overall["mae"] <= report.overall["rmse"] + 1e-15
        assert np.all(report.per_horizon[:, 0] <= report.per_horizon[:, 1] + 1e-15)


def test_report_per_horizon_slices():
    rng = np.random.default_rng(2)
    pred = rng.normal(size=(5, 4, 2, 1))
    truth = rng.normal(size=(5, 4, 2, 1))
    report = compute_report(pred, truth)
    assert report.per_horizon.shape == (4, 3)
    for h in range(4):
        assert abs(report.per_horizon[h, 0] - mae(pred[:, h], truth[:, h])) < 1e-15
    assert report.n_points == pred.size
    assert report.mape_defined


def test_report_round_trip_and_csv(tmp_path):
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(6, 12, 2))
    truth = rng.normal(size=(6, 12, 2))
    truth[:, 5] = 0.0    # horizon 6 has no defined MAPE
    report = compute_report(pred, truth)
    assert np.isnan(report.per_horizon[5, 2]) and report.mape_defined
    path = tmp_path / "report.json"
    save_metric_report(report, path)

    def refuse(constant):
        raise ValueError(f"non-standard JSON number {constant}")

    # plain JSON: the undefined MAPE is null, not NaN
    strict = json.loads(path.read_text(), parse_constant=refuse)
    assert strict["per_horizon"][5]["mape"] is None
    loaded = load_metric_report(path)
    assert loaded.overall == report.overall
    assert np.array_equal(loaded.per_horizon, report.per_horizon, equal_nan=True)
    assert loaded.n_points == report.n_points

    csv_path = tmp_path / "horizons.csv"
    export_horizon_csv(report, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "horizon,mae,rmse,mape"
    assert len(lines) == 13  # header + one row per forecast step
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == report.per_horizon[0, 0]
    assert lines[6].split(",")[3] == "nan"    # CSV keeps writing nan


def _swap_first_horizons(payload):
    payload["per_horizon"][:2] = payload["per_horizon"][1::-1]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda p: p["overall"].update(mase=0.1), id="extra-overall-key"),
    pytest.param(lambda p: p["overall"].update(rmse=float("nan")), id="nan-rmse"),
    pytest.param(lambda p: p["overall"].update(mae=True), id="bool-mae"),
    pytest.param(_swap_first_horizons, id="horizons-out-of-order"),
    pytest.param(lambda p: p["per_horizon"][0].update(horizon=1.0),
                 id="float-horizon"),
    pytest.param(lambda p: p["per_horizon"][3].update(mase=0.1),
                 id="row-with-extra-key"),
    pytest.param(lambda p: p.update(per_horizon=[]), id="no-horizons"),
    pytest.param(lambda p: p.update(n_points=-1), id="negative-n-points"),
    pytest.param(lambda p: p.update(mape_masked=2.0), id="float-mape-masked"),
])
def test_load_refuses_metric_report_it_would_not_write(tmp_path, edit):
    rng = np.random.default_rng(1)
    path = tmp_path / "report.json"
    save_metric_report(compute_report(rng.uniform(1, 2, (3, 6, 2)),
                                      rng.uniform(1, 2, (3, 6, 2))), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="malformed metric report") as err:
        load_metric_report(path)
    assert str(path) in str(err.value)
