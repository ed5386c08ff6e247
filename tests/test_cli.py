"""End-to-end tests of the command-line interface."""

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from survmae import SurvivalDataset, load_dataset, save_dataset
from survmae.cli import main
from survmae.estimators import KaplanMeierFit, model_from_json
from survmae.harness import METRICS, save_curve_file


@pytest.fixture
def plain_csv(tmp_path):
    rng = np.random.default_rng(90)
    n = 60
    ds = SurvivalDataset.from_arrays(
        rng.uniform(0.5, 12.0, n),
        rng.random(n) < 0.7,
        features=rng.normal(0.0, 1.0, (n, 2)),
        feature_names=("age", "stage"),
    )
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    return path


@pytest.fixture
def truth_csv(tmp_path):
    rng = np.random.default_rng(91)
    n = 120
    truths = 8.0 * rng.weibull(1.4, n)
    censor = rng.uniform(0.0, truths.max(), n)
    ds = SurvivalDataset.from_arrays(
        np.minimum(truths, censor), truths <= censor, true_times=truths
    )
    path = tmp_path / "semi.csv"
    save_dataset(ds, path)
    return path


# ------------------------------------------------------------------- stats


def test_stats_prints_summary_json(plain_csv, capsys):
    assert main(["stats", str(plain_csv)]) == 0
    out = json.loads(capsys.readouterr().out)
    ds = load_dataset(plain_csv)
    assert out["n"] == ds.n
    assert_allclose(out["censor_rate"], float(np.mean(~ds.events)))
    assert_allclose(out["t_max_event"], float(ds.times[ds.events].max()))
    assert set(out) == {"n", "censor_rate", "t_max_event", "t_median_event", "sigma_event"}


def test_stats_honors_column_names(tmp_path, capsys):
    path = tmp_path / "odd.csv"
    path.write_text("followup,dead\n2.0,1\n5.0,0\n7.0,1\n")
    code = main(
        ["stats", str(path), "--time-column", "followup", "--event-column", "dead"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 3
    assert_allclose(out["t_max_event"], 7.0)


def test_missing_file_reports_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time,event\n2.0,1\n3.0,2\n")
    assert main(["stats", str(path)]) == 1
    assert "line 3" in capsys.readouterr().err


# a field over the csv module's size limit (131,072 characters)
HUGE_FIELD = "1" * 200_000


def test_oversized_field_names_the_line(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(f"time,event,x\n1.0,1,2.0\n2.0,1,{HUGE_FIELD}\n3.0,x,1\n")
    assert main(["stats", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: field larger than field limit")
    path.write_text(f"time,event,{HUGE_FIELD}\n1.0,1,2.0\n")
    assert main(["stats", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: field larger than field limit")


def test_oversized_field_in_a_curve_file_names_the_line(plain_csv, tmp_path, capsys):
    curves = tmp_path / "huge.csv"
    curves.write_text(f"t,1.0,2.0\n0,0.9,0.5\n1,0.8,{HUGE_FIELD}\n2,x,1\n")
    assert main(["eval", str(plain_csv), "--curves", str(curves)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: field larger than field limit")
    curves.write_text(f"t,1.0,{HUGE_FIELD}\n0,0.9,0.5\n")
    assert main(["eval", str(plain_csv), "--curves", str(curves)]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: field larger than field limit")


def test_no_arguments_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["compress"])


# ------------------------------------------------------------------- synth


def test_synth_writes_dataset_and_sidecar(plain_csv, tmp_path, capsys):
    out = tmp_path / "synth.csv"
    code = main(
        ["synth", str(plain_csv), "--kind", "uniform", "--seed", "3", "-o", str(out)]
    )
    assert code == 0
    produced = load_dataset(out)
    source = load_dataset(plain_csv)
    assert produced.n == int(source.events.sum())
    assert produced.true_times is not None
    assert_array_equal(
        np.sort(produced.true_times), np.sort(source.times[source.events])
    )
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["kind"] == "uniform"
    assert sidecar["seed"] == 3
    assert 0.0 <= sidecar["achieved_censor_rate"] < 1.0
    assert sidecar["source_stats"]["n"] == source.n
    assert "wrote" in capsys.readouterr().out


def test_synth_sidecar_source_stats_equal_stats_output(plain_csv, tmp_path, capsys):
    assert main(["stats", str(plain_csv)]) == 0
    stats_text = capsys.readouterr().out
    out = tmp_path / "synth.csv"
    assert main(["synth", str(plain_csv), "--kind", "uniform", "-o", str(out)]) == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["source_stats"] == json.loads(stats_text)
    assert json.dumps(sidecar["source_stats"], indent=2) + "\n" == stats_text


def test_synth_hyphenated_kind_is_an_alias(plain_csv, tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["synth", str(plain_csv), "--kind", "uniform-admin", "--seed", "5", "-o", str(a)]) == 0
    assert main(["synth", str(plain_csv), "--kind", "uniform_admin", "--seed", "5", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert json.loads(a.with_suffix(".json").read_text())["kind"] == "uniform_admin"
    capsys.readouterr()


def test_synth_external_kind(plain_csv, truth_csv, tmp_path, capsys):
    out = tmp_path / "ext.csv"
    missing = main(
        ["synth", str(plain_csv), "--kind", "external", "-o", str(out)]
    )
    assert missing == 1
    assert "external" in capsys.readouterr().err
    code = main(
        [
            "synth", str(plain_csv), "--kind", "external",
            "--external", str(truth_csv), "-o", str(out),
        ]
    )
    assert code == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["external_reference"] == str(truth_csv)
    capsys.readouterr()


# --------------------------------------------------------------------- fit


def test_fit_km_to_stdout(plain_csv, capsys):
    assert main(["fit", str(plain_csv), "--model", "km"]) == 0
    model = model_from_json(capsys.readouterr().out)
    assert isinstance(model, KaplanMeierFit)


def test_fit_models_to_file(plain_csv, tmp_path, capsys):
    for name in ("km", "coxph", "weibull_aft"):
        out = tmp_path / f"{name}.json"
        assert main(["fit", str(plain_csv), "--model", name, "-o", str(out)]) == 0
        model_from_json(out)  # parses and validates
    assert capsys.readouterr().out.count("wrote") == 3


# -------------------------------------------------------------------- eval


def write_curves_for(path, ds, seed=0):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.5, float(ds.times.max()) * 1.5, 30)
    rows = [np.linspace(rng.uniform(0.85, 0.99), rng.uniform(0.01, 0.15), 30) for _ in range(ds.n)]
    save_curve_file(path, grid, rows)


def test_eval_scores_every_metric(truth_csv, tmp_path, capsys):
    ds = load_dataset(truth_csv)
    curve_path = tmp_path / "curves.csv"
    write_curves_for(curve_path, ds)
    assert main(["eval", str(truth_csv), "--curves", str(curve_path)]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert set(scores) == set(METRICS)
    assert scores["mae_hinge"] is not None
    assert scores["ibs"] is not None


def test_eval_without_truth_column_drops_true_mae(plain_csv, tmp_path, capsys):
    ds = load_dataset(plain_csv)
    curve_path = tmp_path / "curves.csv"
    write_curves_for(curve_path, ds)
    assert main(["eval", str(plain_csv), "--curves", str(curve_path)]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert set(scores) == set(METRICS) - {"true_mae"}


def test_eval_method_flag_and_alias(truth_csv, tmp_path, capsys):
    ds = load_dataset(truth_csv)
    curve_path = tmp_path / "curves.csv"
    write_curves_for(curve_path, ds)
    assert main(["eval", str(truth_csv), "--curves", str(curve_path), "--method", "mean"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(["eval", str(truth_csv), "--curves", str(curve_path), "--pred-method", "mean"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a == b


def test_eval_requires_full_coverage(truth_csv, tmp_path, capsys):
    ds = load_dataset(truth_csv)
    curve_path = tmp_path / "partial.csv"
    grid = np.linspace(0.5, 20.0, 10)
    rows = [np.linspace(0.9, 0.1, 10) for _ in range(ds.n - 2)]
    save_curve_file(curve_path, grid, rows)
    assert main(["eval", str(truth_csv), "--curves", str(curve_path)]) == 1
    assert "does not cover" in capsys.readouterr().err


# -------------------------------------------------------------- experiment


def test_experiment_writes_report_and_csv(truth_csv, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "cells.csv"
    code = main(
        [
            "experiment", str(truth_csv),
            "--models", "km,noisy:0.2",
            "--k", "3", "--seed", "1",
            "-o", str(report_path), "--csv", str(csv_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["models"] == ["km", "noisy_0.2"]
    assert set(report["per_metric_rank"]) >= {"true_mae", "mae_po"}
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "metric", "fold", "score"]
    assert len(rows) == 1 + 2 * len(METRICS) * 3
    for row in rows[1:]:
        if row[3]:
            float(row[3])  # every non-empty score is numeric
    capsys.readouterr()


def test_experiment_report_to_stdout(truth_csv, capsys):
    code = main(
        ["experiment", str(truth_csv), "--models", "km", "--k", "3", "--seed", "2"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["models"] == ["km"]


def test_experiment_rejects_unknown_model(truth_csv, capsys):
    code = main(["experiment", str(truth_csv), "--models", "boosted"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
