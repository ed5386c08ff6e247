"""Tests for the cross-validated experiment harness."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from survmae import (
    ConfigurationError,
    DataFormatError,
    DegenerateCurveError,
    MissingGroundTruthError,
    ModelSpec,
    StepCurve,
    SurvivalDataset,
    evaluate_dataset,
    load_curve_file,
    noisy_oracle_predictions,
    parse_model_spec,
    rank_agreement,
    run_experiment,
    save_curve_file,
    stratified_kfold,
)
from survmae import harness
from survmae.harness import MAE_METRICS, METRICS, _unique_names
from survmae.mae import extract_predicted_times


def oracle_ready_dataset(rng, n=300, scale=10.0, shape=1.5):
    """Semi-synthetic style dataset: observed data plus hidden truths."""
    truths = scale * rng.weibull(shape, n)
    censor = rng.uniform(0.0, truths.max(), n)
    return SurvivalDataset.from_arrays(
        np.minimum(truths, censor), truths <= censor, true_times=truths
    )


# ------------------------------------------------------------- model specs


def test_parse_model_spec():
    assert parse_model_spec("km") == ModelSpec(kind="km")
    assert parse_model_spec("coxph") == ModelSpec(kind="coxph")
    assert parse_model_spec("weibull_aft") == ModelSpec(kind="weibull_aft")
    assert parse_model_spec("noisy:0.25") == ModelSpec(
        kind="noisy_oracle", params={"noise": 0.25}
    )
    # the command line's text is parsed to a float; the spec takes no string
    assert parse_model_spec("noisy: 0.5") == ModelSpec(kind="noisy_oracle", params={"noise": 0.5})
    assert parse_model_spec("external:a/b.csv") == ModelSpec(
        kind="external_curves", params={"path": "a/b.csv"}
    )


def test_parse_model_spec_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_model_spec("boosted_trees")
    with pytest.raises(ValueError):
        parse_model_spec("noisy:lots")
    with pytest.raises(ConfigurationError):
        ModelSpec(kind="boosted_trees")


@pytest.mark.parametrize("noise", ["-1", "nan", "inf", "-inf", "1e400", "lots"])
def test_a_parsed_noisy_spec_with_a_bad_noise_is_refused_by_name(noise):
    text = f"noisy:{noise}"
    message = f"model spec {text!r}: noise must be a finite number >= 0"
    with pytest.raises(ConfigurationError) as err:
        parse_model_spec(text)
    assert str(err.value) == message


@pytest.mark.parametrize("noise", [-1, -0.5, math.nan, math.inf, "x", None])
def test_a_noisy_spec_with_a_bad_noise_is_refused_before_any_fold(noise, monkeypatch):
    ds = oracle_ready_dataset(np.random.default_rng(5), n=60)

    def no_folds(*args):
        raise AssertionError("a fold was split")

    monkeypatch.setattr(harness, "stratified_kfold", no_folds)
    with pytest.raises(ConfigurationError) as err:
        run_experiment(ds, [ModelSpec(kind="km"), ModelSpec("noisy_oracle", {"noise": noise})])
    assert str(err.value) == f"model spec 'noisy:{noise}': noise must be a finite number >= 0"


def test_a_noisy_spec_accepts_every_finite_nonnegative_noise():
    for noise in (0, 0.0, 0.25, 3):
        assert ModelSpec("noisy_oracle", {"noise": noise}).params == {"noise": noise}
    assert ModelSpec("noisy_oracle").params == {}


def test_unique_names():
    specs = [
        ModelSpec(kind="km"),
        ModelSpec(kind="km"),
        ModelSpec(kind="noisy_oracle", params={"noise": 0.5}),
        ModelSpec(kind="noisy_oracle", params={"noise": 0.5}),
        ModelSpec(kind="external_curves", params={"path": "runs/foo.csv"}),
    ]
    assert _unique_names(specs) == (
        "km",
        "km_2",
        "noisy_0.5",
        "noisy_0.5_2",
        "external_foo",
    )


# ------------------------------------------------------------ noisy oracle


def test_noisy_oracle_zero_noise_recovers_truths_exactly():
    rng = np.random.default_rng(70)
    ds = oracle_ready_dataset(rng, n=50)
    curves = noisy_oracle_predictions(ds, 0.0, seed=1)
    medians = extract_predicted_times(curves, "median").values
    assert_array_equal(medians, ds.true_times)


def test_noisy_oracle_noise_widens_error():
    rng = np.random.default_rng(71)
    ds = oracle_ready_dataset(rng, n=400)
    small = extract_predicted_times(noisy_oracle_predictions(ds, 0.1, 3), "median")
    large = extract_predicted_times(noisy_oracle_predictions(ds, 1.0, 3), "median")
    err_small = np.mean(np.abs(small.values - ds.true_times))
    err_large = np.mean(np.abs(large.values - ds.true_times))
    assert err_small < err_large


def test_noisy_oracle_requires_truths():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [True, True])
    with pytest.raises(MissingGroundTruthError):
        noisy_oracle_predictions(ds, 0.1, seed=1)
    ds2 = oracle_ready_dataset(np.random.default_rng(72), n=10)
    with pytest.raises(ValueError):
        noisy_oracle_predictions(ds2, -0.1, seed=1)


@pytest.mark.parametrize("noise", [-0.1, -math.inf, math.nan, math.inf])
def test_noisy_oracle_refuses_a_noise_that_is_not_finite_and_nonnegative(noise):
    ds = oracle_ready_dataset(np.random.default_rng(72), n=10)
    with pytest.raises(ValueError, match="^noise must be a finite number >= 0$"):
        noisy_oracle_predictions(ds, noise, seed=1)


def first_curveless_draw(ds, noise, seed):
    """The first subject whose drawn median gives knots that are not finite
    and strictly increasing, built one StepCurve at a time; None if none."""
    with np.errstate(over="ignore"):
        medians = ds.true_times * np.exp(np.random.default_rng(seed).normal(0.0, noise, ds.n))
        for i, median in enumerate(medians):
            try:
                StepCurve(knots=median * harness._REL_KNOTS, values=harness._PROB_GRID)
            except ValueError:
                return i
    return None


@pytest.mark.parametrize("noise", [1000.0, 1e308])
def test_a_huge_noise_names_the_first_subject_without_a_curve(noise):
    ds = oracle_ready_dataset(np.random.default_rng(73), n=60)
    for seed in range(5):
        subject = first_curveless_draw(ds, noise, seed)
        assert subject is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"subject {subject}: noise {noise:g} "
            with pytest.raises(DegenerateCurveError, match="^" + re.escape(message)):
                noisy_oracle_predictions(ds, noise, seed)


@pytest.mark.parametrize("noise", [0.0, 0.1, 0.5, 1.0, 2.0])
def test_bench_noises_draw_the_same_knots(noise):
    ds = oracle_ready_dataset(np.random.default_rng(74), n=200)
    medians = ds.true_times * np.exp(np.random.default_rng(9).normal(0.0, noise, ds.n))
    curves = noisy_oracle_predictions(ds, noise, seed=9)
    assert first_curveless_draw(ds, noise, 9) is None
    assert curves.knots.tobytes() == (medians[:, None] * harness._REL_KNOTS).tobytes()


def test_a_huge_noise_blanks_its_folds_and_the_run_goes_on():
    ds = oracle_ready_dataset(np.random.default_rng(75), n=60)
    models = [parse_model_spec(s) for s in ("km", "noisy:1000", "noisy:0.5")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(ds, models, k=5, seed=3)
    cells = report.per_fold["noisy_1000"]
    assert all(v is None for rows in cells.values() for v in rows)
    assert all(v is not None for v in report.per_fold["noisy_0.5"]["mae_hinge"])
    assert all(v is not None for v in report.per_fold["km"]["mae_hinge"])


# -------------------------------------------------------------- curve files


def test_curve_file_round_trip(tmp_path):
    path = tmp_path / "curves.csv"
    grid = [1.0, 2.0, 4.0]
    rows = [[0.9, 0.5, 0.2], [0.8, 0.6, 0.1]]
    save_curve_file(path, grid, rows, indices=[4, 7])
    curves = load_curve_file(path)
    assert set(curves) == {4, 7}
    assert_array_equal(curves[4].knots, grid)
    assert_array_equal(curves[7].values, rows[1])


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("", "empty"),
        ("x,1,2\n0,0.9,0.5\n", "must be 't'"),
        ("t,1,banana\n0,0.9,0.5\n", "non-numeric grid"),
        ("t,1,2\n0,0.9\n", "line 2: expected 3 fields"),
        ("t,1,2\n0,0.9,high\n", "line 2: non-numeric"),
        ("t,1,2\n0,0.9,0.5\n0,0.8,0.4\n", "line 3: duplicate"),
        ("t,1,2\n0,0.5,0.9\n", "line 2"),
        ("t,2,1\n0,0.9,0.5\n", "line 1: knots must be nonnegative and strictly increasing"),
        ("t,-1,1\n0,0.9,0.5\n", "line 1: knots must be nonnegative and strictly increasing"),
        ("t,1,1\n0,0.9,0.5\n", "line 1: knots must be nonnegative and strictly increasing"),
        ("t,2,1\n", "line 1: knots must be nonnegative and strictly increasing"),
        ("t,-1,1\n", "line 1: knots must be nonnegative and strictly increasing"),
    ],
)
def test_curve_file_rejects_malformed_input(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataFormatError, match=fragment):
        load_curve_file(path)


# ----------------------------------------------------------- rank agreement


def test_rank_agreement_identical_rankings():
    scores = {f"m{i}": float(i) for i in range(5)}
    tau, overlap = rank_agreement(scores, dict(scores))
    assert_allclose(tau, 1.0, rtol=1e-12)
    assert overlap == 3


def test_rank_agreement_one_swap_outside_top_two():
    true = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    metric = {"a": 1.0, "b": 2.0, "c": 4.0, "d": 3.0}
    tau, overlap = rank_agreement(true, metric)
    assert_allclose(tau, 2.0 / 3.0)
    assert overlap == 2  # third-best models differ: {a,b,c} vs {a,b,d}


def test_rank_agreement_reversed():
    true = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    metric = {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0}
    tau, overlap = rank_agreement(true, metric)
    assert tau == -1.0
    assert overlap == 2  # {a,b,c} vs {b,c,d}


def test_rank_agreement_degenerate_and_mismatched():
    tau, overlap = rank_agreement({"a": 1.0}, {"a": 2.0})
    assert math.isnan(tau)
    assert overlap == 1
    with pytest.raises(ValueError):
        rank_agreement({"a": 1.0}, {"b": 1.0})


# --------------------------------------------------------- evaluate_dataset


def test_evaluate_dataset_covers_every_metric():
    rng = np.random.default_rng(73)
    ds = oracle_ready_dataset(rng, n=120)
    curves = noisy_oracle_predictions(ds, 0.3, seed=2)
    scores = evaluate_dataset(ds, curves)
    assert set(scores) == set(METRICS)
    for met in MAE_METRICS + ("true_mae", "c_index", "ibs"):
        assert scores[met] is not None, met


def test_evaluate_dataset_drops_true_mae_without_truths():
    rng = np.random.default_rng(74)
    n = 80
    ds = SurvivalDataset.from_arrays(
        rng.uniform(0.5, 10.0, n), rng.random(n) < 0.7
    )
    curves = [
        noisy_oracle_predictions(
            SurvivalDataset.from_arrays(ds.times, ds.events, true_times=ds.times),
            0.2,
            seed=3,
        )[i]
        for i in range(n)
    ]
    scores = evaluate_dataset(ds, curves)
    assert "true_mae" not in scores
    assert set(scores) == set(METRICS) - {"true_mae"}


def test_evaluate_dataset_mean_method_changes_predictions():
    rng = np.random.default_rng(75)
    ds = oracle_ready_dataset(rng, n=100)
    curves = noisy_oracle_predictions(ds, 0.4, seed=4)
    med = evaluate_dataset(ds, curves, pred_method="median")
    mean = evaluate_dataset(ds, curves, pred_method="mean")
    assert med["mae_hinge"] != mean["mae_hinge"]
    assert med["ibs"] == mean["ibs"]  # curve metrics ignore the point preds


def test_evaluate_dataset_validates_length():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [True, True])
    with pytest.raises(ConfigurationError):
        evaluate_dataset(ds, [])


# ------------------------------------------------------------ run_experiment


def test_run_experiment_is_deterministic():
    rng = np.random.default_rng(76)
    ds = oracle_ready_dataset(rng, n=150)
    models = [parse_model_spec(s) for s in ("km", "noisy:0.3")]
    a = run_experiment(ds, models, k=3, seed=11)
    b = run_experiment(ds, models, k=3, seed=11)
    assert a.to_json_dict() == b.to_json_dict()
    c = run_experiment(ds, models, k=3, seed=12)
    assert a.to_json_dict() != c.to_json_dict()


def test_run_experiment_report_shape():
    rng = np.random.default_rng(77)
    ds = oracle_ready_dataset(rng, n=150)
    models = [parse_model_spec(s) for s in ("km", "weibull_aft", "noisy:0.3")]
    rep = run_experiment(ds, models, k=3, seed=1)
    assert rep.model_names == ("km", "weibull_aft", "noisy_0.3")
    assert rep.metric_names == METRICS
    for name in rep.model_names:
        for met in METRICS:
            assert len(rep.per_fold[name][met]) == 3
    assert set(rep.per_metric_rank) == set(MAE_METRICS + ("true_mae",))
    assert rep.true_mae_rank == rep.per_metric_rank["true_mae"]
    assert set(rep.agreement) == set(MAE_METRICS + ("true_mae",))
    assert_allclose(rep.agreement["true_mae"].kendall_tau, 1.0, rtol=1e-12)
    assert rep.agreement["true_mae"].mean_abs_gap == 0.0


def test_run_experiment_uncensored_mae_family_collapses():
    rng = np.random.default_rng(78)
    times = rng.uniform(0.5, 10.0, 60)
    ds = SurvivalDataset.from_arrays(
        times, np.ones(60, dtype=bool), true_times=times
    )
    rep = run_experiment(ds, [parse_model_spec("noisy:0.2")], k=3, seed=2)
    cells = rep.per_fold["noisy_0.2"]
    for f in range(3):
        base = cells["mae_uncensored"][f]
        for met in MAE_METRICS + ("true_mae",):
            assert_allclose(cells[met][f], base, rtol=1e-12)


def test_run_experiment_survives_all_censored_data():
    rng = np.random.default_rng(79)
    ds = SurvivalDataset.from_arrays(
        rng.uniform(0.5, 10.0, 30), np.zeros(30, dtype=bool)
    )
    rep = run_experiment(ds, [parse_model_spec("km")], k=3, seed=3)
    for met in MAE_METRICS + ("true_mae", "c_index", "ibs"):
        assert rep.mean_scores["km"][met] is None
    assert rep.agreement == {}
    assert rep.true_mae_rank is None


def test_run_experiment_external_curves(tmp_path):
    rng = np.random.default_rng(80)
    ds = oracle_ready_dataset(rng, n=24)
    grid = np.linspace(1.0, 30.0, 40)
    rows = [np.linspace(0.95, 0.05, 40) for _ in range(24)]
    path = tmp_path / "ext.csv"
    save_curve_file(path, grid, rows)
    rep = run_experiment(
        ds, [parse_model_spec(f"external:{path}")], k=2, seed=4
    )
    name = rep.model_names[0]
    assert name.startswith("external")
    assert all(v is not None for v in rep.per_fold[name]["mae_hinge"])

    short = tmp_path / "short.csv"
    save_curve_file(short, grid, rows[:10])  # misses subjects 10..23
    with pytest.raises(ConfigurationError):
        run_experiment(ds, [parse_model_spec(f"external:{short}")], k=2, seed=4)


def test_a_predicted_time_of_zero_is_a_missing_cell(tmp_path):
    # a curve file whose grid starts at 0, where subject 3 reads 0.4: its
    # median is 0, so its model's prediction cells go missing where subject 3
    # is scored, and its curve metrics are still scored
    rng = np.random.default_rng(81)
    ds = oracle_ready_dataset(rng, n=24)
    grid = np.linspace(0.0, 30.0, 40)
    rows = np.tile(np.linspace(0.95, 0.05, 40), (24, 1))
    rows[3] = np.linspace(0.4, 0.05, 40)
    path = tmp_path / "zero.csv"
    save_curve_file(path, grid, rows)
    prediction_metrics = set(harness._PREDICTION_METRICS)
    scores = evaluate_dataset(ds, load_curve_file(path).select(range(ds.n)))
    assert {met for met, score in scores.items() if score is None} == prediction_metrics
    rep = run_experiment(ds, [parse_model_spec(f"external:{path}")], k=2, seed=4)
    folds = stratified_kfold(ds, 2, 4).folds
    for fold, test in enumerate(folds):
        cells = {met: rows[fold] for met, rows in rep.per_fold[rep.model_names[0]].items()}
        missing = {met for met, score in cells.items() if score is None}
        assert missing == (prediction_metrics if 3 in test else set())


def test_run_experiment_requires_models():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True] * 3)
    with pytest.raises(ConfigurationError):
        run_experiment(ds, [], k=3)


def test_run_experiment_refuses_coxph_without_features_before_any_fold(monkeypatch):
    import survmae.harness as harness

    def no_split(*args):
        raise AssertionError("a fold was started")

    monkeypatch.setattr(harness, "stratified_kfold", no_split)
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    models = [parse_model_spec(text) for text in ("km", "coxph", "coxph")]
    with pytest.raises(ConfigurationError) as err:
        run_experiment(ds, models, k=2)
    assert str(err.value) == (
        "model 'coxph' needs at least one feature column; the dataset has none"
    )


def test_noise_ordering_recovered_across_seeds():
    # the true-MAE ranking of increasingly noisy oracles should be recovered
    # by the PO and hinge scores on observed data alone
    models = [parse_model_spec(s) for s in ("noisy:0.1", "noisy:0.6", "noisy:1.5")]
    want = ("noisy_0.1", "noisy_0.6", "noisy_1.5")
    true_ok = po_ok = hinge_ok = 0
    for seed in range(20):
        rng = np.random.default_rng((400, seed))
        ds = oracle_ready_dataset(rng)
        rep = run_experiment(ds, models, k=3, seed=seed)
        true_ok += rep.true_mae_rank == want
        po_ok += rep.per_metric_rank["mae_po"] == want
        hinge_ok += rep.per_metric_rank["mae_hinge"] == want
    assert true_ok >= 18
    assert po_ok >= 17
    assert hinge_ok >= 16


def test_more_noise_means_worse_scores():
    rng = np.random.default_rng((401, 0))
    ds = oracle_ready_dataset(rng, n=400)
    models = [parse_model_spec("noisy:0.2"), parse_model_spec("noisy:0.8")]
    rep = run_experiment(ds, models, k=3, seed=5)
    ms = rep.mean_scores
    assert ms["noisy_0.2"]["true_mae"] < ms["noisy_0.8"]["true_mae"]
    assert ms["noisy_0.2"]["mae_po"] < ms["noisy_0.8"]["mae_po"]
    agree = rep.agreement["mae_po"]
    assert_allclose(agree.kendall_tau, 1.0, rtol=1e-12)
    assert agree.top3_overlap == 2


def test_report_serializes_to_plain_json():
    rng = np.random.default_rng(81)
    ds = oracle_ready_dataset(rng, n=90)
    rep = run_experiment(ds, [parse_model_spec("km")], k=3, seed=6)
    text = json.dumps(rep.to_json_dict(), allow_nan=False)
    back = json.loads(text)
    assert back["models"] == ["km"]
    assert back["agreement"]["true_mae"]["kendall_tau"] is None  # single model
