"""Each input rule lives in one place, and every entry point that takes the
input applies that one rule.

* An event flag must be 0 or 1: ``SurvivalDataset``, ``from_arrays``,
  ``km_fit`` and ``load_dataset`` (both of its readers) accept or refuse the
  same flags and name the same first subject or line.
* A curve or prediction count must match the subject count: every metric
  names both counts.
* A fold count, a time-bin count and a seed each have one integer rule,
  and every entry point that takes one refuses it by name.
* Curve knots and hazard values are compared, never differenced, so a bad
  knot row is a ``ValueError`` and never a numpy warning.
* A prediction method and a censoring parameter are checked against one
  table before any work.
* A model or censoring kind that names no table entry, hashable or not, is
  refused by name; a noisy oracle's noise has one rule for the spec and
  the oracle.
* A model or censoring spec refuses a param its kind does not read, in one
  wording, and a model param that breaks its kind's rule, before any fold;
  params None means no params, and params that are no mapping are refused
  by name.
"""

import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survmae import (
    ConfigurationError,
    CurveBatch,
    DataFormatError,
    ModelSpec,
    StepCurve,
    SurvivalDataset,
    brier_score_at,
    concordance_index,
    d_calibration,
    dataset_stats,
    evaluate_dataset,
    integrated_brier_score,
    km_fit,
    load_curve_file,
    load_dataset,
    log_likelihood,
    mae_hinge,
    make_semi_synthetic,
    mae_ipcw_d,
    mae_uncensored,
    one_calibration,
    run_experiment,
    sample_censor_times,
    save_dataset,
    stratified_kfold,
    true_mae,
)
from survmae import cli, estimators, harness
from survmae.estimators import CumulativeHazard, censoring_km_fit, model_from_json
from survmae.mae import _PRED_METHODS, PredictedTimes, extract_predicted_times
from survmae.synth import CENSORING_KINDS, CensoringSpec

PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

FLAGS = [0, 1, 0.0, 1.0, True, False, 2, -1, 0.5, math.nan]


# ------------------------------------------------------------- event flags


def named_subject(call, start=0):
    """The subject (or, with ``start``, the line less ``start``) that the
    ``ValueError`` of ``call()`` names, and its message; None when
    ``call()`` accepts the input."""
    try:
        call()
    except ValueError as exc:
        found = re.match(r"(?:subject|line) (\d+): ", str(exc))
        assert found, str(exc)
        return int(found.group(1)) - start, str(exc)
    return None


def flag_text(flag):
    """A flag as a CSV field: integers and booleans as digits, floats as repr."""
    return str(int(flag)) if isinstance(flag, int) else repr(flag)


@PROPERTY
@given(flags=st.lists(st.sampled_from(FLAGS), min_size=1, max_size=12), quoted=st.booleans())
def test_every_entry_point_reads_an_event_flag_alike(flags, quoted):
    n = len(flags)
    times = [1.0 + 0.5 * i for i in range(n)]
    first_bad = next((i for i, flag in enumerate(flags) if flag not in (0, 1)), None)
    rows = [f"{t!r},{flag_text(f)}" for t, f in zip(times, flags)]
    if quoted:  # a quoted field sends the whole file to the line reader
        rows[0] = '"{}",{}'.format(*rows[0].split(","))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flags.csv"
        path.write_text("time,event\n" + "\n".join(rows) + "\n")
        outcomes = {
            "SurvivalDataset": named_subject(
                lambda: SurvivalDataset(times, flags, np.empty((n, 0)))
            ),
            "from_arrays": named_subject(lambda: SurvivalDataset.from_arrays(times, flags)),
            "km_fit": named_subject(lambda: km_fit(times, flags)),
            "load_dataset": named_subject(lambda: load_dataset(path), start=2),
        }
        loaded = None if first_bad is not None else load_dataset(path)
    for name, outcome in outcomes.items():
        if first_bad is None:
            assert outcome is None, name
        else:
            assert outcome is not None and outcome[0] == first_bad, (name, outcome)
            if name != "load_dataset" or not math.isnan(flags[first_bad]):
                # the csv readers refuse a NaN field as a non-finite value
                assert "event flag must be 0 or 1, got " in outcome[1], (name, outcome)
    if first_bad is None:
        want = np.array([flag == 1 for flag in flags])
        assert np.array_equal(SurvivalDataset.from_arrays(times, flags).events, want)
        assert np.array_equal(loaded.events, want)
        assert int(km_fit(times, flags).n_events.sum()) == int(want.sum())


def test_from_arrays_refuses_a_flag_of_2():
    with pytest.raises(ValueError, match=r"^subject 0: event flag must be 0 or 1, got 2$"):
        SurvivalDataset.from_arrays([1.0, 2.0], [2, 0])


def test_subset_keeps_boolean_flags():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    assert ds.events.dtype == bool
    assert ds.subset([2, 1]).events.tolist() == [True, False]


@pytest.mark.parametrize(
    "body",
    ["time,event\n1.0,1\n2.0,2\n", 'time,event\n"1.0",1\n2.0,2\n'],
    ids=["fast", "line-reader"],
)
def test_load_dataset_names_the_line_of_a_bad_flag(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DataFormatError, match=r"^line 3: event flag must be 0 or 1, got 2\.0$"):
        load_dataset(path)


# ------------------------------------------------------------------ counts


def twenty_subjects():
    rng = np.random.default_rng(19)
    truths = rng.uniform(1.0, 10.0, 20)
    censor = rng.uniform(0.0, 12.0, 20)
    ds = SurvivalDataset.from_arrays(
        np.minimum(truths, censor), truths <= censor, true_times=truths
    )
    return ds, censoring_km_fit(ds)


NINETEEN_PREDS = PredictedTimes(np.linspace(1.0, 9.0, 19))
NINETEEN_CURVES = CurveBatch(knots=[2.0, 5.0], values=np.tile([0.8, 0.3], (19, 1)))

COUNT_CALLS = {
    "mae_uncensored": lambda ds, g: mae_uncensored(NINETEEN_PREDS, ds),
    "mae_hinge": lambda ds, g: mae_hinge(NINETEEN_PREDS, ds),
    "true_mae": lambda ds, g: true_mae(NINETEEN_PREDS, ds),
    "mae_ipcw_d": lambda ds, g: mae_ipcw_d(NINETEEN_PREDS, ds, g),
    "concordance_index": lambda ds, g: concordance_index(NINETEEN_PREDS, ds),
    "brier_score_at": lambda ds, g: brier_score_at(NINETEEN_CURVES, ds, 4.0, g),
    "integrated_brier_score": lambda ds, g: integrated_brier_score(NINETEEN_CURVES, ds, g),
    "log_likelihood": lambda ds, g: log_likelihood(NINETEEN_CURVES, ds),
    "one_calibration": lambda ds, g: one_calibration(NINETEEN_CURVES, ds, 4.0),
    "d_calibration": lambda ds, g: d_calibration(NINETEEN_CURVES, ds),
}


@pytest.mark.parametrize("metric", list(COUNT_CALLS))
def test_a_metric_refuses_19_curves_or_predictions_for_20_subjects(metric):
    ds, g = twenty_subjects()
    with pytest.raises(ValueError, match=r"^got 19 (curves|predictions) for 20 subjects$"):
        COUNT_CALLS[metric](ds, g)


def test_evaluate_dataset_names_both_counts():
    ds, _ = twenty_subjects()
    with pytest.raises(ConfigurationError, match=r"^got 19 curves for 20 subjects$"):
        evaluate_dataset(ds, NINETEEN_CURVES)


# -------------------------------------------------- fold counts and seeds

INTEGER_CALLS = {
    "kfold-k": (lambda ds: stratified_kfold(ds, 2.5, 0), "k must be an integer of at least 2, got 2.5"),
    "kfold-one-fold": (lambda ds: stratified_kfold(ds, 1, 0), "k must be an integer of at least 2, got 1"),
    "experiment-k": (
        lambda ds: run_experiment(ds, [ModelSpec("km")], k=2.5),
        "k must be an integer of at least 2, got 2.5",
    ),
    "kfold-bins": (
        lambda ds: stratified_kfold(ds, 2, 0, time_bins=2.5),
        "time_bins must be an integer of at least 1, got 2.5",
    ),
    "kfold-no-bins": (
        lambda ds: stratified_kfold(ds, 2, 0, time_bins=0),
        "time_bins must be an integer of at least 1, got 0",
    ),
    "kfold-float-seed": (
        lambda ds: stratified_kfold(ds, 2, 2.5),
        "seed must be a nonnegative integer, got 2.5",
    ),
    "oracle-float-seed": (
        lambda ds: harness.noisy_oracle_predictions(ds, 0.1, 2.5),
        "seed must be a nonnegative integer, got 2.5",
    ),
    "kfold-negative-seed": (
        lambda ds: stratified_kfold(ds, 2, -1),
        "seed must be a nonnegative integer, got -1",
    ),
    "experiment-negative-seed": (
        lambda ds: run_experiment(ds, [ModelSpec("km")], k=2, seed=-1),
        "seed must be a nonnegative integer, got -1",
    ),
    "oracle-negative-seed": (
        lambda ds: harness.noisy_oracle_predictions(ds, 0.1, -1),
        "seed must be a nonnegative integer, got -1",
    ),
}
# a bool is no seed, as it is no fold count: True would seed as 1
for flag in (True, False):
    INTEGER_CALLS.update({
        f"kfold-{flag}-seed": (
            lambda ds, flag=flag: stratified_kfold(ds, 2, flag),
            f"seed must be a nonnegative integer, got {flag}",
        ),
        f"experiment-{flag}-seed": (
            lambda ds, flag=flag: run_experiment(ds, [ModelSpec("km")], k=2, seed=flag),
            f"seed must be a nonnegative integer, got {flag}",
        ),
        f"synth-{flag}-seed": (
            lambda ds, flag=flag: make_semi_synthetic(ds, CensoringSpec("uniform"), seed=flag),
            f"seed must be a nonnegative integer, got {flag}",
        ),
        f"censor-{flag}-seed": (
            lambda ds, flag=flag: sample_censor_times(
                CensoringSpec("uniform"), ds, dataset_stats(ds), seed=flag
            ),
            f"seed must be a nonnegative integer, got {flag}",
        ),
        f"oracle-{flag}-seed": (
            lambda ds, flag=flag: harness.noisy_oracle_predictions(ds, 0.1, flag),
            f"seed must be a nonnegative integer, got {flag}",
        ),
    })


@pytest.mark.parametrize("call, message", INTEGER_CALLS.values(), ids=INTEGER_CALLS.keys())
def test_a_fold_count_bin_count_or_seed_is_refused_by_name(call, message):
    ds, _ = twenty_subjects()
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call(ds)


# ------------------------------------------------------------ curve knots

HUGE = [1.7e308, -1.7e308]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: StepCurve(knots=HUGE, values=[0.5, 0.4]), "strictly increasing"),
        (lambda: CumulativeHazard(knots=HUGE, values=[0.1, 0.2]), "strictly increasing"),
        (lambda: CumulativeHazard(knots=[1.0, 2.0], values=HUGE), "nondecreasing"),
        (lambda: CumulativeHazard(knots=[1.0, 2.0], values=[0.1, np.nan]), "finite"),
        (lambda: CumulativeHazard(knots=[1.0, 2.0], values=[0.1, np.inf]), "finite"),
        (lambda: CumulativeHazard(knots=[1.0, 2.0], values=[0.1]), "1-d arrays of equal length"),
        # a knot count is an integer: 1.5 would truncate to 1, and True pass as 1
        (lambda: CurveBatch(knots=[[1.0, 2.0, 3.0]], values=[[0.8, 0.5, 0.2]], lengths=[1.5]),
         r"^lengths must hold one count in \[1, 3\] per row$"),
        (lambda: CurveBatch(knots=[[1.0, 2.0, 3.0]], values=[[0.8, 0.5, 0.2]], lengths=[True]),
         r"^lengths must hold one count in \[1, 3\] per row$"),
    ],
    ids=["step-knots", "hazard-knots", "hazard-values", "hazard-nan", "hazard-inf", "hazard-sizes",
         "batch-fractional-lengths", "batch-bool-lengths"],
)
def test_bad_knots_or_hazards_raise_a_value_error_not_a_warning(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            make()


def test_model_from_json_compares_baseline_knots_without_a_warning():
    payload = (
        '{"kind": "coxph", "beta": [0.1], "feature_means": [0.0],'
        ' "baseline_knots": [1.7e308, -1.7e308], "baseline_values": [0.1, 0.2]}'
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="field 'baseline_knots' must be strictly"):
            model_from_json(payload)


def test_weibull_curves_sample_the_one_probability_grid():
    assert harness._PROB_GRID is estimators._PROB_GRID
    curve = estimators.WeibullAFTModel(shape=1.5, scale=3.0).as_step_curve()
    assert curve.values.tobytes() == (np.arange(99, 0, -1) / 100.0).tobytes()
    assert curve.values is not estimators._PROB_GRID


@pytest.mark.parametrize(
    "header, message",
    [
        ("t", "line 1: curve must have at least one knot"),
        ("t,1,nan", "line 1: knots must be finite"),
        ("t,1,inf", "line 1: knots must be finite"),
    ],
)
def test_curve_file_grid_faults_are_line_1(tmp_path, header, message):
    path = tmp_path / "curves.csv"
    path.write_text(header + "\n")
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        load_curve_file(path)


# ------------------------------------------------------ prediction methods


def test_an_unknown_method_is_refused_before_any_curve_is_read():
    flat = CurveBatch(knots=[1.0, 2.0], values=[[1.0, 1.0]])  # mean_times would raise
    with pytest.raises(ConfigurationError, match="unknown prediction method 'mode'"):
        extract_predicted_times(flat, "mode")
    with pytest.raises(ConfigurationError, match="'mode'"):
        PredictedTimes([1.0], method="mode")
    with pytest.raises(ConfigurationError, match=r"\['median'\]"):
        PredictedTimes([1.0], method=["median"])


def test_evaluate_dataset_and_run_experiment_refuse_a_method_before_the_split(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "stratified_kfold", no_work)
    monkeypatch.setattr(harness, "_reference", no_work)
    ds, _ = twenty_subjects()
    curves = CurveBatch(knots=[2.0, 5.0], values=np.tile([0.8, 0.3], (20, 1)))
    with pytest.raises(ConfigurationError, match="unknown prediction method 'mode'"):
        evaluate_dataset(ds, curves, pred_method="mode")
    with pytest.raises(ConfigurationError, match="unknown prediction method 'mode'"):
        run_experiment(ds, [ModelSpec("km")], k=2, pred_method="mode")


def test_the_cli_offers_the_methods_of_the_table():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    for command in ("eval", "experiment"):
        action = next(a for a in subparsers[command]._actions if a.dest == "pred_method")
        assert action.choices == list(_PRED_METHODS)


# ------------------------------------------------------- kinds and noise


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ModelSpec(kind=["km"]), "unknown model kind ['km']; expected one of"),
        (
            lambda: CensoringSpec(kind=["uniform"]),
            "unknown censoring kind ['uniform']; expected one of",
        ),
    ],
    ids=["model", "censoring"],
)
def test_an_unhashable_kind_is_refused_by_name(make, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        make()


@pytest.mark.parametrize(
    "noise",
    [0, 0.0, -0.0, 0.25, 2.0, True, False, -1, -0.5, math.nan, math.inf, -math.inf, "x", None,
     10**400, pytest.param(np.float64(0.5), id="numpy-0.5"),
     pytest.param(np.True_, id="numpy-True"), pytest.param("0.5", id="string-0.5")],
)
def test_a_noisy_spec_and_the_oracle_keep_one_noise_rule(noise):
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [True, True], true_times=[1.0, 2.0])
    try:
        ModelSpec("noisy_oracle", {"noise": noise})
    except ConfigurationError:
        with pytest.raises(ValueError, match="^noise must be a finite number >= 0$"):
            harness.noisy_oracle_predictions(ds, noise, seed=0)
    else:
        assert len(harness.noisy_oracle_predictions(ds, noise, seed=0)) == 2


# ------------------------------------------------------- censoring params


@pytest.mark.parametrize("kind", sorted(CENSORING_KINDS))
def test_a_censoring_kind_refuses_a_param_it_never_reads(kind):
    with pytest.raises(ConfigurationError, match=r"does not read params\['tmax'\]"):
        CensoringSpec(kind=kind, params={"tmax": 3.0})


@pytest.mark.parametrize("kind", sorted(harness.MODEL_KINDS))
def test_a_model_kind_refuses_a_param_it_never_reads(kind):
    with pytest.raises(ConfigurationError, match=rf"^model kind '{kind}' does not read params\['tmax'\]$"):
        ModelSpec(kind=kind, params={"tmax": 3.0})


def no_folds(*args):
    raise AssertionError("a fold was split")


def experiment_of(spec):
    """``run_experiment`` on a small dataset with ground truth, for a model
    spec built only when it runs."""
    ds = SurvivalDataset.from_arrays(
        [1.0, 2.0, 3.0, 4.0], [True] * 4, true_times=[1.0, 2.0, 3.0, 4.0]
    )
    return lambda: run_experiment(ds, [ModelSpec("km"), spec()], k=2)


NOISE_RULE = "noise must be a finite number >= 0"
PATH_RULE = "path must name a curve file"

# a model spec that breaks a rule -> the refusal, before any fold starts
MODEL_SPEC_CALLS = {
    "km reads no noise": (
        experiment_of(lambda: ModelSpec("km", {"noise": 3})),
        "model kind 'km' does not read params['noise']",
    ),
    "a misspelt noise": (
        experiment_of(lambda: ModelSpec("noisy_oracle", {"nois": 3})),
        "model kind 'noisy_oracle' does not read params['nois']",
    ),
    "a noise as a string": (
        experiment_of(lambda: ModelSpec("noisy_oracle", {"noise": "0.5"})),
        f"model spec 'noisy:0.5': {NOISE_RULE}",
    ),
    "a noise of True": (
        experiment_of(lambda: ModelSpec("noisy_oracle", {"noise": True})),
        f"model spec 'noisy:True': {NOISE_RULE}",
    ),
    "a noise of numpy's True": (
        experiment_of(lambda: ModelSpec("noisy_oracle", {"noise": np.True_})),
        f"model spec 'noisy:True': {NOISE_RULE}",
    ),
    "external curves without a path": (
        experiment_of(lambda: ModelSpec("external_curves")),
        f"model spec 'external:': {PATH_RULE}",
    ),
    "external curves with an empty path": (
        experiment_of(lambda: ModelSpec("external_curves", {"path": ""})),
        f"model spec 'external:': {PATH_RULE}",
    ),
    "external curves with the empty Path": (
        experiment_of(lambda: ModelSpec("external_curves", {"path": Path("")})),
        f"model spec 'external:.': {PATH_RULE}",
    ),
    "external curves with a path that is no path": (
        experiment_of(lambda: ModelSpec("external_curves", {"path": 3})),
        f"model spec 'external:3': {PATH_RULE}",
    ),
    "external curves with params None": (
        experiment_of(lambda: ModelSpec("external_curves", None)),
        f"model spec 'external:': {PATH_RULE}",
    ),
    "the command-line spelling of an empty path": (
        lambda: harness.parse_model_spec("external:"),
        f"model spec 'external:': {PATH_RULE}",
    ),
}


@pytest.mark.parametrize("call, message", MODEL_SPEC_CALLS.values(), ids=MODEL_SPEC_CALLS.keys())
def test_a_model_spec_that_breaks_a_rule_is_refused_by_name_before_any_fold(
    call, message, monkeypatch
):
    monkeypatch.setattr(harness, "stratified_kfold", no_folds)
    with pytest.raises(ConfigurationError) as err:
        call()
    assert str(err.value) == message


def test_experiment_refuses_an_empty_external_path(tmp_path, capsys):
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [True, True, False, True])
    data = tmp_path / "data.csv"
    save_dataset(ds, data)
    report = tmp_path / "report.json"
    argv = ["experiment", str(data), "--models", "km,external:", "-o", str(report)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: model spec 'external:': {PATH_RULE}\n"
    assert captured.out == ""
    assert not report.exists()


def test_synth_refuses_a_reference_its_kind_never_reads(tmp_path, capsys):
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [True, True, False, True])
    data = tmp_path / "data.csv"
    save_dataset(ds, data)
    out = tmp_path / "semi.csv"
    argv = ["synth", str(data), "--kind", "uniform", "--external", "ref.csv", "-o", str(out)]
    assert cli.main(argv) == 1
    assert "censoring kind 'uniform' does not read params['reference']" in capsys.readouterr().err
    assert not out.exists()


def test_external_censoring_reads_its_three_params():
    params = {"reference": "ref.csv", "time_column": "t", "event_column": "e"}
    assert CensoringSpec(kind="external", params=params).params == params
    with pytest.raises(ConfigurationError, match=r"params\['refrence'\]"):
        CensoringSpec(kind="external", params={"refrence": "ref.csv"})


def test_external_censoring_with_params_none_asks_for_a_reference():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, True, False])
    with pytest.raises(ConfigurationError, match=r"^external censoring needs params\['reference'\]$"):
        make_semi_synthetic(ds, CensoringSpec("external", None))


# a spec with params None equals the spec with no params, so a noisy oracle
# gets noise 0 (an external_curves spec without a path is refused above)
NO_PARAMS_SPECS = [
    *[pytest.param(ModelSpec, kind, id=f"model-{kind}") for kind in sorted(harness.MODEL_KINDS)
      if kind != "external_curves"],
    *[pytest.param(CensoringSpec, kind, id=f"censoring-{kind}") for kind in sorted(CENSORING_KINDS)],
]


@pytest.mark.parametrize("spec, kind", NO_PARAMS_SPECS)
def test_params_none_means_no_params(spec, kind):
    assert spec(kind, None) == spec(kind)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: ModelSpec("noisy_oracle", ["noise"]),
            "model kind 'noisy_oracle' takes params as a mapping, got list",
        ),
        (lambda: ModelSpec("km", "abc"), "model kind 'km' takes params as a mapping, got str"),
        (
            lambda: CensoringSpec("uniform", 3),
            "censoring kind 'uniform' takes params as a mapping, got int",
        ),
    ],
    ids=["model-list", "model-string", "censoring-int"],
)
def test_params_that_are_no_mapping_are_refused_by_name(make, message):
    with pytest.raises(ConfigurationError) as err:
        make()
    assert str(err.value) == message


# ------------------------------------------------------------ JSON scores


def test_one_function_turns_scores_into_json_numbers():
    assert harness._finite_or_none(None) is None
    assert harness._finite_or_none(math.nan) is None
    assert harness._finite_or_none(-math.inf) is None
    value = harness._finite_or_none(np.float64(0.25))
    assert value == 0.25 and type(value) is float
    assert cli._finite_or_none is harness._finite_or_none
