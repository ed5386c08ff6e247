"""The one scoring path shared by ``evaluate_dataset`` and ``run_experiment``.

Which errors become missing cells (and which propagate), that the metric and
model tables look their functions up when called, that a curve file is read
once per experiment, and two properties every metric must have: invariance
under a permutation of the subjects, and equivariance of the MAE family
under a rescaling of time.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survmae import (
    BinningError,
    ConvergenceError,
    CurveBatch,
    DegenerateCurveError,
    InsufficientEventsError,
    MissingGroundTruthError,
    SeparationError,
    SurvivalDataset,
    UndefinedMetricError,
    evaluate_dataset,
    harness,
    noisy_oracle_predictions,
    parse_model_spec,
    run_experiment,
    save_curve_file,
)
from survmae.harness import _CELL_ERRORS, MAE_METRICS, METRICS

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

CELL_ERRORS = (
    UndefinedMetricError,
    MissingGroundTruthError,
    InsufficientEventsError,
    DegenerateCurveError,
    BinningError,
    ConvergenceError,
    SeparationError,
)

# function the harness calls by name -> the one cell it feeds
FEEDS = {
    "mae_uncensored": "mae_uncensored",
    "mae_hinge": "mae_hinge",
    "margin_surrogates": "mae_margin",
    "mae_ipcw_d": "mae_ipcw_d",
    "ipcw_t_surrogates": "mae_ipcw_t",
    "pseudo_obs_surrogates": "mae_po",
    "pop_po_surrogates": "mae_pop_po",
    "true_mae": "true_mae",
    "concordance_index": "c_index",
    "integrated_brier_score": "ibs",
    "log_likelihood": "log_likelihood",
    "one_calibration": "one_calibration_p",
    "d_calibration": "d_calibration_p",
}

MODELS = [parse_model_spec(s) for s in ("noisy:0.2", "noisy:0.8")]


def oracle_dataset(seed, n=90):
    rng = np.random.default_rng(seed)
    truths = 10.0 * rng.weibull(1.5, n)
    censor = rng.uniform(0.0, 2.0 * truths.max(), n)
    return SurvivalDataset.from_arrays(
        np.minimum(truths, censor), truths <= censor, true_times=truths
    )


def raiser(exc_type):
    def fn(*args, **kwargs):
        raise exc_type("raised by the test")

    return fn


# ------------------------------------------------------------ missing cells


def test_cell_errors_are_the_seven_classes():
    assert set(_CELL_ERRORS) == set(CELL_ERRORS)
    assert set(FEEDS.values()) == set(METRICS)


@pytest.fixture(scope="module")
def unpatched():
    """A dataset, curves, and their scores with every cell defined."""
    ds = oracle_dataset(900)
    curves = noisy_oracle_predictions(ds, 0.3, seed=1)
    scores = evaluate_dataset(ds, curves)
    report = run_experiment(ds, MODELS, k=3, seed=2).per_fold
    assert all(v is not None for v in scores.values())
    assert all(
        v is not None for cells in report.values() for rows in cells.values() for v in rows
    )
    return ds, curves, scores, report


@pytest.mark.parametrize("exc_type", CELL_ERRORS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("fn_name", sorted(FEEDS))
def test_a_cell_error_blanks_exactly_its_cell(monkeypatch, unpatched, exc_type, fn_name):
    ds, curves, want_scores, want_report = unpatched
    monkeypatch.setattr(harness, fn_name, raiser(exc_type))
    cell = FEEDS[fn_name]

    scores = evaluate_dataset(ds, curves)
    assert scores[cell] is None
    assert {m: v for m, v in scores.items() if m != cell} == {
        m: v for m, v in want_scores.items() if m != cell
    }
    report = run_experiment(ds, MODELS, k=3, seed=2).per_fold
    for name, cells in report.items():
        assert cells[cell] == [None, None, None]
        assert {m: v for m, v in cells.items() if m != cell} == {
            m: v for m, v in want_report[name].items() if m != cell
        }


@pytest.mark.parametrize("fn_name", ["mae_hinge", "pseudo_obs_surrogates", "d_calibration"])
def test_other_errors_propagate(monkeypatch, fn_name):
    ds = oracle_dataset(901)
    curves = noisy_oracle_predictions(ds, 0.3, seed=1)
    monkeypatch.setattr(harness, fn_name, raiser(ValueError))
    with pytest.raises(ValueError, match="raised by the test"):
        evaluate_dataset(ds, curves)
    with pytest.raises(ValueError, match="raised by the test"):
        run_experiment(ds, MODELS, k=3, seed=2)


def test_a_model_that_fails_with_a_cell_error_misses_only_its_fold(monkeypatch):
    ds = oracle_dataset(902)
    real = harness.weibull_aft_fit
    fits = []

    def second_fit_fails(train, *args, **kwargs):
        fits.append(train.n)
        if len(fits) == 2:
            raise ConvergenceError("raised by the test")
        return real(train, *args, **kwargs)

    monkeypatch.setattr(harness, "weibull_aft_fit", second_fit_fails)
    report = run_experiment(ds, [parse_model_spec("weibull_aft"), MODELS[0]], k=3, seed=2)
    assert len(fits) == 3
    for met in METRICS:
        assert report.per_fold["weibull_aft"][met][1] is None
    assert report.per_fold["weibull_aft"]["mae_hinge"][0] is not None
    assert all(v is not None for v in report.per_fold["noisy_0.2"]["mae_hinge"])


# --------------------------------------------------------------- curve files


def test_a_curve_file_is_read_once_per_experiment(tmp_path, monkeypatch):
    ds = oracle_dataset(903, n=60)
    curves = noisy_oracle_predictions(ds, 0.3, seed=1)
    grid = np.linspace(0.5, 40.0, 30)
    paths = []
    for name in ("a.csv", "b.csv"):
        paths.append(tmp_path / name)
        save_curve_file(paths[-1], grid, curves.value_on(grid))
    real = harness.load_curve_file
    reads = []

    def counting(path):
        reads.append(str(path))
        return real(path)

    monkeypatch.setattr(harness, "load_curve_file", counting)
    report = run_experiment(ds, [parse_model_spec(f"external:{p}") for p in paths], k=5)
    assert sorted(reads) == sorted(str(p) for p in paths)
    assert report.model_names == ("external_a", "external_b")
    assert all(v is not None for v in report.per_fold["external_a"]["mae_hinge"])


# ------------------------------------------------------------------ properties


def _close(a, b, rel):
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


@st.composite
def scored_cases(draw):
    """A dataset with hidden truths and one curve per subject.

    Times are sometimes rounded so that they tie. The curves are noisy
    oracles (a shared probability grid, per-subject knots) or Weibull curves
    of per-subject scale sampled on one shared time grid.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 60))
    truths = 10.0 * rng.weibull(draw(st.floats(0.7, 3.0)), n) + 0.05
    censor = rng.uniform(0.05, draw(st.floats(0.5, 3.0)) * truths.max(), n)
    if draw(st.booleans()):  # tied times
        truths, censor = np.ceil(truths * 2.0) / 2.0, np.ceil(censor * 2.0) / 2.0
    ds = SurvivalDataset.from_arrays(
        np.minimum(truths, censor), truths <= censor, true_times=truths
    )
    if draw(st.booleans()):
        curves = noisy_oracle_predictions(ds, draw(st.floats(0.0, 1.5)), seed=3)
    else:
        grid = np.linspace(0.2, 2.0 * truths.max(), draw(st.integers(5, 60)))
        scale = 10.0 * np.exp(rng.normal(0.0, 0.5, n))
        values = np.exp(-((grid[None, :] / scale[:, None]) ** 1.5))
        curves = CurveBatch(knots=grid, values=values)
    return ds, curves, draw(st.sampled_from(["median", "mean"]))


@PROPERTY
@given(case=scored_cases(), data=st.data())
def test_every_metric_is_invariant_under_a_permutation_of_the_subjects(case, data):
    ds, curves, method = case
    perm = np.array(data.draw(st.permutations(range(ds.n))))
    want = evaluate_dataset(ds, curves, method)
    got = evaluate_dataset(ds.subset(perm), curves.take(perm), method)
    assert want.keys() == got.keys()
    # one_calibration bins subjects by a stable sort of S(t*): among tied
    # values the bins follow subject order, so only distinct values are
    # invariant (see its docstring)
    events = ds.times[ds.events]
    tied = events.size and np.unique(curves.value(float(np.median(events)))).size < ds.n
    for met in METRICS:
        if met == "one_calibration_p" and tied:
            continue
        rel = 0.0 if met == "c_index" else 1e-12
        assert _close(want[met], got[met], rel), (met, want[met], got[met])


def _rescaled(ds, curves, c):
    scaled = SurvivalDataset.from_arrays(ds.times * c, ds.events, true_times=ds.true_times * c)
    return scaled, CurveBatch(knots=curves.knots * c, values=curves.values)


@PROPERTY
@given(case=scored_cases(), c=st.sampled_from([2.0, 0.5]))
def test_scaling_time_by_a_power_of_two_scales_the_mae_family_exactly(case, c):
    ds, curves, method = case
    want = evaluate_dataset(ds, curves, method)
    got = evaluate_dataset(*_rescaled(ds, curves, c), method)
    for met in MAE_METRICS + ("true_mae",):
        assert got[met] == (None if want[met] is None else c * want[met]), met
    for met in ("c_index", "ibs", "one_calibration_p", "d_calibration_p"):
        assert _close(want[met], got[met], 0.0), met


@PROPERTY
@given(case=scored_cases())
def test_scaling_time_by_three_scales_the_mae_family(case):
    ds, curves, method = case
    want = evaluate_dataset(ds, curves, method)
    got = evaluate_dataset(*_rescaled(ds, curves, 3.0), method)
    # an error is a difference of times: near zero it keeps only the accuracy
    # of the times, so it is held to 1e-12 of the larger of itself and them
    scale = 3.0 * max(ds.times.max(), ds.true_times.max())
    for met in MAE_METRICS + ("true_mae",):
        if want[met] is None:
            assert got[met] is None, met
            continue
        expected = 3.0 * want[met]
        assert abs(got[met] - expected) <= 1e-12 * max(expected, scale), (met, expected, got[met])
