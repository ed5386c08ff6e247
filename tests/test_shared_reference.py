"""Scoring inputs that every model on one test set shares.

The harness builds the integrated Brier score's weights and one Kaplan-Meier
fit of the test set once per test set and hands them to the metric and the
surrogate builders. Each public function must return the same floats, bit
for bit, with the shared input as without it, and must refuse an input built
for something else.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survmae import (
    SurvivalDataset,
    UndefinedMetricError,
    censoring_km_fit,
    estimators,
    evaluate_dataset,
    harness,
    integrated_brier_score,
    ipcw_t_surrogates,
    km_fit,
    mae,
    noisy_oracle_predictions,
    parse_model_spec,
    pop_po_surrogates,
    pseudo_obs_surrogates,
    run_experiment,
)
from survmae.metrics import _brier_weights

PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

BUILDERS = (ipcw_t_surrogates, pseudo_obs_surrogates, pop_po_surrogates)


def outcome(fn, *args, **kwargs):
    """A call's result, or the type of the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc)


def same_bits(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(np.float64(a), np.float64(b), equal_nan=True) and (
        np.signbit(a) == np.signbit(b)
    )


def dataset(times, events, truths=None):
    return SurvivalDataset.from_arrays(
        np.asarray(times, dtype=float), np.asarray(events, dtype=bool), true_times=truths
    )


@st.composite
def scored_sets(draw, min_size=1):
    """A test set on a coarse time grid (ties), with events from none to all,
    and hidden truths for the noisy oracles."""
    n = draw(st.integers(min_size, 14))
    times = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))) * 0.5
    kind = draw(st.sampled_from(["mixed", "all_censored", "all_events"]))
    if kind == "mixed":
        events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        events = np.full(n, kind == "all_events")
    truths = np.where(events, times, times + 0.25)
    return dataset(times, events, truths)


@st.composite
def brier_cases(draw):
    """Curves on a test set, a censoring fit (of another sample or of the
    test set itself), a grid size and a horizon."""
    ds = draw(scored_sets())
    noise = draw(st.sampled_from([0.0, 0.5]))
    curves = noisy_oracle_predictions(ds, noise, seed=draw(st.integers(0, 9)))
    if draw(st.booleans()):
        g = censoring_km_fit(ds)
    else:
        train = draw(scored_sets())
        g = censoring_km_fit(train)
    grid_size = draw(st.sampled_from([1, 2, 3, 7, 100]))
    t_max = draw(st.none() | st.integers(1, 14).map(lambda k: k * 0.5))
    return curves, ds, g, grid_size, t_max


@PROPERTY
@given(case=brier_cases())
def test_ibs_with_shared_weights_is_the_same_float(case):
    curves, ds, g, grid_size, t_max = case
    expected = outcome(integrated_brier_score, curves, ds, g, grid_size, t_max)
    weights = outcome(_brier_weights, ds, g, grid_size, t_max)
    if isinstance(weights, type):
        assert expected is weights  # the metric raises what the weights raise
        return
    got = outcome(integrated_brier_score, curves, ds, g, grid_size, t_max, weights=weights)
    assert same_bits(got, expected), (got, expected)


def test_ibs_with_shared_weights_when_undefined_or_all_censored():
    # the censoring fit drops to 0 at 2, before any test time: every grid
    # point needs a censoring weight and none keeps one
    g = censoring_km_fit(dataset([1.0, 2.0], [False, False]))
    ds = dataset([3.0, 4.0], [True, True], [3.0, 4.0])
    curves = noisy_oracle_predictions(ds, 0.3, seed=1)
    weights = _brier_weights(ds, g, 100, None)
    assert weights.undefined
    for kwargs in ({}, {"weights": weights}):
        with pytest.raises(UndefinedMetricError, match="lost their censoring weight"):
            integrated_brier_score(curves, ds, g, 100, None, **kwargs)
    # all censored: no horizon of its own, but a given horizon scores
    ds = dataset([1.0, 2.5, 4.0], [False, False, False], [2.0, 3.0, 5.0])
    curves = noisy_oracle_predictions(ds, 0.3, seed=2)
    g = censoring_km_fit(dataset([1.5, 3.0, 5.0], [True, False, True]))
    with pytest.raises(UndefinedMetricError, match="no event time"):
        _brier_weights(ds, g, 100, None)
    weights = _brier_weights(ds, g, 100, 3.0)
    assert same_bits(
        integrated_brier_score(curves, ds, g, 100, 3.0, weights=weights),
        integrated_brier_score(curves, ds, g, 100, 3.0),
    )


def test_ibs_refuses_weights_built_for_something_else():
    ds = dataset([1.0, 2.0, 3.0, 4.0], [True, False, True, True], [1.0, 2.5, 3.0, 4.0])
    twin = dataset(ds.times, ds.events, ds.true_times)  # equal, but another dataset
    g = censoring_km_fit(ds)
    curves = noisy_oracle_predictions(ds, 0.3, seed=3)
    weights = _brier_weights(ds, g, 100, 3.5)
    integrated_brier_score(curves, ds, g, 100, 3.5, weights=weights)
    for args in (
        (twin, g, 100, 3.5),
        (ds, censoring_km_fit(twin), 100, 3.5),
        (ds, g, 50, 3.5),
        (ds, g, 100, 3.0),
        (ds, g, 100, None),
    ):
        with pytest.raises(ValueError, match="weights were built for another"):
            integrated_brier_score(curves, *args, weights=weights)


@PROPERTY
@given(ds=scored_sets())
def test_surrogate_builders_with_a_shared_fit_are_the_same_floats(ds):
    km = km_fit(ds.times, ds.events)
    for builder in BUILDERS:
        expected = outcome(builder, ds)
        got = outcome(builder, ds, km=km)
        if isinstance(expected, type):
            assert got is expected
            continue
        for field in ("surrogate", "weight", "included"):
            a, b = getattr(got, field), getattr(expected, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (builder, field)


def test_surrogate_builders_refuse_the_fit_of_another_dataset():
    ds = dataset([1.0, 2.0, 3.0, 4.0], [True, False, True, False])
    other = km_fit([1.0, 2.0, 3.0], [True, False, True])
    for builder in BUILDERS:
        with pytest.raises(ValueError, match="not the Kaplan-Meier fit"):
            builder(ds, km=other)


def counted_km_fits(monkeypatch):
    """Patch ``km_fit`` wherever the package looks it up; return the call log."""
    calls = []
    real = estimators.km_fit

    def counting(times, events):
        calls.append(len(times))
        return real(times, events)

    for module in (estimators, mae, harness):
        monkeypatch.setattr(module, "km_fit", counting)
    return calls


def test_one_test_set_fit_per_fold(monkeypatch):
    rng = np.random.default_rng(5)
    truths = 10.0 * rng.weibull(1.5, 60)
    censor = rng.uniform(0.0, 20.0, 60)
    ds = dataset(np.minimum(truths, censor), truths <= censor, truths)
    models = [parse_model_spec(s) for s in ("noisy:0.2", "noisy:0.8", "km")]
    expected = run_experiment(ds, models, k=5, seed=1).to_json_dict()
    calls = counted_km_fits(monkeypatch)
    assert run_experiment(ds, models, k=5, seed=1).to_json_dict() == expected
    # per fold: the training fit (plus one for the km model), the test fit
    # and the censoring fit of the training set
    assert len(calls) == 5 * 4
    del calls[:]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        evaluate_dataset(ds, noisy_oracle_predictions(ds, 0.2, seed=0))
    assert calls == [60, 60]  # the test set is the training set
