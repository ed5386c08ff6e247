"""Tests for the Kaplan-Meier, Cox PH, and Weibull AFT estimators."""

import json
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_censored_dataset
from survmae import estimators
from survmae import (
    ConvergenceError,
    CoxModel,
    CumulativeHazard,
    InsufficientEventsError,
    KaplanMeierFit,
    SeparationError,
    SurvivalDataset,
    WeibullAFTModel,
    breslow_baseline,
    censoring_km_fit,
    cox_survival_curve,
    coxph_fit,
    km_fit,
    model_from_json,
    model_to_json,
    weibull_aft_fit,
)


def km_oracle(times, events, q):
    """Product-limit survival at q by direct counting (independent of km_fit)."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    s = 1.0
    for u in sorted(set(times[events].tolist())):
        if u > q:
            break
        n_at = int(np.sum(times >= u))
        d = int(np.sum((times == u) & events))
        s *= (n_at - d) / n_at
    return s


# ---------------------------------------------------------------- KM


def test_km_frozen_example():
    fit = km_fit([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    c = fit.curve
    assert_allclose(c.value(1.0), 0.75)
    assert_allclose(c.value(2.0), 0.75)  # censoring does not drop the curve
    assert_allclose(c.value(3.0), 0.375)
    assert_allclose(c.value(4.0), 0.0)
    # knots cover every distinct observed time, censored ones included
    assert_array_equal(c.knots, [1.0, 2.0, 3.0, 4.0])
    assert fit.table == [(1.0, 4, 1), (3.0, 2, 1), (4.0, 1, 1)]


def test_km_tied_event_and_censor():
    # the subject censored at 2 is still at risk for the event at 2
    fit = km_fit([2.0, 2.0, 3.0], [True, False, True])
    assert_allclose(fit.curve.value(2.0), 2.0 / 3.0)
    assert_allclose(fit.curve.value(3.0), 0.0)
    assert fit.table == [(2.0, 3, 1), (3.0, 1, 1)]


def test_km_all_censored():
    fit = km_fit([1.0, 2.0], [False, False])
    assert fit.event_times.size == 0
    assert_array_equal(fit.curve.values, [1.0, 1.0])


def test_km_all_uncensored_staircase():
    t = np.array([3.0, 1.0, 2.0, 4.0])
    fit = km_fit(t, np.ones(4, dtype=bool))
    assert_allclose(fit.curve.values, [0.75, 0.5, 0.25, 0.0])


def test_km_matches_counting_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        times = rng.integers(1, 6, n).astype(float)  # many ties
        events = rng.random(n) < 0.6
        fit = km_fit(times, events)
        queries = np.concatenate((fit.curve.knots, fit.curve.knots + 0.5, [0.0]))
        for q in queries:
            assert_allclose(fit.curve.value(q), km_oracle(times, events, q), atol=1e-12)


def test_km_input_validation():
    with pytest.raises(ValueError):
        km_fit([], [])
    with pytest.raises(ValueError):
        km_fit([1.0, -2.0], [True, True])
    with pytest.raises(ValueError):
        km_fit([1.0, 2.0], [True])


@pytest.mark.parametrize(
    "times, message",
    [
        ([np.nan, 1.0], "subject 0: non-finite time value"),
        ([1.0, np.inf, -np.inf], "subject 1: non-finite time value"),
        ([1.0, 0.0, np.nan], "subject 1: observed time must be positive, got 0.0"),
        ([2.0, 1.0, -3.0], "subject 2: observed time must be positive, got -3.0"),
    ],
)
def test_km_fit_names_the_first_bad_subject(times, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        km_fit(times, np.ones(len(times), dtype=bool))


@pytest.mark.parametrize(
    "events, message",
    [
        ([2, 1, 0], "subject 0: event flag must be 0 or 1, got 2"),
        ([1.0, np.nan, 0.0], "subject 1: event flag must be 0 or 1, got nan"),
        ([0, 1, -1], "subject 2: event flag must be 0 or 1, got -1"),
        ([1.0, 0.5, 2.0], "subject 1: event flag must be 0 or 1, got 0.5"),
    ],
)
def test_km_fit_refuses_event_flags_other_than_0_and_1(events, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        km_fit([1.0, 2.0, 3.0], events)


def test_km_fit_reads_0_1_flags_as_booleans():
    rng = np.random.default_rng(8)
    times = rng.integers(1, 6, 40).astype(float)
    events = rng.random(40) < 0.6
    want = km_fit(times, events)
    for flags in (events.astype(int), events.astype(float), events.tolist()):
        got = km_fit(times, flags)
        for name in ("event_times", "at_risk", "n_events"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.curve.knots.tobytes() == want.curve.knots.tobytes()
        assert got.curve.values.tobytes() == want.curve.values.tobytes()


def test_censoring_km_frozen():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, False, True])
    g = censoring_km_fit(ds)
    assert_allclose(g.curve.value(1.9), 1.0)
    assert_allclose(g.curve.value(2.0), 0.5)
    assert_allclose(g.curve.value(5.0), 0.5)


def test_censoring_km_no_censoring_is_one():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, True, True])
    g = censoring_km_fit(ds)
    assert np.all(g.curve.values == 1.0)


def test_km_dropping_censored_subject_lowers_curve():
    # removing one censored subject can only pull the estimate down
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 200:
        ds = random_censored_dataset(rng, n=int(rng.integers(4, 25)))
        censored = np.nonzero(~ds.events)[0]
        if censored.size == 0 or ds.events.sum() == 0:
            continue
        i = int(rng.choice(censored))
        full = km_fit(ds.times, ds.events)
        keep = np.delete(np.arange(ds.n), i)
        loo = km_fit(ds.times[keep], ds.events[keep])
        for q in full.curve.knots:
            assert loo.curve.value(q) <= full.curve.value(q) + 1e-12
        checked += 1


# ---------------------------------------------------------------- Cox


def cox_grid_loglik(betas, x, times, events):
    """Breslow partial log-likelihood on a beta grid, computed directly."""
    e_mask = np.asarray(events, dtype=bool)
    ll = betas * float(np.sum(x[e_mask]))
    w = np.exp(np.outer(betas, x))
    for u in np.unique(times[e_mask]):
        at_risk = times >= u
        d = int(np.sum((times == u) & e_mask))
        ll -= d * np.log(w[:, at_risk].sum(axis=1))
    return ll


def test_cox_symmetric_groups_give_zero_beta():
    x = np.array([[0.0]] * 3 + [[1.0]] * 3)
    times = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    ds = SurvivalDataset.from_arrays(times, np.ones(6, dtype=bool), features=x)
    model = coxph_fit(ds)
    assert abs(model.beta[0]) < 1e-6


def test_cox_matches_grid_oracle():
    betas = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
    for seed, effect in ((1, 0.7), (2, -0.5)):
        rng = np.random.default_rng(seed)
        n = 18
        x = rng.normal(size=n)
        t = rng.exponential(np.exp(-effect * x))
        events = rng.random(n) < 0.8
        ds = SurvivalDataset.from_arrays(t, events, features=x[:, None])
        model = coxph_fit(ds)
        ll = cox_grid_loglik(betas, x, t, np.asarray(events))
        best = betas[int(np.argmax(ll))]
        assert abs(model.beta[0] - best) <= 2e-4


def test_cox_shift_invariance():
    rng = np.random.default_rng(3)
    n = 60
    x = rng.normal(size=(n, 2))
    t = rng.exponential(np.exp(-(0.5 * x[:, 0] - 0.3 * x[:, 1])))
    events = rng.random(n) < 0.7
    ds_a = SurvivalDataset.from_arrays(t, events, features=x)
    ds_b = SurvivalDataset.from_arrays(t, events, features=x + 100.0)
    m_a = coxph_fit(ds_a)
    m_b = coxph_fit(ds_b)
    assert_allclose(m_a.beta, m_b.beta, atol=1e-8)
    # per-subject curves are unchanged by the shift
    c_a = cox_survival_curve(m_a, x[0])
    c_b = cox_survival_curve(m_b, x[0] + 100.0)
    assert_allclose(c_a.values, c_b.values, atol=1e-10)


def test_cox_separation_detected():
    # covariate perfectly reverses the event order; coefficients run away
    x = (np.arange(1.0, 7.0) * 0.01)[:, None]
    times = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    ds = SurvivalDataset.from_arrays(times, np.ones(6, dtype=bool), features=x)
    with pytest.raises(SeparationError):
        coxph_fit(ds)


def test_cox_iteration_budget():
    rng = np.random.default_rng(7)
    n = 50
    x = rng.normal(size=(n, 1))
    t = rng.exponential(np.exp(-x[:, 0]))
    ds = SurvivalDataset.from_arrays(t, np.ones(n, dtype=bool), features=x)
    with pytest.raises(ConvergenceError) as err:
        coxph_fit(ds, max_iter=1)
    assert err.value.last_params is not None


def test_cox_input_validation():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [True, True])
    with pytest.raises(ValueError):
        coxph_fit(ds)  # no features
    ds2 = SurvivalDataset.from_arrays(
        [1.0, 2.0], [False, False], features=[[0.0], [1.0]]
    )
    with pytest.raises(InsufficientEventsError):
        coxph_fit(ds2)


def test_breslow_frozen_two_events():
    # constant covariate: beta = 0, so the baseline is the Nelson-Aalen sum
    ds = SurvivalDataset.from_arrays(
        [1.0, 2.0], [True, True], features=[[0.0], [0.0]]
    )
    model = coxph_fit(ds)
    h = model.baseline_cumhaz
    assert_array_equal(h.knots, [1.0, 2.0])
    assert_allclose(h.values, [0.5, 1.5])
    assert h.value(0.5) == 0.0
    assert_allclose(h.value(3.0), 1.5)


def test_breslow_nelson_aalen_form():
    rng = np.random.default_rng(9)
    ds0 = random_censored_dataset(rng, n=40)
    ds = SurvivalDataset.from_arrays(
        ds0.times, ds0.events, features=np.zeros((40, 1))
    )
    model = coxph_fit(ds)
    h = breslow_baseline(model, ds)
    expected = []
    acc = 0.0
    for u in np.unique(ds.times[ds.events]):
        d = np.sum((ds.times == u) & ds.events)
        n_at = np.sum(ds.times >= u)
        acc += d / n_at
        expected.append(acc)
    assert_allclose(h.values, expected, atol=1e-12)


def test_cox_curve_at_mean_is_baseline():
    rng = np.random.default_rng(10)
    n = 50
    x = rng.normal(size=(n, 2))
    t = rng.exponential(np.exp(-x @ np.array([0.4, -0.2])))
    ds = SurvivalDataset.from_arrays(t, rng.random(n) < 0.8, features=x)
    model = coxph_fit(ds)
    curve = cox_survival_curve(model, model.feature_means)
    assert_array_equal(curve.values, np.exp(-model.baseline_cumhaz.values))


def test_cox_risk_ordering():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = 60
        x = rng.normal(size=(n, 2))
        t = rng.exponential(np.exp(-x @ np.array([0.8, 0.3])))
        ds = SurvivalDataset.from_arrays(t, rng.random(n) < 0.8, features=x)
        model = coxph_fit(ds)
        for _ in range(10):
            x1, x2 = rng.normal(size=(2, 2))
            c1 = cox_survival_curve(model, x1)
            c2 = cox_survival_curve(model, x2)
            if model.risk(x1) >= model.risk(x2):
                assert np.all(c1.values <= c2.values + 1e-12)
            else:
                assert np.all(c2.values <= c1.values + 1e-12)


def test_cumulative_hazard_lookup():
    h = CumulativeHazard(knots=np.array([1.0, 2.5]), values=np.array([0.2, 0.7]))
    # zero before the first knot, right-continuous at each knot
    assert_array_equal(h.value(np.array([0.0, 0.5, 1.0, 2.0, 2.5, 9.0])), [0.0, 0.0, 0.2, 0.2, 0.7, 0.7])
    assert_array_equal(h.value(np.nextafter(1.0, 0.0)), 0.0)
    assert type(h.value(1.0)) is float and h.value(1.0) == 0.2
    assert type(h.value(np.float64(0.5))) is float and h.value(np.float64(0.5)) == 0.0
    assert isinstance(h.value([1.0]), np.ndarray)


@pytest.mark.parametrize("t", [np.nan, -1.0, [1.0, np.nan], [-0.5, 2.0]])
def test_cumulative_hazard_refuses_nan_and_negative_times(t):
    h = CumulativeHazard(knots=np.array([1.0, 2.5]), values=np.array([0.2, 0.7]))
    with pytest.raises(ValueError, match="NaN" if np.any(np.isnan(t)) else "t >= 0"):
        h.value(t)


@pytest.mark.parametrize(
    "knots, message",
    [
        ([2.0, 1.0], "strictly increasing from a nonnegative first knot"),
        ([1.0, 1.0], "strictly increasing from a nonnegative first knot"),
        ([-1.0, 1.0], "strictly increasing from a nonnegative first knot"),
        ([np.nan, 1.0], "finite"),
        ([1.0, np.inf], "finite"),
    ],
    ids=["decreasing", "repeated", "negative", "nan", "inf"],
)
def test_cumulative_hazard_refuses_bad_knots(knots, message):
    # a lookup on decreasing knots read [0.2, 0.2] at [1.5, 2.5]
    with pytest.raises(ValueError, match=f"knots must be .*{message}"):
        CumulativeHazard(knots=knots, values=[0.1, 0.2])


def test_cumulative_hazard_takes_a_first_knot_at_zero():
    h = CumulativeHazard(knots=[0.0, 1.0], values=[0.1, 0.2])
    assert_array_equal(h.value([0.0, 0.5, 1.5]), [0.1, 0.1, 0.2])


def test_cox_risk_frozen():
    h = CumulativeHazard(knots=np.array([1.0]), values=np.array([0.2]))
    model = CoxModel(
        beta=np.array([np.log(2.0)]),
        baseline_cumhaz=h,
        feature_means=np.array([1.0]),
    )
    assert_allclose(model.risk([2.0]), 2.0)
    assert_allclose(model.risk([1.0]), 1.0)


# ------------------------------------------------------------- Weibull


def weibull_grid_loglik(shape, scales, t, e):
    d = float(e.sum())
    log_t_events = float(np.log(t[e]).sum())
    z = ((t[None, :] / scales[:, None]) ** shape).sum(axis=1)
    return d * np.log(shape) - d * shape * np.log(scales) + (shape - 1.0) * log_t_events - z


def test_weibull_survival_identities():
    m = WeibullAFTModel(shape=1.7, scale=4.0)
    assert_allclose(m.survival_at(4.0), np.exp(-1.0))
    assert_allclose(m.survival_at(0.0), 1.0)
    assert_allclose(m.survival_at(m.median()), 0.5)
    curve = m.as_step_curve()
    assert_allclose(curve.median_time(), m.median(), rtol=1e-12)
    assert_allclose(curve.values, m.survival_at(curve.knots), rtol=1e-12)


def test_weibull_recovery_uncensored():
    rng = np.random.default_rng(30)
    t = 5.0 * rng.weibull(2.0, 10_000)
    ds = SurvivalDataset.from_arrays(t, np.ones(t.size, dtype=bool))
    m = weibull_aft_fit(ds)
    assert abs(m.shape - 2.0) / 2.0 < 0.05
    assert abs(m.scale - 5.0) / 5.0 < 0.05


def test_weibull_recovery_censored():
    rng = np.random.default_rng(31)
    e = 5.0 * rng.weibull(2.0, 10_000)
    c = rng.uniform(0.0, 10.0, e.size)
    t = np.minimum(e, c)
    ds = SurvivalDataset.from_arrays(t, e <= c)
    m = weibull_aft_fit(ds)
    assert abs(m.shape - 2.0) / 2.0 < 0.10
    assert abs(m.scale - 5.0) / 5.0 < 0.10


def test_weibull_exponential_data_has_unit_shape():
    rng = np.random.default_rng(32)
    t = rng.exponential(3.0, 10_000)
    ds = SurvivalDataset.from_arrays(t, np.ones(t.size, dtype=bool))
    m = weibull_aft_fit(ds)
    assert 0.9 <= m.shape <= 1.1


def test_weibull_matches_grid_oracle():
    rng = np.random.default_rng(33)
    n = 15
    e = 2.0 * rng.weibull(1.3, n)
    c = rng.uniform(0.5, 4.0, n)
    t = np.minimum(e, c)
    ds = SurvivalDataset.from_arrays(t, e <= c)
    m = weibull_aft_fit(ds)

    shapes = np.linspace(0.3, 4.0, 371)
    scales = np.linspace(0.3, 6.0, 571)
    best = (-np.inf, None, None)
    for k in shapes:
        ll = weibull_grid_loglik(k, scales, ds.times, ds.events)
        j = int(np.argmax(ll))
        if ll[j] > best[0]:
            best = (ll[j], k, scales[j])
    ll_fit = weibull_grid_loglik(m.shape, np.array([m.scale]), ds.times, ds.events)[0]
    assert ll_fit >= best[0] - 1e-9
    assert abs(m.shape - best[1]) <= 2 * (shapes[1] - shapes[0])
    assert abs(m.scale - best[2]) <= 2 * (scales[1] - scales[0])


def test_weibull_halving_failure_keeps_the_start_point():
    # every candidate after the start point has a NaN likelihood, so the
    # first line search halves its step 40 times and gives up
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0, 5.0], [True, False, True, True])
    real = estimators._weibull_loglik
    calls = []

    def nan_after_start(*args):
        ll, *terms = real(*args)
        calls.append(args[:2])
        return (ll if len(calls) == 1 else np.nan, *terms)

    with mock.patch.object(estimators, "_weibull_loglik", nan_after_start):
        with pytest.raises(ConvergenceError) as err:
            weibull_aft_fit(ds)
    assert str(err.value) == "step halving failed to improve the Weibull likelihood"
    theta0 = np.array([0.0, np.log(float(ds.times.sum()) / float(ds.events.sum()))])
    assert err.value.last_params.tobytes() == np.exp(theta0).tobytes()
    assert len(calls) == 1 + 40


def two_feature_data():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 2))
    t = rng.exponential(np.exp(-x[:, 0]))
    return SurvivalDataset.from_arrays(t, rng.random(40) < 0.8, features=x)


@pytest.mark.parametrize("fit", [coxph_fit, weibull_aft_fit])
@pytest.mark.parametrize("max_iter", [-1, True, False, 2.5, "3", None])
def test_fits_refuse_a_bad_max_iter(fit, max_iter):
    with pytest.raises(ValueError, match="^max_iter must be an integer >= 0, got "):
        fit(two_feature_data(), max_iter=max_iter)


@pytest.mark.parametrize("fit", [coxph_fit, weibull_aft_fit])
def test_fits_take_any_integer_budget_and_no_tol(fit):
    ds = two_feature_data()
    assert model_to_json(fit(ds, max_iter=np.int64(100))) == model_to_json(fit(ds))
    with pytest.raises(ConvergenceError, match="^no convergence after 0 Newton iterations$"):
        fit(ds, max_iter=0)
    with pytest.raises(TypeError):
        fit(ds, tol=1e-8)


@pytest.mark.parametrize("max_iter", [100, 2])
@pytest.mark.parametrize(
    "fit, derivatives", [(coxph_fit, "_cox_derivatives"), (weibull_aft_fit, "_weibull_derivatives")]
)
def test_a_fit_computes_one_hessian_per_step_taken(monkeypatch, fit, derivatives, max_iter):
    # the derivatives are taken at the start and at every accepted iterate;
    # the Hessian only where a step is taken from there, so not at the last
    real = getattr(estimators, derivatives)
    passes, hessians = [], []

    def counting(*args):
        grad, hessian = real(*args)
        passes.append(grad)

        def counted():
            hessians.append(grad)
            return hessian()

        return grad, counted

    ds = two_feature_data()
    want = fit(ds) if max_iter == 100 else None
    monkeypatch.setattr(estimators, derivatives, counting)
    try:
        got = fit(ds, max_iter=max_iter)
    except ConvergenceError:
        assert max_iter == 2
        assert len(passes) == 3
    else:
        assert model_to_json(got) == model_to_json(want)
    assert len(passes) >= 3 and len(hessians) == len(passes) - 1


def test_weibull_needs_events():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [False, False])
    with pytest.raises(InsufficientEventsError):
        weibull_aft_fit(ds)


# ------------------------------------------------------------ JSON round-trip


def test_model_json_roundtrip_km(tmp_path):
    fit = km_fit([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    back = model_from_json(model_to_json(fit))
    assert isinstance(back, KaplanMeierFit)
    assert_array_equal(back.curve.knots, fit.curve.knots)
    assert_array_equal(back.curve.values, fit.curve.values)
    assert back.table == fit.table
    # file path variant
    p = tmp_path / "km.json"
    model_to_json(fit, path=p)
    again = model_from_json(p)
    assert_array_equal(again.curve.values, fit.curve.values)


def test_model_json_roundtrip_cox():
    rng = np.random.default_rng(40)
    n = 30
    x = rng.normal(size=(n, 2))
    t = rng.exponential(np.exp(-x[:, 0]))
    ds = SurvivalDataset.from_arrays(t, rng.random(n) < 0.8, features=x)
    model = coxph_fit(ds)
    back = model_from_json(model_to_json(model))
    assert isinstance(back, CoxModel)
    assert_array_equal(back.beta, model.beta)
    assert_array_equal(back.baseline_cumhaz.values, model.baseline_cumhaz.values)
    assert_array_equal(back.feature_means, model.feature_means)


def test_model_json_roundtrip_weibull():
    m = WeibullAFTModel(shape=1.4, scale=7.5)
    back = model_from_json(model_to_json(m))
    assert isinstance(back, WeibullAFTModel)
    assert back.shape == m.shape and back.scale == m.scale


def test_model_json_unknown_kind():
    with pytest.raises(ValueError):
        model_from_json('{"kind": "mystery"}')
    with pytest.raises(TypeError):
        model_to_json(object())


def cox_payload(**changes):
    payload = {
        "kind": "coxph",
        "beta": [0.5, -0.25],
        "baseline_knots": [1.0, 2.0],
        "baseline_values": [0.1, 0.3],
        "feature_means": [0.0, 1.0],
    }
    payload.update(changes)
    return json.dumps(payload)


def km_payload(**changes):
    payload = json.loads(model_to_json(km_fit([1.0, 2.0, 3.0, 4.0], [True, False, True, True])))
    payload.update(changes)
    return json.dumps(payload)


def weibull_payload(**changes):
    return json.dumps({"kind": "weibull_aft", "shape": 1.5, "scale": 2.0, **changes})


@pytest.mark.parametrize(
    "text, message",
    [
        (weibull_payload(shape=0), "field 'shape' must be a finite number > 0, got 0"),
        (weibull_payload(shape=float("nan")), "field 'shape' must be a finite number > 0"),
        (weibull_payload(shape=-2.0), "field 'shape' must be a finite number > 0, got -2.0"),
        (weibull_payload(scale=-1.0), "field 'scale' must be a finite number > 0, got -1.0"),
        (weibull_payload(scale="2.0"), "field 'scale' must be a finite number > 0"),
        (weibull_payload(shape=True), "field 'shape' must be a finite number > 0"),
        (weibull_payload(scale=10**400), "field 'scale' must be a finite number > 0"),
        (cox_payload(beta=[0.5, float("nan")]), "field 'beta' entry 1 must be a finite number"),
        (cox_payload(beta=[0.5]), "field 'feature_means' has 2 entries but 'beta' has 1"),
        (cox_payload(baseline_knots=[2.0, 1.0]), "field 'baseline_knots' must be strictly"),
        (
            cox_payload(baseline_knots=[-1.0, 1.0]),
            "^field 'baseline_knots' must be strictly increasing from a nonnegative first knot$",
        ),
        (
            cox_payload(baseline_values=[0.3, 0.1]),
            "^field 'baseline_values' must be nonnegative and nondecreasing$",
        ),
        (cox_payload(baseline_values=[0.1]), "field 'baseline_values' has 1 entries"),
        (cox_payload(beta=0.5), "field 'beta' must be a list of numbers"),
        ('{"kind": "weibull_aft", "shape": 1.5}', "model JSON lacks the field 'scale'"),
        ('{"shape": 1.5, "scale": 2.0}', "model JSON lacks the field 'kind'"),
        ('{"kind": "coxph", "beta": [1.0]}', "model JSON lacks the field 'feature_means'"),
        (km_payload(at_risk=[4, 2.5, 1]), "field 'at_risk' must hold whole numbers >= 0"),
        (km_payload(n_events=[1, -1, 1]), "field 'n_events' must hold whole numbers >= 0"),
        (km_payload(event_times=[1.0]), "field 'at_risk' has 3 entries but 'event_times' has 1"),
        ("[1, 2]", "model JSON must be an object, got list"),
        ('  ["kind", "km"]', "model JSON must be an object, got list"),
    ],
)
def test_model_from_json_refuses_what_model_to_json_cannot_write(text, message):
    with pytest.raises(ValueError, match=message):
        model_from_json(text)


@pytest.mark.parametrize("content", ["[1, 2]", "3.5", '"coxph"', "null"])
def test_model_from_json_refuses_a_file_that_holds_no_object(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_text(content)
    with pytest.raises(ValueError, match="model JSON must be an object"):
        model_from_json(path)
    with pytest.raises(ValueError, match="model JSON must be an object"):
        model_from_json(str(path))
