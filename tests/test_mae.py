"""Tests for the censored MAE estimators and surrogate builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_censored_dataset, refit_pseudo_obs
from survmae import (
    DegenerateCurveError,
    MissingGroundTruthError,
    PredictedTimes,
    StepCurve,
    SurrogateSet,
    SurvivalDataset,
    UndefinedMetricError,
    extract_predicted_times,
    ipcw_t_surrogates,
    km_fit,
    mae_hinge,
    mae_ipcw_d,
    mae_ipcw_t,
    mae_margin,
    mae_po,
    mae_pop_po,
    mae_uncensored,
    margin_surrogates,
    pop_po_surrogates,
    pseudo_obs_surrogates,
    true_mae,
    weighted_mae,
)
from survmae.estimators import censoring_km_fit
from survmae.mae import _km_restricted_mean, _km_restricted_means


def ds3():
    """Events at 1 and 3, one subject censored at 2."""
    return SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, False, True])


def ds5():
    """Events at 1, 3, 6; censored at 2 and 4. Distinguishes all surrogates."""
    return SurvivalDataset.from_arrays(
        [1.0, 2.0, 3.0, 4.0, 6.0], [True, False, True, False, True]
    )


def preds(values):
    return PredictedTimes(values=np.asarray(values, dtype=float))


# -------------------------------------------------------- simple estimators


def test_mae_uncensored_frozen():
    assert_allclose(mae_uncensored(preds([1.5, 9.0, 2.0]), ds3()), 0.75)


def test_mae_uncensored_needs_events():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [False, False])
    with pytest.raises(UndefinedMetricError):
        mae_uncensored(preds([1.0, 1.0]), ds)


def test_mae_hinge_frozen():
    assert_allclose(mae_hinge(preds([1.5, 1.5, 2.0]), ds3()), 2.0 / 3.0)


def test_mae_hinge_overprediction_of_censored_is_free():
    # predicting far beyond a censored time costs nothing
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [True, False])
    assert_allclose(mae_hinge(preds([1.0, 50.0]), ds), 0.0)


def test_true_mae_frozen():
    ds = SurvivalDataset.from_arrays(
        [1.0, 2.0, 3.0], [True, False, True], true_times=[1.0, 4.0, 3.0]
    )
    assert_allclose(true_mae(preds([1.0, 2.0, 5.0]), ds), 4.0 / 3.0)


def test_true_mae_needs_truths():
    with pytest.raises(MissingGroundTruthError):
        true_mae(preds([1.0, 1.0, 1.0]), ds3())


def test_hinge_never_exceeds_true_mae():
    # per-subject the hinge residual is a lower bound on the true residual
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        truths = rng.uniform(0.5, 10.0, n)
        censor = rng.uniform(0.1, 12.0, n)
        times = np.minimum(truths, censor)
        events = truths <= censor
        ds = SurvivalDataset.from_arrays(
            times, events, true_times=np.where(events, times, truths)
        )
        p = preds(rng.uniform(0.1, 15.0, n))
        assert mae_hinge(p, ds) <= true_mae(p, ds) + 1e-12


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        mae_hinge(preds([1.0]), ds3())


# ---------------------------------------------------------------- weighted


def test_weighted_mae_frozen():
    s = SurrogateSet(
        surrogate=np.array([1.0, 3.0, 3.0]),
        weight=np.array([1.0, 1.0 / 3.0, 1.0]),
        included=np.ones(3, dtype=bool),
    )
    assert_allclose(weighted_mae(s, preds([1.0, 2.5, 3.0])), 1.0 / 14.0)


def test_weighted_mae_ignores_excluded():
    s = SurrogateSet(
        surrogate=np.array([2.0, 999.0]),
        weight=np.array([1.0, 1.0]),
        included=np.array([True, False]),
    )
    assert_allclose(weighted_mae(s, preds([1.0, 1.0])), 1.0)


def test_weighted_mae_needs_positive_weight():
    s = SurrogateSet(
        surrogate=np.array([1.0, 2.0]),
        weight=np.array([0.0, 0.0]),
        included=np.ones(2, dtype=bool),
    )
    with pytest.raises(UndefinedMetricError):
        weighted_mae(s, preds([1.0, 1.0]))


def test_surrogate_set_validation():
    with pytest.raises(ValueError):
        SurrogateSet(
            surrogate=np.array([1.0]),
            weight=np.array([1.5]),
            included=np.array([True]),
        )
    with pytest.raises(ValueError):
        SurrogateSet(
            surrogate=np.array([1.0, 2.0]),
            weight=np.array([1.0]),
            included=np.array([True]),
        )


# ------------------------------------------------------------------ margin


def test_margin_frozen_small():
    ds = ds3()
    s = margin_surrogates(ds, km_fit(ds.times, ds.events))
    assert_allclose(s.surrogate, [1.0, 3.0, 3.0])
    assert_allclose(s.weight, [1.0, 1.0 / 3.0, 1.0])
    assert s.included.all()
    assert_allclose(mae_margin(preds([1.0, 2.5, 3.0]), ds, km_fit(ds.times, ds.events)), 1.0 / 14.0)


def test_margin_frozen_rich():
    ds = ds5()
    s = margin_surrogates(ds, km_fit(ds.times, ds.events))
    assert_allclose(s.surrogate, [1.0, 5.0, 3.0, 6.0, 6.0])
    assert_allclose(s.weight, [1.0, 0.2, 1.0, 7.0 / 15.0, 1.0])


def test_margin_zero_survival_fallback():
    # training curve exhausted before the censor time: keep the observed time
    km_train = km_fit([1.0], [True])
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [True, False])
    s = margin_surrogates(ds, km_train)
    assert s.surrogate[1] == 2.0
    assert s.weight[1] == 1.0


def test_margin_censored_before_first_event_gets_zero_weight():
    km_train = km_fit([5.0], [True])
    ds = SurvivalDataset.from_arrays([1.0, 5.0], [False, True])
    s = margin_surrogates(ds, km_train)
    assert s.weight[0] == 0.0
    # surrogate is the whole-curve conditional mean from t=1 on
    assert_allclose(s.surrogate[0], 1.0 + 4.0)


def test_margin_all_censored_zero_weight_is_undefined():
    km_train = km_fit([5.0], [True])
    ds = SurvivalDataset.from_arrays([1.0], [False])
    s = margin_surrogates(ds, km_train)
    with pytest.raises(UndefinedMetricError):
        weighted_mae(s, preds([1.0]))


# ------------------------------------------------------------------ IPCW-T


def test_ipcw_t_frozen_small():
    s = ipcw_t_surrogates(ds3())
    assert_allclose(s.surrogate, [1.0, 3.0, 3.0])
    assert_allclose(s.weight, [1.0, 1.0 / 3.0, 1.0])


def test_ipcw_t_frozen_rich():
    s = ipcw_t_surrogates(ds5())
    assert_allclose(s.surrogate, [1.0, 4.5, 3.0, 6.0, 6.0])
    assert_allclose(s.weight, [1.0, 0.2, 1.0, 7.0 / 15.0, 1.0])
    assert s.included.all()


def test_ipcw_t_excludes_censored_after_last_event():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [True, False])
    s = ipcw_t_surrogates(ds)
    assert_array_equal(s.included, [True, False])
    # the excluded subject does not influence the score
    assert_allclose(weighted_mae(s, preds([3.0, 100.0])), 2.0)
    assert_allclose(mae_ipcw_t(preds([3.0, 100.0]), ds), 2.0)


# ---------------------------------------------------------------------- PO


def test_po_frozen_small():
    s = pseudo_obs_surrogates(ds3())
    assert_allclose(s.surrogate, [1.0, 3.0, 3.0], atol=1e-12)
    assert_allclose(refit_pseudo_obs(ds3()), [1.0, 3.0, 3.0], atol=1e-12)
    assert_allclose(s.weight, [1.0, 1.0 / 3.0, 1.0])
    assert_allclose(mae_po(preds([1.0, 2.5, 3.0]), ds3()), 1.0 / 14.0)


def test_po_frozen_rich():
    # theta = 4.2; dropping the subject censored at 4 lifts the tail more
    s = pseudo_obs_surrogates(ds5())
    assert_allclose(s.surrogate, [1.0, 5.0, 3.0, 6.5, 6.0], atol=1e-12)
    assert_allclose(refit_pseudo_obs(ds5()), [1.0, 5.0, 3.0, 6.5, 6.0], atol=1e-12)
    assert_allclose(s.weight, [1.0, 0.2, 1.0, 7.0 / 15.0, 1.0])


def test_po_needs_an_event():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [False, False])
    with pytest.raises(UndefinedMetricError):
        pseudo_obs_surrogates(ds)
    with pytest.raises(UndefinedMetricError):
        pop_po_surrogates(ds)


def test_po_property_suite():
    """Censoring-time lower bound, margin dominance, single-censor equality,
    and incremental/refit agreement on random datasets."""
    rng = np.random.default_rng(15)
    single_seen = 0
    for _ in range(200):
        n = int(rng.integers(3, 51))
        n_cens = int(np.clip(round(n * rng.uniform(0.1, 0.9)), 1, n - 1))
        ds = random_censored_dataset(rng, n=n, censor_count=n_cens)
        km = km_fit(ds.times, ds.events)
        po_inc = pseudo_obs_surrogates(ds)
        marg = margin_surrogates(ds, km)
        cens = ~ds.events
        assert_allclose(po_inc.surrogate, refit_pseudo_obs(ds), atol=1e-12, rtol=1e-12)
        assert np.all(po_inc.surrogate[cens] >= ds.times[cens] - 1e-9)
        assert np.all(po_inc.surrogate[cens] >= marg.surrogate[cens] - 1e-9)
        if n_cens == 1:
            single_seen += 1
            assert_allclose(po_inc.surrogate[cens], marg.surrogate[cens], rtol=1e-9)
    assert single_seen > 0


# ------------------------------------------------------------------ pop-PO


def test_pop_po_frozen():
    s = pop_po_surrogates(ds3())
    assert_allclose(s.surrogate, [1.0, 7.0 / 3.0, 3.0])
    assert_allclose(s.weight, [1.0, 1.0 / 3.0, 1.0])
    s5 = pop_po_surrogates(ds5())
    assert_allclose(s5.surrogate, [1.0, 4.2, 3.0, 4.2, 6.0])
    # both censored subjects share the population mean, unlike true PO
    assert s5.surrogate[1] == s5.surrogate[3]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    levels=st.sampled_from([2, 5, None]),
    event_rate=st.floats(0.0, 1.0),
)
def test_pop_po_theta_is_the_restricted_mean_of_the_jackknife_table(seed, n, levels, event_rate):
    # pop-PO reads theta alone; it must be the float the jackknife table holds
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.1, 10.0, n) if levels is None else rng.integers(1, levels + 1, n) * 1.0
    events = rng.random(n) < event_rate
    events[rng.integers(n)] = True
    ds = SurvivalDataset.from_arrays(times, events)
    fit = km_fit(ds.times, ds.events)
    theta = _km_restricted_mean(fit)
    assert theta == _km_restricted_means(fit)[0]
    surrogate = pop_po_surrogates(ds, km=fit).surrogate
    assert_array_equal(surrogate, np.where(ds.events, ds.times, theta))


def test_mae_pop_po_frozen():
    # |7/3 - 2.5| = 1/6, weight 1/3, total weight 7/3
    assert_allclose(mae_pop_po(preds([1.0, 2.5, 3.0]), ds3()), 1.0 / 42.0)


# ------------------------------------------------------------------ IPCW-D


def test_ipcw_d_frozen():
    ds = ds3()
    g = censoring_km_fit(ds)
    assert_allclose(mae_ipcw_d(preds([1.5, 1.0, 2.0]), ds, g), 5.0 / 6.0)


def test_ipcw_d_ignores_censored_predictions():
    ds = ds3()
    g = censoring_km_fit(ds)
    a = mae_ipcw_d(preds([1.5, 1.0, 2.0]), ds, g)
    b = mae_ipcw_d(preds([1.5, 99.0, 2.0]), ds, g)
    assert a == b


def test_ipcw_d_drops_zero_weight_subjects():
    # training censor curve hits zero at 1; the event at 2 loses its weight
    g = censoring_km_fit(SurvivalDataset.from_arrays([1.0], [False]))
    ds = SurvivalDataset.from_arrays([0.5, 2.0], [True, True])
    assert_allclose(mae_ipcw_d(preds([1.0, 1.0]), ds, g), 0.25)
    ds_all_late = SurvivalDataset.from_arrays([2.0, 3.0], [True, True])
    with pytest.raises(UndefinedMetricError):
        mae_ipcw_d(preds([1.0, 1.0]), ds_all_late, g)


# ------------------------------------------------------------- no censoring


def test_all_estimators_collapse_without_censoring():
    rng = np.random.default_rng(16)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        ds = random_censored_dataset(rng, n=n, censor_count=0)
        p = preds(rng.uniform(0.1, 12.0, n))
        plain = float(np.abs(ds.times - p.values).mean())
        km = km_fit(ds.times, ds.events)
        g = censoring_km_fit(ds)
        for value in (
            mae_uncensored(p, ds),
            mae_hinge(p, ds),
            mae_margin(p, ds, km),
            mae_ipcw_d(p, ds, g),
            mae_ipcw_t(p, ds),
            mae_po(p, ds),
            mae_pop_po(p, ds),
        ):
            assert_allclose(value, plain, rtol=1e-12, atol=1e-12)


# -------------------------------------------------------------- extraction


def test_extract_median_and_mean():
    c1 = StepCurve(knots=[1.0, 2.0, 4.0], values=[0.8, 0.5, 0.2])
    c2 = StepCurve(knots=[4.0, 10.0], values=[0.8, 0.6])
    med = extract_predicted_times([c1, c2], method="median")
    assert_allclose(med.values, [2.0, 12.5])
    assert med.method == "median"
    mean = extract_predicted_times([StepCurve(knots=[0.0, 2.0, 4.0], values=[1.0, 0.5, 0.5])], method="mean")
    assert_allclose(mean.values, [4.0])


def test_extract_names_offending_subject():
    good = StepCurve(knots=[1.0], values=[0.4])
    flat = StepCurve(knots=[1.0], values=[1.0])
    with pytest.raises(DegenerateCurveError) as err:
        extract_predicted_times([good, flat])
    assert "subject 1" in str(err.value)


@pytest.mark.parametrize("method", ["median", "mean"])
@pytest.mark.parametrize(
    "curve, shown",
    [
        (StepCurve(knots=[0.0, 1.0], values=[0.0, 0.0]), "0.0"),
        (StepCurve(knots=[1e308], values=[0.9999]), "inf"),
    ],
    ids=["zero", "overflow"],
)
def test_extract_names_a_subject_whose_predicted_time_is_not_positive_and_finite(
    curve, shown, method
):
    good = StepCurve(knots=[1.0], values=[0.4])
    message = f"^subject 1: {method} time {shown} is not finite and positive$"
    with pytest.raises(DegenerateCurveError, match=message):
        extract_predicted_times([good, curve], method)


def test_predicted_times_validation():
    with pytest.raises(ValueError):
        PredictedTimes(values=np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        PredictedTimes(values=np.array([np.inf]))
    with pytest.raises(ValueError):
        PredictedTimes(values=np.array([1.0]), method="mode")
    with pytest.raises(ValueError, match="^predicted times must form a 1-d array$"):
        PredictedTimes(values=np.array([[1.0, 2.0]]))
