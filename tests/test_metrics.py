"""Tests for concordance, Brier scores, log-likelihood, and calibration."""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats as sps

from conftest import blocked_pair_counts, random_censored_dataset
from survmae import (
    BinningError,
    CurveBatch,
    DegenerateScoreWarning,
    StepCurve,
    SurvivalDataset,
    UndefinedMetricError,
    brier_score_at,
    comparable_pair_ratio,
    concordance_index,
    d_calibration,
    integrated_brier_score,
    km_fit,
    log_likelihood,
    one_calibration,
)
from survmae import metrics
from survmae.estimators import censoring_km_fit
from survmae.mae import PredictedTimes
from survmae.metrics import _comparable_count, _concordant_counts


def preds(values):
    return PredictedTimes(values=np.asarray(values, dtype=float))


def const_curve(s, knot=1.0):
    return StepCurve(knots=[knot], values=[s])


# ------------------------------------------------------------- concordance


def test_c_index_order_preserving_is_one():
    ds = SurvivalDataset.from_arrays([77.0, 85.0, 93.0], [True, True, True])
    assert concordance_index(preds([10.0, 20.0, 30.0]), ds) == 1.0
    assert concordance_index(preds([30.0, 20.0, 10.0]), ds) == 0.0


def test_c_index_all_tied_predictions_is_half():
    ds = SurvivalDataset.from_arrays([77.0, 85.0, 93.0], [True, True, True])
    assert concordance_index(preds([5.0, 5.0, 5.0]), ds) == 0.5


def test_c_index_censored_pairs_dropped():
    # the censored subject at 2 cannot anchor a pair, so only the two pairs
    # led by the event at 1 count; the (2, 3) pair never contributes
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, False, True])
    assert concordance_index(preds([1.0, 5.0, 2.0]), ds) == 1.0
    assert concordance_index(preds([5.0, 1.0, 2.0]), ds) == 0.0


def test_c_index_no_comparable_pairs():
    ds = SurvivalDataset.from_arrays([2.0, 2.0], [True, True])  # tied times
    with pytest.raises(UndefinedMetricError):
        concordance_index(preds([1.0, 2.0]), ds)
    ds2 = SurvivalDataset.from_arrays([1.0, 2.0], [False, True])
    with pytest.raises(UndefinedMetricError):
        concordance_index(preds([1.0, 2.0]), ds2)


def _counts_both_ways(p, times, events):
    """``_concordant_counts`` with every event compared to every subject, and
    through the merge levels."""
    counts = []
    for dense_max in (times.size, 0):
        with mock.patch.object(metrics, "_DENSE_MAX", dense_max):
            counts.append(_concordant_counts(p, times, events))
    return counts


def _draw_values(rng, n, levels):
    """``n`` positive values on ``levels`` tied levels, or distinct for None."""
    if levels is None:
        return rng.uniform(0.1, 10.0, n)
    return rng.integers(1, levels + 1, n) * 1.0


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(0, 40), st.integers(0, 600)),
    t_levels=st.sampled_from([2, 3, 5, None]),
    p_levels=st.sampled_from([2, 3, 5, None]),
    event_rate=st.floats(0.0, 1.0),
)
def test_pair_counts_match_the_blocked_oracle(seed, n, t_levels, p_levels, event_rate):
    rng = np.random.default_rng(seed)
    times, p = _draw_values(rng, n, t_levels), _draw_values(rng, n, p_levels)
    events = rng.random(n) < event_rate
    comparable, concordant, tied = blocked_pair_counts(p, times, events, block=128)
    assert _comparable_count(times, events) == comparable
    assert _counts_both_ways(p, times, events) == [(concordant, tied)] * 2
    if n == 0:
        return
    ds = SurvivalDataset.from_arrays(times, events)
    if comparable == 0:
        with pytest.raises(UndefinedMetricError):
            concordance_index(preds(p), ds)
    else:
        assert concordance_index(preds(p), ds) == (concordant + 0.5 * tied) / comparable
    if n >= 2:
        assert comparable_pair_ratio(ds) == comparable / (n * (n - 1) / 2)


def test_pair_counts_match_the_blocked_oracle_past_one_block():
    # several blocks of the oracle, and the merge levels
    rng = np.random.default_rng(50)
    n = 1300
    times = rng.uniform(0.1, 10.0, n)
    events = rng.random(n) < 0.6
    p = rng.uniform(0.1, 10.0, n)
    comparable, concordant, tied = blocked_pair_counts(p, times, events)
    assert _comparable_count(times, events) == comparable
    assert _counts_both_ways(p, times, events) == [(concordant, tied)] * 2


def test_c_index_matches_the_blocked_oracle_at_n_3000_with_dense_ties():
    # twelve merge levels; times and predictions on about 100 levels each
    rng = np.random.default_rng(52)
    n = 3000
    times = np.round(rng.uniform(0.1, 10.0, n), 1)
    events = rng.random(n) < 0.5
    p = np.round(rng.uniform(0.1, 10.0, n), 1)
    ds = SurvivalDataset.from_arrays(times, events)
    comparable, concordant, tied = blocked_pair_counts(p, times, events)
    assert tied > 0
    assert concordance_index(preds(p), ds) == (concordant + 0.5 * tied) / comparable
    assert comparable_pair_ratio(ds) == comparable / (n * (n - 1) / 2)


def test_comparable_pair_ratio_frozen():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, False, True])
    assert_allclose(comparable_pair_ratio(ds), 2.0 / 3.0)
    with pytest.raises(ValueError):
        comparable_pair_ratio(SurvivalDataset.from_arrays([1.0], [True]))


def test_comparable_pair_ratio_bounds():
    # finite-sample bounds as a function of the event rate alone
    rng = np.random.default_rng(51)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        times = rng.uniform(0.1, 50.0, n)
        assert np.unique(times).size == n
        events = rng.random(n) < rng.uniform(0.05, 0.95)
        ds = SurvivalDataset.from_arrays(times, events)
        r = comparable_pair_ratio(ds)
        a = float(np.mean(events))
        lower = a * (a * n - 1.0) / (n - 1.0)
        upper = lower + 2.0 * n * a * (1.0 - a) / (n - 1.0)
        assert lower - 1e-12 <= r <= upper + 1e-12


# ------------------------------------------------------------------- Brier


def test_brier_dead_subject():
    ds = SurvivalDataset.from_arrays([1.0], [True])
    g = censoring_km_fit(ds)
    assert_allclose(brier_score_at([const_curve(0.3)], ds, 2.0, g), 0.09)


def test_brier_alive_subject():
    ds = SurvivalDataset.from_arrays([3.0], [True])
    g = censoring_km_fit(ds)
    assert_allclose(brier_score_at([const_curve(0.3)], ds, 2.0, g), 0.49)


def test_brier_censored_before_horizon_contributes_nothing():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, False, True])
    g = censoring_km_fit(ds)
    curves = [const_curve(v) for v in (0.2, 0.9, 0.8)]
    # dead: 0.2^2/1; censored at 2 < 2.5: nothing; alive: 0.2^2/G(2.5)=0.04/0.5
    assert_allclose(brier_score_at(curves, ds, 2.5, g), 0.04)
    # the censored subject's own curve value is irrelevant
    curves[1] = const_curve(0.1)
    assert_allclose(brier_score_at(curves, ds, 2.5, g), 0.04)


def test_brier_all_weight_lost():
    g = censoring_km_fit(SurvivalDataset.from_arrays([1.0], [False]))
    ds = SurvivalDataset.from_arrays([2.0], [True])
    with pytest.raises(UndefinedMetricError):
        brier_score_at([const_curve(0.5)], ds, 3.0, g)


def test_brier_rejects_bad_input():
    ds = SurvivalDataset.from_arrays([1.0], [True])
    g = censoring_km_fit(ds)
    with pytest.raises(ValueError):
        brier_score_at([], ds, 1.0, g)
    with pytest.raises(ValueError):
        brier_score_at([const_curve(0.5)], ds, -1.0, g)


def test_ibs_single_point_grid_is_brier_at_horizon():
    rng = np.random.default_rng(52)
    ds = random_censored_dataset(rng, n=25)
    g = censoring_km_fit(ds)
    curves = [const_curve(s, knot=2.0) for s in rng.uniform(0.1, 1.0, 25)]
    t_max = float(ds.times[ds.events].max())
    assert_allclose(
        integrated_brier_score(curves, ds, g, grid_size=1),
        brier_score_at(curves, ds, t_max, g),
    )


def test_ibs_matches_double_loop_oracle():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        times = rng.uniform(0.5, 8.0, n)
        ds = SurvivalDataset.from_arrays(times, np.ones(n, dtype=bool))
        g = censoring_km_fit(ds)
        curves = []
        for _ in range(n):
            knots = np.cumsum(rng.uniform(0.2, 2.0, 4))
            values = np.sort(rng.uniform(0.0, 1.0, 4))[::-1]
            curves.append(StepCurve(knots=knots, values=values))
        grid_size = int(rng.integers(2, 11))
        got = integrated_brier_score(curves, ds, g, grid_size=grid_size)

        # direct re-computation: no censoring, so weights are all one
        t_max = times.max()
        grid = np.linspace(0.0, t_max, grid_size)
        scores = []
        for s in grid:
            total = 0.0
            for i in range(n):
                surv = curves[i].value(s)
                total += surv**2 if times[i] <= s else (1.0 - surv) ** 2
            scores.append(total / n)
        scores = np.array(scores)
        area = float(np.sum((scores[:-1] + scores[1:]) / 2.0 * np.diff(grid)))
        assert_allclose(got, area / t_max, atol=1e-12)


def test_ibs_grid_refinement_converges():
    rng = np.random.default_rng(54)
    n = 40
    times = rng.uniform(0.5, 10.0, n)
    events = rng.random(n) < 0.7
    ds = SurvivalDataset.from_arrays(times, events)
    g = censoring_km_fit(ds)
    probs = np.arange(199, 0, -1) / 200.0
    curves = [
        StepCurve(knots=m * (-np.log(probs)) ** (1.0 / 1.5), values=probs)
        for m in rng.uniform(2.0, 8.0, n)
    ]
    a = integrated_brier_score(curves, ds, g, grid_size=100)
    b = integrated_brier_score(curves, ds, g, grid_size=200)
    assert abs(a - b) / b < 0.01


def test_ibs_needs_horizon():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [False, False])
    g = censoring_km_fit(ds)
    with pytest.raises(UndefinedMetricError):
        integrated_brier_score([const_curve(0.9), const_curve(0.9)], ds, g)


HORIZON_CALLS = {
    "one_calibration": (lambda c, ds, g, t: one_calibration(c, ds, t, n_bins=2), "t_star"),
    "brier_score_at": (lambda c, ds, g, t: brier_score_at(c, ds, t, g), "t_star"),
    "integrated_brier_score": (
        lambda c, ds, g, t: integrated_brier_score(c, ds, g, t_max=t),
        "t_max",
    ),
    "integrated_brier_score_one_point": (
        lambda c, ds, g, t: integrated_brier_score(c, ds, g, grid_size=1, t_max=t),
        "t_max",
    ),
}


@pytest.mark.parametrize("call", HORIZON_CALLS)
@pytest.mark.parametrize(
    "horizon",
    [np.nan, np.inf, -np.inf, -1.0, np.float64(np.inf), "3", pytest.param(10**400, id="10**400")],
)
def test_a_horizon_must_be_finite_and_nonnegative(call, horizon):
    fn, name = HORIZON_CALLS[call]
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    g = censoring_km_fit(ds)
    curves = [const_curve(v, knot=2.5) for v in (0.2, 0.9, 0.8, 0.6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numpy warning
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fn(curves, ds, g, horizon)


@pytest.mark.parametrize("call", HORIZON_CALLS)
@pytest.mark.parametrize("horizon", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_a_bool_is_no_horizon(call, horizon):
    # True is no horizon of 1.0, nor False one of 0.0
    fn, name = HORIZON_CALLS[call]
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    g = censoring_km_fit(ds)
    curves = [const_curve(v, knot=2.5) for v in (0.2, 0.9, 0.8, 0.6)]
    with pytest.raises(ValueError, match=f"^{name} must be finite.*, got {horizon!r}$"):
        fn(curves, ds, g, horizon)


@pytest.mark.parametrize("call", ["one_calibration", "brier_score_at"])
def test_none_is_no_t_star(call):
    # only t_max reads None, as the dataset's last event time
    fn, _ = HORIZON_CALLS[call]
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    curves = [const_curve(v, knot=2.5) for v in (0.2, 0.9, 0.8, 0.6)]
    with pytest.raises(ValueError, match="^t_star must be finite and nonnegative, got None$"):
        fn(curves, ds, censoring_km_fit(ds), None)


@pytest.mark.parametrize(
    "grid_size", [2.5, np.nan, np.inf, True, False, np.True_, 0, -3, "100", None, np.float64(100.0)]
)
def test_ibs_takes_an_integer_grid_size_of_at_least_one(grid_size):
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    g = censoring_km_fit(ds)
    curves = [const_curve(v, knot=2.5) for v in (0.2, 0.9, 0.8, 0.6)]
    weights = metrics._brier_weights(ds, g, 100, None)
    message = f"^grid_size must be an integer of at least 1, got {re.escape(repr(grid_size))}$"
    for kwargs in ({}, {"weights": weights}):
        with pytest.raises(ValueError, match=message):
            integrated_brier_score(curves, ds, g, grid_size, **kwargs)
    with pytest.raises(ValueError, match=message):
        metrics._brier_weights(ds, g, grid_size, None)
    # a NumPy integer is an integer, and scores as the int does
    for size in (1, 7, 100):
        want = integrated_brier_score(curves, ds, g, size)
        for count in (np.int64(size), np.int32(size)):
            assert integrated_brier_score(curves, ds, g, count) == want


# ---------------------------------------------------------- log-likelihood


def test_log_likelihood_bin_density():
    # event inside the (2, 4] bin: mass 0.4 over width 2
    c = StepCurve(knots=[2.0, 4.0], values=[0.9, 0.5])
    ds = SurvivalDataset.from_arrays([3.0], [True])
    assert_allclose(log_likelihood([c], ds), np.log(0.2))


def test_log_likelihood_mixed_frozen():
    c = StepCurve(knots=[1.0, 2.0, 4.0], values=[0.8, 0.5, 0.5])
    ds = SurvivalDataset.from_arrays([1.5, 1.0, 3.0], [True, True, False])
    # event in (1,2]: mass 0.3/width 1; event in (0,1]: mass 0.2/width 1;
    # censored at 3: survival 0.5
    expected = (np.log(0.3) + np.log(0.2) + np.log(0.5)) / 3.0
    assert_allclose(log_likelihood([c] * 3, ds), expected)


def test_log_likelihood_zero_mass_warns():
    c = StepCurve(knots=[1.0, 2.0], values=[0.5, 0.0])
    ds = SurvivalDataset.from_arrays([5.0], [False])  # S(5) = 0
    with pytest.warns(DegenerateScoreWarning):
        assert log_likelihood([c], ds) == -np.inf
    ds2 = SurvivalDataset.from_arrays([5.0], [True])  # beyond the last knot
    with pytest.warns(DegenerateScoreWarning):
        assert log_likelihood([c], ds2) == -np.inf


def test_log_likelihood_flat_bin_warns():
    c = StepCurve(knots=[1.0, 2.0, 3.0], values=[0.8, 0.8, 0.2])
    ds = SurvivalDataset.from_arrays([1.5, 2.5], [True, True])
    with pytest.warns(DegenerateScoreWarning):
        out = log_likelihood([c, c], ds)
    assert out == -np.inf  # the flat (1,2] bin has no mass


# ----------------------------------------------------------- 1-calibration


def test_one_calibration_toy():
    curves = [const_curve(s, knot=2.0) for s in (0.35, 0.04, 0.58, 0.51)]
    ds = SurvivalDataset.from_arrays([1.5, 1.0, 3.0, 2.0], [True] * 4)
    res = one_calibration(curves, ds, t_star=2.0, n_bins=2)
    assert_allclose(res.bin_table, ((1.61, 2.0), (0.91, 1.0)), rtol=1e-12)
    expected = (2 - 1.61) ** 2 / (1.61 * (1 - 1.61 / 2)) + (1 - 0.91) ** 2 / (
        0.91 * (1 - 0.91 / 2)
    )
    assert_allclose(res.statistic, expected, rtol=1e-10)


def test_one_calibration_censoring_informs_observed():
    # a censoring at 1.0 leaves one subject at risk for the event at 1.5, so
    # the within-bin curve hits zero and the observed count is 2, not the
    # naive death count of 1
    curves = [const_curve(0.5, knot=2.0)] * 4
    ds = SurvivalDataset.from_arrays(
        [1.0, 1.5, 3.0, 4.0], [False, True, True, True]
    )
    res = one_calibration(curves, ds, t_star=2.0, n_bins=2)
    assert_allclose(res.bin_table, ((1.0, 2.0), (1.0, 0.0)))
    assert_allclose(res.statistic, 4.0)


def test_one_calibration_extreme_bins_are_clamped():
    curves = [const_curve(1.0, knot=2.0)] * 4  # expected events = 0 per bin
    ds = SurvivalDataset.from_arrays([1.0, 1.5, 3.0, 4.0], [True] * 4)
    res = one_calibration(curves, ds, t_star=2.0, n_bins=2)
    assert np.isfinite(res.statistic)


def test_one_calibration_binning_errors():
    curves = [const_curve(0.5)] * 3
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True] * 3)
    with pytest.raises(BinningError):
        one_calibration(curves, ds, 1.0, n_bins=1)
    with pytest.raises(BinningError):
        one_calibration(curves, ds, 1.0, n_bins=5)


def test_one_calibration_accepts_calibrated_predictor():
    t_star = 1.0
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng((100, seed))
        lam = rng.uniform(0.5, 2.0, 5000)
        t = np.maximum(rng.exponential(lam), 1e-9)
        curves = CurveBatch(knots=[t_star], values=np.exp(-t_star / lam)[:, None])
        ds = SurvivalDataset.from_arrays(t, np.ones(5000, dtype=bool))
        hits += one_calibration(curves, ds, t_star).p_value > 0.05
    assert hits >= 90


def test_one_calibration_rejects_shifted_predictor():
    t_star = 1.0
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng((200, seed))
        lam = rng.uniform(0.5, 2.0, 5000)
        t = np.maximum(rng.exponential(lam), 1e-9)
        shifted = np.minimum(np.exp(-t_star / lam) + 0.3, 1.0)
        curves = CurveBatch(knots=[t_star], values=shifted[:, None])
        ds = SurvivalDataset.from_arrays(t, np.ones(5000, dtype=bool))
        hits += one_calibration(curves, ds, t_star).p_value < 0.01
    assert hits >= 95


# ----------------------------------------------------------- d-calibration


def test_d_calibration_uncensored_bins():
    curves = [const_curve(0.75), const_curve(0.25)]
    ds = SurvivalDataset.from_arrays([2.0, 2.0], [True, True])
    res = d_calibration(curves, ds, n_bins=2)
    assert_allclose([obs for _, obs in res.bin_table], [1.0, 1.0])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_d_calibration_censored_mass_spreads_below():
    # censored at survival level 0.5 with 10 bins: 0.2 to each bin below
    curves = [const_curve(0.5)]
    ds = SurvivalDataset.from_arrays([2.0], [False])
    res = d_calibration(curves, ds, n_bins=10)
    observed = [obs for _, obs in res.bin_table]
    assert_allclose(observed, [0.2] * 5 + [0.0] * 5, atol=1e-12)
    assert_allclose(sum(observed), 1.0)


def test_d_calibration_censored_partial_bin():
    curves = [const_curve(0.75)]
    ds = SurvivalDataset.from_arrays([2.0], [False])
    res = d_calibration(curves, ds, n_bins=2)
    observed = [obs for _, obs in res.bin_table]
    assert_allclose(observed, [2.0 / 3.0, 1.0 / 3.0])
    assert_allclose(res.statistic, 1.0 / 9.0)
    assert_allclose(res.p_value, sps.chi2.sf(1.0 / 9.0, df=1))


def test_d_calibration_zero_survival_goes_to_lowest_bin():
    curves = [StepCurve(knots=[1.0], values=[0.0])]
    ds = SurvivalDataset.from_arrays([2.0], [False])
    res = d_calibration(curves, ds, n_bins=4)
    assert_allclose([obs for _, obs in res.bin_table], [1.0, 0.0, 0.0, 0.0])


def test_d_calibration_mass_conservation():
    rng = np.random.default_rng(55)
    for _ in range(30):
        ds = random_censored_dataset(rng, n=int(rng.integers(3, 40)))
        curves = [const_curve(s, knot=float(t)) for s, t in zip(rng.uniform(0, 1, ds.n), ds.times)]
        res = d_calibration(curves, ds, n_bins=int(rng.integers(2, 12)))
        assert_allclose(sum(obs for _, obs in res.bin_table), ds.n, rtol=1e-9)


def test_d_calibration_km_self_check():
    # the KM curve evaluated on its own training set should look calibrated
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng((300, seed))
        e = rng.exponential(1.0, 1000)
        c = rng.exponential(2.0, 1000)
        ds = SurvivalDataset.from_arrays(np.minimum(e, c), e <= c)
        curve = km_fit(ds.times, ds.events).curve
        hits += d_calibration([curve] * ds.n, ds).p_value > 0.05
    assert hits >= 17


def test_d_calibration_needs_two_bins():
    with pytest.raises(BinningError):
        d_calibration([const_curve(0.5)], SurvivalDataset.from_arrays([1.0], [True]), n_bins=1)
