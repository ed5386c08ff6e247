"""Tests for the semi-synthetic censoring pipeline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats as sps

from survmae import (
    CensoringSpec,
    ConfigurationError,
    InsufficientEventsError,
    StepCurve,
    SurvivalDataset,
    apply_censoring,
    dataset_stats,
    flip_censor_bits,
    keep_uncensored,
    make_semi_synthetic,
    sample_censor_times,
)
from survmae.estimators import censoring_km_fit, coxph_fit
from survmae.synth import _km_inverse


def spec(kind, **params):
    return CensoringSpec(kind=kind, params=params)


# ------------------------------------------------------------ preparation


def test_keep_uncensored():
    ds = SurvivalDataset.from_arrays(
        [1.0, 2.0, 3.0],
        [True, False, True],
        features=[[10.0], [20.0], [30.0]],
        feature_names=("x",),
    )
    kept = keep_uncensored(ds)
    assert kept.n == 2
    assert_array_equal(kept.times, [1.0, 3.0])
    assert kept.events.all()
    assert_array_equal(kept.true_times, [1.0, 3.0])
    assert_array_equal(kept.feature_matrix[:, 0], [10.0, 30.0])
    assert kept.feature_names == ("x",)


def test_keep_uncensored_requires_an_event():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [False, False])
    with pytest.raises(InsufficientEventsError):
        keep_uncensored(ds)


def test_flip_censor_bits_inverts_flags_and_drops_truths():
    ds = SurvivalDataset.from_arrays(
        [1.0, 2.0], [True, False], true_times=[1.0, 5.0]
    )
    flipped = flip_censor_bits(ds)
    assert_array_equal(flipped.times, ds.times)
    assert_array_equal(flipped.events, [False, True])
    assert flipped.true_times is None


def test_apply_censoring_tie_goes_to_event():
    d_prime = SurvivalDataset.from_arrays(
        [3.0, 3.0, 3.0], [True] * 3, true_times=[3.0, 3.0, 3.0]
    )
    out = apply_censoring(d_prime, [3.0, 2.5, 4.0])
    assert_array_equal(out.times, [3.0, 2.5, 3.0])
    assert_array_equal(out.events, [True, False, True])
    assert_array_equal(out.true_times, [3.0, 3.0, 3.0])


def test_apply_censoring_needs_one_time_per_subject():
    d_prime = SurvivalDataset.from_arrays([1.0, 2.0], [True, True])
    with pytest.raises(ValueError):
        apply_censoring(d_prime, [1.0])


def test_apply_censoring_refuses_a_nan_censor_time_and_never_censors_at_inf():
    d_prime = keep_uncensored(SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True] * 3))
    with pytest.raises(ValueError, match="^subject 1: censor time is NaN$"):
        apply_censoring(d_prime, [0.5, np.nan, np.nan])
    assert apply_censoring(d_prime, [np.inf, 0.5, np.inf]).events.tolist() == [True, False, True]


def test_censoring_spec_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        CensoringSpec(kind="gamma")


# -------------------------------------------------------------- mechanisms


def uncensored(times):
    times = np.asarray(times, dtype=float)
    return SurvivalDataset.from_arrays(times, np.ones(times.size, dtype=bool))


def test_uniform_draws_stay_in_range():
    d_prime = uncensored(np.linspace(1.0, 8.0, 40))
    stats = dataset_stats(d_prime)
    draws = sample_censor_times(spec("uniform"), d_prime, stats, seed=3)
    assert draws.shape == (40,)
    assert np.all((draws >= 0.0) & (draws <= stats.t_max_event))


def test_uniform_admin_truncates_at_median():
    d_prime = uncensored(np.linspace(1.0, 8.0, 40))
    stats = dataset_stats(d_prime)
    plain = sample_censor_times(spec("uniform"), d_prime, stats, seed=3)
    admin = sample_censor_times(spec("uniform_admin"), d_prime, stats, seed=3)
    assert_array_equal(admin, np.minimum(plain, stats.t_median_event))
    assert np.all(admin <= stats.t_median_event)


def test_exponential_uses_event_time_spread():
    rng = np.random.default_rng(61)
    d_prime = uncensored(rng.uniform(0.5, 20.0, 100_000))
    stats = dataset_stats(d_prime)
    draws = sample_censor_times(spec("exponential"), d_prime, stats, seed=7)
    assert_allclose(draws.mean(), stats.sigma_event, rtol=0.02)
    assert np.all(draws >= 0.0)


def test_draws_are_deterministic_and_seed_sensitive():
    d_prime = uncensored(np.linspace(1.0, 8.0, 25))
    stats = dataset_stats(d_prime)
    a = sample_censor_times(spec("uniform"), d_prime, stats, seed=11)
    b = sample_censor_times(spec("uniform"), d_prime, stats, seed=11)
    c = sample_censor_times(spec("uniform"), d_prime, stats, seed=12)
    assert_array_equal(a, b)
    assert np.any(a != c)


def test_draws_keyed_by_subject_not_by_order():
    # dropping trailing subjects must not change the leading draws
    big = uncensored(np.arange(1.0, 11.0))
    small = uncensored(np.arange(1.0, 6.0))
    stats = dataset_stats(big)
    d10 = sample_censor_times(spec("uniform"), big, stats, seed=5)
    d5 = sample_censor_times(spec("uniform"), small, stats, seed=5)
    assert_array_equal(d10[:5], d5)


def test_km_inverse_frozen():
    curve = StepCurve(knots=[1.0, 2.0, 3.0], values=[0.6, 0.3, 0.0])
    assert _km_inverse(curve, 1.0) == 1.0
    assert _km_inverse(curve, 0.65) == 1.0
    assert _km_inverse(curve, 0.6) == 1.0
    assert _km_inverse(curve, 0.5) == 2.0
    assert _km_inverse(curve, 0.0) == 3.0
    plateau = StepCurve(knots=[1.0, 2.0, 3.0], values=[0.6, 0.3, 0.1])
    assert _km_inverse(plateau, 0.05) == 3.0  # beyond support: last knot


def test_original_independent_reproduces_reference_jumps():
    # G has jumps 1 -> 2/3 at t=2 and 2/3 -> 0 at t=4, so draws land on
    # {2, 4} with probabilities 1/3 and 2/3
    raw = SurvivalDataset.from_arrays(
        [1.0, 2.0, 3.0, 4.0], [True, False, True, False]
    )
    g = censoring_km_fit(raw)
    d_prime = uncensored(np.full(3000, 1.0))
    stats = dataset_stats(d_prime)
    draws = sample_censor_times(
        spec("original_independent"), d_prime, stats, aux=g, seed=13
    )
    assert set(np.unique(draws)) == {2.0, 4.0}
    assert abs(np.mean(draws == 2.0) - 1.0 / 3.0) < 0.03


def test_original_independent_matches_reference_curve():
    rng = np.random.default_rng(60)
    t = rng.exponential(5.0, 3000)
    c = rng.exponential(5.0, 3000)
    raw = SurvivalDataset.from_arrays(np.minimum(t, c), t <= c)
    g = censoring_km_fit(raw)
    d_prime = uncensored(np.full(10_000, 1.0))
    stats = dataset_stats(d_prime)
    draws = sample_censor_times(
        spec("original_independent"), d_prime, stats, aux=g, seed=14
    )
    knots = g.curve.knots[:: max(1, g.curve.knots.size // 50)]
    empirical = np.array([np.mean(draws > k) for k in knots])
    assert np.max(np.abs(empirical - g.curve.value(knots))) < 0.02


def test_original_dependent_follows_covariates():
    # censoring hazard rises with x, so sampled censor times for high-x
    # subjects are stochastically smaller
    rng = np.random.default_rng(62)
    n = 4000
    x = rng.normal(0.0, 1.0, n)
    e = rng.exponential(1.0, n)
    c = rng.exponential(np.exp(-x), n)
    raw = SurvivalDataset.from_arrays(
        np.minimum(e, c), e <= c, features=x[:, None], feature_names=("x",)
    )
    cox = coxph_fit(flip_censor_bits(raw))
    assert cox.beta[0] > 0.5  # higher x, higher censoring hazard
    d_prime = keep_uncensored(raw)
    stats = dataset_stats(d_prime)
    draws = sample_censor_times(
        spec("original_dependent"), d_prime, stats, aux=cox, seed=15
    )
    xs = d_prime.feature_matrix[:, 0]
    high, low = draws[xs > 0.5], draws[xs < -0.5]
    assert sps.mannwhitneyu(high, low, alternative="less").pvalue < 1e-3


def test_mechanisms_require_their_aux_model():
    d_prime = uncensored([1.0, 2.0])
    stats = dataset_stats(d_prime)
    with pytest.raises(ConfigurationError):
        sample_censor_times(spec("original_independent"), d_prime, stats)
    with pytest.raises(ConfigurationError):
        sample_censor_times(spec("original_dependent"), d_prime, stats)
    with pytest.raises(ConfigurationError):
        sample_censor_times(spec("external"), d_prime, stats)


# ------------------------------------------------------------ full pipeline


def test_make_semi_synthetic_keeps_truths_consistent():
    rng = np.random.default_rng(63)
    n = 400
    raw = SurvivalDataset.from_arrays(
        rng.uniform(0.5, 10.0, n), rng.random(n) < 0.7
    )
    out = make_semi_synthetic(raw, spec("uniform"), seed=21)
    assert out.n == int(raw.events.sum())
    assert out.true_times is not None
    kept_truths = np.sort(raw.times[raw.events])
    assert_array_equal(np.sort(out.true_times), kept_truths)
    events = out.events
    assert_array_equal(out.times[events], out.true_times[events])
    assert np.all(out.times[~events] < out.true_times[~events])
    assert 0.0 < np.mean(~events) < 1.0


def test_make_semi_synthetic_deterministic():
    rng = np.random.default_rng(64)
    raw = SurvivalDataset.from_arrays(
        rng.uniform(0.5, 10.0, 200), rng.random(200) < 0.8
    )
    a = make_semi_synthetic(raw, spec("exponential"), seed=9)
    b = make_semi_synthetic(raw, spec("exponential"), seed=9)
    c = make_semi_synthetic(raw, spec("exponential"), seed=10)
    assert_array_equal(a.times, b.times)
    assert_array_equal(a.events, b.events)
    assert np.any(a.times != c.times)


def test_external_with_itself_matches_original_independent():
    rng = np.random.default_rng(65)
    n = 300
    t = rng.exponential(4.0, n)
    c = rng.exponential(4.0, n)
    raw = SurvivalDataset.from_arrays(np.minimum(t, c), t <= c)
    via_external = make_semi_synthetic(raw, spec("external", reference=raw), seed=17)
    via_internal = make_semi_synthetic(raw, spec("original_independent"), seed=17)
    assert_array_equal(via_external.times, via_internal.times)
    assert_array_equal(via_external.events, via_internal.events)


def test_external_is_invariant_to_reference_time_scale():
    rng = np.random.default_rng(66)
    n = 300
    t = rng.exponential(4.0, n)
    c = rng.exponential(4.0, n)
    ref = SurvivalDataset.from_arrays(np.minimum(t, c), t <= c)
    ref_half = SurvivalDataset.from_arrays(ref.times * 0.5, ref.events)
    target = uncensored(rng.uniform(0.5, 12.0, 150))
    a = make_semi_synthetic(target, spec("external", reference=ref), seed=18)
    b = make_semi_synthetic(target, spec("external", reference=ref_half), seed=18)
    assert_array_equal(a.times, b.times)
    assert_array_equal(a.events, b.events)


def test_external_needs_reference_with_events():
    ref = SurvivalDataset.from_arrays([1.0, 2.0], [False, False])
    target = uncensored([1.0, 2.0, 3.0])
    with pytest.raises(InsufficientEventsError):
        make_semi_synthetic(target, spec("external", reference=ref), seed=1)
    with pytest.raises(ConfigurationError):
        make_semi_synthetic(target, spec("external"), seed=1)


def test_dependent_kind_needs_features():
    raw = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, False, True])
    with pytest.raises(ConfigurationError):
        make_semi_synthetic(raw, spec("original_dependent"), seed=1)
