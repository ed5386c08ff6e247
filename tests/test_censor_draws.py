"""The one-pass censor draws against the per-subject generator loop.

``sample_censor_times`` computes the first uniform draw of
``default_rng([seed, i])`` for every subject at once, and every kind's censor
time is a function of it. The loop below builds one generator per subject,
as the draws are defined, and stays here as the oracle: every censoring kind
must give the same censor times bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survmae import (
    CENSORING_KINDS,
    CensoringSpec,
    ConfigurationError,
    StepCurve,
    SurvivalDataset,
    dataset_stats,
    make_semi_synthetic,
    sample_censor_times,
)
from survmae.estimators import (
    CoxModel,
    CumulativeHazard,
    censoring_km_fit,
    km_fit,
)
from survmae.synth import ExternalCensoringRef, _first_uniforms, _km_inverse

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**100]),
    st.integers(0, 2**140),
)


def loop_censor_times(kind, d_prime, stats, aux, seed):
    """One generator per subject: the definition of the draws."""
    out = np.empty(d_prime.n)
    for i in range(d_prime.n):
        rng = np.random.default_rng([seed, i])
        if kind == "uniform":
            out[i] = rng.uniform(0.0, stats.t_max_event)
        elif kind == "uniform_admin":
            out[i] = min(rng.uniform(0.0, stats.t_max_event), stats.t_median_event)
        elif kind == "exponential":
            out[i] = -stats.sigma_event * math.log1p(-rng.random())
        elif kind == "original_independent":
            out[i] = _km_inverse(aux.curve, rng.random())
        elif kind == "original_dependent":
            base = aux.baseline_cumhaz
            base_surv = StepCurve(knots=base.knots, values=np.exp(-base.values))
            u = rng.random()
            out[i] = _km_inverse(base_surv, u ** (1.0 / aux.risk(d_prime.feature_matrix[i])))
        else:
            scale = stats.t_max_event / aux.t_max_event
            out[i] = _km_inverse(aux.censoring_km.curve, rng.random()) * scale
    return out


def censoring_model(kind, rng, n_features):
    """A censoring model of the kind's type, from a random sample."""
    times = rng.exponential(3.0, 60)
    if kind == "original_independent":
        return censoring_km_fit(SurvivalDataset.from_arrays(times, rng.random(60) < 0.6))
    if kind == "original_dependent":
        knots = np.sort(rng.choice(times, 20, replace=False))
        return CoxModel(
            beta=rng.normal(0.0, 0.7, n_features),
            baseline_cumhaz=CumulativeHazard(knots, np.cumsum(rng.uniform(0.0, 0.3, 20))),
            feature_means=rng.normal(0.0, 0.5, n_features),
        )
    if kind == "external":
        ref = SurvivalDataset.from_arrays(times, rng.random(60) < 0.6)
        return ExternalCensoringRef(censoring_km_fit(ref), float(times.max()))
    return None


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(CENSORING_KINDS)),
    n=st.one_of(st.integers(2, 40), st.integers(41, 3000)),
    seed=SEEDS,
    data_seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_draws_equal_the_per_subject_loop(kind, n, seed, data_seed):
    rng = np.random.default_rng(data_seed)
    n_features = int(rng.integers(1, 4))
    d_prime = SurvivalDataset.from_arrays(
        rng.weibull(1.5, n) * 5.0 + 1e-3,
        np.ones(n, dtype=bool),
        features=rng.normal(0.0, 1.0, (n, n_features)),
        feature_names=tuple(f"x{j}" for j in range(n_features)),
    )
    stats = dataset_stats(d_prime)
    aux = censoring_model(kind, rng, n_features)
    fast = sample_censor_times(CensoringSpec(kind), d_prime, stats, aux=aux, seed=seed)
    assert fast.dtype == np.float64
    assert fast.tobytes() == loop_censor_times(kind, d_prime, stats, aux, seed).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.integers(0, 200))
def test_first_uniforms_are_each_generators_first_draw(seed, n):
    expected = [np.random.default_rng([seed, i]).random() for i in range(n)]
    assert _first_uniforms(seed, n).tolist() == expected


def test_numpy_integer_seeds_draw_as_python_integers():
    d_prime = SurvivalDataset.from_arrays(np.arange(1.0, 31.0), np.ones(30, dtype=bool))
    stats = dataset_stats(d_prime)
    draws = [
        sample_censor_times(CensoringSpec("uniform"), d_prime, stats, seed=seed).tobytes()
        for seed in (2**63 + 7, np.uint64(2**63 + 7))
    ]
    assert draws[0] == draws[1]


def test_km_inverse_of_an_array_is_the_inverse_of_each_draw():
    fit = km_fit([1.0, 2.0, 2.0, 3.0, 5.0], [True, False, True, True, False])
    u = np.array([1.0, 0.9, 0.8, 0.6, 0.4, 0.3, 0.0])
    assert _km_inverse(fit.curve, u).tolist() == [_km_inverse(fit.curve, v) for v in u]


@pytest.mark.parametrize("seed", [-1, 2.0, "3", None])
def test_censor_draws_refuse_a_seed_that_is_not_a_nonnegative_integer(seed):
    d_prime = SurvivalDataset.from_arrays([1.0, 2.0], [True, True])
    with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
        sample_censor_times(CensoringSpec("uniform"), d_prime, dataset_stats(d_prime),
                            seed=seed)


def test_make_semi_synthetic_refuses_a_negative_seed_before_fitting(monkeypatch):
    import survmae.synth as synth

    def no_fit(ds):
        raise AssertionError("the censoring model was fitted")

    monkeypatch.setattr(synth, "coxph_fit", no_fit)
    raw = SurvivalDataset.from_arrays(
        [1.0, 2.0, 3.0], [True, False, True], features=[[0.0], [1.0], [2.0]],
        feature_names=("x",),
    )
    with pytest.raises(ConfigurationError) as err:
        make_semi_synthetic(raw, CensoringSpec("original_dependent"), seed=-1)
    assert str(err.value) == "seed must be a nonnegative integer, got -1"
