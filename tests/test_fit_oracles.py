"""Cox and Weibull fits against fits that recompute everything on every call.

``coxph_fit`` builds its risk sets once per fit and its line search evaluates
the log-likelihood alone; ``weibull_aft_fit`` likewise skips the derivatives
in its line search. Both fits make one likelihood pass per point they try,
and both stop at once when the iteration reaches a fixed point. The oracles
below sort the times and recompute the risk sets, the gradient and the
Hessian on every likelihood call, and run every stalled fit to the end of its
budget, as the fits were first written. Both must give the same parameters,
baselines and errors, bit for bit, and the fits must try the oracles' points
in the oracles' order, each once.
"""

import inspect
import sys
from contextlib import contextmanager
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survmae import SurvivalDataset
from survmae.errors import ConvergenceError, SeparationError
from survmae import estimators
from survmae.estimators import (
    CumulativeHazard,
    breslow_baseline,
    coxph_fit,
    weibull_aft_fit,
)

THIS = sys.modules[__name__]


def oracle_cox_loglik_parts(beta, x_centered, times, events, want_derivs):
    eta = x_centered @ beta
    with np.errstate(over="ignore"):
        w = np.exp(eta)
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    x_sorted = x_centered[order]
    w_sorted = w[order]
    xw_sorted = x_sorted * w_sorted[:, None]
    s0_suffix = np.cumsum(w_sorted[::-1])[::-1]
    s1_suffix = np.cumsum(xw_sorted[::-1], axis=0)[::-1]
    ev_times, d_k = np.unique(times[events], return_counts=True)
    pos = np.searchsorted(t_sorted, ev_times, side="left")
    s0 = s0_suffix[pos]
    s1 = s1_suffix[pos]
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = float(np.sum(eta[events]) - np.sum(d_k * np.log(s0)))
    if not want_derivs:
        return ll, None, None
    mean_x = s1 / s0[:, None]
    grad = np.sum(x_centered[events], axis=0) - (d_k[:, None] * mean_x).sum(axis=0)
    s2_terms = np.einsum("ij,ik->ijk", x_sorted, xw_sorted)
    s2 = np.cumsum(s2_terms[::-1], axis=0)[::-1][pos]
    covs = s2 / s0[:, None, None] - mean_x[:, :, None] * mean_x[:, None, :]
    hess = -np.sum(d_k[:, None, None] * covs, axis=0)
    return ll, grad, hess


def oracle_breslow(beta, x_centered, times, events):
    with np.errstate(over="ignore"):
        w = np.exp(x_centered @ beta)
    order = np.argsort(times, kind="stable")
    s0_suffix = np.cumsum(w[order][::-1])[::-1]
    ev_times, d_k = np.unique(times[events], return_counts=True)
    pos = np.searchsorted(times[order], ev_times, side="left")
    return CumulativeHazard(knots=ev_times, values=np.cumsum(d_k / s0_suffix[pos]))


def oracle_coxph_fit(ds, max_iter=100, tol=1e-8):
    """(beta, baseline) or the raised error as (class, message, last_params)."""
    means = ds.feature_matrix.mean(axis=0)
    x_c = ds.feature_matrix - means
    times, events = ds.times, ds.events
    beta = np.zeros(x_c.shape[1])
    ll, grad, hess = oracle_cox_loglik_parts(beta, x_c, times, events, True)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) < tol:
            return beta, oracle_breslow(beta, x_c, times, events)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        step = -step
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            cand_ll, _, _ = oracle_cox_loglik_parts(candidate, x_c, times, events, False)
            if np.isfinite(cand_ll) and cand_ll >= ll - 1e-13:
                break
            scale *= 0.5
        else:
            return ConvergenceError, "step halving", beta
        beta = candidate
        if np.max(np.abs(beta)) > 50.0:
            return SeparationError, "coefficient magnitude", None
        ll, grad, hess = oracle_cox_loglik_parts(beta, x_c, times, events, True)
    if np.max(np.abs(grad)) < tol:
        return beta, oracle_breslow(beta, x_c, times, events)
    return ConvergenceError, "no convergence", beta


def oracle_weibull_loglik(a, b, t, e):
    u = np.log(t) - b
    # an overshooting step may overflow k; its likelihood is then not finite
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.exp(a)
        z = np.exp(k * u)
        ll = float(np.sum(e * (a + (k - 1.0) * np.log(t) - k * b)) - np.sum(z))
    d = float(e.sum())
    # the fit discards the derivatives at a rejected candidate, where these
    # may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        zu = z * u
        g_a = d + k * (float(np.sum(u[e])) - float(np.sum(zu)))
        g_b = k * (float(np.sum(z)) - d)
        h_aa = (g_a - d) - k * k * float(np.sum(zu * u))
        h_ab = g_b + k * k * float(np.sum(zu))
        h_bb = -(k * k) * float(np.sum(z))
    return ll, np.array([g_a, g_b]), np.array([[h_aa, h_ab], [h_ab, h_bb]])


def oracle_weibull_fit(ds, max_iter=100, tol=1e-8):
    """(shape, scale) or the raised error as (class, message, last_params)."""
    t, e = ds.times, ds.events
    theta = np.array([0.0, np.log(float(t.sum()) / float(e.sum()))])
    ll, grad, hess = oracle_weibull_loglik(theta[0], theta[1], t, e)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) < tol:
            return float(np.exp(theta[0])), float(np.exp(theta[1]))
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        scale = 1.0
        for _ in range(40):
            cand = theta + scale * step
            cand_ll, _, _ = oracle_weibull_loglik(cand[0], cand[1], t, e)
            if np.isfinite(cand_ll) and cand_ll >= ll - 1e-13:
                break
            scale *= 0.5
        else:
            return ConvergenceError, "step halving", np.exp(theta)
        theta = cand
        ll, grad, hess = oracle_weibull_loglik(theta[0], theta[1], t, e)
    if np.max(np.abs(grad)) < tol:
        return float(np.exp(theta[0])), float(np.exp(theta[1]))
    return ConvergenceError, "no convergence", np.exp(theta)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_error(expected, fit):
    cls, message, last_params = expected
    with pytest.raises(cls, match=message) as err:
        fit()
    if last_params is not None:
        assert same_bits(err.value.last_params, last_params)


@contextmanager
def recorded_calls(owner, name):
    """Patch the likelihood function ``owner.name`` to record each call as
    ``(point, caller line)``: the point, as bytes, is ``beta``, or ``(a, b)``
    for the Weibull functions."""
    calls = []
    real = getattr(owner, name)

    def recording(*args):
        point = args[0] if np.ndim(args[0]) else args[:2]
        calls.append((np.asarray(point, dtype=float).tobytes(), sys._getframe(1).f_lineno))
        return real(*args)

    with mock.patch.object(owner, name, recording):
        yield calls


class Traced(NamedTuple):
    got: object  # the fit's value or raised error
    fit_points: list  # the point of each of the fit's likelihood passes
    expected: tuple  # the oracle's value or (class, message, last_params)
    tried: list  # the points the oracle tries, in order
    oracle_calls: int


def traced_fits(kind, ds, max_iter) -> Traced:
    """Run the fit and its oracle on ``ds``, recording their likelihood calls."""
    fit, fit_loglik, oracle, oracle_loglik = {
        "cox": (coxph_fit, "_cox_loglik", oracle_coxph_fit, "oracle_cox_loglik_parts"),
        "weibull": (
            weibull_aft_fit, "_weibull_loglik", oracle_weibull_fit, "oracle_weibull_loglik"
        ),
    }[kind]
    with recorded_calls(THIS, oracle_loglik) as oracle_calls:
        expected = oracle(ds, max_iter)
    with recorded_calls(estimators, fit_loglik) as fit_calls:
        try:
            got = fit(ds, max_iter=max_iter)
        except (ConvergenceError, SeparationError) as exc:
            got = exc
    # the oracle's last call site passes each accepted point a second time,
    # for its derivatives; the others pass the start and each candidate
    source, first = inspect.getsourcelines(oracle)
    again = first + max(i for i, text in enumerate(source) if f"{oracle_loglik}(" in text)
    tried = [point for point, line in oracle_calls if line != again]
    return Traced(got, [point for point, _ in fit_calls], expected, tried, len(oracle_calls))


def assert_one_pass_per_point(run: Traced):
    """The fit tries the oracle's points in the oracle's order, one pass
    each. If it stops first, it has met a fixed point: it raises the budget's
    error, and the oracle only tries points again until its budget runs out."""
    n = len(run.fit_points)
    assert run.fit_points == run.tried[:n]
    if n < len(run.tried):
        assert isinstance(run.got, ConvergenceError)
        assert str(run.got).startswith("no convergence after")
        assert set(run.tried[n:]) <= set(run.fit_points)


def assert_cox_fit_equals_oracle(ds, max_iter):
    expected = oracle_coxph_fit(ds, max_iter)
    if isinstance(expected[0], type):
        assert_same_error(expected, lambda: coxph_fit(ds, max_iter=max_iter))
        return
    model = coxph_fit(ds, max_iter=max_iter)
    beta, baseline = expected
    assert same_bits(model.beta, beta)
    assert same_bits(model.baseline_cumhaz.knots, baseline.knots)
    assert same_bits(model.baseline_cumhaz.values, baseline.values)
    again = breslow_baseline(model, ds)
    assert same_bits(again.values, baseline.values)


def survival_data(rng, n, n_features, tie_grid, event_rate, effect):
    x = rng.normal(0.0, 1.0, (n, n_features))
    t = rng.exponential(np.exp(-effect * x[:, 0]))
    if tie_grid:
        t = np.ceil(t * tie_grid) / tie_grid
    events = rng.random(n) < event_rate
    events[int(rng.integers(n))] = True
    return SurvivalDataset.from_arrays(
        t, events, features=x, feature_names=tuple(f"x{j}" for j in range(n_features))
    )


@settings(max_examples=60, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 400),
    n_features=st.integers(1, 4),
    tie_grid=st.sampled_from([0, 2, 10]),  # 0: continuous times, else dense ties
    event_rate=st.floats(0.05, 1.0),
    effect=st.sampled_from([0.0, 0.5, 3.0, 30.0]),  # 30: near separation
    # long budgets let a stalled fit run past its fixed point
    max_iter=st.sampled_from([1, 3, 100]) | st.integers(1, 250),
)
def test_coxph_fit_equals_the_recomputing_oracle(
    data_seed, n, n_features, tie_grid, event_rate, effect, max_iter
):
    rng = np.random.default_rng(data_seed)
    ds = survival_data(rng, n, n_features, tie_grid, event_rate, effect)
    assert_cox_fit_equals_oracle(ds, max_iter)
    assert_one_pass_per_point(traced_fits("cox", ds, max_iter))


@settings(max_examples=60, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    tie_grid=st.sampled_from([0, 2, 10]),
    event_rate=st.floats(0.05, 1.0),
    shape=st.sampled_from([0.3, 1.0, 4.0]),
    max_iter=st.sampled_from([1, 3, 100]) | st.integers(1, 250),
)
# the first Newton step overshoots to a log shape whose shape overflows
@example(data_seed=359, n=14, tie_grid=10, event_rate=0.5, shape=4.0, max_iter=1)
def test_weibull_aft_fit_equals_the_recomputing_oracle(
    data_seed, n, tie_grid, event_rate, shape, max_iter
):
    rng = np.random.default_rng(data_seed)
    ds = weibull_data(rng, n, tie_grid, event_rate, shape)
    assert_weibull_fit_equals_oracle(ds, max_iter)
    assert_one_pass_per_point(traced_fits("weibull", ds, max_iter))


def weibull_data(rng, n, tie_grid, event_rate, shape):
    t = 5.0 * rng.weibull(shape, n) + 1e-6
    if tie_grid:
        t = np.ceil(t * tie_grid) / tie_grid
    events = rng.random(n) < event_rate
    events[int(rng.integers(n))] = True
    return SurvivalDataset.from_arrays(t, events)


def assert_weibull_fit_equals_oracle(ds, max_iter):
    expected = oracle_weibull_fit(ds, max_iter)
    if isinstance(expected[0], type):
        assert_same_error(expected, lambda: weibull_aft_fit(ds, max_iter=max_iter))
        return
    model = weibull_aft_fit(ds, max_iter=max_iter)
    assert (model.shape, model.scale) == expected


@pytest.mark.parametrize(
    "data_seed, tie_grid, effect, message",
    [
        (27, 0, 30.0, "coefficient magnitude"),
        (55, 2, 30.0, "no convergence after 100"),
        (509, 10, 0.5, "step halving failed"),
    ],
)
def test_coxph_fit_fails_as_the_oracle_does_within_the_full_budget(
    data_seed, tie_grid, effect, message
):
    # datasets found by a search on which the default budget of 100 Newton
    # iterations ends in each of the fit's three errors
    rng = np.random.default_rng(data_seed)
    n, n_features = int(rng.integers(20, 300)), int(rng.integers(1, 5))
    ds = survival_data(rng, n, n_features, tie_grid, float(rng.uniform(0.05, 1.0)), effect)
    expected = oracle_coxph_fit(ds)
    assert message.startswith(expected[1])
    with pytest.raises((ConvergenceError, SeparationError), match=message):
        coxph_fit(ds)
    assert_cox_fit_equals_oracle(ds, 100)


def searched_cox_stall():
    # the "no convergence after 100" dataset above: from Newton iteration 21
    # on, the line search's accepted candidate equals the iterate, bit for bit
    rng = np.random.default_rng(55)
    n, n_features = int(rng.integers(20, 300)), int(rng.integers(1, 5))
    return survival_data(rng, n, n_features, 2, float(rng.uniform(0.05, 1.0)), 30.0)


def searched_weibull_stall():
    # found by a search over seeds 0-299 of this generator with tie grids
    # {0, 2, 10} and shapes {0.3, 1, 4}: the one Weibull fit of the 2,700
    # that ends in "no convergence after 100"; from Newton iteration 13 on,
    # the line search's accepted candidate equals the iterate, bit for bit
    rng = np.random.default_rng(244)
    n = int(rng.integers(1, 400))
    t = 5.0 * rng.weibull(0.3, n) + 1e-6
    t = np.ceil(t * 10) / 10
    events = rng.random(n) < float(rng.uniform(0.05, 1.0))
    events[int(rng.integers(n))] = True
    return SurvivalDataset.from_arrays(t, events)


STALLS = {"cox": searched_cox_stall, "weibull": searched_weibull_stall}


@pytest.mark.parametrize("max_iter", [1, 12, 13, 14, 20, 21, 22, 100, 250])
@pytest.mark.parametrize("kind", ["cox", "weibull"])
def test_a_stalled_fit_ends_at_its_fixed_point_with_the_oracles_error(kind, max_iter):
    run = traced_fits(kind, STALLS[kind](), max_iter)
    cls, message, last_params = run.expected
    assert (cls, message) == (ConvergenceError, "no convergence")
    assert isinstance(run.got, ConvergenceError)
    assert str(run.got) == f"no convergence after {max_iter} Newton iterations"
    assert same_bits(run.got.last_params, last_params)
    assert_one_pass_per_point(run)
    assert len(run.fit_points) < run.oracle_calls


@pytest.mark.parametrize("kind", ["cox", "weibull"])
def test_a_stalled_fit_makes_no_pass_past_its_fixed_point(kind):
    runs = {max_iter: traced_fits(kind, STALLS[kind](), max_iter) for max_iter in (30, 100, 250)}
    assert runs[30].fit_points == runs[100].fit_points == runs[250].fit_points
    # the fit stops at the first candidate equal to its iterate, which it
    # does not pass; the oracle goes on trying the points of that cycle
    assert len(runs[100].tried) > len(runs[30].tried) > len(runs[30].fit_points)
    assert runs[100].oracle_calls > 4 * len(runs[100].fit_points)


@pytest.mark.parametrize("kind", ["cox", "weibull"])
def test_a_converging_fit_makes_one_pass_per_point_it_tries(kind):
    rng = np.random.default_rng(3)
    if kind == "cox":
        ds = survival_data(rng, 300, 3, 10, 0.7, 0.5)
    else:
        ds = weibull_data(rng, 300, 10, 0.7, 1.0)
    run = traced_fits(kind, ds, 100)
    assert not isinstance(run.got, Exception) and not isinstance(run.expected[0], type)
    assert run.fit_points == run.tried
    assert run.oracle_calls > len(run.tried)  # the oracle passes accepted points twice
