"""Metamorphic relations of the scores: how every metric must answer a change
of its input that changes the answer in a known way, or not at all (Chen,
Cheung and Yiu, "Metamorphic testing", HKUST-CS98-01, 1998).

* Scaling every time (observed, true and curve knots) by a power of two is
  exact in binary floating point: the MAE scores scale by the factor and
  every other metric keeps its float, but for the log-likelihood, whose
  event densities divide by the factor.
* A curve file scores the same bytes whatever the order of its rows.
* Permuting the subjects changes the order of the sums only: every metric
  stays within ``PERMUTED_RTOL``. ``one_calibration_p`` is left out: tied
  S(t*) values are binned in subject order.
* A knot that repeats the value before it leaves the curve's step function,
  and so every curve metric but the log-likelihood, unchanged.
* Appending a model to an experiment leaves every cell of the models before
  it unchanged: a model's draws are seeded by its place in the list.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survmae import (
    CurveBatch,
    SurvivalDataset,
    evaluate_dataset,
    parse_model_spec,
    run_experiment,
    save_curve_file,
    save_dataset,
)
from survmae.cli import main

PROPERTY = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# The permutation probe of 40 seeds x {continuous, tied} datasets of 300
# subjects moved no metric by more than 5.3e-14 relative; the sums are over
# at most a few hundred terms
PERMUTED_RTOL = 1e-12


@st.composite
def scored_sets(draw):
    """A dataset with true times and features, continuous or tied to a grid
    of 0.5, with about a third of the subjects censored, and noisy-oracle
    curves of its subjects on a shared grid of 40 times."""
    n = draw(st.integers(20, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, 2))
    truths = 10.0 * rng.weibull(1.5, n) * np.exp(-0.4 * x[:, 0])
    censor = rng.uniform(0.0, 30.0, n)
    times = np.minimum(truths, censor)
    if draw(st.booleans()):
        times = np.maximum(np.round(times * 2.0) / 2.0, 0.5)
        truths = np.where(truths <= censor, times, np.maximum(truths, times))
    ds = SurvivalDataset.from_arrays(
        times, truths <= censor, true_times=truths, features=x, feature_names=("a", "b")
    )
    grid = np.linspace(0.25, 1.2 * float(times.max()), 40)
    medians = truths * np.exp(rng.normal(0.0, 0.3, n))
    rows = np.exp(-math.log(2.0) * (grid[None, :] / medians[:, None]) ** 1.5)
    return ds, grid, rows


def scores_of(ds, grid, rows):
    return evaluate_dataset(ds, CurveBatch(knots=grid, values=rows))


def scaled(ds, factor):
    return SurvivalDataset.from_arrays(
        ds.times * factor,
        ds.events,
        true_times=ds.true_times * factor,
        features=ds.feature_matrix,
        feature_names=ds.feature_names,
    )


def is_mae(metric):
    return metric.startswith("mae_") or metric == "true_mae"


@PROPERTY
@given(case=scored_sets(), power=st.integers(-4, 4))
def test_scaling_every_time_by_a_power_of_two_scales_only_the_mae_scores(case, power):
    ds, grid, rows = case
    factor = 2.0**power
    base = scores_of(ds, grid, rows)
    got = scores_of(scaled(ds, factor), grid * factor, rows)
    assert got.keys() == base.keys()
    for met, score in base.items():
        if score is None or met == "log_likelihood":
            continue
        assert got[met] == (score * factor if is_mae(met) else score), met
    # each event's density is divided by the factor
    if base["log_likelihood"] is not None and math.isfinite(base["log_likelihood"]):
        shift = np.count_nonzero(ds.events) / ds.n * math.log(factor)
        assert math.isclose(got["log_likelihood"], base["log_likelihood"] - shift, rel_tol=1e-12, abs_tol=1e-12)
    else:
        assert got["log_likelihood"] == base["log_likelihood"]
    # the experiment's folds, KM fits and noisy-oracle draws scale alike
    models = [parse_model_spec("km"), parse_model_spec("noisy:0.3")]
    want = run_experiment(ds, models, k=3, seed=power & 7).per_fold
    cells = run_experiment(scaled(ds, factor), models, k=3, seed=power & 7).per_fold
    for model, table in want.items():
        for met, folds in table.items():
            if met == "log_likelihood":
                continue
            expect = [s if s is None or not is_mae(met) else s * factor for s in folds]
            assert cells[model][met] == expect, (model, met)


def eval_bytes(data, curves):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", str(data), "--curves", str(curves)]) == 0
    return out.getvalue().encode()


@settings(PROPERTY, max_examples=30)
@given(case=scored_sets(), seed=st.integers(0, 2**32 - 1))
def test_a_curve_file_prints_the_same_bytes_in_any_row_order(case, seed):
    ds, grid, rows = case
    orders = {
        "in order": np.arange(ds.n),
        "reversed": np.arange(ds.n)[::-1],
        "shuffled": np.random.default_rng(seed).permutation(ds.n),
    }
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_dataset(ds, root / "data.csv")
        printed = set()
        for name, order in orders.items():
            save_curve_file(root / f"{name}.csv", grid, rows[order], indices=order)
            printed.add(eval_bytes(root / "data.csv", root / f"{name}.csv"))
    assert len(printed) == 1


@PROPERTY
@given(case=scored_sets(), seed=st.integers(0, 2**32 - 1))
def test_permuting_the_subjects_moves_no_score_past_the_summation_bound(case, seed):
    ds, grid, rows = case
    order = np.random.default_rng(seed).permutation(ds.n)
    base = scores_of(ds, grid, rows)
    got = scores_of(ds.subset(order), grid, rows[order])
    for met, score in base.items():
        if met == "one_calibration_p":
            continue
        if score is None or not math.isfinite(score):
            assert got[met] == score, met
        else:
            assert math.isclose(got[met], score, rel_tol=PERMUTED_RTOL, abs_tol=0.0), (met, got[met], score)


@PROPERTY
@given(case=scored_sets(), data=st.data())
def test_a_flat_knot_changes_no_curve_metric_but_the_log_likelihood(case, data):
    ds, grid, rows = case
    # a knot between two grid times with the value of the earlier, or before
    # the first with the value 1 that the curve has there
    at = data.draw(st.integers(0, grid.size - 1))
    if at == 0:
        knot, value = grid[0] / 2.0, np.ones(ds.n)
    else:
        knot, value = (grid[at - 1] + grid[at]) / 2.0, rows[:, at - 1]
    base = scores_of(ds, grid, rows)
    got = scores_of(ds, np.insert(grid, at, knot), np.insert(rows, at, value, axis=1))
    for met in ("ibs", "one_calibration_p", "d_calibration_p"):
        assert got[met] == base[met], met


@settings(PROPERTY, max_examples=40)
@given(case=scored_sets(), seed=st.integers(0, 2**16), extra=st.sampled_from(["noisy:0.5", "km", "coxph"]))
def test_appending_a_model_leaves_the_cells_of_the_models_before_it(case, seed, extra):
    ds, _, _ = case
    models = [parse_model_spec(spec) for spec in ("km", "noisy:0.3", "weibull_aft")]
    more = models + [parse_model_spec(extra)]
    want = run_experiment(ds, models, k=3, seed=seed).per_fold
    got = run_experiment(ds, more, k=3, seed=seed).per_fold
    for model, cells in want.items():
        assert got[model] == cells, model
