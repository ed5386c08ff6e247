"""Vectorized surrogate builders and the scipy-free statistics, against their oracles.

``margin_surrogates`` and ``ipcw_t_surrogates`` handle all censored subjects
in one pass; the per-subject loops they replaced are kept here as the slow
oracles. The margin surrogate adds its tail integral in another order, so it
is compared to 1e-12 relative; its weights and inclusion flags, and all of
``ipcw_t_surrogates``, must be equal exactly. Kendall's tau-b and the
chi-square tail are checked against ``scipy.stats``, which the package does
not import: tau-b exactly, the tail to 1e-12 relative and with its zeros at
the same points. The tail is also checked to 1e-14 relative against stored
40-digit values (``chi2_sf_table.py``).
"""

import decimal
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats as sps

import survmae
from chi2_sf_table import CHI2_SF_TABLE
from survmae import (
    SurvivalDataset,
    ipcw_t_surrogates,
    km_fit,
    margin_surrogates,
    noisy_oracle_predictions,
    one_calibration,
)
from survmae.harness import _kendall_tau_b
from survmae.mae import _uncensored_base
from survmae.metrics import _chi2_sf

PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ------------------------------------------------------- per-subject oracles


def oracle_margin_surrogates(ds, km_train):
    curve = km_train.curve
    surrogate, weight, included = _uncensored_base(ds)
    for i in np.nonzero(~ds.events)[0]:
        t_i = float(ds.times[i])
        s_i = curve.value(t_i)
        if s_i <= 0.0:
            surrogate[i] = t_i
            weight[i] = 1.0
            continue
        tail = curve.integrate(t_i, curve.t_last) if t_i < curve.t_last else 0.0
        surrogate[i] = t_i + tail / s_i
        weight[i] = 1.0 - s_i
    return surrogate, weight, included


def oracle_ipcw_t_surrogates(ds):
    surrogate, weight, included = _uncensored_base(ds)
    ev_times = np.sort(ds.times[ds.events])
    suffix = np.concatenate((np.cumsum(ev_times[::-1])[::-1], [0.0]))
    km = km_fit(ds.times, ds.events) if ev_times.size else None
    for i in np.nonzero(~ds.events)[0]:
        t_i = float(ds.times[i])
        pos = np.searchsorted(ev_times, t_i, side="right")
        later = ev_times.size - pos
        if later == 0:
            included[i] = False
            weight[i] = 0.0
            continue
        surrogate[i] = suffix[pos] / later
        weight[i] = 1.0 - km.curve.value(t_i)
    return surrogate, weight, included


def assert_margin_matches_oracle(ds, km_train):
    got = margin_surrogates(ds, km_train)
    surrogate, weight, included = oracle_margin_surrogates(ds, km_train)
    assert_allclose(got.surrogate, surrogate, rtol=1e-12, atol=0.0)
    assert_array_equal(got.weight, weight)
    assert_array_equal(got.included, included)


def assert_ipcw_t_matches_oracle(ds):
    got = ipcw_t_surrogates(ds)
    surrogate, weight, included = oracle_ipcw_t_surrogates(ds)
    assert_array_equal(got.surrogate, surrogate)
    assert_array_equal(got.weight, weight)
    assert_array_equal(got.included, included)


# ---------------------------------------------------------------- datasets

# a small pool of knots makes ties between subjects, and between the scored
# subjects and the training curve's knots, likely
_POOL = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0)
_TIME = st.one_of(
    st.sampled_from(_POOL),
    st.floats(0.01, 20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def datasets(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    times = draw(st.lists(_TIME, min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SurvivalDataset.from_arrays(times, events)


# the training curve falls to 0 at its last knot (4.0); censored subjects
# before its first knot, on a knot, between knots, on the last knot and
# after it
_TO_ZERO = SurvivalDataset.from_arrays(
    [1.0, 2.0, 2.0, 3.0, 4.0], [True, True, False, True, True]
)
# the training curve ends on a plateau above 0 (last subject censored)
_PLATEAU = SurvivalDataset.from_arrays(
    [1.0, 2.0, 3.0, 4.0, 6.0], [True, False, True, True, False]
)
_EDGES = SurvivalDataset.from_arrays(
    [0.5, 1.0, 2.0, 2.5, 4.0, 6.0, 7.0, 3.0],
    [False, False, False, False, False, False, False, True],
)


@pytest.mark.parametrize("train", [_TO_ZERO, _PLATEAU], ids=["to_zero", "plateau"])
def test_margin_edge_cases_match_oracle(train):
    km = km_fit(train.times, train.events)
    assert_margin_matches_oracle(_EDGES, km)


def test_margin_edge_cases_by_hand():
    km = km_fit(_TO_ZERO.times, _TO_ZERO.events)  # S = 0.8, 0.6, 0.3, 0 at 1-4
    got = margin_surrogates(_EDGES, km)
    # censored at 0.5, before the first knot: S = 1, area 0.5 + 0.8 + 0.6 + 0.3
    assert_allclose(got.surrogate[0], 0.5 + 2.2, rtol=1e-14)
    assert got.weight[0] == 0.0
    # censored at 2.5, between knots: area 0.6 * 0.5 + 0.3, over S = 0.6
    assert_allclose(got.surrogate[3], 2.5 + 0.6 / 0.6, rtol=1e-14)
    assert_allclose(got.weight[3], 0.4, rtol=1e-14)
    # censored on and after the last knot, where the curve is 0: its own time
    assert_array_equal(got.surrogate[[4, 5, 6]], [4.0, 6.0, 7.0])
    assert_array_equal(got.weight[[4, 5, 6]], 1.0)


def test_margin_after_last_knot_of_a_plateau_curve():
    km = km_fit(_PLATEAU.times, _PLATEAU.events)
    got = margin_surrogates(_EDGES, km)
    # on and after the last knot (6.0) the tail is empty: the surrogate is t
    assert_array_equal(got.surrogate[[5, 6]], [6.0, 7.0])
    assert_array_equal(got.weight[[5, 6]], 1.0 - km.curve.v_last)


@PROPERTY
@given(train=datasets(), test=datasets())
def test_margin_surrogates_match_oracle(train, test):
    assert_margin_matches_oracle(test, km_fit(train.times, train.events))


@PROPERTY
@given(ds=datasets())
@example(ds=_EDGES)
@example(ds=SurvivalDataset.from_arrays([1.0, 2.0], [False, False]))  # no event
@example(
    ds=SurvivalDataset.from_arrays([3.0, 1.0, 3.0, 2.0], [False, True, True, False])
)
def test_ipcw_t_surrogates_match_oracle(ds):
    assert_ipcw_t_matches_oracle(ds)


# ------------------------------------------------------------- Kendall tau-b


def scipy_tau(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(sps.kendalltau(x, y).statistic)


def assert_same_float(a, b):
    assert (math.isnan(a) and math.isnan(b)) or a == b, (a, b)


_SCORE = st.one_of(
    st.sampled_from((0.5, 1.0, 1.0 + 2**-52, 2.0, 3.0, np.inf)),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), m=st.integers(2, 12))
def test_kendall_tau_b_equals_scipy(data, m):
    x = data.draw(st.lists(_SCORE, min_size=m, max_size=m))
    y = data.draw(st.lists(_SCORE, min_size=m, max_size=m))
    assert_same_float(_kendall_tau_b(x, y), scipy_tau(x, y))


@pytest.mark.parametrize(
    "x,y",
    [
        ([1.0, 2.0], [3.0, 4.0]),
        ([1.0, 2.0], [4.0, 3.0]),
        ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),  # x tied throughout
        ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]),  # y tied throughout
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0]),
        ([1.0, 1.0, 2.0, 2.0, 3.0], [2.0, 1.0, 2.0, 2.0, 9.0]),
        ([np.inf, np.inf, 1.0], [2.0, 3.0, 1.0]),
    ],
)
def test_kendall_tau_b_cases_equal_scipy(x, y):
    assert_same_float(_kendall_tau_b(x, y), scipy_tau(x, y))


# ------------------------------------------------------------- chi-square tail


TINY = 2.2250738585072014e-308  # the smallest normal double


def assert_near_scipy(df, statistic):
    """``_chi2_sf`` within 1e-12 relative of scipy's tail, and 0.0 exactly
    where scipy's is 0.0."""
    got, want = _chi2_sf(statistic, df), float(sps.chi2.sf(statistic, df=df))
    assert (got == 0.0) == (want == 0.0), (df, statistic, got, want)
    if want >= TINY:
        assert abs(got - want) <= 1e-12 * want, (df, statistic, got, want)
    else:
        assert got < TINY, (df, statistic, got, want)


@pytest.mark.parametrize("df", [1, 2, 3, 5, 8, 9, 30])
@pytest.mark.parametrize(
    "statistic", [0.0, 1e-300, 1e-3, 0.5, 3.0, 17.5, 80.0, 1e3, 1e6, 1e300, np.inf]
)
def test_chi2_sf_equals_scipy(df, statistic):
    assert_near_scipy(df, statistic)


@settings(max_examples=300, deadline=None)
@given(
    df=st.integers(1, 60),
    statistic=st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
)
@example(df=1, statistic=5e-324)  # halves to 0.0
def test_chi2_sf_equals_scipy_property(df, statistic):
    assert_near_scipy(df, statistic)


def test_chi2_sf_matches_the_40_digit_table():
    normal = 0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for df, x, q in CHI2_SF_TABLE:
            got, want = _chi2_sf(x, df), decimal.Decimal(q)
            if want >= TINY:
                normal += 1
                error = abs(decimal.Decimal(got) - want) / want
                assert error <= decimal.Decimal("1e-14"), (df, x, got, q)
            else:
                assert got < TINY, (df, x, got, q)
    assert normal > 1000


@pytest.mark.parametrize("df", range(1, 10))
def test_chi2_sf_underflows_to_zero_where_scipy_does(df):
    # the tail leaves the doubles between x = 1425 (df 1) and 1474 (df 9)
    xs = np.linspace(1420.0, 1480.0, 6001)
    got = np.array([_chi2_sf(x, df) for x in xs.tolist()])
    want = sps.chi2.sf(xs, df=df)
    assert_array_equal(got == 0.0, want == 0.0)
    assert (got == 0.0).any() and (got > 0.0).any()
    normal = want >= TINY
    assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("df", [1, 2, 9, 60])
def test_chi2_sf_edges(df):
    assert math.isnan(_chi2_sf(math.nan, df))
    assert _chi2_sf(0.0, df) == _chi2_sf(-1.0, df) == _chi2_sf(-math.inf, df) == 1.0
    assert _chi2_sf(math.inf, df) == 0.0


@pytest.mark.parametrize(
    "df, x, q",  # q from mpmath at 50 digits
    [
        (700, 2000.0, 2.2063535914621017e-125),
        (1200, 2900.0, 6.9084348630494246e-142),
        (2000, 2000.0, 0.49579475581978449),
    ],
)
def test_chi2_sf_holds_at_a_large_df(df, x, q):
    # past x = 1416 the factor e^(-x/2) comes in pieces, so no term overflows
    assert_allclose(_chi2_sf(x, df), q, rtol=1e-14)


def test_chi2_sf_without_degrees_of_freedom_is_nan():
    assert math.isnan(_chi2_sf(3.0, 0))
    assert math.isnan(float(sps.chi2.sf(3.0, df=0)))


def test_one_calibration_with_two_bins_has_nan_p_value():
    rng = np.random.default_rng(4)
    times = rng.uniform(0.5, 10.0, 40)
    events = rng.random(40) < 0.7
    truths = np.where(events, times, times + 1.0)
    ds = SurvivalDataset.from_arrays(times, events, true_times=truths)
    curves = noisy_oracle_predictions(ds, 0.3, seed=1)
    res = one_calibration(curves, ds, float(np.median(times)), n_bins=2)
    assert math.isfinite(res.statistic)
    assert math.isnan(res.p_value)


# ------------------------------------------------------------ import weight


def test_import_does_not_load_scipy_stats(tmp_path):
    # nor any other part of scipy, which the package runs without: in a
    # process where importing scipy fails, `eval` and an experiment give both
    # p-values. orjson comes with the first file read, not with the import.
    rng = np.random.default_rng(3)
    times = rng.uniform(0.5, 10.0, 60)
    events = rng.random(60) < 0.7
    ds = SurvivalDataset.from_arrays(times, events, true_times=np.where(events, times, times + 1.0))
    data, curves = tmp_path / "data.csv", tmp_path / "curves.csv"
    survmae.save_dataset(ds, data)
    grid = np.linspace(0.0, 12.0, 25)
    survmae.save_curve_file(curves, grid, np.exp(-np.outer(rng.uniform(0.05, 0.3, 60), grid)))
    code = (
        "import json, sys; sys.modules['scipy'] = None; "
        "import survmae, survmae.cli; assert 'orjson' not in sys.modules; "
        f"assert survmae.cli.main(['eval', {str(data)!r}, '--curves', {str(curves)!r}]) == 0; "
        "assert 'orjson' in sys.modules; "
        f"ds = survmae.load_dataset({str(data)!r}); "
        "report = survmae.run_experiment(ds, [survmae.parse_model_spec('noisy:0.2')], k=3); "
        "print(json.dumps(report.mean_scores)); "
        "loaded = [m for m, v in sys.modules.items() if m.split('.')[0] == 'scipy' and v]; "
        "assert not loaded, loaded"
    )
    src = str(Path(survmae.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stdout + result.stderr
    decoder = json.JSONDecoder()
    scores, at = decoder.raw_decode(result.stdout)  # the eval report
    (means,) = json.loads(result.stdout[at:]).values()  # the experiment's one model
    for p_values in (scores, means):
        for name in ("one_calibration_p", "d_calibration_p"):
            assert 0.0 <= p_values[name] <= 1.0, (name, p_values)
