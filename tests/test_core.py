"""Tests for datasets, step curves, folds, and CSV round-trips."""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_censored_dataset
from survmae import (
    ConfigurationError,
    DataFormatError,
    DegenerateCurveError,
    InsufficientEventsError,
    StepCurve,
    SurvivalDataset,
    dataset_stats,
    load_dataset,
    save_dataset,
    stratified_kfold,
)


# --------------------------------------------------------------- datasets


def test_from_arrays_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        SurvivalDataset.from_arrays([0.0], [True])
    with pytest.raises(ValueError):
        SurvivalDataset.from_arrays([-1.0], [False])


def test_from_arrays_checks_truth_consistency():
    SurvivalDataset.from_arrays([2.0], [True], true_times=[2.0])
    SurvivalDataset.from_arrays([2.0], [False], true_times=[5.0])
    SurvivalDataset.from_arrays([2.0], [False], true_times=[2.0])
    with pytest.raises(ValueError):
        SurvivalDataset.from_arrays([2.0], [True], true_times=[3.0])
    with pytest.raises(ValueError):
        SurvivalDataset.from_arrays([2.0], [False], true_times=[1.0])


@pytest.mark.parametrize(
    "event,truth,fragment",
    [
        (True, 3.0, "subject 2: uncensored record must have true_event_time equal"),
        (True, 1.0, "subject 2: uncensored record must have true_event_time equal"),
        (False, 1.0, "subject 2: censored record must have true_event_time >="),
    ],
)
def test_truth_break_names_its_subject(event, truth, fragment):
    times = [1.0, 2.0, 2.0, 4.0]
    events = [True, False, event, True]
    truths = [1.0, 5.0, truth, 4.0]
    with pytest.raises(ValueError, match=fragment):
        SurvivalDataset.from_arrays(times, events, true_times=truths)


def test_dataset_arrays_and_subset():
    ds = SurvivalDataset.from_arrays(
        times=[1.0, 2.0, 3.0],
        events=[True, False, True],
        features=[[0.1, 1.0], [0.2, 2.0], [0.3, 3.0]],
        feature_names=("a", "b"),
    )
    assert ds.n == 3
    assert_array_equal(ds.times, [1.0, 2.0, 3.0])
    assert_array_equal(ds.events, [True, False, True])
    assert ds.feature_matrix.shape == (3, 2)
    assert ds.true_times is None

    sub = ds.subset([2, 0])
    assert_array_equal(sub.times, [3.0, 1.0])
    assert_array_equal(sub.feature_matrix[:, 1], [3.0, 1.0])
    assert sub.feature_names == ("a", "b")


def test_dataset_with_truths():
    ds = SurvivalDataset.from_arrays(
        times=[1.0, 2.0], events=[True, False], true_times=[1.0, 4.0]
    )
    assert_array_equal(ds.true_times, [1.0, 4.0])
    # truths survive subsetting
    assert_array_equal(ds.subset([1]).true_times, [4.0])


def test_dataset_rejects_empty_and_misnamed_features():
    with pytest.raises(ValueError):
        SurvivalDataset(np.empty(0), np.empty(0, dtype=bool), np.empty((0, 0)))
    with pytest.raises(ValueError):
        SurvivalDataset([1.0], [True], [[1.0]], feature_names=("a", "b"))


# ------------------------------------------------------------------ stats


def test_dataset_stats_example():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, False, True])
    st = dataset_stats(ds)
    assert st.n == 3
    assert_allclose(st.censor_rate, 1.0 / 3.0)
    assert st.t_max_event == 3.0
    assert st.t_median_event == 2.0
    assert_allclose(st.sigma_event, np.sqrt(2.0))


def test_dataset_stats_all_uncensored():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 5.0], [True, True, True])
    assert dataset_stats(ds).censor_rate == 0.0


def test_dataset_stats_needs_two_events():
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [True, False])
    with pytest.raises(InsufficientEventsError):
        dataset_stats(ds)


def test_dataset_stats_matches_stdlib():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ds = random_censored_dataset(rng)
        if ds.events.sum() < 2:
            continue
        st = dataset_stats(ds)
        ev = sorted(ds.times[ds.events].tolist())
        assert_allclose(st.t_median_event, statistics.median(ev))
        assert_allclose(st.sigma_event, statistics.stdev(ev))
        assert st.t_max_event == max(ev)
        assert_allclose(st.censor_rate, 1.0 - len(ev) / ds.n)


# ------------------------------------------------------------ step curves


def test_step_value_frozen():
    c = StepCurve(knots=[0.0, 2.0, 5.0], values=[1.0, 0.5, 0.2])
    assert c.value(1.9) == 1.0
    assert c.value(2.0) == 0.5
    assert c.value(6.0) == 0.2
    assert c.value(0.0) == 1.0
    single = StepCurve(knots=[0.0], values=[1.0])
    assert single.value(0.0) == 1.0


def test_step_value_before_first_knot_is_one():
    c = StepCurve(knots=[1.0, 2.0], values=[0.8, 0.3])
    assert c.value(0.5) == 1.0
    assert c.value(1.0) == 0.8


def test_step_value_array_input():
    c = StepCurve(knots=[1.0, 2.0, 4.0], values=[0.8, 0.5, 0.2])
    out = c.value(np.array([0.0, 1.0, 3.0, 9.0]))
    assert_array_equal(out, [1.0, 0.8, 0.5, 0.2])


def test_step_value_before():
    c = StepCurve(knots=[1.0, 2.0, 4.0], values=[0.8, 0.5, 0.2])
    assert c.value_before(1.0) == 1.0
    assert c.value_before(2.0) == 0.8
    assert c.value_before(2.5) == 0.5
    assert c.value_before(4.0) == 0.5
    assert c.value_before(9.0) == 0.2
    assert_array_equal(c.value_before(np.array([0.0, 4.0])), [1.0, 0.5])


def test_step_negative_time_rejected():
    c = StepCurve(knots=[1.0], values=[0.5])
    with pytest.raises(ValueError):
        c.value(-0.1)
    with pytest.raises(ValueError):
        c.value_before(-0.1)


def test_step_integrate_frozen():
    c = StepCurve(knots=[0.0, 2.0, 5.0], values=[1.0, 0.5, 0.2])
    assert_allclose(c.integrate(0.0, 5.0), 3.5)
    assert_allclose(c.integrate(0.0, 6.0), 3.7)
    assert c.integrate(3.0, 3.0) == 0.0
    # partial span inside one step
    assert_allclose(c.integrate(2.5, 4.0), 0.5 * 1.5)


def test_step_integrate_additivity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        knots = np.cumsum(rng.uniform(0.1, 1.0, 6))
        values = np.sort(rng.uniform(0.0, 1.0, 6))[::-1]
        c = StepCurve(knots=knots, values=values)
        a, b, d = np.sort(rng.uniform(0.0, knots[-1] * 1.5, 3))
        assert_allclose(
            c.integrate(a, d), c.integrate(a, b) + c.integrate(b, d), atol=1e-12
        )


def test_step_integrate_bad_range():
    c = StepCurve(knots=[1.0], values=[0.5])
    with pytest.raises(ValueError):
        c.integrate(2.0, 1.0)
    with pytest.raises(ValueError):
        c.integrate(-1.0, 1.0)


def test_median_first_crossing():
    c = StepCurve(knots=[1.0, 2.0, 4.0], values=[0.8, 0.5, 0.2])
    assert c.median_time() == 2.0  # first knot at or below one half


def test_median_extrapolated():
    # never reaches one half: chord through (0,1) and (10, 0.6) hits 0.5 at 12.5
    c = StepCurve(knots=[4.0, 10.0], values=[0.8, 0.6])
    assert_allclose(c.median_time(), 12.5)


def test_median_degenerate():
    c = StepCurve(knots=[3.0], values=[1.0])
    with pytest.raises(DegenerateCurveError):
        c.median_time()


def test_mean_with_plateau_extension():
    # area 3 over [0,4], then the tail triangle from (4,0.5) down to (8,0)
    c = StepCurve(knots=[0.0, 2.0, 4.0], values=[1.0, 0.5, 0.5])
    assert_allclose(c.mean_time(), 4.0)


def test_mean_without_plateau():
    c = StepCurve(knots=[1.0, 3.0], values=[0.5, 0.0])
    assert_allclose(c.mean_time(), 1.0 + 0.5 * 2.0)


def test_mean_degenerate():
    c = StepCurve(knots=[3.0], values=[1.0])
    with pytest.raises(DegenerateCurveError):
        c.mean_time()


@pytest.mark.parametrize(
    "knots,values",
    [
        ([2.0, 1.0], [1.0, 0.5]),  # knots not increasing
        ([1.0, 1.0], [1.0, 0.5]),  # duplicate knot
        ([-1.0, 1.0], [1.0, 0.5]),  # negative knot
        ([1.0, 2.0], [0.5, 0.8]),  # values increasing
        ([1.0], [1.5]),  # value above 1
        ([1.0], [-0.1]),  # value below 0
        ([], []),  # empty
        ([1.0, 2.0], [1.0]),  # length mismatch
    ],
)
def test_curve_validation_errors(knots, values):
    with pytest.raises(ValueError):
        StepCurve(knots=np.asarray(knots), values=np.asarray(values))


def test_curve_value_monotone_in_time():
    rng = np.random.default_rng(8)
    for _ in range(20):
        knots = np.cumsum(rng.uniform(0.1, 1.0, 8))
        values = np.sort(rng.uniform(0.0, 1.0, 8))[::-1]
        c = StepCurve(knots=knots, values=values)
        ts = np.sort(rng.uniform(0.0, knots[-1] * 1.2, 40))
        vals = c.value(ts)
        assert np.all(np.diff(vals) <= 1e-15)


# ----------------------------------------------------------------- folds


def test_kfold_is_partition():
    rng = np.random.default_rng(3)
    for _ in range(40):
        ds = random_censored_dataset(rng, n=int(rng.integers(10, 80)))
        k = int(rng.integers(2, 6))
        split = stratified_kfold(ds, k=k, seed=int(rng.integers(1000)))
        assert split.k == k
        all_idx = np.concatenate(split.folds)
        assert sorted(all_idx.tolist()) == list(range(ds.n))
        sizes = [f.size for f in split.folds]
        assert max(sizes) - min(sizes) <= 1
        for f in range(k):
            train = split.train_indices(f)
            assert np.intersect1d(train, split.folds[f]).size == 0
            assert train.size + split.folds[f].size == ds.n


def test_kfold_exact_censor_balance():
    # 100 records, half censored, 5 folds: every fold is exactly half censored
    rng = np.random.default_rng(4)
    times = rng.uniform(0.5, 20.0, 100)
    events = np.array([True, False] * 50)
    ds = SurvivalDataset.from_arrays(times, events)
    split = stratified_kfold(ds, k=5, seed=9)
    for fold in split.folds:
        assert fold.size == 20
        assert np.sum(~ds.events[fold]) == 10


def test_kfold_deterministic():
    rng = np.random.default_rng(6)
    ds = random_censored_dataset(rng, n=40)
    a = stratified_kfold(ds, k=4, seed=123)
    b = stratified_kfold(ds, k=4, seed=123)
    for fa, fb in zip(a.folds, b.folds):
        assert_array_equal(fa, fb)


def test_kfold_bad_config():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, True, True])
    with pytest.raises(ConfigurationError):
        stratified_kfold(ds, k=1, seed=0)
    with pytest.raises(ConfigurationError):
        stratified_kfold(ds, k=4, seed=0)


def oracle_stratified_kfold(ds, k, seed, time_bins):
    """The folds dealt one subject at a time: each stratum is shuffled, then
    its subjects go round-robin with a cursor that runs across strata."""
    edges = np.quantile(ds.times, np.arange(1, time_bins) / time_bins)
    bins = np.searchsorted(edges, ds.times, side="right")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    cursor = 0
    for flag in (False, True):
        for b in range(time_bins):
            members = np.nonzero((ds.events == flag) & (bins == b))[0]
            if members.size == 0:
                continue
            for idx in rng.permutation(members):
                folds[cursor % k].append(int(idx))
                cursor += 1
    return [np.array(sorted(f), dtype=int) for f in folds]


@st.composite
def fold_cases(draw):
    """A dataset, k and time_bins. Times from a few values and events that
    may all agree leave strata empty; k runs up to n."""
    n = draw(st.integers(2, 40))
    times = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5, 7.0]), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    k = draw(st.one_of(st.just(n), st.integers(2, n)))
    return SurvivalDataset.from_arrays(times, events), k, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(case=fold_cases(), seed=st.integers(0, 2**32))
def test_kfold_equals_the_per_subject_deal(case, seed):
    ds, k, time_bins = case
    got = stratified_kfold(ds, k=k, seed=seed, time_bins=time_bins).folds
    want = oracle_stratified_kfold(ds, k, seed, time_bins)
    assert [(f.dtype, f.tobytes()) for f in got] == [(f.dtype, f.tobytes()) for f in want]


# ------------------------------------------------------------------- csv


def test_load_dataset_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event,f1\n1.0,1,0.2\n2.0,0,0.5\n")
    ds = load_dataset(p)
    assert ds.n == 2
    assert ds.events[0] and ds.times[0] == 1.0
    assert not ds.events[1]
    assert ds.feature_names == ("f1",)
    assert_array_equal(ds.feature_matrix[:, 0], [0.2, 0.5])
    assert ds.true_times is None


def test_load_dataset_with_truth_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event,true_time\n1.0,1,1.0\n2.0,0,4.0\n")
    ds = load_dataset(p)
    assert_array_equal(ds.true_times, [1.0, 4.0])
    assert ds.feature_names == ()  # true_time is not a feature


def test_load_dataset_custom_columns(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("duration,status\n3.5,1\n")
    ds = load_dataset(p, time_column="duration", event_column="status")
    assert ds.times[0] == 3.5


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    times = rng.uniform(0.1, 9.0, 25)
    events = rng.random(25) < 0.6
    truths = np.where(events, times, times + rng.uniform(0.0, 3.0, 25))
    feats = rng.normal(size=(25, 3))
    ds = SurvivalDataset.from_arrays(
        times, events, features=feats, true_times=truths, feature_names=("u", "v", "w")
    )
    p = tmp_path / "round.csv"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert back.feature_names == ("u", "v", "w")
    assert_array_equal(back.times, ds.times)
    assert_array_equal(back.events, ds.events)
    assert_array_equal(back.true_times, ds.true_times)
    assert_array_equal(back.feature_matrix, ds.feature_matrix)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("time,event\nx,1\n", "line 2"),  # bad float
        ("time,event\n1.0,2\n", "event flag"),  # bad event value
        ("time,event\n1.0,1\n0.0,1\n", "line 3"),  # nonpositive time
        ("time,event\n1.0\n", "expected 2 fields"),  # ragged row
        ("time,event,true_time\n2.0,0,1.0\n", "line 2"),  # truth below censor time
        ("t,event\n1.0,1\n", "'time'"),  # missing time column
        ("time,event\n", "no data rows"),
        ("", "empty"),
    ],
)
def test_load_dataset_errors(tmp_path, body, fragment):
    p = tmp_path / "bad.csv"
    p.write_text(body)
    with pytest.raises(DataFormatError) as err:
        load_dataset(p)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "body,columns,message",
    [
        ("time,event,time\n1.0,1,2.0\n", {}, "line 1: column 'time' appears more than once"),
        ("time,event,x,x\n1.0,1,2.0,3.0\n", {}, "line 1: column 'x' appears more than once"),
        (
            "time,event,true_time,true_time\n1.0,1,1.0,1.0\n",
            {},
            "line 1: column 'true_time' appears more than once",
        ),
        (
            "time,event\n1.0,1\n",
            {"event_column": "time"},
            "line 1: column 'time' cannot be both time and event",
        ),
    ],
)
def test_load_dataset_rejects_ambiguous_header(tmp_path, body, columns, message):
    p = tmp_path / "ambiguous.csv"
    p.write_text(body)
    with pytest.raises(DataFormatError) as err:
        load_dataset(p, **columns)
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "row,column",
    [
        ("{},1,{},0.5", "time"),  # event row: true_time equals time below
        ("{},0,9.0,0.5", "time"),
        ("2.0,0,{},0.5", "true_time"),  # censored row
        ("2.0,1,2.0,{}", "f1"),
    ],
)
def test_load_dataset_rejects_non_finite(tmp_path, text, row, column):
    p = tmp_path / "bad.csv"
    p.write_text("time,event,true_time,f1\n1.0,1,1.0,0.2\n" + row.format(text, text) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(p)
    assert "line 3" in str(err.value)
    assert repr(column) in str(err.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["times", "true_times", "features"])
def test_from_arrays_rejects_non_finite(value, column):
    arrays = {
        "times": np.array([1.0, 2.0, 3.0, 4.0]),
        "events": np.array([True, False, False, True]),
        "true_times": np.array([1.0, 5.0, 6.0, 4.0]),
        "features": np.zeros((4, 2)),
    }
    if column == "features":
        arrays["features"][2, 1] = value
    else:
        arrays[column][2] = value
    with pytest.raises(ValueError, match="subject 2: non-finite"):
        SurvivalDataset.from_arrays(**arrays)
    with pytest.raises(ValueError, match="subject 2: non-finite"):
        SurvivalDataset(
            arrays["times"],
            arrays["events"],
            arrays["features"],
            arrays["true_times"],
            ("a", "b"),
        )
