"""The columnar ``SurvivalDataset`` and the synth steps, against a per-subject oracle.

The dataset holds its subjects as parallel arrays. ``subset``,
``keep_uncensored``, ``flip_censor_bits`` and ``apply_censoring`` work on whole
columns; the oracle below restates each of them one subject at a time, as
tuples ``(time, event, true time or None, features)``, and the columnar
results must match it bit for bit. ``save_dataset`` must write the same bytes
as a writer that formats one subject at a time.
"""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survmae import (
    DataFormatError,
    SurvivalDataset,
    apply_censoring,
    flip_censor_bits,
    keep_uncensored,
    load_dataset,
    save_dataset,
)

PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ------------------------------------------------------- per-subject oracle


def subjects(ds):
    truths = [None] * ds.n if ds.true_times is None else ds.true_times.tolist()
    return list(zip(ds.times.tolist(), ds.events.tolist(), truths, map(tuple, ds.feature_matrix.tolist())))


def oracle_subset(rows, indices):
    return [rows[i] for i in indices]


def oracle_keep_uncensored(rows):
    return [(t, True, t, x) for t, e, _, x in rows if e]


def oracle_flip_censor_bits(rows):
    return [(t, not e, None, x) for t, e, _, x in rows]


def oracle_apply_censoring(rows, censor_times):
    out = []
    for (t, e, truth, x), c in zip(rows, censor_times):
        truth = t if truth is None else truth
        out.append((c, False, truth, x) if c < t else (t, True, truth, x))
    return out


def assert_same_subjects(ds, rows, names):
    assert subjects(ds) == rows
    assert ds.feature_names == names
    assert (ds.true_times is None) == (rows[0][2] is None)
    assert ds.times.dtype == float and ds.events.dtype == bool


# -------------------------------------------------------------- strategies

# few distinct times, so that ties between subjects and with censor times are common
TIMES = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.25, 7.0])


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 25))
    d = draw(st.integers(0, 2))
    times = np.array(draw(st.lists(TIMES, min_size=n, max_size=n)))
    events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    feats = np.array(
        draw(st.lists(st.floats(-1e6, 1e6), min_size=n * d, max_size=n * d))
    ).reshape(n, d)
    truths = None
    if draw(st.booleans()):
        extra = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 4.0]), min_size=n, max_size=n)))
        truths = np.where(events, times, times + extra)
    names = tuple(f"f{j}" for j in range(d))
    return SurvivalDataset(times, events, feats, truths, names)


def censor_times_for(draw, ds):
    # draws from the same few values, so a censor time often equals its subject's time
    return np.array(draw(st.lists(TIMES, min_size=ds.n, max_size=ds.n)))


# -------------------------------------------------------------- properties


@PROPERTY
@given(ds=datasets(), data=st.data())
def test_subset_matches_the_oracle(ds, data):
    indices = data.draw(st.lists(st.integers(0, ds.n - 1), min_size=1, max_size=30))
    assert_same_subjects(ds.subset(indices), oracle_subset(subjects(ds), indices), ds.feature_names)


@PROPERTY
@given(ds=datasets())
def test_keep_uncensored_matches_the_oracle(ds):
    if not ds.events.any():
        return
    assert_same_subjects(keep_uncensored(ds), oracle_keep_uncensored(subjects(ds)), ds.feature_names)


@PROPERTY
@given(ds=datasets())
def test_flip_censor_bits_matches_the_oracle(ds):
    assert_same_subjects(flip_censor_bits(ds), oracle_flip_censor_bits(subjects(ds)), ds.feature_names)


@PROPERTY
@given(ds=datasets(), data=st.data())
def test_apply_censoring_matches_the_oracle(ds, data):
    censor = censor_times_for(data.draw, ds)
    rows = oracle_apply_censoring(subjects(ds), censor.tolist())
    if any(e and truth != t for t, e, truth, _ in rows):
        # a censored subject with a later truth cannot become an event
        with pytest.raises(ValueError, match="uncensored record must have"):
            apply_censoring(ds, censor)
        return
    assert_same_subjects(apply_censoring(ds, censor), rows, ds.feature_names)


# ---------------------------------------------------------------- csv i/o


def oracle_save_dataset(ds, path):
    header = ["time", "event"] + (["true_time"] if ds.true_times is not None else [])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + list(ds.feature_names))
        for i in range(ds.n):
            row = [repr(float(ds.times[i])), str(int(ds.events[i]))]
            if ds.true_times is not None:
                row.append(repr(float(ds.true_times[i])))
            row.extend(repr(float(v)) for v in ds.feature_matrix[i])
            writer.writerow(row)


@PROPERTY
@given(ds=datasets())
def test_save_dataset_writes_the_per_row_bytes(ds, tmp_path_factory):
    folder = tmp_path_factory.mktemp("save")
    save_dataset(ds, folder / "columnar.csv")
    oracle_save_dataset(ds, folder / "rows.csv")
    assert (folder / "columnar.csv").read_bytes() == (folder / "rows.csv").read_bytes()
    back = load_dataset(folder / "columnar.csv")
    assert_same_subjects(back, subjects(ds), ds.feature_names)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("time,event\n0.0,1\nx,1\n", "line 2: observed time must be positive"),
        ("time,event\nx,1\n0.0,1\n", "line 2: non-numeric value 'x'"),
        ("time,event,true_time\n1.0,1,1.0\n2.0,0,1.0\n1.0,2,1.0\n", "line 3: censored record"),
        ("time,event,f\n1.0,1,0.0\n-1.0,1,x\n", "line 3: non-numeric value 'x'"),
    ],
)
def test_load_dataset_names_the_first_bad_line(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DataFormatError, match=fragment):
        load_dataset(path)


# ----------------------------------------------------------------- columns


def test_columns_are_read_only_copies():
    times = np.array([1.0, 2.0])
    ds = SurvivalDataset.from_arrays(times, [True, False])
    times[0] = 5.0
    assert ds.times.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        ds.times[0] = 3.0


def test_constructor_checks_column_shapes():
    with pytest.raises(ValueError, match="same length"):
        SurvivalDataset([1.0, 2.0], [True], np.empty((2, 0)))
    with pytest.raises(ValueError, match="one time per subject"):
        SurvivalDataset([1.0, 2.0], [True, True], np.empty((2, 0)), [1.0])
    with pytest.raises(ValueError, match="one column per feature name"):
        SurvivalDataset([1.0, 2.0], [True, True], np.zeros((2, 1)))


def test_first_subject_wins_across_rules():
    # subject 1 breaks the positivity rule, subject 3 the finiteness rule
    with pytest.raises(ValueError, match="subject 1: observed time must be positive, got 0.0"):
        SurvivalDataset.from_arrays([1.0, 0.0, 2.0, np.inf], [True] * 4)
