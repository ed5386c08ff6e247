"""Tests for CurveBatch: validation, lookups, extraction and the batched metrics.

The per-subject ``StepCurve`` path is the slow oracle: every batched result
must equal it exactly (``np.array_equal``), on shared-grid, per-row and
ragged batches. The calibration oracles test the binning, so they take
their chi-square tail from ``_chi2_sf``, which ``test_vectorized_scoring``
checks on its own.
"""

import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from survmae import (
    BinningError,
    CurveBatch,
    CurveTable,
    DataFormatError,
    DegenerateCurveError,
    DegenerateScoreWarning,
    InvalidCurveError,
    StepCurve,
    SurvivalDataset,
    UndefinedMetricError,
    brier_score_at,
    censoring_km_fit,
    core,
    cox_survival_curve,
    coxph_fit,
    d_calibration,
    extract_predicted_times,
    integrated_brier_score,
    km_fit,
    load_curve_file,
    log_likelihood,
    metrics,
    noisy_oracle_predictions,
    one_calibration,
)
from survmae.core import _batch_passes, _first_bad_row, _scan_bad_row
from survmae.harness import _PROB_GRID, _REL_KNOTS
from survmae.metrics import _chi2_sf

PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ------------------------------------------------------- per-subject oracles


def oracle_brier(curves, ds, t_star, g_train):
    s_star = np.array([c.value(t_star) for c in curves])
    dead = (ds.times <= t_star) & ds.events
    alive = ds.times > t_star
    g_dead = g_train.curve.value_before(ds.times)
    g_alive = g_train.curve.value(t_star)
    usable_dead = dead & (g_dead > 0.0)
    usable_alive = alive & (g_alive > 0.0)
    if (dead | alive).any() and not (usable_dead.any() or usable_alive.any()):
        raise UndefinedMetricError("all subjects lost their censoring weight")
    total = float(np.sum(s_star[usable_dead] ** 2 / g_dead[usable_dead]))
    if usable_alive.any():
        total += float(np.sum((1.0 - s_star[usable_alive]) ** 2) / g_alive)
    return total / ds.n


def oracle_ibs(curves, ds, g_train, grid_size, t_max):
    if grid_size == 1:
        return oracle_brier(curves, ds, t_max, g_train)
    grid = np.linspace(0.0, t_max, grid_size)
    s_matrix = np.stack([c.value(grid) for c in curves])
    g_dead = g_train.curve.value_before(ds.times)[:, None]
    g_grid = g_train.curve.value(grid)[None, :]
    dead = (ds.times[:, None] <= grid[None, :]) & ds.events[:, None]
    alive = ds.times[:, None] > grid[None, :]
    usable_dead = dead & (g_dead > 0.0)
    usable_alive = alive & (g_grid > 0.0)
    needy = (dead | alive).any(axis=0)
    covered = (usable_dead | usable_alive).any(axis=0)
    if np.any(needy & ~covered):
        raise UndefinedMetricError("all subjects lost their censoring weight")
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(usable_dead, s_matrix**2 / g_dead, 0.0)
        contrib += np.where(usable_alive, (1.0 - s_matrix) ** 2 / g_grid, 0.0)
    scores = contrib.sum(axis=0) / ds.n
    area = float(np.sum((scores[:-1] + scores[1:]) / 2.0 * np.diff(grid)))
    return area / t_max


def oracle_piece(curve, t):
    """``curve.value(t)`` at a time ``t > 0``, and the mass the curve drops
    over the bin that holds ``t`` and that bin's width. The bin edges are
    the knots, led by 0 unless the first knot is 0; past the last edge there
    is no bin: no mass, infinite width."""
    edges = curve.knots if curve.knots[0] == 0.0 else np.concatenate(([0.0], curve.knots))
    j = np.searchsorted(edges, t, side="left")
    assert j > 0, "times are positive"
    if j >= edges.size:
        return curve.value(t), 0.0, np.inf
    return curve.value(t), curve.value(edges[j - 1]) - curve.value(edges[j]), edges[j] - edges[j - 1]


def oracle_log_likelihood(curves, ds):
    contributions = np.empty(ds.n)
    for i, curve in enumerate(curves):
        s_i, mass, width = oracle_piece(curve, float(ds.times[i]))
        if not ds.events[i]:
            contributions[i] = -np.inf if s_i <= 0.0 else np.log(s_i)
        else:
            contributions[i] = -np.inf if mass <= 0.0 else np.log(mass / width)
    return float(np.mean(contributions))


def oracle_one_calibration(curves, ds, t_star, n_bins):
    s_star = np.array([c.value(t_star) for c in curves])
    groups = np.array_split(np.argsort(s_star, kind="stable"), n_bins)
    statistic = 0.0
    table = []
    for g in groups:
        n_g = g.size
        expected = float(np.sum(1.0 - s_star[g]))
        observed = n_g * (1.0 - km_fit(ds.times[g], ds.events[g]).curve.value(t_star))
        table.append((expected, observed))
        if expected <= 0.0:
            expected = 0.5
        elif expected >= n_g:
            expected = n_g - 0.5
        statistic += (observed - expected) ** 2 / (expected * (1.0 - expected / n_g))
    return float(statistic), _chi2_sf(statistic, n_bins - 2), tuple(table)


def oracle_d_calibration(curves, ds, n_bins):
    width = 1.0 / n_bins
    masses = np.zeros(n_bins)
    for i, curve in enumerate(curves):
        p = curve.value(float(ds.times[i]))
        if ds.events[i]:
            masses[min(int(p * n_bins), n_bins - 1)] += 1.0
            continue
        if p <= 0.0:
            masses[0] += 1.0
            continue
        top = min(int(p * n_bins), n_bins - 1)
        masses[:top] += width / p
        masses[top] += (p - top * width) / p
    expected = ds.n / n_bins
    statistic = float(np.sum((masses - expected) ** 2 / expected))
    return statistic, _chi2_sf(statistic, n_bins - 1), tuple(
        (expected, float(m)) for m in masses
    )


def outcome(fn, *args):
    """A call's result, or the type of the error it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateScoreWarning)
            return fn(*args)
    except ValueError as exc:
        return type(exc)


def assert_same(a, b):
    """Exact equality of floats, arrays and tuples thereof (NaN equals NaN)."""
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, type):
        assert a is b
    else:
        assert np.array_equal(a, b, equal_nan=True), (a, b)


# ------------------------------------------------------------- strategies

# knots, times and values on coarse grids, so that ties between query times
# and knots, values of exactly 0, 1/2 and 1, and flat curves all occur
KNOT_STEP = 0.25
LEVELS = (0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0)


@st.composite
def knot_rows(draw, max_size=7):
    ticks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=max_size, unique=True))
    return np.sort(np.array(ticks, dtype=float)) * KNOT_STEP


@st.composite
def value_rows(draw, size):
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=size, max_size=size))
    return np.sort(np.array(levels))[::-1].copy()


@st.composite
def curve_lists(draw, n=None):
    """Per-subject StepCurves: one shared grid, or knots of each subject's own."""
    if n is None:
        n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        knots = draw(knot_rows())
        rows = [knots] * n
    else:
        rows = [draw(knot_rows()) for _ in range(n)]
    return [StepCurve(knots=k, values=draw(value_rows(k.size))) for k in rows]


@st.composite
def curves_and_data(draw):
    n = draw(st.integers(2, 12))
    curves = draw(curve_lists(n=n))
    times = np.array(draw(st.lists(st.integers(1, 45), min_size=n, max_size=n))) * KNOT_STEP
    events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return curves, SurvivalDataset.from_arrays(times, events)


def query_times(draw, curves):
    """One query time per curve: 0, one of its knots, or a point on the grid."""
    out = []
    for c in curves:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            out.append(0.0)
        elif choice == 1:
            out.append(float(draw(st.sampled_from(c.knots.tolist()))))
        else:
            out.append(draw(st.integers(0, 45)) * KNOT_STEP / 2)
    return np.array(out)


# ---------------------------------------------------------- non-finite input

NON_FINITE = [
    pytest.param([np.nan], [0.5], id="nan-knot"),
    pytest.param([1.0, 2.0], [0.5, np.nan], id="nan-value"),
    pytest.param([1.0, np.inf], [0.5, 0.2], id="inf-knot"),
]


@pytest.mark.parametrize("knots, values", NON_FINITE)
def test_step_curve_rejects_non_finite(knots, values):
    with pytest.raises(ValueError, match="must be finite"):
        StepCurve(knots=knots, values=values)


@pytest.mark.parametrize("knots, values", NON_FINITE)
def test_curve_batch_rejects_non_finite_and_names_the_row(knots, values):
    good_knots = np.arange(1.0, len(knots) + 1.0)
    good_values = np.linspace(0.9, 0.1, len(values))
    knot_rows = np.array([good_knots, knots, good_knots])
    value_rows = np.array([good_values, values, good_values])
    with pytest.raises(InvalidCurveError, match="row 1: .*must be finite") as err:
        CurveBatch(knots=knot_rows, values=value_rows)
    assert err.value.row == 1


@pytest.mark.parametrize("knots, values", NON_FINITE)
def test_curve_batch_rejects_non_finite_shared_grid(knots, values):
    with pytest.raises(InvalidCurveError, match="must be finite"):
        CurveBatch(knots=knots, values=np.array([values, values]))


@pytest.mark.parametrize("method", ["value", "value_before"])
@pytest.mark.parametrize("query", [np.nan, [1.0, np.nan]], ids=["scalar", "array"])
def test_nan_query_times_rejected(method, query):
    curve = StepCurve(knots=[1.0, 2.0], values=[0.8, 0.3])
    batch = CurveBatch(knots=[1.0, 2.0], values=[[0.8, 0.3], [0.9, 0.1]])
    with pytest.raises(ValueError, match="NaN"):
        getattr(curve, method)(query)
    with pytest.raises(ValueError, match="NaN"):
        batch.value(query)
    with pytest.raises(ValueError, match="NaN"):
        batch.value_on(np.atleast_1d(query))


def test_query_times_of_the_wrong_shape_are_refused():
    batch = CurveBatch(knots=[1.0, 2.0], values=[[0.8, 0.3], [0.9, 0.1]])
    with pytest.raises(ValueError, match=r"^need one time per row \(2\), got shape \(3,\)$"):
        batch.value([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^grid must be a 1-d array of times$"):
        batch.value_on([[1.0, 2.0]])


@pytest.mark.parametrize(
    "content, fragment",
    [
        pytest.param("t,1,nan\n0,0.9,0.5\n", "line 1", id="nan-grid"),
        pytest.param("t,1,inf\n0,0.9,0.5\n", "line 1", id="inf-grid"),
        pytest.param("t,1,2\n0,0.9,0.5\n1,nan,0.5\n", "line 3: values must be finite", id="nan-row"),
        pytest.param("t,1,2\n0,0.9,inf\n", "line 2: values must be finite", id="inf-row"),
    ],
)
def test_curve_file_rejects_non_finite(tmp_path, content, fragment):
    path = tmp_path / "curves.csv"
    path.write_text(content)
    with pytest.raises(DataFormatError, match=fragment):
        load_curve_file(path)


def test_curve_file_names_the_first_bad_line(tmp_path):
    # line 3 breaks a curve rule and line 4 has too few fields: a
    # line-by-line read meets line 3 first
    path = tmp_path / "curves.csv"
    path.write_text("t,1,2\n0,0.9,0.5\n1,0.5,0.9\n2,0.5\n")
    with pytest.raises(DataFormatError, match="line 3: values must be non-increasing"):
        load_curve_file(path)
    path.write_text("t,1,2\n0,0.9,0.5\n1,0.5\n2,x,0.1\n")
    with pytest.raises(DataFormatError, match="line 3: expected 3 fields"):
        load_curve_file(path)


def test_curve_table_selects_rows_by_subject(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("t,1,2\n5,0.9,0.5\n2,0.8,0.1\n")
    table = load_curve_file(path)
    assert list(table) == [5, 2] and len(table) == 2
    picked = table.select([2, 5, 2])
    assert_array_equal(picked.values, [[0.8, 0.1], [0.9, 0.5], [0.8, 0.1]])
    assert_array_equal(table[5].values, [0.9, 0.5])
    with pytest.raises(ValueError, match=r"does not cover subjects \[3\]"):
        table.select([2, 3])


def curve_checks(table, subjects):
    """The batch ``table.select(subjects)`` gives, and how many batch curve
    checks it ran."""
    with mock.patch.object(core, "_first_bad_row", wraps=core._first_bad_row) as check:
        picked = table.select(subjects)
    return picked, check.call_count


@pytest.mark.parametrize(
    "subjects", [[0, 1, 2], [2, 0, 1], [0, 1], [1, 2], [0, 1, 2, 2], [0, 0, 1]],
    ids=["file-order", "permuted", "partial", "tail", "repeated", "repeated-first"],
)
def test_every_selection_is_a_fresh_checked_batch(tmp_path, subjects):
    path = tmp_path / "curves.csv"
    path.write_text("t,1,2\n0,0.9,0.5\n1,0.8,0.1\n2,0.7,0.2\n")
    table = load_curve_file(path)
    picked, checks = curve_checks(table, subjects)
    assert picked is not table.batch and checks == 1
    assert not np.shares_memory(picked.values, table.batch.values)
    assert_array_equal(picked.values, table.batch.values[subjects])


def test_a_ragged_take_keeps_its_gather_of_the_rows():
    # rows of two lengths: the new batch keeps the gathered rows of values led
    # by ones, padding and all, as its table
    batch = CurveBatch(
        knots=[[1.0, 2.0, 3.0], [1.0, 4.0, 0.0]],
        values=[[0.9, 0.5, 0.2], [0.8, 0.3, 0.0]],
        lengths=[3, 2],
    )
    with mock.patch.object(CurveBatch, "_adopt", wraps=CurveBatch._adopt) as adopt:
        picked = batch.take([1, 0, 1])
    assert adopt.call_count == 1 and picked._led is adopt.call_args.args[1]
    assert_array_equal(picked.lengths, [2, 3, 2])
    assert_array_equal(picked.values, [[0.8, 0.3, 0.3], [0.9, 0.5, 0.2], [0.8, 0.3, 0.3]])
    for row, i in enumerate([1, 0, 1]):
        assert_array_equal(picked[row].knots, batch[i].knots)
        assert_array_equal(picked[row].values, batch[i].values)


def test_a_table_with_repeated_indices_never_hands_out_its_batch():
    batch = CurveBatch(knots=[1.0, 2.0], values=[[0.9, 0.5], [0.8, 0.1], [0.7, 0.2]])
    table = CurveTable([1, 1, 0], batch)
    picked = table.select([1, 0])
    assert picked is not batch
    assert_array_equal(picked.values, [[0.8, 0.1], [0.7, 0.2]])


# -------------------------------------------------------------- structure


@pytest.mark.parametrize(
    "batch",
    [
        CurveBatch(knots=[1.0, 2.0], values=np.empty((0, 2))),
        CurveBatch(knots=[1.0, 2.0], values=[[0.9, 0.5], [0.8, 0.1]]).take([]),
        CurveBatch(knots=[[1.0, 2.0], [1.0, 3.0]], values=[[0.9, 0.5], [0.8, 0.1]]).take([]),
        CurveBatch.from_curves([StepCurve([1.0, 2.0], [0.9, 0.5]), StepCurve([3.0], [0.4])]).take([]),
        CurveBatch.broadcast(StepCurve([1.0, 2.0], [0.8, 0.3]), 3).take([]),
        CurveBatch(knots=[1.0, 2.0], hazard=[0.1, 0.2], risks=[1.0, 2.0]).take([]),
        CurveTable([0, 1], CurveBatch(knots=[1.0, 2.0], values=[[0.9, 0.5], [0.8, 0.1]])).select([]),
    ],
    ids=["shared", "shared-take", "per-row", "ragged", "broadcast", "hazard", "selected"],
)
def test_an_empty_batch_answers_every_lookup_with_no_rows(batch):
    # numpy may give an array of no rows stride 0, which is no broadcast row
    assert len(batch) == 0
    assert batch.v_last.shape == batch.value(1.5).shape == (0,)
    assert batch.value_on([0.5, 1.5]).shape == (0, 2)
    assert [part.shape for part in batch.value_and_piece(np.empty(0))] == [(0,)] * 3
    assert batch.mean_times().shape == batch.median_times().shape == (0,)


def test_batch_row_is_the_step_curve():
    batch = CurveBatch(knots=[1.0, 2.0, 4.0], values=[[0.8, 0.5, 0.2], [0.9, 0.9, 0.4]])
    assert len(batch) == 2
    assert_array_equal(batch[1].knots, [1.0, 2.0, 4.0])
    assert_array_equal(batch[-1].values, [0.9, 0.9, 0.4])
    with pytest.raises(IndexError):
        batch[2]


def test_validation_names_the_first_bad_row():
    knots = [[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]]
    values = [[0.8, 0.5], [0.5, 0.8], [0.8, 0.5]]
    with pytest.raises(InvalidCurveError, match="row 1: values must be non-increasing"):
        CurveBatch(knots=knots, values=values)
    with pytest.raises(InvalidCurveError, match="row 0: knots must be nonnegative"):
        CurveBatch(knots=[2.0, 1.0], values=[[0.8, 0.5]])
    with pytest.raises(InvalidCurveError, match="row 1: values must lie in"):
        CurveBatch(knots=[1.0], values=[[0.5], [1.5]])
    with pytest.raises(ValueError):
        CurveBatch(knots=[1.0, 2.0], values=[0.8, 0.5])  # values must be 2-d
    with pytest.raises(ValueError):
        CurveBatch(knots=np.empty(0), values=np.empty((2, 0)))


def test_ragged_padding_is_ignored():
    # the padding holds garbage that would break every rule if it were read
    knots = [[1.0, 3.0, np.nan], [2.0, 1.0, -1.0]]
    values = [[0.7, 0.2, 9.0], [0.6, np.nan, 5.0]]
    batch = CurveBatch(knots=knots, values=values, lengths=[2, 1])
    assert_array_equal(batch.t_last, [3.0, 2.0])
    assert_array_equal(batch.value(np.array([10.0, 10.0])), [0.2, 0.6])
    assert_array_equal(batch[1].knots, [2.0])
    with pytest.raises(ValueError, match="lengths"):
        CurveBatch(knots=knots, values=values, lengths=[0, 1])
    with pytest.raises(ValueError, match="^ragged rows need an n x K knot matrix$"):
        CurveBatch(knots=[1.0, 2.0, 3.0], values=values, lengths=[2, 1])


def test_from_curves_layouts():
    a = StepCurve(knots=[1.0, 2.0], values=[0.8, 0.3])
    b = StepCurve(knots=[1.0, 2.0], values=[0.7, 0.1])
    c = StepCurve(knots=[0.5], values=[0.4])
    assert CurveBatch.from_curves([a] * 3).knots.ndim == 1
    assert CurveBatch.from_curves([a, b]).knots.ndim == 1
    ragged = CurveBatch.from_curves([a, c])
    assert_array_equal(ragged.lengths, [2, 1])
    assert CurveBatch.from_curves(ragged) is ragged
    with pytest.raises(ValueError):
        CurveBatch.from_curves([])


# ------------------------------------------- one-pass check against the scan

# entries that sit on the edge of a rule: signed zeros, subnormals, the
# largest float, values a hair above 1 and rises a hair either side of 1e-12
EDGE_KNOTS = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e308, -1.0)
HOSTILE = (np.nan, np.inf, -np.inf)
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1.0, 1.0 + 5e-13, 1.0 - 5e-13, 0.5)
RISES = (1e-12, 1e-12 * (1 - 1e-3), 1e-12 * (1 + 1e-3), 2e-12, 5e-13)


@st.composite
def hostile_batches(draw):
    """Knots and values of an unpadded batch that is valid before a few edits:
    entries set to an edge case or a non-finite number, knots set equal to
    their left neighbour, and values raised just under or over 1e-12 above
    their left neighbour. Knots are shared or per row, values per row or one
    broadcast row."""
    n = draw(st.integers(1, 5))
    width = draw(st.integers(1, 5))
    shared_knots = draw(st.booleans())
    shared_values = draw(st.booleans())
    knot_shape = (width,) if shared_knots else (n, width)
    value_shape = (1, width) if shared_values else (n, width)
    scale = draw(st.sampled_from([1.0, 1e-320, 1e-300, 1e300]))
    ticks = np.sort(
        np.array(draw(st.lists(st.integers(0, 30), min_size=width, max_size=width, unique=True)))
    )
    knots = np.broadcast_to(ticks * scale, knot_shape).copy()
    values = np.sort(np.array(draw(st.lists(
        st.sampled_from(LEVELS), min_size=width, max_size=width
    ))))[::-1]
    values = np.broadcast_to(values, value_shape).copy()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["knot", "value", "tie", "rise"]))
        target = knots if kind in ("knot", "tie") else values
        flat = target.reshape(-1, width)
        row = draw(st.integers(0, flat.shape[0] - 1))
        col = draw(st.integers(0, width - 1))
        if kind == "knot":
            flat[row, col] = draw(st.sampled_from(EDGE_KNOTS + HOSTILE))
        elif kind == "value":
            flat[row, col] = draw(st.sampled_from(EDGE_VALUES + HOSTILE))
        elif col:
            if kind == "tie":
                flat[row, col] = flat[row, col - 1]
            else:  # from 0 the rise is exact, elsewhere it rounds
                if draw(st.booleans()):
                    flat[row, col - 1] = 0.0
                flat[row, col] = flat[row, col - 1] + draw(st.sampled_from(RISES))
    if shared_values:
        values = np.broadcast_to(values, (n, width))
    return knots, values


def scan(knots, values):
    with np.errstate(invalid="ignore", over="ignore"):
        return _scan_bad_row(knots, values, None)


@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=hostile_batches())
def test_one_pass_check_accepts_what_the_scan_accepts(batch):
    knots, values = batch
    expected = scan(knots, values)
    assert _batch_passes(knots, values) == (expected is None)
    assert _first_bad_row(knots, values, None) == expected
    if expected is None:
        CurveBatch(knots=knots, values=values)
    else:
        with pytest.raises(InvalidCurveError) as err:
            CurveBatch(knots=knots, values=values)
        assert (err.value.row, err.value.reason) == expected


INCREASING = "knots must be nonnegative and strictly increasing"


@pytest.mark.parametrize(
    "knots, values, expected",
    [
        pytest.param([0.0, 1.0], [[1.0, 0.5]], None, id="valid"),
        pytest.param([-0.0, 5e-324], [[-0.0, -0.0]], None, id="signed-zeros-subnormal"),
        pytest.param([1.0, 1.0], [[0.9, 0.5]], (0, INCREASING), id="tie"),
        pytest.param([1.0, 2.0], [[0.0, 1e-12]], None, id="rise-at-bound"),
        pytest.param([1.0, 2.0], [[0.5, 0.5 + 1e-12]], None, id="rise-rounded-to-bound"),
        pytest.param(
            [1.0, 2.0], [[0.5, 0.5 + 2e-12]], (0, "values must be non-increasing"), id="rise-over"
        ),
        pytest.param([1.0, 2.0], [[1.0 + 5e-13, 0.5]], (0, "values must lie in [0, 1]"), id="over-one"),
        pytest.param(
            [[1.0, np.inf, np.inf], [1.0, 2.0, 3.0]],
            [[0.5, 0.4, 0.3]] * 2,
            (0, "knots must be finite"),
            id="inf-inf",
        ),
        pytest.param([-1.7e308, 1.7e308], [[1.0, 0.5]], (0, INCREASING), id="diff-overflow"),
        pytest.param(
            [[1.0, 2.0], [1.0, np.nan]], [[0.5, 0.4]] * 2, (1, "knots must be finite"), id="nan-last"
        ),
    ],
)
def test_one_pass_check_cases(knots, values, expected):
    knots, values = np.array(knots), np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf and overflowing diffs must not warn
        assert _first_bad_row(knots, values, None) == expected
    assert scan(knots, values) == expected


# ---------------------------------------------- batch equals the StepCurve path


@PROPERTY
@given(data=st.data())
def test_lookups_match_step_curves(data):
    curves = data.draw(curve_lists())
    batch = CurveBatch.from_curves(curves)
    t = query_times(data.draw, curves)
    assert_array_equal(batch.value(t), [c.value(ti) for c, ti in zip(curves, t)])
    for scalar in (0.0, float(t[0])):
        assert_array_equal(batch.value(scalar), [c.value(scalar) for c in curves])
    grid = np.unique(np.concatenate(([0.0], t, np.concatenate([c.knots for c in curves]))))
    grid = data.draw(st.permutations(grid.tolist()))
    assert_array_equal(batch.value_on(grid), np.stack([c.value(grid) for c in curves]))
    for i, c in enumerate(curves):
        assert_array_equal(batch[i].knots, c.knots)
        assert_array_equal(batch[i].values, c.values)


@st.composite
def batch_layouts(draw):
    """A batch and its rows as StepCurves, in one of the batch layouts:
    shared knots, per-row knots of one length, ragged rows, or per-row knots
    whose rows share one value row (the layout of the noisy oracles)."""
    layout = draw(st.sampled_from(["shared", "per_row", "ragged", "shared_values"]))
    n = draw(st.integers(1, 8))
    if layout == "shared":
        knots = draw(knot_rows())
        values = np.stack([draw(value_rows(knots.size)) for _ in range(n)])
        batch = CurveBatch(knots=knots, values=values)
    elif layout == "ragged":
        curves = [draw(curve_lists(n=1))[0] for _ in range(n)]
        batch = CurveBatch.from_curves(curves)
    else:
        size = draw(st.integers(1, 7))
        ticks = st.lists(st.integers(0, 40), min_size=size, max_size=size, unique=True)
        knots = np.sort([draw(ticks) for _ in range(n)], axis=1) * KNOT_STEP
        if layout == "per_row":
            values = np.stack([draw(value_rows(size)) for _ in range(n)])
        else:
            values = np.broadcast_to(draw(value_rows(size)), (n, size))
        batch = CurveBatch(knots=knots, values=values)
    return batch, [batch[i] for i in range(n)]


@PROPERTY
@given(case=batch_layouts(), data=st.data())
def test_lookups_on_any_grid_match_step_curves(case, data):
    batch, curves = case
    # half-steps of the knot grid: points on knots, between them and past them,
    # with repeats
    ticks = data.draw(st.lists(st.integers(0, 90), min_size=1, max_size=12))
    for grid in (
        np.sort(np.array(ticks, dtype=float)) * KNOT_STEP / 2,  # ascending
        np.array(ticks, dtype=float) * KNOT_STEP / 2,  # as drawn
    ):
        assert_array_equal(batch.value_on(grid), np.stack([c.value(grid) for c in curves]))
    # the ascending path equals the sorting path on a permutation of the grid
    grid = np.sort(np.array(ticks, dtype=float)) * KNOT_STEP / 2
    perm = np.array(data.draw(st.permutations(range(grid.size))))
    assert_array_equal(batch.value_on(grid)[:, perm], batch.value_on(grid[perm]))
    t = np.array(data.draw(st.lists(st.integers(0, 90), min_size=len(curves), max_size=len(curves))))
    for query in (t * KNOT_STEP / 2, float(t[0]) * KNOT_STEP / 2):
        per_row = np.broadcast_to(query, (len(curves),))
        assert_array_equal(batch.value(query), [c.value(x) for c, x in zip(curves, per_row)])
        assert_array_equal(batch.value_and_piece(query)[0], batch.value(query))


@PROPERTY
@given(curves=curve_lists())
def test_extraction_matches_step_curves(curves):
    batch = CurveBatch.from_curves(curves)
    for batched, single in (
        (batch.median_times, StepCurve.median_time),
        (batch.mean_times, StepCurve.mean_time),
    ):
        expected = [outcome(single, c) for c in curves]
        if DegenerateCurveError in expected:
            with pytest.raises(DegenerateCurveError, match=f"subject {expected.index(DegenerateCurveError)}:"):
                batched()
        else:
            assert_array_equal(batched(), expected)


def km_broadcast(seed, n):
    """A Kaplan-Meier curve of a few hundred random times, shared by ``n`` rows."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 400))
    times = rng.exponential(1.0, size)
    events = rng.random(size) < 0.7
    events[rng.integers(size)] = True
    return CurveBatch.broadcast(km_fit(times, events).curve, n)


@PROPERTY
@given(case=batch_layouts(), seed=st.integers(0, 2**32 - 1))
def test_the_piece_at_t_is_the_log_likelihood_oracle_bin(case, seed):
    km = km_broadcast(seed, len(case[1]))
    for batch, curves in (case, (km, [km[i] for i in range(len(km))])):
        # per row: on a knot, between two, before the first and past the last
        queries = []
        for c in curves:
            mids = (np.concatenate(([0.0], c.knots[:-1])) + c.knots) / 2
            points = np.concatenate((c.knots, mids, [c.t_last + 1.0]))
            queries.append(points[points > 0.0])
        for k in range(max(q.size for q in queries)):
            t = np.array([q[k % q.size] for q in queries])
            expected = [oracle_piece(c, x) for c, x in zip(curves, t)]
            for column, got in enumerate(batch.value_and_piece(t)):
                assert_array_equal(got, [e[column] for e in expected])


# widths on both sides of numpy's pairwise-sum boundaries: 8 partial sums
# from 8 entries, blocks of 128
SUM_WIDTHS = st.one_of(st.integers(1, 9), st.integers(127, 129), st.integers(300, 520))


def wide_row(rng, size, at_zero, to_zero):
    """Knots and values of a curve with ``size`` knots and unrounded entries,
    the first knot at 0 or above, the last value 0 or above."""
    knots = np.cumsum(rng.exponential(1.0, size))
    if at_zero:
        knots[0] = 0.0
    values = np.sort(rng.random(size))[::-1].copy()
    if to_zero:
        values[-1] = 0.0
    return knots, values


@st.composite
def wide_batches(draw):
    """A batch of curves up to 520 knots wide, in each batch layout."""
    layout = draw(st.sampled_from(["shared", "per_row", "ragged", "shared_values", "km"]))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    if layout == "km":
        return km_broadcast(seed, n)
    rng = np.random.default_rng(seed)
    flags = st.tuples(st.booleans(), st.booleans())
    if layout == "ragged":
        rows = [wide_row(rng, draw(SUM_WIDTHS), *draw(flags)) for _ in range(n)]
        return CurveBatch.from_curves([StepCurve(knots=k, values=v) for k, v in rows])
    size = draw(SUM_WIDTHS)
    rows = [wide_row(rng, size, *draw(flags)) for _ in range(n)]
    knots = np.stack([k for k, _ in rows])
    values = np.stack([v for _, v in rows])
    if layout == "shared":
        knots = knots[0]
    elif layout == "shared_values":
        values = np.broadcast_to(values[0], values.shape)
    return CurveBatch(knots=knots, values=values)


@PROPERTY
@given(batch=wide_batches(), block=st.sampled_from([1, 300, core._PIECE_BLOCK]))
def test_mean_times_equal_the_step_curve_bit_for_bit(batch, block):
    expected = [batch[i].mean_time() for i in range(len(batch))]
    with mock.patch.object(core, "_PIECE_BLOCK", block):
        assert_array_equal(batch.mean_times(), expected)


@PROPERTY
@given(case=batch_layouts(), degenerate=st.booleans())
def test_median_of_a_shared_value_row_matches_step_curves(case, degenerate):
    batch, curves = case
    assume(np.all(np.isfinite(batch.knots)))  # not ragged: padding knots are inf
    n = len(curves)
    if degenerate:  # rows that never descend
        batch = CurveBatch(knots=batch.knots, values=np.ones((n, batch.values.shape[1])))
        curves = [batch[i] for i in range(n)]
    for shared in (
        # one broadcast value row over the batch's knots, and the KM layout
        CurveBatch(knots=batch.knots, values=np.broadcast_to(batch.values[0], batch.values.shape)),
        CurveBatch.broadcast(curves[0], n),
    ):
        assert shared.values.strides[0] == 0
        rows = [shared[i] for i in range(n)]
        expected = [outcome(StepCurve.median_time, c) for c in rows]
        if DegenerateCurveError in expected:
            with pytest.raises(DegenerateCurveError, match="subject 0:"):
                shared.median_times()
        else:
            assert_array_equal(shared.median_times(), expected)


@PROPERTY
@given(case=curves_and_data(), data=st.data())
def test_curve_metrics_match_step_curves(case, data):
    curves, ds = case
    batch = CurveBatch.from_curves(curves)
    g = censoring_km_fit(ds)
    t_star = data.draw(st.integers(0, 45)) * KNOT_STEP
    t_max = data.draw(st.integers(1, 45)) * KNOT_STEP
    grid_size = data.draw(st.sampled_from([1, 2, 7, 100]))
    n_bins = data.draw(st.integers(2, 4))
    pairs = [
        (outcome(brier_score_at, batch, ds, t_star, g), outcome(oracle_brier, curves, ds, t_star, g)),
        (
            outcome(integrated_brier_score, batch, ds, g, grid_size, t_max),
            outcome(oracle_ibs, curves, ds, g, grid_size, t_max),
        ),
        (outcome(log_likelihood, batch, ds), outcome(oracle_log_likelihood, curves, ds)),
        (outcome(d_calibration, batch, ds, n_bins), outcome(oracle_d_calibration, curves, ds, n_bins)),
    ]
    if ds.n >= n_bins:
        pairs.append(
            (
                outcome(one_calibration, batch, ds, t_star, n_bins),
                outcome(oracle_one_calibration, curves, ds, t_star, n_bins),
            )
        )
    for got, want in pairs:
        if hasattr(got, "p_value"):
            got = (got.statistic, got.p_value, got.bin_table)
        assert_same(got, want)
    # a list of StepCurves is scored exactly as its batch
    assert_same(outcome(log_likelihood, curves, ds), outcome(log_likelihood, batch, ds))
    assert_same(
        outcome(lambda: extract_predicted_times(curves, "mean").values),
        outcome(lambda: extract_predicted_times(batch, "mean").values),
    )


@PROPERTY
@given(case=batch_layouts(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_ibs_in_blocks_of_subjects_equals_the_oracle_bit_for_bit(case, seed, data):
    n = len(case[1])
    times = np.array(data.draw(st.lists(st.integers(1, 45), min_size=n, max_size=n))) * KNOT_STEP
    events = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ds = SurvivalDataset.from_arrays(times, events)
    g = censoring_km_fit(ds)
    grid_size = data.draw(st.sampled_from([2, 7, 100]))
    t_max = data.draw(st.integers(1, 45)) * KNOT_STEP
    km = km_broadcast(seed, n)
    for batch, curves in (case, (km, [km[i] for i in range(n)])):
        want = outcome(oracle_ibs, curves, ds, g, grid_size, t_max)
        # blocks of one row, of seven rows, and of the default size
        for cells in (1, 7 * grid_size, metrics._IBS_CELLS):
            with mock.patch.object(metrics, "_IBS_CELLS", cells):
                assert_same(outcome(integrated_brier_score, batch, ds, g, grid_size, t_max), want)


@pytest.mark.parametrize("layout", ["shared", "noisy"])
def test_ibs_over_several_default_blocks_equals_the_oracle_bit_for_bit(layout):
    # 1,500 subjects on a 100-point grid fill several blocks of the default size
    rng = np.random.default_rng(5)
    n = 1500
    times = rng.exponential(5.0, n) + 0.01
    events = rng.random(n) < 0.6
    ds = SurvivalDataset.from_arrays(times, events, true_times=np.where(events, times, times + 1.0))
    if layout == "shared":
        grid = np.linspace(0.1, 20.0, 60)
        batch = CurveBatch(knots=grid, values=np.exp(-np.outer(rng.uniform(0.05, 0.5, n), grid)))
    else:
        batch = noisy_oracle_predictions(ds, 0.3, seed=1)
    assert n * 100 > 2 * metrics._IBS_CELLS
    g = censoring_km_fit(ds)
    got = integrated_brier_score(batch, ds, g)
    assert_same(got, oracle_ibs([batch[i] for i in range(n)], ds, g, 100, float(times[events].max())))


def test_ibs_memory_is_bounded_by_its_blocks():
    # 10,000 subjects on a 100-point grid; scored as whole n x G matrices the
    # metric peaked at 26.2 MB traced, 3.27 times the 8 MB value matrix. In
    # blocks of subjects it must take under a quarter of that
    rng = np.random.default_rng(4)
    n, grid = 10_000, np.linspace(0.3, 30.0, 100)
    medians = 10.0 * rng.weibull(1.5, n) + 0.1
    values = np.exp(-np.log(2.0) * (grid / medians[:, None]) ** 1.5)
    censor = rng.uniform(0.0, 25.0, n)
    ds = SurvivalDataset.from_arrays(np.minimum(medians, censor), medians <= censor)
    batch, g = CurveBatch(knots=grid, values=values), censoring_km_fit(ds)
    tracemalloc.start()
    try:
        integrated_brier_score(batch, ds, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.27 / 4 * values.nbytes


@st.composite
def calibration_cases(draw):
    """Datasets of up to about 1,800 subjects, with times on an integer grid
    (dense ties), bin counts that rarely divide n, event rates low enough to
    leave bins without an event before t*, and curves whose S(t*) tie: one
    broadcast KM curve, a few shared rows, or per-subject noisy curves."""
    n_bins = draw(st.integers(2, 12))
    n = n_bins * draw(st.integers(1, 150)) + draw(st.integers(0, n_bins - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    top = draw(st.sampled_from([3, 20, 200]))
    times = rng.integers(1, top + 1, n).astype(float)
    events = rng.random(n) < draw(st.sampled_from([0.02, 0.3, 0.9]))
    ds = SurvivalDataset.from_arrays(times, events)
    kind = draw(st.sampled_from(["km", "few_rows", "noisy"]))
    if kind == "km":
        batch = CurveBatch.broadcast(km_fit(times, events).curve, n)
    elif kind == "few_rows":
        knots = np.arange(1.0, top + 1.0)
        rows = -np.sort(-rng.random((draw(st.integers(1, 5)), knots.size)), axis=1)
        batch = CurveBatch(knots=knots, values=rows[rng.integers(0, len(rows), n)])
    else:
        medians = rng.uniform(0.5, top, n)
        batch = CurveBatch(
            knots=medians[:, None] * _REL_KNOTS[None, :],
            values=np.broadcast_to(_PROB_GRID, (n, _PROB_GRID.size)),
        )
    # 0, below the first time, on the grid, between grid points, past the last
    t_star = draw(st.sampled_from([0.0, 0.5, top / 2, top / 3 + 0.5, top + 1.0]))
    return batch, ds, t_star, n_bins


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=calibration_cases())
def test_one_calibration_equals_the_per_bin_oracle_at_realistic_sizes(case):
    batch, ds, t_star, n_bins = case
    got = one_calibration(batch, ds, t_star, n_bins)
    want = oracle_one_calibration(batch, ds, t_star, n_bins)
    assert_same((got.statistic, got.p_value, got.bin_table), want)


@pytest.mark.parametrize("n_bins", [2.5, 3.0, np.float64(3.0), 1, 0, -4, True, "3", None])
@pytest.mark.parametrize("test", [one_calibration, d_calibration], ids=["one", "d"])
def test_calibration_tests_take_an_integer_bin_count_of_at_least_two(test, n_bins):
    curves = CurveBatch(knots=[1.0, 2.0, 3.0], values=[[0.9, 0.5, 0.2]] * 6)
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0, 1.5, 2.5, 3.5], [True] * 6)
    args = (curves, ds, 2.0) if test is one_calibration else (curves, ds)
    with pytest.raises(BinningError, match=f"got {re.escape(repr(n_bins))}"):
        test(*args, n_bins=n_bins)
    for count in (np.int64(3), np.int32(3)):
        result = test(*args, n_bins=count)
        assert result == test(*args, n_bins=3)
        assert all(type(x) is float for row in result.bin_table for x in row)


# ------------------------------------------------------- producers of batches


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 60), d=st.integers(1, 6))
def test_cox_batch_equals_per_subject_curves(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    times = rng.exponential(1.0, n) * np.exp(-0.5 * x[:, 0])
    events = rng.random(n) < 0.7
    events[0] = True
    try:
        model = coxph_fit(SurvivalDataset.from_arrays(times, events, x))
    except (ArithmeticError, RuntimeError, ValueError):
        return  # separation or no convergence: nothing to compare
    x_new = rng.normal(size=(n, d)) * 3.0
    assert_array_equal(model.risks(x_new), [model.risk(row) for row in x_new])
    batch = cox_survival_curve(model, x_new)
    assert batch.knots.ndim == 1
    for i, row in enumerate(x_new):
        single = cox_survival_curve(model, row)
        assert_array_equal(batch[i].knots, single.knots)
        assert_array_equal(batch[i].values, single.values)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 0.05, 0.5, 2.0]))
def test_noisy_oracle_batch_equals_per_subject_curves(seed, noise):
    rng = np.random.default_rng(seed)
    truths = rng.uniform(0.1, 10.0, 30)
    ds = SurvivalDataset.from_arrays(truths, np.ones(30, dtype=bool), true_times=truths)
    batch = noisy_oracle_predictions(ds, noise, seed)
    medians = truths * np.exp(np.random.default_rng(seed).normal(0.0, noise, 30))
    for i, m in enumerate(medians):
        single = StepCurve(knots=m * _REL_KNOTS, values=_PROB_GRID)
        assert_array_equal(batch[i].knots, single.knots)
        assert_array_equal(batch[i].values, single.values)
