"""Tests for proportional-hazards batches: Cox rows held as hazard x risk.

A ``CurveBatch(knots, hazard=H, risks=r)`` holds no ``n x K`` matrix. The
slow oracle is the dense batch of the matrix ``np.exp(-H[None, :] *
r[:, None])``, which ``cox_survival_curve`` built before: every lookup,
extraction and row of the factored batch must equal the oracle's bit for
bit, and both must refuse the same inputs with the same row and reason.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survmae import (
    CoxModel,
    CumulativeHazard,
    CurveBatch,
    DegenerateCurveError,
    InvalidCurveError,
    SurvivalDataset,
    censoring_km_fit,
    cox_survival_curve,
    integrated_brier_score,
)

PROPERTY = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def dense(knots, hazard, risks):
    """The oracle: the batch of the whole matrix exp(-H * r)."""
    with np.errstate(invalid="ignore", over="ignore"):
        values = np.exp(-np.asarray(hazard)[None, :] * np.asarray(risks)[:, None])
    return CurveBatch(knots=knots, values=values)


def factored(knots, hazard, risks):
    return CurveBatch(knots=knots, hazard=hazard, risks=risks)


def outcome(fn, *args):
    """``fn(*args)``, or what it raised: the row and reason of an
    ``InvalidCurveError``, else the exception type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the factored path must not warn
            return fn(*args)
    except InvalidCurveError as exc:
        return InvalidCurveError, exc.row, exc.reason
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def bits(value):
    """A value's exact bits (and shape), or the outcome it stands for."""
    if isinstance(value, tuple) and value and isinstance(value[0], type):
        return value
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    array = np.asarray(value, dtype=float)
    return array.shape, array.tobytes()


def assert_same_rows(got, want, t, grid, rows):
    """Every lookup and extraction of ``got`` equals ``want``'s bit for bit."""
    assert len(got) == len(want)
    for name in ("t_last", "v_last"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert bits(got.value(t)) == bits(want.value(t))
    assert bits(got.value_on(grid)) == bits(want.value_on(grid))
    assert bits(got.value_and_piece(t)) == bits(want.value_and_piece(t))
    for method in (CurveBatch.median_times, CurveBatch.mean_times):
        assert bits(outcome(method, got)) == bits(outcome(method, want)), method.__name__
    for i in range(len(got)):
        assert bits(got[i].knots) == bits(want[i].knots)
        assert bits(got[i].values) == bits(want[i].values)
    picked, oracle = got.take(rows), want.take(rows)
    assert picked.values is None  # still factored
    assert bits(picked.value_on(grid)) == bits(oracle.value_on(grid))
    assert bits(outcome(CurveBatch.median_times, picked)) == bits(
        outcome(CurveBatch.median_times, oracle)
    )


# hazard increments: plateaus, steps that vanish against the running sum,
# and steps large enough to take a row to 0
STEPS = st.sampled_from([0.0, 1e-300, 1e-17, 1e-3, 0.05, 0.3, 0.69, 1.0, 5.0, 800.0])
# risks: an underflow to 0, subnormal and huge finite ones, infinity, NaN
RISKS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 2.0, 1e300, np.inf, np.nan]),
    st.floats(-5.0, 5.0).map(np.exp),
)


@st.composite
def hazard_batches(draw):
    """``(knots, hazard, risks)``: strictly increasing knots, the first one
    maybe 0; a hazard that CumulativeHazard accepts, maybe with a dip within
    its 1e-12 tolerance, or one just beyond it; any risks."""
    size = draw(st.integers(1, 8))
    start = draw(st.sampled_from([0.0, 0.5, 1.0]))
    gaps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=size - 1, max_size=size - 1))
    knots = start + np.cumsum([0.0, *gaps])
    hazard = np.cumsum(draw(st.lists(STEPS, min_size=size, max_size=size)))
    dip = draw(st.sampled_from([None, 1e-13, 1e-12, 1e-9]))
    if dip is not None and size > 1:
        at = draw(st.integers(1, size - 1))
        hazard[at] = hazard[at - 1] - dip
    risks = np.array(draw(st.lists(RISKS, min_size=1, max_size=6)))
    return knots, hazard, risks


@PROPERTY
@given(case=hazard_batches(), data=st.data())
def test_factored_rows_equal_the_dense_oracle_bit_for_bit(case, data):
    knots, hazard, risks = case
    got = outcome(factored, knots, hazard, risks)
    want = outcome(dense, knots, hazard, risks)
    if not isinstance(want, CurveBatch):
        assert got == want  # the same error, row and reason
        return
    assert isinstance(got, CurveBatch), got
    n = len(risks)
    points = np.concatenate(([0.0, 0.1], knots, knots + 0.1, [knots[-1] + 5.0]))
    t = np.array(data.draw(st.lists(st.sampled_from(points), min_size=n, max_size=n)))
    grid = np.sort(points)
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    assert_same_rows(got, want, t, grid, rows)


@PROPERTY
@given(
    log_risks=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=8),
    repeats=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_medians_at_the_knife_edge_equal_the_dense_scan(log_risks, repeats, seed):
    # hazards at ln 2 / r and up to three ulps either side, each repeated
    # into a run of equal hazards: there a binary search for ln 2 / r can
    # miss the first value at or below one half, which the dense scan finds
    risks = np.exp(log_risks)
    edge = np.log(2.0) / risks
    sides = [edge]
    for _ in range(3):
        sides = [np.nextafter(sides[0], 0.0), *sides, np.nextafter(sides[-1], np.inf)]
    runs = np.repeat([*repeats, *repeats, 1], edge.size)
    hazard = np.sort(np.repeat(np.concatenate(sides), runs))
    extra = np.random.default_rng(seed).uniform(0.0, 2.0 * edge.max(), 4)
    hazard = np.sort(np.concatenate((hazard, extra)))
    knots = np.arange(1.0, hazard.size + 1.0)
    want = dense(knots, hazard, risks).median_times()
    assert bits(factored(knots, hazard, risks).median_times()) == bits(want)


def one_row_cases():
    knots = np.array([1.0, 2.0, 3.0])
    return {
        "underflowed-risk": (knots, np.array([0.1, 0.7, 2.0]), np.array([1.0, 0.0, 1e-300])),
        "infinite-risk": (knots, np.array([0.1, 0.7, 2.0]), np.array([1.0, np.inf])),
        "infinite-risk-at-zero-hazard": (knots, np.array([0.0, 0.7, 2.0]), np.array([1.0, np.inf])),
        "nan-risk": (knots, np.array([0.1, 0.7, 2.0]), np.array([1.0, 2.0, np.nan])),
        # row 1 rises by about exp(-1) * 10 * 1e-12 over the dip
        "dip-within-tolerance": (knots, np.array([0.1, 0.1 - 1e-12, 2.0]), np.array([1.0, 10.0, 0.5])),
        "first-knot-at-zero": (np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.7, 2.0]), np.array([1.0, 3.0])),
    }


@pytest.mark.parametrize("case", one_row_cases().values(), ids=one_row_cases().keys())
def test_named_cases_equal_the_dense_oracle(case):
    knots, hazard, risks = case
    got, want = outcome(factored, *case), outcome(dense, *case)
    if not isinstance(want, CurveBatch):
        assert got == want
        return
    t = np.full(len(risks), 1.5)
    assert_same_rows(got, want, t, np.linspace(0.0, 4.0, 9), [1, 0])


def test_an_underflowed_risk_has_no_median_and_is_named():
    batch = factored(*one_row_cases()["underflowed-risk"])
    with pytest.raises(DegenerateCurveError, match="^subject 1: curve never descends"):
        batch.median_times()


def test_an_infinite_risk_gives_a_row_of_zeros_after_the_first_knot():
    batch = factored(*one_row_cases()["infinite-risk"])
    assert batch.value_on([0.5, 1.0, 2.5])[1].tolist() == [1.0, 0.0, 0.0]
    assert batch.median_times()[1] == 1.0


@pytest.mark.parametrize(
    "name, row, reason",
    [
        ("infinite-risk-at-zero-hazard", 1, "values must be finite"),
        ("nan-risk", 2, "values must be finite"),
        ("dip-within-tolerance", 1, "values must be non-increasing"),
    ],
)
def test_a_bad_row_is_refused_by_row_and_reason(name, row, reason):
    with pytest.raises(InvalidCurveError) as err:
        factored(*one_row_cases()[name])
    assert (err.value.row, err.value.reason) == (row, reason)


def test_a_dip_within_tolerance_passes_where_no_row_rises():
    knots, hazard, _ = one_row_cases()["dip-within-tolerance"]
    # CumulativeHazard accepts the dip; rows rise by r * 1e-12 * S at most
    CumulativeHazard(knots=knots, values=hazard)
    batch = factored(knots, hazard, np.array([1.0, 0.5]))
    assert bits(batch.median_times()) == bits(dense(knots, hazard, np.array([1.0, 0.5])).median_times())


def test_an_empty_baseline_is_refused_as_the_dense_batch_is():
    case = (np.empty(0), np.empty(0), np.array([1.0, 2.0]))
    assert outcome(factored, *case) == outcome(dense, *case) == (
        ValueError, "curve must have at least one knot"
    )


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"values": [[0.5]], "hazard": [0.1], "risks": [1.0]}, "pass values, or a hazard row and risks"),
        ({"hazard": [0.1]}, "pass values, or a hazard row and risks"),
        ({"hazard": [0.1, 0.2], "risks": [1.0]}, "one row of K each"),
        ({"hazard": [0.1], "risks": [[1.0]]}, "one row of K each"),
        ({"hazard": [0.1], "risks": [1.0], "lengths": [1]}, "no lengths"),
    ],
)
def test_a_hazard_batch_takes_one_hazard_row_and_one_risk_per_row(kwargs, message):
    with pytest.raises(ValueError, match=message):
        CurveBatch(knots=[1.0], **kwargs)


def test_cox_survival_curve_holds_the_hazard_and_the_risks():
    baseline = CumulativeHazard(knots=[1.0, 2.0, 4.0], values=[0.1, 0.4, 0.9])
    model = CoxModel(beta=np.array([0.5, -1.0]), baseline_cumhaz=baseline, feature_means=np.zeros(2))
    x = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
    batch = cox_survival_curve(model, x)
    assert batch.values is None
    assert bits(batch.risks) == bits(model.risks(x))
    assert batch.hazard is baseline.values
    want = dense(baseline.knots, baseline.values, model.risks(x))
    assert_same_rows(batch, want, np.array([0.5, 2.0, 5.0]), np.linspace(0.0, 5.0, 11), [2, 2, 0])


def test_a_large_cox_batch_is_scored_in_bounded_memory():
    # 2e4 rows on 1e4 knots: the dense matrix would take 1.6 GB. Built and
    # scored by IBS, value and median_times, the factored batch peaked at
    # 8.6 MB traced; the bound allows a few times that
    rng = np.random.default_rng(5)
    n, size = 20_000, 10_000
    knots = np.cumsum(rng.uniform(0.001, 0.002, size))
    hazard = np.cumsum(rng.uniform(0.0, 2e-4, size))
    risks = np.exp(rng.normal(0.0, 1.0, n))
    times = rng.uniform(0.5, 15.0, n)
    ds = SurvivalDataset.from_arrays(times, rng.random(n) < 0.6)
    g = censoring_km_fit(ds)
    tracemalloc.start()
    try:
        batch = factored(knots, hazard, risks)
        integrated_brier_score(batch, ds, g)
        batch.value(times)
        batch.median_times()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
