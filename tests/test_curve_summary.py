"""The per-subject summary that every score of a curve batch is read from.

``metrics._Summary`` holds, per subject, the predicted time, S(t*), S(T_i)
with the mass and width of the piece that holds T_i, and the integrated
Brier score's column sums. It is built block by block of rows, and ``survmae
eval`` streams its curve file into it without holding the file's table. It
must equal, bit for bit, the whole batch's summary and the per-``StepCurve``
oracles of ``test_curve_batch``, however its rows are cut; the streamed file must score as the
held one does, in any row order; and a fault must be named at the line where
the held reader names it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survmae import (
    CurveBatch,
    DegenerateCurveError,
    DegenerateScoreWarning,
    StepCurve,
    SurvivalDataset,
    brier_score_at,
    censoring_km_fit,
    core,
    d_calibration,
    evaluate_dataset,
    extract_predicted_times,
    harness,
    integrated_brier_score,
    load_curve_file,
    log_likelihood,
    metrics,
    one_calibration,
    save_curve_file,
    save_dataset,
)
from survmae.cli import main
from survmae.harness import _finite_or_none
from survmae.metrics import _brier_weights, _Summary
from test_curve_batch import (
    oracle_brier,
    oracle_d_calibration,
    oracle_ibs,
    oracle_log_likelihood,
    oracle_one_calibration,
)

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# knots and times on a coarse grid, so that a time often equals a knot, and
# values that reach 1 (a curve that never descends), 1/2 and 0
STEP = 0.25
LEVELS = (0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0)


def outcome(fn, *args, **kwargs):
    """The bytes of what ``fn`` returns, or the type and text of its error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateScoreWarning)
            got = fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    if hasattr(got, "p_value"):
        got = (got.statistic, got.p_value, *np.ravel(got.bin_table))
    if hasattr(got, "values"):
        got = got.values
    return np.asarray(got, dtype=float).tobytes()


def summary_of(ds, batch, method, t_star, weights, pieces=(None,)):
    """The summary of ``batch`` on ``ds``, added in consecutive ``pieces``
    (row counts; None for the rest)."""
    summary = _Summary(ds, method, t_star, weights)
    start = 0
    for size in pieces:
        stop = len(batch) if size is None else min(start + size, len(batch))
        if stop > start:
            summary.add(batch.take(np.arange(start, stop)))
        start = stop
    return summary


def state(summary):
    """Everything a summary holds for the metrics, as comparable bytes."""
    method = summary.predictions.method
    ibs = summary.ibs_sums
    return (
        outcome(extract_predicted_times, summary.predictions, method),
        None if summary.s_star is None else summary.s_star.tobytes(),
        summary.at_times.tobytes(),
        None if ibs is None else ibs.tobytes(),
    )


@st.composite
def levels(draw, size):
    return np.sort(draw(st.lists(st.sampled_from(LEVELS), min_size=size, max_size=size)))[::-1]


@st.composite
def knot_row(draw, size):
    ticks = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size, unique=True))
    return np.sort(np.array(ticks, dtype=float)) * STEP


@st.composite
def batches(draw, n):
    """``n`` curves in one of the batch layouts: a shared knot row, knots of
    each row's own, rows of several lengths, per-row knots sharing one value
    row (the noisy oracles), one broadcast curve (KM, Weibull) or a hazard
    row and risks (Cox)."""
    layout = draw(st.sampled_from(["shared", "per_row", "ragged", "oracle", "broadcast", "hazard"]))
    size = draw(st.integers(1, 6))
    if layout == "shared":
        knots = draw(knot_row(size))
        return CurveBatch(knots=knots, values=np.stack([draw(levels(size)) for _ in range(n)]))
    if layout in ("per_row", "oracle"):
        knots = np.stack([draw(knot_row(size)) for _ in range(n)])
        if layout == "oracle":
            return CurveBatch(knots=knots, values=np.broadcast_to(draw(levels(size)), (n, size)))
        return CurveBatch(knots=knots, values=np.stack([draw(levels(size)) for _ in range(n)]))
    if layout == "ragged":
        curves = []
        for _ in range(n):
            k = draw(st.integers(1, 6))
            curves.append(StepCurve(draw(knot_row(k)), draw(levels(k))))
        return CurveBatch.from_curves(curves)
    if layout == "broadcast":
        return CurveBatch.broadcast(StepCurve(draw(knot_row(size)), draw(levels(size))), n)
    hazard = np.cumsum(draw(st.lists(st.sampled_from([0.0, 0.1, 0.7, 2.0]), min_size=size, max_size=size)))
    risks = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n))
    return CurveBatch(knots=draw(knot_row(size)), hazard=hazard, risks=np.array(risks))


@st.composite
def scored_batches(draw):
    """A dataset, curves of its subjects, a horizon t* or None, the IBS
    weights of a grid (None where the horizon is undefined) and a
    prediction method."""
    n = draw(st.integers(1, 40))
    times = np.array(draw(st.lists(st.integers(1, 45), min_size=n, max_size=n))) * STEP
    events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ds = SurvivalDataset.from_arrays(times, events)
    grid_size = draw(st.sampled_from([2, 7, 100]))
    t_max = draw(st.sampled_from([None, 3.0, 12.0]))
    try:
        weights = _brier_weights(ds, censoring_km_fit(ds), grid_size, t_max)
    except ValueError:  # no event to set the horizon
        weights = None
    t_star = draw(st.sampled_from([None, 0.0, 2.5, 5.1]))
    method = draw(st.sampled_from(["median", "mean"]))
    return ds, draw(batches(n)), t_star, weights, method


@PROPERTY
@given(case=scored_batches(), data=st.data())
def test_a_summary_in_blocks_equals_the_whole_batch_summary(case, data):
    ds, batch, t_star, weights, method = case
    with mock.patch.object(metrics, "_IBS_CELLS", 1 << 30):
        whole = state(summary_of(ds, batch, method, t_star, weights))
        calibration = outcome(d_calibration, batch, ds)
    # blocks of one row and up, and the rows added in pieces of any size
    width = 1 if weights is None else weights.grid.size
    cells = data.draw(st.integers(1, 12)) * width
    pieces = data.draw(st.lists(st.integers(1, 9), max_size=5)) + [None]
    with mock.patch.object(metrics, "_IBS_CELLS", cells):
        assert state(summary_of(ds, batch, method, t_star, weights, pieces)) == whole
        # d_calibration adds up its bin masses in blocks of the same budget
        assert outcome(d_calibration, batch, ds) == calibration


def as_scores(got):
    """An oracle calibration's ``(statistic, p_value, bin_table)`` as the
    flat tuple that :func:`outcome` makes of a ``CalibrationResult``."""
    statistic, p_value, table = got
    return (statistic, p_value, *np.ravel(table))


@PROPERTY
@given(case=scored_batches(), data=st.data())
def test_every_metric_of_a_summary_is_the_metric_of_its_curves(case, data):
    # the per-StepCurve oracles of test_curve_batch, against the summary
    # added in pieces and blocks, the batch and the batch's StepCurves
    ds, batch, t_star, weights, method = case
    curves = [batch[i] for i in range(len(batch))]
    g = censoring_km_fit(ds) if weights is None else weights.g_train
    n_bins = data.draw(st.integers(2, 10))
    pieces = data.draw(st.lists(st.integers(1, 9), max_size=5)) + [None]
    cells = data.draw(st.integers(1, 12)) * (1 if weights is None else weights.grid.size)
    with mock.patch.object(metrics, "_IBS_CELLS", cells):
        summary = summary_of(ds, batch, method, t_star, weights, pieces)
    # metric: (its score of the curves given, the oracle's score)
    scores = {
        "log_likelihood": (
            lambda c: log_likelihood(c, ds),
            outcome(oracle_log_likelihood, curves, ds),
        ),
        "d_calibration": (
            lambda c: d_calibration(c, ds, n_bins),
            outcome(lambda: as_scores(oracle_d_calibration(curves, ds, n_bins))),
        ),
    }
    if t_star is not None:
        scores["brier_score_at"] = (
            lambda c: brier_score_at(c, ds, t_star, g),
            outcome(oracle_brier, curves, ds, t_star, g),
        )
        if ds.n >= n_bins:
            scores["one_calibration"] = (
                lambda c: one_calibration(c, ds, t_star, n_bins),
                outcome(lambda: as_scores(oracle_one_calibration(curves, ds, t_star, n_bins))),
            )
    if weights is not None:
        scores["ibs"] = (
            lambda c: integrated_brier_score(
                c, ds, g, weights.grid_size, weights.t_max, weights=weights
            ),
            outcome(oracle_ibs, curves, ds, g, weights.grid_size, weights.horizon),
        )
    for given in (summary, batch, curves):
        for name, (score, want) in scores.items():
            assert outcome(score, given) == want, name
    assert outcome(extract_predicted_times, summary.predictions, method) == outcome(
        extract_predicted_times, batch, method
    )


def test_a_summary_answers_only_for_what_it_was_built_for():
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, False, True])
    twin = SurvivalDataset.from_arrays(ds.times, ds.events)
    batch = CurveBatch(knots=[0.5, 2.5], values=np.tile([0.8, 0.3], (3, 1)))
    g = censoring_km_fit(ds)
    weights = _brier_weights(ds, g, 100, None)
    summary = summary_of(ds, batch, "median", 2.0, weights)
    with pytest.raises(ValueError, match="^the summary was made for another dataset$"):
        log_likelihood(summary, twin)
    with pytest.raises(ValueError, match="^the summary holds S at t_star=2.0, not 2.5$"):
        one_calibration(summary, ds, 2.5, n_bins=2)
    with pytest.raises(ValueError, match="^the summary summed its Brier terms with other weights$"):
        integrated_brier_score(summary, ds, g, 100, None)
    with pytest.raises(ValueError, match="^the times were extracted by median, not mean$"):
        extract_predicted_times(summary.predictions, "mean")
    with pytest.raises(ValueError, match="^got 4 curves for 3 subjects$"):
        summary.add(batch.take([0]))
    with pytest.raises(ValueError, match="^a summary sums the Brier terms of a grid of several"):
        _Summary(ds, "median", None, _brier_weights(ds, g, 1, None))
    part = summary_of(ds, batch.take([0, 1]), "median", None, None)
    assert len(part) == 2
    with pytest.raises(ValueError, match="^got 2 curves for 3 subjects$"):
        extract_predicted_times(part.predictions, "median")
    with pytest.raises(ValueError, match="^got 2 curves for 3 subjects$"):
        d_calibration(part, ds)


def test_a_degenerate_curve_is_named_by_its_subject_across_blocks():
    # subject 5 reads 0 at 0 (median 0) and subject 11 never descends: the
    # flat curve is named first, as the whole batch names it, from whichever
    # block holds it
    n = 16
    values = np.tile([0.9, 0.4, 0.1], (n, 1))
    values[5] = [0.0, 0.0, 0.0]
    values[11] = [1.0, 1.0, 1.0]
    batch = CurveBatch(knots=[0.0, 1.0, 2.0], values=values)
    ds = SurvivalDataset.from_arrays(np.arange(1.0, n + 1.0), np.ones(n, dtype=bool))
    for pieces in ((None,), (3, 7, None), (1,) * 15 + (None,)):
        summary = summary_of(ds, batch, "median", None, None, pieces)
        with pytest.raises(DegenerateCurveError, match="^subject 11: curve never descends; median"):
            extract_predicted_times(summary.predictions, "median")
    with pytest.raises(DegenerateCurveError, match="^subject 11: curve never descends; median"):
        extract_predicted_times(batch, "median")
    batch = CurveBatch(knots=[0.0, 1.0, 2.0], values=values[:11])
    summary = summary_of(ds.subset(range(11)), batch, "median", None, None, pieces=(2, 2, None))
    with pytest.raises(DegenerateCurveError, match="^subject 5: median time 0.0 is not finite"):
        extract_predicted_times(summary.predictions, "median")


# ------------------------------------------------------------ the curve file


def oracle_set(n, seed):
    rng = np.random.default_rng(seed)
    truths = 10.0 * rng.weibull(1.5, n)
    censor = rng.uniform(0.0, 25.0, n)
    return SurvivalDataset.from_arrays(
        np.minimum(truths, censor), truths <= censor, true_times=truths,
        features=rng.normal(size=(n, 2)),
    )


def curve_rows(ds, grid, seed):
    rng = np.random.default_rng(seed)
    medians = ds.true_times * np.exp(rng.normal(0.0, 0.3, ds.n))
    return np.exp(-np.log(2.0) * (grid[None, :] / medians[:, None]) ** 1.5)


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """A dataset of 500 subjects and its curve file on a 100-point grid,
    about four blocks of rows, in order."""
    root = tmp_path_factory.mktemp("eval")
    ds = oracle_set(500, 21)
    grid = np.linspace(0.3, 30.0, 100)
    rows = curve_rows(ds, grid, 22)
    save_dataset(ds, root / "data.csv")
    save_curve_file(root / "curves.csv", grid, rows)
    return root, ds, grid, rows


def eval_stdout(data, curves, *extra):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", str(data), "--curves", str(curves), *extra]) == 0
    return out.getvalue()


@pytest.mark.parametrize("method", ["median", "mean"])
def test_eval_prints_the_same_scores_in_any_row_order(eval_files, tmp_path, method):
    root, ds, grid, rows = eval_files
    data = root / "data.csv"
    want = eval_stdout(data, root / "curves.csv", "--method", method)
    held = evaluate_dataset(ds, load_curve_file(root / "curves.csv").select(range(ds.n)), method)
    assert json.loads(want) == {met: _finite_or_none(score) for met, score in held.items()}
    swapped = np.arange(ds.n)
    swapped[[200, 201]] = swapped[[201, 200]]
    orders = {
        "reversed": np.arange(ds.n)[::-1],
        "swapped": swapped,
        "shuffled": np.random.default_rng(3).permutation(ds.n),
    }
    for name, order in orders.items():
        path = tmp_path / f"{name}.csv"
        save_curve_file(path, grid, rows[order], indices=order)
        assert eval_stdout(data, path, "--method", method) == want, name
    # rows of subjects past the dataset are checked and dropped, wherever they lie
    more = np.concatenate((np.arange(ds.n + 40), [ds.n + 90]))
    more[[7, ds.n + 5]] = more[[ds.n + 5, 7]]
    extra = np.concatenate((rows, curve_rows(oracle_set(41, 5), grid, 6)))
    save_curve_file(tmp_path / "more.csv", grid, extra[np.argsort(np.argsort(more))], indices=more)
    assert eval_stdout(data, tmp_path / "more.csv", "--method", method) == want


@pytest.mark.parametrize("cells", [1, 300, 1 << 14])
def test_eval_scores_alike_at_any_block_and_chunk_size(eval_files, cells):
    root, ds, _, _ = eval_files
    want = eval_stdout(root / "data.csv", root / "curves.csv")
    blocks = mock.patch.object(harness, "_CURVE_BLOCK_CELLS", cells)
    with blocks, mock.patch.object(metrics, "_IBS_CELLS", cells):
        with mock.patch.object(core, "_CHUNK_BYTES", 999):
            assert eval_stdout(root / "data.csv", root / "curves.csv") == want


def test_eval_scores_alike_where_the_line_reader_takes_over(eval_files, tmp_path):
    # a leading + on line 302 takes its chunk and the rest of the file from
    # the block reader to the line reader, half way through a block
    root, _, _, _ = eval_files
    want = eval_stdout(root / "data.csv", root / "curves.csv")
    lines = (root / "curves.csv").read_text().splitlines(keepends=True)
    lines[301] = "+" + lines[301]
    path = tmp_path / "plus.csv"
    path.write_text("".join(lines))
    with mock.patch.object(core, "_CHUNK_BYTES", 999):
        assert eval_stdout(root / "data.csv", path) == want


def test_eval_reads_the_curve_file_from_a_pipe(eval_files):
    root, _, _, _ = eval_files
    want = eval_stdout(root / "data.csv", root / "curves.csv")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    piped = subprocess.run(
        [sys.executable, "-m", "survmae.cli", "eval", str(root / "data.csv"), "--curves", "/dev/stdin"],
        input=(root / "curves.csv").read_bytes(), capture_output=True, env=env, check=True,
    )
    assert piped.stdout.decode() == want


def test_an_undefined_median_in_a_late_block_blanks_only_the_prediction_metrics(eval_files, tmp_path):
    root, ds, grid, rows = eval_files
    rows = rows.copy()
    rows[450] = 1.0  # a curve that never descends: no median
    path = tmp_path / "late.csv"
    save_curve_file(path, grid, rows)
    got = json.loads(eval_stdout(root / "data.csv", path))
    held = evaluate_dataset(ds, load_curve_file(path).select(range(ds.n)))
    assert got == {met: _finite_or_none(score) for met, score in held.items()}
    blank = {met for met, score in held.items() if score is None}
    assert blank == {met for met in got if met.startswith("mae_")} | {"true_mae", "c_index"}


def file_with(rows_text, grid):
    return "t," + ",".join(map(repr, grid.tolist())) + "\n" + "".join(rows_text)


@pytest.mark.parametrize(
    "faults, message",
    [
        ({400: "400,0.1,0.5,0.9\n", 450: "450,x,0.5,0.4\n"}, "line 402: values must be non-increasing"),
        ({300: "300,x,0.5,0.4\n", 400: "400,0.1,0.5,0.9\n"}, "line 302: non-numeric field"),
        ({400: "-4,0.9,0.5,0.4\n", 450: "450,0.1,0.5,0.9\n"}, "line 402: subject index must be >= 0, got -4"),
        ({400: "399,0.9,0.5,0.4\n", 450: "x,0.9,0.5,0.4\n"}, "line 402: duplicate subject index 399"),
        ({450: "450,0.9,0.5\n"}, "line 452: expected 4 fields, found 3"),
    ],
    ids=["bad-curve-then-parse-fault", "parse-fault-then-bad-curve", "negative-index", "duplicate", "short-row"],
)
def test_the_first_bad_line_is_named_across_blocks(tmp_path, capsys, faults, message):
    # 500 rows of 3 values: in blocks of 12 rows and chunks of 999 bytes, the
    # faults lie many blocks and chunks past the first
    ds = oracle_set(500, 23)
    save_dataset(ds, tmp_path / "data.csv")
    grid = np.array([1.0, 5.0, 9.0])
    lines = [faults.get(i, f"{i},0.9,0.5,0.4\n") for i in range(500)]
    path = tmp_path / "curves.csv"
    path.write_text(file_with(lines, grid))
    for cells in (36, 1 << 15):
        with mock.patch.object(harness, "_CURVE_BLOCK_CELLS", cells), mock.patch.object(core, "_CHUNK_BYTES", 999):
            assert main(["eval", str(tmp_path / "data.csv"), "--curves", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            with pytest.raises(ValueError) as held:
                load_curve_file(path)
            assert str(held.value) == message


@pytest.mark.parametrize(
    "indices, message",
    [
        ([*range(3), *range(4, 9)], r"\[3\] \(1 missing of 9\)"),
        ([*range(8, 2, -1), 0, 1], r"\[2\] \(1 missing of 9\)"),
        ([0, 1, 2, 9, 10], r"\[3, 4, 5, 6, 7\] \(6 missing of 9\)"),
        ([0, 4, 2], r"\[1, 3, 5, 6, 7\] \(6 missing of 9\)"),
        ([], r"\[0, 1, 2, 3, 4\] \(9 missing of 9\)"),
    ],
    ids=["gap", "gap-out-of-order", "tail", "gaps-after-an-out-of-order-row", "no-rows"],
)
def test_eval_names_the_subjects_a_curve_file_lacks(tmp_path, capsys, indices, message):
    ds = oracle_set(9, 24)
    save_dataset(ds, tmp_path / "data.csv")
    path = tmp_path / "curves.csv"
    save_curve_file(path, [1.0, 2.0], np.tile([0.9, 0.4], (len(indices), 1)), indices=indices)
    with mock.patch.object(harness, "_CURVE_BLOCK_CELLS", 4):
        assert main(["eval", str(tmp_path / "data.csv"), "--curves", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: curve file does not cover subjects ")
    assert err.rstrip().endswith(message.replace("\\", "")), err


def test_eval_memory_is_bounded_by_its_blocks(tmp_path):
    # 20,000 subjects on a 100-point grid: the 16 MB value table of the file
    # was held whole (peaking at 2.9 times it, traced); streamed into the
    # summary block by block, the run must take under half of it
    n, grid = 20_000, np.linspace(0.3, 30.0, 100)
    ds = oracle_set(n, 25)
    rows = curve_rows(ds, grid, 26)
    save_dataset(ds, tmp_path / "data.csv")
    save_curve_file(tmp_path / "curves.csv", grid, rows)
    table = rows.nbytes
    del rows
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert main(["eval", str(tmp_path / "data.csv"), "--curves", str(tmp_path / "curves.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.getvalue())["ibs"] is not None
    assert peak < table / 2, (peak, table)
