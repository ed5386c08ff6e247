"""CSV and curve-file I/O: the C-reader fast paths against the line reader.

``load_dataset`` and ``load_curve_file`` read a valid file in one pass of
NumPy's C reader and fall back to reading line by line on any other file.
The line reader is the oracle: with the C reader switched off (``slow``
below) every file must give the same arrays, bit for bit, or the same
exception type and message. ``save_dataset`` and ``save_curve_file`` must
write the bytes of a ``csv.writer`` that formats each number with ``repr``.
"""

import csv
import os
import string
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survmae import (
    DataFormatError,
    SurvivalDataset,
    core,
    harness,
    load_curve_file,
    load_dataset,
    save_curve_file,
    save_dataset,
)

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


# ------------------------------------------------------------------ oracle


@contextmanager
def slow():
    """The loaders with the C reader switched off: only the line reader runs."""
    with (
        mock.patch.object(core, "_read_columns", lambda lines, dtype: None),
        mock.patch.object(harness, "_read_columns", lambda lines, dtype: None),
    ):
        yield


def outcome(load, path, **kwargs):
    """What ``load`` makes of ``path``: its arrays as bytes, or its error."""
    try:
        got = load(path, **kwargs)
    except Exception as exc:  # the oracle must match any error, not only ours
        return ("error", type(exc), str(exc))
    if isinstance(got, SurvivalDataset):
        truths = got.true_times
        return (
            "dataset",
            got.feature_names,
            got.times.tobytes(),
            got.events.tobytes(),
            None if truths is None else truths.tobytes(),
            got.feature_matrix.shape,
            got.feature_matrix.tobytes(),
        )
    return (
        "curves",
        list(got),
        [type(i) for i in got],
        got.batch.knots.tobytes(),
        got.batch.values.shape,
        got.batch.values.tobytes(),
    )


def assert_same_as_line_reader(load, path, **kwargs):
    fast = outcome(load, path, **kwargs)
    with slow():
        oracle = outcome(load, path, **kwargs)
    assert fast == oracle
    return fast


@contextmanager
def csv_readers():
    """Every CSV reader opened meanwhile, each counting the rows it hands out
    (the header is one)."""
    real = csv.reader
    readers = []

    class CountingReader:
        def __init__(self, fh):
            self._reader = real(fh)
            self.rows = 0
            readers.append(self)

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self._reader)
            self.rows += 1
            return row

    with mock.patch.object(csv, "reader", CountingReader):
        yield readers


def write(tmp_path, text, name="file.csv"):
    path = tmp_path / name
    with path.open("w", newline="") as fh:
        fh.write(text)
    return path


# ------------------------------------------------------------- random files

# tokens a field may hold: plain numbers, forms only one reader may accept,
# and values that break a rule
NUMBERS = ["1.5", "2.0", "0.25", "3", "1e1", "7.25e-1", " 4.5 ", "+1", "-0"]
ODD_FIELDS = [
    "1_0", '"1.5"', "#1", "", " ", "nan", "inf", "-inf", "1e999", "0x1",
    "1.0.0", "١", "　1", "0", "-2", "x",
]
EVENTS = ["0", "1", "1.0", "0.0", "-0", "+1", " 1", "2", "0.5"]
ENDINGS = ["\n", "\r\n", "\r"]
EXTRA_LINES = ["", "  ", "\t", "# note", "1.0,1,", ",", '"a,b",1']


def fields_line(draw, fields):
    """One line of ``fields``, sometimes with a field dropped or added."""
    change = draw(st.sampled_from(["keep"] * 8 + ["drop", "add"]))
    if change == "drop" and len(fields) > 1:
        fields = fields[:-1]
    elif change == "add":
        fields = fields + [draw(st.sampled_from(NUMBERS))]
    return ",".join(fields)


def join_lines(draw, lines):
    """Lines with one kind of line ending, blank or odd lines mixed in."""
    ending = draw(st.sampled_from(ENDINGS))
    out = []
    for line in lines:
        if draw(st.integers(0, 9)) == 0:
            out.append(draw(st.sampled_from(EXTRA_LINES)))
        out.append(line)
    tail = draw(st.sampled_from(["", ending]))
    return ending.join(out) + tail


@st.composite
def dataset_files(draw):
    """A CSV file with a header, mostly valid."""
    n_features = draw(st.integers(0, 3))
    header = ["time", "event"] + (["true_time"] if draw(st.booleans()) else [])
    header += [f"f{j}" for j in range(n_features)]
    header = draw(st.permutations(header))
    odd = draw(st.integers(0, 3)) == 0  # a file with odd tokens here and there
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        time = draw(st.floats(0.01, 50.0, allow_nan=False))
        event = draw(st.booleans())
        truth = time if event else time + draw(st.floats(0.0, 10.0))
        values = {
            "time": repr(time),
            "event": str(int(event)),
            "true_time": repr(truth),
        }
        fields = []
        for name in header:
            text = values.get(name) or repr(draw(st.floats(-1e6, 1e6)))
            if odd and draw(st.integers(0, 4)) == 0:
                pool = EVENTS if name == "event" else NUMBERS + ODD_FIELDS
                text = draw(st.sampled_from(pool))
            fields.append(text)
        lines.append(fields_line(draw, fields) if odd else ",".join(fields))
    text = join_lines(draw, lines) if odd else "\n".join(lines) + "\n"
    return text


@st.composite
def curve_files(draw):
    """A curve file, mostly valid: grid header, then ``index,values`` rows."""
    width = draw(st.integers(1, 4))
    steps = draw(st.lists(st.floats(0.01, 5.0), min_size=width, max_size=width))
    grid = np.cumsum(steps).tolist()
    odd = draw(st.integers(0, 3)) == 0
    lines = ["t," + ",".join(map(repr, grid))]
    used = []
    for _ in range(draw(st.integers(0, 6))):
        values = sorted(
            draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width)),
            reverse=True,
        )
        index = draw(st.integers(0, 20).filter(lambda i: i not in used))
        used.append(index)
        fields = [str(index)] + list(map(repr, values))
        if odd and draw(st.integers(0, 3)) == 0:
            spot = draw(st.integers(0, width))
            pool = (
                ["1.0", "+3", " 4 ", "1_0", "-1", "99999999999999999999", str(2**63), "0"]
                if spot == 0
                else NUMBERS + ODD_FIELDS + ["0.5", "1", "0.9"]
            )
            fields[spot] = draw(st.sampled_from(pool))
        lines.append(fields_line(draw, fields) if odd else ",".join(fields))
    return join_lines(draw, lines) if odd else "\n".join(lines) + "\n"


@PROPERTY
@given(text=dataset_files(), event_column=st.sampled_from(["event"] * 4 + ["true_time"]))
def test_load_dataset_equals_the_line_reader(tmp_path, text, event_column):
    path = write(tmp_path, text)
    assert_same_as_line_reader(load_dataset, path, event_column=event_column)


@PROPERTY
@given(text=curve_files())
def test_load_curve_file_equals_the_line_reader(tmp_path, text):
    path = write(tmp_path, text)
    assert_same_as_line_reader(load_curve_file, path)


@PROPERTY
@given(text=st.text(alphabet=string.digits + ".,+-_ e\n\r\"#xtnaif\x0c\x85\u2028", max_size=60))
def test_loaders_equal_the_line_reader_on_any_text(tmp_path, text):
    path = write(tmp_path, "time,event,f\n" + text)
    assert_same_as_line_reader(load_dataset, path)
    path = write(tmp_path, "t,1,2\n" + text)
    assert_same_as_line_reader(load_curve_file, path)


# ------------------------------------------------------------- fixed cases

DATASET_CASES = {
    "valid": "time,event,true_time,f\n1.5,1,1.5,0.2\n2.0,0,4.0,-0.0\n",
    "blank-lines": "time,event\n1.5,1\n\n\n2.0,0\n\n",
    "whitespace-line": "time,event\n1.5,1\n  \n2.0,0\n",
    "tab-line": "time,event\n1.5,1\n\t\n",
    "crlf": "time,event\r\n1.5,1\r\n2.0,0\r\n",
    "cr-only": "time,event\r1.5,1\r2.0,0\r",
    "cr-blank-line": "time,event\r1.5,1\r\r2.0,0",
    "quoted-field": 'time,event\n"1.5",1\n2.0,0\n',
    "quoted-comma": 'time,event\n"1,5",1\n',
    "plus-sign": "time,event\n+1.5,+1\n",
    "underscore": "time,event\n1_0,1\n",
    "comment-line": "time,event\n# a comment\n1.5,1\n",
    "hash-field": "time,event\n#1.5,1\n",
    "trailing-comma": "time,event\n1.5,1,\n",
    "padded-fields": "time,event\n 1.5 , 1 \n",
    "nan": "time,event\nnan,1\n",
    "inf": "time,event,f\n1.5,1,inf\n",
    "overflow": "time,event\n1e999,1\n",
    "event-one-point-zero": "time,event\n1.5,1.0\n2.0,-0\n",
    "event-two": "time,event\n1.5,2\n",
    "rule-break": "time,event\n1.5,1\n0.0,1\n",
    "rule-then-parse-error": "time,event\n0.0,1\nx,1\n",
    "wide-row": "time,event\n1.5,1,3\n",
    "narrow-row": "time,event,f\n1.5,1\n",
    "one-column-rows": "time,event\n1.5\n2.0\n",
    "unicode-digit": "time,event\n١,1\n",
    "unicode-space": "time,event\n1.5　,1\n",
    "nul": "time,event\n1.5\x00,1\n",
    "empty": "",
    "header-only": "time,event\n",
    "header-then-blank": "time,event\n\n",
    "two-line-header": 'time,event,"f\ng"\n1.5,1,2\n',
    "header-quote-swallows-rows": 'time,event,"f\n1.5,1,2\n',
    "quoted-header": 'time,"event"\n1.5,1\n',
    "padded-header": " time , event \n1.5,1\n",
}


@pytest.mark.parametrize("text", DATASET_CASES.values(), ids=DATASET_CASES.keys())
def test_load_dataset_fixed_cases(tmp_path, text):
    assert_same_as_line_reader(load_dataset, write(tmp_path, text))


CURVE_CASES = {
    "valid": "t,1,2\n0,0.9,0.5\n7,1.0,0.0\n",
    "blank-lines": "t,1,2\n\n0,0.9,0.5\n\n",
    "whitespace-line": "t,1,2\n0,0.9,0.5\n \n",
    "crlf": "t,1,2\r\n0,0.9,0.5\r\n1,0.8,0.4\r\n",
    "cr-only": "t,1,2\r0,0.9,0.5\r1,0.8,0.4",
    "quoted-field": 't,1,2\n"0",0.9,0.5\n',
    "plus-index": "t,1,2\n+3,0.9,0.5\n",
    "padded-index": "t,1,2\n 3 ,0.9,0.5\n",
    "negative-index": "t,1,2\n-3,0.9,0.5\n",
    "underscore-index": "t,1,2\n1_0,0.9,0.5\n",
    "float-index": "t,1,2\n1.0,0.9,0.5\n",
    "index-above-int64": f"t,1,2\n{2**63},0.9,0.5\n{2**64 + 5},0.8,0.1\n",
    "comment-line": "t,1,2\n#0,0.9,0.5\n",
    "trailing-comma": "t,1,2\n0,0.9,0.5,\n",
    "nan-value": "t,1,2\n0,0.9,nan\n",
    "inf-value": "t,1,2\n0,inf,0.5\n",
    "rule-break": "t,1,2\n0,0.9,0.5\n1,0.5,0.9\n",
    "duplicate-index": "t,1,2\n0,0.9,0.5\n0,0.8,0.4\n",
    "duplicate-index-after-rule-break": "t,1,2\n0,0.5,0.9\n0,0.8,0.4\n",
    "narrow-row": "t,1,2\n0,0.9\n",
    "empty": "",
    "header-only": "t,1,2\n",
    "two-line-header": 't,1,"2\n"\n0,0.9,0.5\n',
    "header-quote-swallows-rows": 't,1,"2\n0,0.9,0.5\n',
    "decreasing-grid": "t,2,1\n0,0.9,0.5\n",
}


@pytest.mark.parametrize("text", CURVE_CASES.values(), ids=CURVE_CASES.keys())
def test_load_curve_file_fixed_cases(tmp_path, text):
    assert_same_as_line_reader(load_curve_file, write(tmp_path, text))


def test_index_above_int64_keeps_python_ints(tmp_path):
    got = assert_same_as_line_reader(
        load_curve_file, write(tmp_path, CURVE_CASES["index-above-int64"])
    )
    assert got[1] == [2**63, 2**64 + 5]


@pytest.mark.parametrize("lines", [["1.0,0.9,0.5\n"], [], ["0,0.9\n"], ["0,x,0.5\n"]])
def test_c_reader_declines_what_it_cannot_read_exactly(lines):
    # numpy < 2 reads "1.0" as the integer 1 with a DeprecationWarning, and
    # warns when there are no rows: a warning declines like an error
    dtype = [("index", np.int64), ("values", float, (2,))]
    assert core._read_columns(lines, dtype) is None


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize(
    "load, text",
    [(load_dataset, DATASET_CASES["valid"]), (load_curve_file, CURVE_CASES["valid"])],
)
def test_line_endings_read_alike(tmp_path, load, text, ending):
    got = outcome(load, write(tmp_path, text.replace("\n", ending), "other.csv"))
    assert got == outcome(load, write(tmp_path, text))
    assert got[0] != "error"


def rows_read(load, path):
    with csv_readers() as readers:
        try:
            load(path)
        except DataFormatError:
            pass
    return [reader.rows for reader in readers]


def test_valid_files_skip_the_line_reader(tmp_path):
    assert rows_read(load_dataset, write(tmp_path, DATASET_CASES["valid"])) == [1]
    assert rows_read(load_curve_file, write(tmp_path, CURVE_CASES["valid"])) == [1]


def test_bad_files_fall_back_to_the_line_reader(tmp_path):
    # the header, then both rows from the lines read with it: the second row
    # breaks a rule or repeats an index
    assert rows_read(load_dataset, write(tmp_path, DATASET_CASES["rule-break"])) == [1, 2]
    assert rows_read(load_curve_file, write(tmp_path, CURVE_CASES["duplicate-index"])) == [1, 2]


# ------------------------------------------------------------------- pipes


def big_dataset_text(bad):
    rows = [f"{1.0 + i / 7!r},{i % 2},{i * 0.1!r}" for i in range(4000)]
    if bad:
        rows[-1] = "2.5,1,x"
    return "time,event,f\r\n" + "\r\n".join(rows) + "\r\n"


def big_curve_text(bad):
    grid = ",".join(repr(0.5 * k) for k in range(1, 11))
    rows = [f"{i}," + ",".join(repr(1.0 - k / 10 - i * 1e-6) for k in range(10)) for i in range(1500)]
    if bad:
        rows[-1] = "0," + rows[-1].split(",", 1)[1]
    return f"t,{grid}\n" + "\n".join(rows) + "\n"


def read_through_pipe(tmp_path, text, load):
    """What ``load`` makes of ``text`` streamed through a named pipe."""
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    loaded = threading.Event()
    errors = []

    def feed():
        try:
            with fifo.open("w", newline="") as fh:
                fh.write(text)
        except OSError as exc:  # the loader closed the pipe before the end
            errors.append(exc)
        # a loader that opens the pipe a second time reads it empty instead
        # of waiting for a writer forever
        while not loaded.wait(0.01):
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader is waiting
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    got = outcome(load, fifo)
    loaded.set()
    writer.join(timeout=30)
    assert not writer.is_alive() and not errors
    return got


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("bad", [False, True], ids=["valid", "bad-last-row"])
@pytest.mark.parametrize(
    "load, make", [(load_dataset, big_dataset_text), (load_curve_file, big_curve_text)]
)
def test_loaders_read_a_pipe_to_its_end(tmp_path, load, make, bad):
    # well past one read buffer: a loader that opened the pipe a second time
    # would find the first rows gone
    text = make(bad)
    assert len(text) > 64 * 1024
    with csv_readers() as readers:
        piped = read_through_pipe(tmp_path, text, load)
    assert piped == outcome(load, write(tmp_path, text))
    assert piped[0] == ("error" if bad else "dataset" if load is load_dataset else "curves")
    if not bad:  # the C reader took every row
        assert [reader.rows for reader in readers] == [1]


# ----------------------------------------------------------------- writers


def oracle_save_dataset(ds, path):
    """``save_dataset`` one subject at a time through ``csv.writer``."""
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


def oracle_save_curve_file(path, grid, value_rows, indices):
    """``save_curve_file`` one curve at a time through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [repr(float(t)) for t in grid])
        for idx, row in zip(indices, value_rows):
            writer.writerow([int(idx)] + [repr(float(v)) for v in row])


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
NAMES = st.text(alphabet='ab,"\n x', min_size=1, max_size=4)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 8))
    n_features = draw(st.integers(0, 3))
    times = draw(st.lists(st.floats(1e-300, 1e300), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    features = draw(
        st.lists(st.lists(FINITE, min_size=n_features, max_size=n_features), min_size=n, max_size=n)
    )
    truths = None
    if draw(st.booleans()):
        truths = [t if e else t * draw(st.floats(1.0, 4.0)) for t, e in zip(times, events)]
    names = draw(st.lists(NAMES, min_size=n_features, max_size=n_features, unique=True))
    return SurvivalDataset(
        times, events, np.array(features, dtype=float).reshape(n, n_features), truths, names
    )


@PROPERTY
@given(ds=datasets())
def test_save_dataset_equals_the_csv_writer(tmp_path, ds):
    save_dataset(ds, tmp_path / "columns.csv")
    oracle_save_dataset(ds, tmp_path / "rows.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert_same_as_line_reader(load_dataset, tmp_path / "columns.csv")


@PROPERTY
@given(
    width=st.integers(1, 5),
    n=st.integers(0, 6),
    data=st.data(),
)
def test_save_curve_file_equals_the_csv_writer(tmp_path, width, n, data):
    grid = data.draw(st.lists(FINITE, min_size=width, max_size=width))
    rows = data.draw(st.lists(st.lists(FINITE, min_size=width, max_size=width), min_size=n, max_size=n))
    indices = data.draw(st.lists(st.integers(-(2**70), 2**70), min_size=n, max_size=n))
    if data.draw(st.booleans()):  # whole numbers held as floats are written as ints
        indices = np.array([i % 2**53 for i in indices], dtype=float)
    values = np.array(rows, dtype=float).reshape(n, width)
    save_curve_file(tmp_path / "columns.csv", grid, values, indices=indices)
    oracle_save_curve_file(tmp_path / "rows.csv", grid, values, indices)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert_same_as_line_reader(load_curve_file, tmp_path / "columns.csv")


# ------------------------------------------------------- feature-name round trip


@pytest.mark.parametrize(
    "names, bad",
    [
        (("time",), "time"),
        (("event",), "event"),
        (("true_time",), "true_time"),
        (("a", " time"), " time"),
        (("a", "b", "a"), "a"),
    ],
)
def test_save_dataset_rejects_names_that_do_not_read_back(tmp_path, names, bad):
    ds = SurvivalDataset.from_arrays([1.0, 2.0], [True, False], np.ones((2, len(names))), None, names)
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"feature name {bad!r}"):
        save_dataset(ds, path)
    assert not path.exists()


def test_a_feature_named_time_is_read_but_not_written(tmp_path):
    path = write(tmp_path, "t,event,time\n1.5,1,2.0\n")
    ds = load_dataset(path, time_column="t")
    assert ds.feature_names == ("time",)
    with pytest.raises(ValueError, match="feature name 'time'"):
        save_dataset(ds, tmp_path / "out.csv")


ROUND_TRIP_NAMES = st.one_of(
    NAMES, st.sampled_from(["time", "event", "true_time", " event", "true_time\n", "x"])
)


@PROPERTY
@given(ds=datasets(), data=st.data())
def test_save_then_load_gives_the_dataset_back(tmp_path, ds, data):
    k = len(ds.feature_names)
    names = tuple(data.draw(st.lists(ROUND_TRIP_NAMES, min_size=k, max_size=k)))
    ds = SurvivalDataset(ds.times, ds.events, ds.feature_matrix, ds.true_times, names)
    path = tmp_path / "round.csv"
    path.unlink(missing_ok=True)
    refused = [
        name for j, name in enumerate(names)
        if name.strip() in ("time", "event", "true_time") or name in names[:j]
    ]
    try:
        save_dataset(ds, path)
    except ValueError as exc:
        assert refused and str(exc).startswith(f"feature name {refused[0]!r}")
        assert not path.exists()
        return
    assert not refused
    # the reader strips header names, so names with surrounding whitespace
    # are not kept (an open limit, see CHANGES.md)
    stripped = tuple(name.strip() for name in names)
    if len(set(stripped)) < k:
        with pytest.raises(DataFormatError, match="line 1: column .* appears more than once"):
            load_dataset(path)
        return
    back = load_dataset(path)
    assert back.feature_names == stripped
    assert back.times.tobytes() == ds.times.tobytes()
    assert back.events.tobytes() == ds.events.tobytes()
    assert back.feature_matrix.tobytes() == ds.feature_matrix.tobytes()
    if ds.true_times is None:
        assert back.true_times is None
    else:
        assert back.true_times.tobytes() == ds.true_times.tobytes()
