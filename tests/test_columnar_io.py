"""CSV and curve-file I/O: the orjson fast path against the line reader.

``load_dataset`` and ``load_curve_file`` read a valid file in chunks of
lines, each parsed by one orjson call (``core._read_columns``), and fall
back to reading line by line on any other file. The line reader is the
oracle: with the fast path switched off (``slow`` below) every file must
give the same arrays, bit for bit, or the same exception type and message,
and every number the fast path reads must be the double ``float()`` gives.
``save_dataset`` and ``save_curve_file`` must write the bytes of a
``csv.writer`` that formats each number with ``repr``.
"""

import contextlib
import csv
import decimal
import functools
import io
import math
import os
import string
import threading
import tracemalloc
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
    evaluate_dataset,
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
    """The loaders with the fast path switched off: only the line reader runs."""
    with mock.patch.object(core, "_read_columns", lambda *args, **kwargs: None):
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

        @property
        def line_num(self):
            return self._reader.line_num

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
@given(text=st.text(alphabet=string.digits + ".,+-_ eE\t[]\n\r\"#xtnaif\x0c\x85\u2028", max_size=60))
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
    # csv splits a row at a bare CR, where JSON reads white space
    "bare-cr-in-row": "time,event,f\n1.5,1\r,3\n2.0,0,4\n",
    "bare-cr-last": "time,event\n1.5,1\n2.0,0\r",
    "crlf-and-lf": "time,event\r\n1.5,1\n2.0,0\r\n2.5,1\n",
    "cr-and-lf": "time,event\r1.5,1\n2.0,0\n",
    "two-line-header-crlf": 'time,event,"f\r\ng"\r\n1.5,1,2\r\n',
    "two-line-header-no-newline": 'time,event,"f\ng"',
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
    "negative-index-after-a-row": "t,1,2\n0,0.9,0.5\n-1,0.7,0.4\n1,0.8,0.4\n",
    "float-index-after-a-row": "t,1,2\n0,0.9,0.5\n2.0,0.7,0.3\n",
    "negative-index-after-rule-break": "t,1,2\n0,0.5,0.9\n-1,0.8,0.4\n",
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
    "bare-cr-in-row": "t,1,2\n0,0.9\r,0.5\n1,0.8,0.4\n",
    "bare-cr-before-crlf": "t,1,2\n0,0.9,0.5\r\r\n",
    "crlf-and-lf": "t,1,2\n0,0.9,0.5\r\n1,0.8,0.4\n",
    "cr-crlf-and-lf": "t,1,2\r\n0,0.9,0.5\r1,0.8,0.4\n2,0.7,0.3\r\n",
    "two-line-header-cr": 't,1,"2\r"\r\n0,0.9,0.5\n',
    "header-no-newline": "t,1,2",
}


@pytest.mark.parametrize("text", CURVE_CASES.values(), ids=CURVE_CASES.keys())
def test_load_curve_file_fixed_cases(tmp_path, text):
    assert_same_as_line_reader(load_curve_file, write(tmp_path, text))


# a subject index is a nonnegative integer: a negative or non-integer index
# is a fault of its line, named as a duplicate is, in the order of the lines
INDEX_FAULTS = {
    "negative": (
        "t,1,2\n0,0.9,0.5\n-1,0.7,0.4\n1,0.8,0.4\n",
        "line 3: subject index must be >= 0, got -1",
    ),
    "float": (
        "t,1,2\n0,0.9,0.5\n1,0.8,0.4\n2.0,0.7,0.3\n",
        "line 4: subject index must be an integer, got '2.0'",
    ),
    "exponent": ("t,1,2\n1e0,0.9,0.5\n", "line 2: subject index must be an integer, got '1e0'"),
    "word": ("t,1,2\nx,0.9,0.5\n", "line 2: non-numeric field"),
    "rule-break-first": ("t,1,2\n0,0.5,0.9\n-1,0.8,0.4\n", "line 2: values must be non-increasing"),
    "negative-row-not-checked": (
        "t,1,2\n-1,0.5,0.9\n0,0.5,0.9\n",
        "line 2: subject index must be >= 0, got -1",
    ),
    "negative-before-a-parse-fault": (
        "t,1,2\n0,0.9,0.5\n-2,0.8,0.4\n1.5,0.7,0.3\n",
        "line 3: subject index must be >= 0, got -2",
    ),
    "duplicate-before-a-negative": (
        "t,1,2\n0,0.9,0.5\n0,0.8,0.4\n-1,0.7,0.3\n",
        "line 3: duplicate subject index 0",
    ),
}


@pytest.mark.parametrize("text, message", INDEX_FAULTS.values(), ids=INDEX_FAULTS.keys())
def test_a_subject_index_is_a_nonnegative_integer(tmp_path, text, message):
    path = write(tmp_path, text)
    ds = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [True, False, True])
    # the held reader, then the reader that streams its rows into the scores
    for read in (load_curve_file, lambda path: evaluate_dataset(ds, path)):
        for reader in (contextlib.nullcontext, slow):
            with reader(), pytest.raises(DataFormatError) as caught:
                read(path)
            assert str(caught.value) == message


def test_index_above_int64_keeps_python_ints(tmp_path):
    got = assert_same_as_line_reader(
        load_curve_file, write(tmp_path, CURVE_CASES["index-above-int64"])
    )
    assert got[1] == [2**63, 2**64 + 5]


@pytest.mark.parametrize(
    "lines",
    [
        ["1.0,0.9,0.5\n"],  # an index that is not a JSON integer
        [],  # no rows
        ["0,0.9\n"],  # a short row
        ["0,x,0.5\n"],  # not a number
        ["0,-0,0.5\n"],  # orjson reads the integer -0 as 0, float() as -0.0
        ["0,0.9 ,-0\t\n"],
        ["0,[0.9],0.5\n"],  # JSON structure in a field
        ['0,"0.9",0.5\n'],
        ["0,0.9],[1,0.5\n"],  # one line that would read as two rows
        ["0,\u0660.9,0.5\n"],  # ARABIC-INDIC DIGIT ZERO: float() reads it, JSON does not
        ["0,0.9,0.5\n", "\n"],  # a blank row
        [f"{2**63},0.9,0.5\n"],  # an index above int64
        ["-0,0.9,0.5\n"],  # an integer -0 as the index
    ],
)
def test_c_reader_declines_what_it_cannot_read_exactly(lines):
    # the line reader then reads the file, and names the fault if there is one
    assert core._read_columns("".join(lines).encode(), 3, index=True) is None


# --------------------------------------------------------- exact numbers


def binary_midpoints(x):
    """The exact decimal halfway between ``x`` and the next double away from
    zero (toward zero at the largest double), and its decimal neighbours in
    the 800th digit: float() rounds the first to even and the others away
    from it."""
    step = math.nextafter(x, math.copysign(math.inf, x))
    if math.isinf(step):
        step = math.nextafter(x, 0.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        mid = (decimal.Decimal(x) + decimal.Decimal(step)) / 2
        return [str(mid), str(mid.next_plus()), str(mid.next_minus())]


@st.composite
def number_fields(draw):
    """One double written as repr, %.17g or %.25g writes it, or a decimal
    beside a halfway point between two doubles."""
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    form = draw(st.sampled_from(["repr", "%.17g", "%.25g", "midpoint"]))
    if form == "repr":
        return repr(x)
    if form == "midpoint":
        return draw(st.sampled_from(binary_midpoints(x)))
    return form % x


def file_chunks(data, size):
    """The chunks the loaders cut the rows ``data`` into, reading about
    ``size`` bytes at a time."""
    with chunks_of(size):
        chunks = list(core._chunks(b"", io.BytesIO(data)))
    assert b"".join(chunks) == data
    return chunks


@PROPERTY
@given(
    width=st.integers(1, 6),
    n=st.integers(1, 131),
    size=st.integers(1, 1 << 12),
    data=st.data(),
)
def test_c_reader_parses_each_number_as_float_does(width, n, size, data):
    fields = data.draw(
        st.lists(number_fields(), min_size=n * width, max_size=n * width), label="fields"
    )
    lines = [",".join(fields[i : i + width]) + "\r\n" for i in range(0, n * width, width)]
    for chunk in file_chunks("".join(lines).encode(), size):
        cells = [f for line in chunk.decode().split("\r\n")[:-1] for f in line.split(",")]
        got = core._read_columns(chunk, width)
        if "-0" in cells:  # the one number orjson reads to another double
            assert got is None
        else:
            want = np.array([float(f) for f in cells]).reshape(-1, width)
            assert got is not None and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text",
    ["0.1", "-0.0", "-0e5", "-0e0", "-0E+00", "1e-05", "2e-324", "4.9e-324", "1e-999"]
    + [str(2**64 + 1), "9" * 300],
    ids=lambda text: text[:24],
)
def test_c_reader_reads_edge_numbers_as_float_does(text):
    got = core._read_columns(f"0,{text}\n".encode(), 2, index=True)
    assert got[1].tobytes() == np.array([[float(text)]]).tobytes()


def nonzero_rows(n):
    """Index and values of ``n`` rows of which no cell is zero."""
    return [f"{i + 1},{0.9 - i * 1e-4!r},{0.4 - i * 1e-4!r}" for i in range(n)]


EDGE_ROWS = 64  # the rows of the first chunk below


@pytest.mark.parametrize(
    "row, field",
    [(0, 0), (5, 1), (EDGE_ROWS - 1, 2), (EDGE_ROWS, 2)],
    ids=["first-index", "value", "last-field-of-a-block", "first-line-of-the-next"],
)
def test_an_integer_minus_zero_is_found_in_a_block_with_no_other_zero(row, field):
    # the -0 scan runs only on chunks that parse to a zero cell; an integer
    # -0 parses to one, wherever it sits. Chunks the size of the first
    # EDGE_ROWS lines end at the last of them
    rows = [line.split(",") for line in nonzero_rows(2 * EDGE_ROWS)]

    def parsed(cell):
        rows[row][field] = cell
        lines = [",".join(cells) + "\n" for cells in rows]
        chunks = file_chunks("".join(lines).encode(), len("".join(lines[:EDGE_ROWS])))
        assert chunks[0].count(b"\n") == EDGE_ROWS
        return [core._read_columns(chunk, 3, index=True) for chunk in chunks]

    got = parsed("-0")
    assert [i for i, chunk in enumerate(got) if chunk is None] == [row // EDGE_ROWS]
    got = parsed("0")  # a zero that reads the same as float() reads it
    assert sum((index == 0).sum() + (table == 0.0).sum() for index, table in got) == 1


@pytest.mark.parametrize("exponent", ["1e-0", "2.5E-0", "-3e-0"])
def test_an_exponent_minus_zero_takes_the_block_reader(tmp_path, exponent):
    # the -0 of an exponent is no integer -0 field: with a zero cell in the
    # block, it is still read from the bytes, as float() reads it
    got = core._read_columns(f"0,0.0,{exponent}\n".encode(), 3, index=True)
    assert got is not None
    assert got[1].tobytes() == np.array([[0.0, float(exponent)]]).tobytes()
    path = write(tmp_path, f"t,1,2\n0,0.0,{exponent}\n1,-0,{exponent}\n")
    assert_same_as_line_reader(load_curve_file, path)
    # the real -0 field on the second line still sends the file to the line reader
    assert core._read_columns(path.read_bytes()[6:], 3, index=True) is None


# ---------------------------------------------------- faults in a later chunk

LATER = 131  # a row of the first chunk, well below the header


def dataset_rows(n):
    return [f"{1.0 + i / 7!r},{i % 2},{1.5 * i - 30.0!r}" for i in range(n)]


def curve_rows(n):
    return [f"{i},{0.9 - i * 1e-4!r},{0.4 - i * 1e-4!r}" for i in range(n)]


@pytest.mark.parametrize(
    "load, header, rows, fault, message",
    [
        (load_dataset, "time,event,f", dataset_rows, "1.5,1,x", "non-numeric value 'x' in column 'f'"),
        (load_dataset, "time,event,f", dataset_rows, "1.5,1", "expected 3 fields, found 2"),
        (load_curve_file, "t,1,2", curve_rows, "999,0.9,x", "non-numeric field"),
        (load_curve_file, "t,1,2", curve_rows, "999,0.9", "expected 3 fields, found 2"),
    ],
    ids=["dataset-bad-field", "dataset-short-row", "curves-bad-field", "curves-short-row"],
)
def test_a_fault_in_a_later_block_names_its_line(tmp_path, load, header, rows, fault, message):
    lines = rows(2 * LATER)
    lines[LATER] = fault
    got = assert_same_as_line_reader(load, write(tmp_path, "\n".join([header] + lines) + "\n"))
    assert got == ("error", DataFormatError, f"line {LATER + 2}: {message}")  # the header is line 1


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


def test_broken_rules_are_named_without_the_line_reader(tmp_path):
    # the second row breaks a rule or repeats an index: row i of the fast
    # path's table is file line i + 2, so only the header is read with csv
    for load, text, message in (
        (load_dataset, DATASET_CASES["rule-break"], "line 3: observed time must be positive, got 0.0"),
        (load_curve_file, CURVE_CASES["rule-break"], "line 3: values must be non-increasing"),
        (load_curve_file, CURVE_CASES["duplicate-index"], "line 3: duplicate subject index 0"),
    ):
        path = write(tmp_path, text)
        assert rows_read(load, path) == [1]
        assert assert_same_as_line_reader(load, path) == ("error", DataFormatError, message)


# ---------------------------------------------------- faults in a later chunk


@contextmanager
def chunks_of(size):
    """The loaders reading files in chunks of about ``size`` bytes."""
    with mock.patch.object(core, "_CHUNK_BYTES", size):
        yield


# The header is read through a text stream that reads 8 KiB ahead, and the
# first chunk begins with those bytes. Files of 1,000 rows (about 25 KB) with
# a fault on row 800 put the fault past them, in a later chunk of 256 or 1000
# bytes; chunks of 1 byte end at every line, and each size cuts lines.
CHUNKED = 1000
FAULT_ROW = 800
FAULT_LINE = FAULT_ROW + 2  # the header is line 1
CHUNK_SIZES = [1, 256, 1000]


def with_rows(header, rows, changes):
    """The text of ``header`` and ``rows``, with the rows at the keys of ``changes`` replaced."""
    for row, line in changes.items():
        rows[row] = line
    return "\n".join([header] + rows) + "\n"


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize(
    "load, header, rows, fault, message",
    [
        (load_dataset, "time,event,f", dataset_rows, "1.5,1,x", "non-numeric value 'x' in column 'f'"),
        (load_dataset, "time,event,f", dataset_rows, "1.5,1\r,3", "expected 3 fields, found 2"),
        (load_dataset, "time,event,f", dataset_rows, "1.5,1", "expected 3 fields, found 2"),
        (load_dataset, "time,event,f", dataset_rows, "-1.5,1,2", "observed time must be positive, got -1.5"),
        (load_curve_file, "t,1,2", curve_rows, "5000,0.9,x", "non-numeric field"),
        (load_curve_file, "t,1,2", curve_rows, "5000,0.9\r,0.5", "expected 3 fields, found 2"),
        (load_curve_file, "t,1,2", curve_rows, "5000,0.9", "expected 3 fields, found 2"),
        (load_curve_file, "t,1,2", curve_rows, "5,0.9,0.4", "duplicate subject index 5"),
        (load_curve_file, "t,1,2", curve_rows, "5000,0.4,0.9", "values must be non-increasing"),
    ],
    ids=[
        "dataset-bad-field",
        "dataset-bare-cr",
        "dataset-short-row",
        "dataset-negative-time",
        "curves-bad-field",
        "curves-bare-cr",
        "curves-short-row",
        "curves-duplicate-index",
        "curves-rising",
    ],
)
def test_a_fault_in_a_later_chunk_names_its_line(tmp_path, load, header, rows, fault, message, size):
    path = write(tmp_path, with_rows(header, rows(CHUNKED), {FAULT_ROW: fault}))
    with chunks_of(size):
        got = assert_same_as_line_reader(load, path)
        read = rows_read(load, path)
    assert got == ("error", DataFormatError, f"line {FAULT_LINE}: {message}")
    # the rows before the fault's chunk took the fast path
    assert read[0] == 1 and sum(read[1:]) < FAULT_ROW // 2


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize(
    "load, header, rows, odd, fault, message",
    [
        # a quoted field, a blank line and a quoted field over two lines send
        # the rest of the file to the line reader, which counts every line
        (load_dataset, "time,event,f", dataset_rows, '"1.5",1,2', "1.5,1,x", "non-numeric value 'x' in column 'f'"),
        (load_dataset, "time,event,f", dataset_rows, "", "1.5,1", "expected 3 fields, found 2"),
        (load_dataset, "time,event,f", dataset_rows, '1.5,1,"2\n"', "-1.5,1,2", "observed time must be positive, got -1.5"),
        (load_curve_file, "t,1,2", curve_rows, '5001,"0.9",0.5', "5000,0.9,x", "non-numeric field"),
        (load_curve_file, "t,1,2", curve_rows, "", "5,0.9,0.4", "duplicate subject index 5"),
        (load_curve_file, "t,1,2", curve_rows, '5001,0.9,"0.5\n"', "5000,0.4,0.9", "values must be non-increasing"),
    ],
    ids=[
        "dataset-quoted-field",
        "dataset-blank-line",
        "dataset-two-line-field",
        "curves-quoted-field",
        "curves-blank-line",
        "curves-two-line-field",
    ],
)
def test_the_line_reader_takes_over_at_a_later_chunk(tmp_path, load, header, rows, odd, fault, message, size):
    lines = rows(CHUNKED)
    path = write(tmp_path, with_rows(header, list(lines), {FAULT_ROW: odd}))
    with chunks_of(size):
        valid = assert_same_as_line_reader(load, path)
        read = rows_read(load, path)
    # the file still loads, and csv read only the rows from the odd one's chunk on
    assert valid[0] != "error"
    assert read[0] == 1 and 0 < sum(read[1:]) < FAULT_ROW // 2
    path = write(tmp_path, with_rows(header, lines, {FAULT_ROW: odd, FAULT_ROW + 5: fault}))
    with chunks_of(size):
        got = assert_same_as_line_reader(load, path)
    spans = 1 + odd.count("\n")  # the odd row's lines
    assert got == ("error", DataFormatError, f"line {FAULT_LINE + 4 + spans}: {message}")


@pytest.mark.parametrize("size", [1, 7, 100, 1000, 1 << 14])
@pytest.mark.parametrize("tail", ["\n", "\r\n", ""], ids=["lf", "crlf", "no-final-newline"])
@pytest.mark.parametrize(
    "load, header, rows",
    [(load_dataset, "time,event,f", dataset_rows), (load_curve_file, "t,1,2", curve_rows)],
    ids=["dataset", "curves"],
)
def test_lines_cut_by_a_chunk_edge_are_read_whole(tmp_path, load, header, rows, tail, size):
    # a chunk read ends inside a line; the chunk is extended to that line's end
    ending = "\r\n" if tail == "\r\n" else "\n"
    path = write(tmp_path, ending.join([header] + rows(CHUNKED)) + tail)
    whole = outcome(load, path)
    with chunks_of(size):
        assert outcome(load, path) == whole
        assert rows_read(load, path) == [1]
    assert whole[-2][0] == CHUNKED


@pytest.mark.parametrize(
    "load, header, rows, minus_zero, spot",
    [
        (load_dataset, "time,event,f", dataset_rows, "1.5,1,-0", (6, FAULT_ROW)),
        (load_curve_file, "t,1,2", curve_rows, "5000,0.9,-0", (5, 2 * FAULT_ROW + 1)),
    ],
    ids=["dataset", "curves"],
)
def test_an_integer_minus_zero_in_a_later_block_reads_as_minus_zero(
    tmp_path, load, header, rows, minus_zero, spot
):
    path = write(tmp_path, with_rows(header, rows(CHUNKED), {FAULT_ROW: minus_zero}))
    with chunks_of(1000):
        got = assert_same_as_line_reader(load, path)
        read = rows_read(load, path)
    value = np.frombuffer(got[spot[0]])[spot[1]]
    assert value == 0.0 and np.signbit(value)
    # the line reader took over at the chunk of the -0
    assert read[0] == 1 and 0 < sum(read[1:]) < FAULT_ROW // 2


# a number orjson would read, in a field csv refuses
LONG_FIELD = "1." + "0" * csv.field_size_limit() + "1"
TOO_LONG = "field larger than field limit (131072)"


def test_a_field_over_the_csv_limit_reads_as_the_line_reader_reads_it(tmp_path):
    text = with_rows("time,event,f", dataset_rows(CHUNKED), {FAULT_ROW: f"{LONG_FIELD},1,2"})
    path = write(tmp_path, text)
    for size in CHUNK_SIZES:
        with chunks_of(size):
            got = assert_same_as_line_reader(load_dataset, path)
        assert got == ("error", DataFormatError, f"line {FAULT_LINE}: {TOO_LONG}")


@pytest.mark.parametrize(
    "load, header, rows, long_line",
    [
        (load_dataset, "time,event,f", dataset_rows, f"1.5,1,{LONG_FIELD}"),
        (load_curve_file, "t,1,2", curve_rows, f"5000,0.9,{LONG_FIELD}"),
    ],
    ids=["dataset", "curves"],
)
@pytest.mark.parametrize("spot", ["mid-chunk", "last-line-without-line-feed"])
def test_a_line_over_the_csv_limit_is_refused_where_it_lies(tmp_path, load, header, rows, long_line, spot):
    # chunks of 256 KiB hold the whole file: short lines, then the long line,
    # then short lines or the end of a file that ends with no line feed
    if spot == "mid-chunk":
        text = with_rows(header, rows(CHUNKED), {FAULT_ROW: long_line})
    else:
        text = "\n".join([header] + rows(FAULT_ROW) + [long_line])
    with chunks_of(1 << 18):
        got = assert_same_as_line_reader(load, write(tmp_path, text))
    assert got == ("error", DataFormatError, f"line {FAULT_LINE}: {TOO_LONG}")


def wide_rows(load, width=10_000):
    """The header and three rows of a file ``width`` cells wide, each row
    longer than csv's size limit, though no field is."""
    values = -np.sort(-np.random.default_rng(5).uniform(0.0, 1.0, (3, width)), axis=1)
    if load is load_curve_file:
        header = "t," + ",".join(map(repr, np.arange(1.0, width + 1.0).tolist()))
        lead = ["0", "1", "2"]
    else:
        header = "time,event," + ",".join(f"f{j}" for j in range(width))
        lead = ["1.5,1", "2.5,0", "3.5,1"]
    return header, [",".join([first, *map(repr, row)]) for first, row in zip(lead, values.tolist())]


@pytest.mark.parametrize("load", [load_dataset, load_curve_file], ids=["dataset", "curves"])
def test_lines_over_the_csv_limit_without_a_long_field_take_the_block_reader(tmp_path, load):
    header, rows = wide_rows(load)
    assert min(map(len, rows)) > csv.field_size_limit()
    path = write(tmp_path, "\n".join([header] + rows) + "\n")
    got = assert_same_as_line_reader(load, path)
    assert got[0] != "error"
    assert rows_read(load, path) == [1]


@st.composite
def numeric_files(draw):
    """A csv file of up to 1000 rows of plain numbers, mostly valid: its
    loader, its text and a chunk size."""
    curves = draw(st.booleans())
    n = draw(st.integers(1, 1000))
    width = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if curves:
        header = "t," + ",".join(map(repr, np.cumsum(rng.uniform(0.1, 2.0, width)).tolist()))
        values = -np.sort(-rng.uniform(0.0, 1.0, (n, width)), axis=1)
        cells = np.column_stack([rng.permutation(2 * n)[:n], values]).astype(object)
        cells[:, 0] = cells[:, 0].astype(int)
    else:
        header = "time,event," + ",".join(f"f{j}" for j in range(width))
        times = rng.exponential(5.0, n)
        features = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-6, 6, (n, width))
        cells = np.column_stack([times, rng.integers(0, 2, n), features]).astype(object)
        cells[:, 1] = cells[:, 1].astype(int)
    lines = [",".join(map(repr, row)) for row in cells.tolist()]
    for _ in range(draw(st.integers(0, 3))):  # zeros, exponents and integers here and there
        row = draw(st.integers(0, n - 1))
        fields = lines[row].split(",")
        spot = draw(st.integers(1, len(fields) - 1))
        fields[spot] = draw(st.sampled_from(["-0", "0", "-0.0", "1e-0", "1"]))
        lines[row] = ",".join(fields)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join([header] + lines) + draw(st.sampled_from(["", ending]))
    load = load_curve_file if curves else load_dataset
    return load, text, draw(st.integers(1, 1 << 15))


@settings(PROPERTY, max_examples=100)
@given(case=numeric_files())
def test_numeric_files_load_alike_at_any_chunk_size(tmp_path, case):
    load, text, size = case
    path = write(tmp_path, text)
    with chunks_of(size):
        fast = outcome(load, path)
    with slow():
        assert fast == outcome(load, path)


# a field over the csv module's size limit (131,072 characters)
HUGE_FIELD = "1" * 131_073


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_dataset, "time,event\n1.5,1\n\n2.0,0,3\n", "line 4: expected 2 fields, found 3"),
        (load_curve_file, "t,1,2\n0,0.9,0.5\n\n1,0.8\n", "line 4: expected 3 fields, found 2"),
        (
            load_dataset,
            f"time,event\n1.5,1\n\n{HUGE_FIELD},0\n",
            "line 4: field larger than field limit (131072)",
        ),
        (
            load_curve_file,
            f"t,1,2\n0,0.9,0.5\n\n1,0.8,{HUGE_FIELD}\n",
            "line 4: field larger than field limit (131072)",
        ),
    ],
    ids=["dataset-width", "curves-width", "dataset-huge-field", "curves-huge-field"],
)
def test_the_line_reader_counts_blank_lines(tmp_path, load, text, message):
    path = write(tmp_path, text)
    assert outcome(load, path) == ("error", DataFormatError, message)
    with slow():
        assert outcome(load, path) == ("error", DataFormatError, message)


@pytest.mark.parametrize(
    "load, text, message",
    [
        # a quoted header field over two lines: the first row is on line 3
        (
            load_dataset,
            'time,event,"f\ng"\n1.5,x,2\n',
            "line 3: non-numeric value 'x' in column 'event'",
        ),
        (load_curve_file, 't,1,"2\n"\n0,0.9,x\n', "line 3: non-numeric field"),
        # a row whose quoted field spans lines 2 and 3, then a bad row
        (
            load_dataset,
            'time,event,f\n1.0,1,"2\n"\n1.5,x,2\n',
            "line 4: non-numeric value 'x' in column 'event'",
        ),
        (load_curve_file, 't,1,2\n0,0.9,"0.5\n"\n1,0.8,x\n', "line 4: non-numeric field"),
        # rule errors and width errors name the row's first line too
        (
            load_dataset,
            'time,event,f\n1.0,1,"2\n\n"\n-1.5,1,2\n',
            "line 5: observed time must be positive, got -1.5",
        ),
        (
            load_curve_file,
            't,1,2\n0,0.9,"0.5\n"\n1,0.8,0.9\n',
            "line 4: values must be non-increasing",
        ),
        (
            load_dataset,
            'time,event,"f\r\ng"\r\n1.0,1,2\r\n\r\n1.5,1\r\n',
            "line 5: expected 3 fields, found 2",
        ),
        (
            load_curve_file,
            f't,1,"2\n"\n0,0.9,0.5\n1,0.8,"{HUGE_FIELD}\n',
            "line 4: field larger than field limit (131072)",
        ),
    ],
    ids=[
        "dataset-header",
        "curves-header",
        "dataset-row",
        "curves-row",
        "dataset-rule",
        "curves-rule",
        "dataset-width",
        "curves-huge-field",
    ],
)
def test_errors_name_the_file_line_across_multi_line_fields(tmp_path, load, text, message):
    path = write(tmp_path, text)
    for reader in (contextlib.nullcontext, slow):
        with reader():
            kind, cls, got = outcome(load, path)
        assert (kind, cls) == ("error", DataFormatError)
        assert got.startswith(message)


# ------------------------------------------------------ one read of the bytes

def test_a_bare_cr_in_a_row_is_a_line_break(tmp_path):
    for load, text in (
        (load_dataset, DATASET_CASES["bare-cr-in-row"]),
        (load_curve_file, CURVE_CASES["bare-cr-in-row"]),
    ):
        kind, _, message = outcome(load, write(tmp_path, text))
        assert (kind, message) == ("error", "line 2: expected 3 fields, found 2")


@pytest.mark.parametrize(
    "load, text",
    [
        (load_dataset, DATASET_CASES["crlf-and-lf"]),
        (load_curve_file, CURVE_CASES["crlf-and-lf"]),
        (load_dataset, DATASET_CASES["two-line-header-crlf"]),
        (load_curve_file, CURVE_CASES["two-line-header-cr"]),
    ],
    ids=["dataset-crlf-and-lf", "curves-crlf-and-lf", "dataset-two-line-header", "curves-two-line-header"],
)
def test_crlf_lf_and_multi_line_headers_take_the_block_reader(tmp_path, load, text):
    assert rows_read(load, write(tmp_path, text)) == [1]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128], ids=lambda n: f"{n}-rows")
@pytest.mark.parametrize("tail", ["\n", "\r\n", ""], ids=["lf", "crlf", "no-final-newline"])
@pytest.mark.parametrize(
    "load, header, rows",
    [(load_dataset, "time,event,f", dataset_rows), (load_curve_file, "t,1,2", curve_rows)],
    ids=["dataset", "curves"],
)
def test_block_edges_read_every_row(tmp_path, load, header, rows, n, tail):
    ending = "\r\n" if tail == "\r\n" else "\n"
    path = write(tmp_path, ending.join([header] + rows(n)) + tail)
    got = assert_same_as_line_reader(load, path)
    assert rows_read(load, path) == [1]
    assert got[-2][0] == n  # the shape of the table


BOM = "\ufeff"  # UTF-8 writes it as EF BB BF


@pytest.mark.parametrize(
    "load, text",
    [
        (load_dataset, DATASET_CASES["valid"]),
        (load_curve_file, CURVE_CASES["valid"]),
        (load_dataset, 'time,event,"f\ng"\n1.5,x,2\n'),
        (load_curve_file, "t,1,2\n0,0.9,0.5\n1,0.5,0.9\n"),
    ],
    ids=["dataset", "curves", "dataset-error", "curves-error"],
)
def test_a_leading_byte_order_mark_is_dropped(tmp_path, load, text):
    with_bom = assert_same_as_line_reader(load, write(tmp_path, BOM + text, "bom.csv"))
    assert with_bom == outcome(load, write(tmp_path, text))
    assert (tmp_path / "bom.csv").read_bytes()[:3] == b"\xef\xbb\xbf"


def test_only_a_leading_byte_order_mark_is_dropped(tmp_path):
    assert outcome(load_dataset, write(tmp_path, "time,event\n" + BOM + "1.5,1\n")) == (
        "error",
        DataFormatError,
        "line 2: non-numeric value '\\ufeff1.5' in column 'time'",
    )


@pytest.mark.parametrize(
    "load, header, fault",
    [(load_dataset, "time,event", "x,1"), (load_curve_file, "t,1", "0,x")],
    ids=["dataset", "curves"],
)
def test_an_undecodable_byte_fails_before_any_row_is_read(tmp_path, load, header, fault):
    # the line reader decodes every line below the header before it reads a
    # row, so the byte past the first 8 KiB fails the read, not the bad row
    path = tmp_path / "latin1.csv"
    path.write_bytes(f"{header}\n{fault}\n".encode() + b"1.5,1\n" * 2000 + b"\xff\n")
    for reader in (contextlib.nullcontext, slow):
        with reader(), pytest.raises(UnicodeDecodeError):
            load(path)


def test_a_text_encoding_not_ascii_compatible_declines_the_block_reader(tmp_path):
    # as UTF-16 the row below reads as one field; as ASCII, as two numbers
    path = tmp_path / "utf16.csv"
    path.write_bytes("t,1\n".encode("utf-16-be") + b"0,0.5\n")
    utf16 = mock.Mock(
        BytesIO=io.BytesIO, TextIOWrapper=functools.partial(io.TextIOWrapper, encoding="utf-16-be")
    )
    with mock.patch.object(core, "io", utf16):
        got = assert_same_as_line_reader(load_curve_file, path)
    assert got == ("error", DataFormatError, "line 2: expected 2 fields, found 1")


# ------------------------------------------------------------------- pipes


def big_dataset_text(bad):
    rows = [f"{1.0 + i / 7!r},{i % 2},{i * 0.1!r}" for i in range(4000)]
    if bad is not None:
        rows[bad] = "2.5,1,x"
    return "time,event,f\r\n" + "\r\n".join(rows) + "\r\n"


def big_curve_text(bad):
    grid = ",".join(repr(0.5 * k) for k in range(1, 11))
    rows = [f"{i}," + ",".join(repr(1.0 - k / 10 - i * 1e-6) for k in range(10)) for i in range(1500)]
    if bad is not None:
        rows[bad] = "0," + rows[bad].split(",", 1)[1]
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
@pytest.mark.parametrize(
    "bad", [None, -1, 1000], ids=["valid", "bad-last-row", "bad-row-in-a-later-chunk"]
)
@pytest.mark.parametrize(
    "load, make", [(load_dataset, big_dataset_text), (load_curve_file, big_curve_text)]
)
def test_loaders_read_a_pipe_to_its_end(tmp_path, load, make, bad):
    # well past one read buffer: a loader that opened the pipe a second time
    # would find the first rows gone. Chunks of 16 KiB read the file in
    # several, and row 1,000 lies past the first; a loader that stopped at a
    # fault would leave the writer blocked or broken
    text = make(bad)
    assert len(text) > 64 * 1024
    with chunks_of(1 << 14):
        with csv_readers() as readers:
            piped = read_through_pipe(tmp_path, text, load)
        assert piped == outcome(load, write(tmp_path, text))
    assert piped[0] == ("error" if bad is not None else "dataset" if load is load_dataset else "curves")
    if bad is None:  # the fast path took every row
        assert [reader.rows for reader in readers] == [1]
    elif bad > 0:  # the fast path took the rows of the chunks before the fault's
        assert readers[0].rows == 1 and sum(reader.rows for reader in readers[1:]) < bad
        assert piped[2].startswith(f"line {bad + 2}: ")


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
# names that need quoting; only names without surrounding whitespace read back
ANY_NAMES = st.text(alphabet='ab,"\n x', min_size=1, max_size=4)
NAMES = ANY_NAMES.filter(lambda name: name == name.strip())


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
    if any(i < 0 for i in indices):
        # a negative index is refused before the file is opened; its
        # magnitude is written instead
        refused = tmp_path / "negative.csv"
        refused.unlink(missing_ok=True)
        with pytest.raises(ValueError, match="^subject index must be >= 0, got -"):
            save_curve_file(refused, grid, np.array(rows, dtype=float).reshape(n, width), indices)
        assert not refused.exists()
        indices = [abs(i) for i in indices]
    if data.draw(st.booleans()):  # whole numbers held as floats are written as ints
        indices = np.array([i % 2**53 for i in indices], dtype=float)
    values = np.array(rows, dtype=float).reshape(n, width)
    save_curve_file(tmp_path / "columns.csv", grid, values, indices=indices)
    oracle_save_curve_file(tmp_path / "rows.csv", grid, values, indices)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert_same_as_line_reader(load_curve_file, tmp_path / "columns.csv")


def written_lines(tmp_path, columns):
    """The rows ``core._write_columns`` writes for ``columns``, as texts."""
    path = tmp_path / "block.csv"
    core._write_columns(path, [f"c{j}" for j in range(len(columns))], columns)
    text = path.read_bytes().decode()
    assert text.endswith("\r\n")
    return text.split("\r\n")[1:-1]


@PROPERTY
@given(data=st.data(), width=st.integers(1, 4), n=st.integers(1, 40))
def test_the_block_writer_spells_every_float_as_repr(tmp_path, data, width, n):
    values = data.draw(st.lists(st.floats(width=64), min_size=n * width, max_size=n * width))
    columns = np.array(values, dtype=float).reshape(width, n)
    want = [",".join(map(repr, row)) for row in columns.T.tolist()]
    assert written_lines(tmp_path, list(columns)) == want


LARGEST = 1.7976931348623157e308


@pytest.mark.parametrize(
    "value, shortest",
    [
        (1e-4, True),
        (math.nextafter(1e-4, 0.0), False),  # 9.999999999999999e-05
        (1e16, False),  # 1e+16
        (math.nextafter(1e16, 0.0), True),  # 9999999999999998.0
        (0.0, True),
        (-0.0, True),
        (5e-324, False),
        (LARGEST, False),
        (math.nan, False),
        (math.inf, False),
    ],
    ids=repr,
)
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_the_block_writer_edges_of_the_orjson_range(tmp_path, value, shortest, sign):
    # orjson's own text is kept only inside [1e-4, 1e16) and at zero
    x = sign * value
    spelled = core._spelled(np.array([x, 0.5]))
    assert isinstance(spelled[0], float) == shortest
    assert written_lines(tmp_path, [np.array([x, 0.5])]) == [repr(x), "0.5"]


def edge_floats(rng, n):
    """``n`` floats, most of them ordinary, some outside orjson's range."""
    x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 20, n)
    odd = rng.random(n) < 0.1
    x[odd] = rng.choice([0.0, -0.0, 1e-300, -5e-324, 1e300, LARGEST, 1e16, 1e-5], odd.sum())
    return x


@pytest.mark.parametrize("extra_rows", [-1, 0, 1, 1000], ids=lambda r: f"{r:+d}-rows")
def test_save_dataset_over_several_blocks_equals_the_csv_writer(tmp_path, extra_rows):
    rng = np.random.default_rng(extra_rows + 10)
    width = 8  # time, event, true_time and 5 features
    n = 3 * (core._BLOCK_CELLS // width) + extra_rows
    times = np.abs(edge_floats(rng, n)) + 1e-300
    events = rng.random(n) < 0.5
    truths = np.where(events, times, times + 1.0)
    features = edge_floats(rng, 5 * n).reshape(n, 5)
    ds = SurvivalDataset(times, events, features, truths, tuple("abcde"))
    save_dataset(ds, tmp_path / "columns.csv")
    oracle_save_dataset(ds, tmp_path / "rows.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert_same_as_line_reader(load_dataset, tmp_path / "columns.csv")


def test_save_curve_file_over_several_blocks_equals_the_csv_writer(tmp_path):
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 30.0, 101)
    n = 3 * (core._BLOCK_CELLS // 102) + 7
    values = edge_floats(rng, n * 101).reshape(n, 101)
    # subject indices are nonnegative: the writer refuses a negative one
    indices = [abs(int(i)) for i in rng.integers(-(2**62), 2**62, n)]
    indices[::50] = [2**70 + i for i in range(len(indices[::50]))]
    save_curve_file(tmp_path / "columns.csv", grid, values, indices=indices)
    oracle_save_curve_file(tmp_path / "rows.csv", grid, values, indices)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def row_writer_save_dataset(ds, path):
    """``save_dataset`` as the per-row writer it replaced wrote it: each
    column as a list of ``repr`` texts, the rows joined one by one."""
    header = ["time", "event"] + (["true_time"] if ds.true_times is not None else [])
    columns = [map(repr, ds.times.tolist()), map(str, ds.events.astype(int).tolist())]
    if ds.true_times is not None:
        columns.append(map(repr, ds.true_times.tolist()))
    columns.extend(map(repr, col) for col in ds.feature_matrix.T.tolist())
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header + list(ds.feature_names))
        fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))


def traced_peak(write, *args):
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_dataset_memory_is_bounded_by_its_blocks(tmp_path):
    rng = np.random.default_rng(11)

    def dataset(n):
        x = rng.normal(size=(n, 5))
        truths = 10.0 * rng.weibull(1.5, n) * np.exp(-(x @ [0.5, -0.3, 0.2, 0.0, 0.4]) / 1.5)
        times = np.minimum(truths, rng.uniform(0.0, 20.0, n) + 1e-3)
        return SurvivalDataset(times, truths == times, x, truths, tuple("abcde"))

    big, small = dataset(100_000), dataset(10_000)
    path = tmp_path / "out.csv"
    rows_peak = traced_peak(row_writer_save_dataset, big, tmp_path / "rows.csv")
    big_peak = traced_peak(save_dataset, big, path)
    assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
    small_peak = traced_peak(save_dataset, small, path)
    assert big_peak <= rows_peak
    # ten times the rows in blocks of the same size: no more memory
    assert big_peak < 2 * small_peak


def test_load_curve_file_memory_is_bounded_by_its_table(tmp_path):
    # the file is read in chunks and parsed into a table made with room for
    # the file's rows, which the batch adopts, led by its column of ones, and
    # checks in blocks of rows: the traced peak measured 1.28 times the value
    # table (2.18 when the table grew by doubling and the batch copied it and
    # checked it whole). The bound leaves a margin of about a tenth
    rng = np.random.default_rng(3)
    grid = np.linspace(0.3, 30.0, 100)
    medians = 10.0 * rng.weibull(1.5, 20_000) + 0.1
    values = np.exp(-np.log(2.0) * (grid / medians[:, None]) ** 1.5)
    path = tmp_path / "curves.csv"
    save_curve_file(path, grid, values)
    assert traced_peak(load_curve_file, path) < 1.4 * values.nbytes


@pytest.mark.parametrize(
    "grid, rows, indices, message",
    [
        ([1.0, 2.0], np.full((3, 2), 0.5), [0, 1], "2 indices for 3 value rows"),
        ([1.0, 2.0], np.full((2, 2), 0.5), [0, 1, 2], "3 indices for 2 value rows"),
        ([1.0, 2.0], [0.9, 0.5], None, r"shape \(2,\), expected \(rows, 2\)"),
        ([1.0, 2.0], np.full((2, 3), 0.5), None, r"shape \(2, 3\), expected \(rows, 2\)"),
        ([1.0, 2.0], np.full((2, 2, 1), 0.5), None, r"shape \(2, 2, 1\)"),
        ([[1.0, 2.0]], np.full((2, 2), 0.5), None, "grid must be 1-d, got 2 dimensions"),
        ([1.0, 2.0], np.full((2, 2), 0.5), [0, -1], "subject index must be >= 0, got -1"),
        ([1.0, 2.0], np.full((2, 2), 0.5), np.array([-3.0, 1.0]), "subject index must be >= 0, got -3"),
    ],
    ids=[
        "short-indices", "long-indices", "1-d-values", "wide-values", "3-d-values", "2-d-grid",
        "negative-index", "negative-float-index",
    ],
)
def test_save_curve_file_refuses_rows_that_do_not_match(tmp_path, grid, rows, indices, message):
    path = tmp_path / "curves.csv"
    with pytest.raises(ValueError, match=message):
        save_curve_file(path, grid, rows, indices=indices)
    assert not path.exists()


# ------------------------------------------------------- feature-name round trip


@pytest.mark.parametrize(
    "names, bad",
    [
        (("time",), "time"),
        (("event",), "event"),
        (("true_time",), "true_time"),
        (("a", " time"), " time"),
        (("a", "b", "a"), "a"),
        ((" x",), " x"),
        (("a", "a "), "a "),
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
    ANY_NAMES, st.sampled_from(["time", "event", "true_time", " event", "true_time\n", "x"])
)


@PROPERTY
@given(ds=datasets(), data=st.data())
def test_save_then_load_gives_the_dataset_back(tmp_path, ds, data):
    k = len(ds.feature_names)
    names = tuple(data.draw(st.lists(ROUND_TRIP_NAMES, min_size=k, max_size=k)))
    ds = SurvivalDataset(ds.times, ds.events, ds.feature_matrix, ds.true_times, names)
    path = tmp_path / "round.csv"
    path.unlink(missing_ok=True)
    stripped = [name.strip() for name in names]
    refused = [
        name for j, name in enumerate(names)
        if name != stripped[j] or name in ("time", "event", "true_time") or stripped[j] in stripped[:j]
    ]
    try:
        save_dataset(ds, path)
    except ValueError as exc:
        assert refused and str(exc).startswith(f"feature name {refused[0]!r}")
        assert not path.exists()
        return
    assert not refused
    back = load_dataset(path)
    assert back.feature_names == names
    assert back.times.tobytes() == ds.times.tobytes()
    assert back.events.tobytes() == ds.events.tobytes()
    assert back.feature_matrix.tobytes() == ds.feature_matrix.tobytes()
    if ds.true_times is None:
        assert back.true_times is None
    else:
        assert back.true_times.tobytes() == ds.true_times.tobytes()
