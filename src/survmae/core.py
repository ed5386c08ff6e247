"""Core survival-data types: columnar datasets, step-function curves, folds.

Conventions used throughout the package:

* A subject's observed time is ``min(event time, censor time)`` and the event
  flag is true when the event happened at or before the censor time (ties go
  to the event).
* A :class:`SurvivalDataset` holds its subjects as parallel arrays (times,
  event flags, a feature matrix, optional hidden true times); the arrays are
  the data, and every rule is checked on all subjects at once.
* Survival curves are right-continuous step functions that equal 1 before
  their first knot and keep their last value beyond the final knot.
  :class:`StepCurve` holds one curve; :class:`CurveBatch` holds the curves
  of many subjects as arrays and is the type predictions travel in. Both
  reject non-finite knots or values and NaN query times.
* Everything is pure and deterministic: functions return new objects, random
  behaviour always flows through an explicit seed.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
import operator
import os
import re
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    DataFormatError,
    DegenerateCurveError,
    InsufficientEventsError,
    InvalidCurveError,
)

__all__ = [
    "CurveBatch",
    "DatasetStats",
    "FoldSplit",
    "StepCurve",
    "SurvivalDataset",
    "dataset_stats",
    "load_dataset",
    "save_dataset",
    "stratified_kfold",
]


def _first_failure(checks):
    """``(index, reason)`` of the lowest index flagged by any of ``checks``,
    pairs of a flag array and a reason, or None when none is flagged. An
    index flagged by several checks is reported with the first of them."""
    first = None
    for bad, reason in checks:
        hits = np.flatnonzero(bad)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), reason)
    return first


def _first_bad_subject(times, flags, true_times, features):
    """``(index, reason)`` of the first subject that breaks a dataset rule, or
    None; ``flags`` are the event flags as given, ``true_times`` None when
    there are none. A subject breaking several rules gets the first listed."""
    truths = times if true_times is None else true_times
    events = flags if flags.dtype == bool else flags == 1
    checks = (
        (~np.isfinite(times), "non-finite time value"),
        (~np.isfinite(truths), "non-finite true time value"),
        (~np.isfinite(features).all(axis=1), "non-finite feature value"),
        (~(times > 0), "observed time must be positive, got {t}"),
        (~events & (flags != 0), "event flag must be 0 or 1, got {flag!r}"),
        (
            events & (truths != times),
            "uncensored record must have true_event_time equal to its observed "
            "time (got {truth} vs {t})",
        ),
        (
            ~events & (truths < times),
            "censored record must have true_event_time >= observed time "
            "(got {truth} < {t})",
        ),
    )
    first = _first_failure(checks)
    if first is None:
        return None
    i, reason = first
    return i, reason.format(t=float(times[i]), truth=float(truths[i]), flag=flags.tolist()[i])


def _check_count(count, n, what, error=ValueError):
    """Raise ``error`` unless the ``count`` curves or predictions serve ``n`` subjects."""
    if count != n:
        raise error(f"got {count} {what} for {n} subjects")


def _at_least(value, name, least, error=ValueError) -> int:
    """``value`` as an int; ``error`` naming the argument ``name`` unless it
    is an integer (a NumPy integer too, not a bool) of at least ``least``."""
    try:
        count = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")
    return count


def _finite_real(value) -> bool:
    """Whether ``value`` is a finite real number, a bool not counted; an int
    too large to be a float is not finite."""
    try:
        return not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):  # None, a string; 10**400
        return False


def _check_seed(seed) -> int:
    """``seed`` as an int; ``ConfigurationError`` unless it is a nonnegative
    integer (a NumPy integer too, not a bool)."""
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed}")
    return int(seed)


def _kind_row(what, kind, params, table):
    """The row of ``table`` for ``kind``, whose ``reads`` are the keys of
    ``params`` it reads, and ``params``, None read as ``{}``;
    ``ConfigurationError`` for a kind that names no row, for params that are
    no mapping or for the first key of ``params`` that the kind does not
    read."""
    if not (isinstance(kind, str) and kind in table):
        raise ConfigurationError(f"unknown {what} kind {kind!r}; expected one of {sorted(table)}")
    if params is None:
        params = {}
    if not isinstance(params, Mapping):
        raise ConfigurationError(
            f"{what} kind {kind!r} takes params as a mapping, got {type(params).__name__}"
        )
    unread = [key for key in params if key not in table[kind].reads]
    if unread:
        raise ConfigurationError(f"{what} kind {kind!r} does not read params[{unread[0]!r}]")
    return table[kind], params


def _first_repeat(items):
    """Index of the first of ``items`` equal to an earlier one, or None."""
    if len(set(items)) == len(items):
        return None
    seen = set()
    for i, item in enumerate(items):
        if item in seen:
            return i
        seen.add(item)


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of ``values``."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SurvivalDataset:
    """Subjects held as parallel columns, one entry per subject.

    ``feature_matrix`` has one row per subject and one column per name in
    ``feature_names``. ``true_times`` holds the hidden true event times of
    semi-synthetic data, or None: a true time must equal the observed time
    of an event and be at least the observed time of a censored subject.
    The columns are stored as read-only copies. A subject that breaks a rule
    (a non-finite value, a time that is not positive, an event flag other
    than 0 or 1, an inconsistent true time) raises ``ValueError`` naming it.
    """

    times: np.ndarray
    events: np.ndarray
    feature_matrix: np.ndarray
    true_times: np.ndarray | None = None
    feature_names: tuple = ()

    def __post_init__(self):
        times = _frozen(self.times, float)
        flags = np.asarray(self.events)
        features = _frozen(self.feature_matrix, float)
        truths = None if self.true_times is None else _frozen(self.true_times, float)
        names = tuple(self.feature_names)
        if times.ndim != 1 or flags.shape != times.shape:
            raise ValueError("times and events must be 1-d arrays of the same length")
        if times.size == 0:
            raise ValueError("dataset must contain at least one record")
        if truths is not None and truths.shape != times.shape:
            raise ValueError("true_times must hold one time per subject")
        if features.shape != (times.size, len(names)):
            raise ValueError(
                f"feature_matrix has shape {features.shape}, expected "
                f"{(times.size, len(names))} (one column per feature name)"
            )
        bad = _first_bad_subject(times, flags, truths, features)
        if bad is not None:
            raise ValueError("subject {}: {}".format(*bad))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", _frozen(flags, bool))
        object.__setattr__(self, "feature_matrix", features)
        object.__setattr__(self, "true_times", truths)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.times.size

    def subset(self, indices) -> "SurvivalDataset":
        """New dataset holding the subjects at ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return SurvivalDataset(
            self.times[idx],
            self.events[idx],
            self.feature_matrix[idx],
            None if self.true_times is None else self.true_times[idx],
            self.feature_names,
        )

    @classmethod
    def from_arrays(
        cls, times, events, features=None, true_times=None, feature_names=None
    ) -> "SurvivalDataset":
        """Build a dataset with defaults: no features, names ``x0, x1, ...``."""
        if features is None:
            features = np.empty((np.size(times), 0))
        if feature_names is None:
            feature_names = tuple(f"x{j}" for j in range(np.shape(features)[-1]))
        return cls(times, events, features, true_times, feature_names)


def _query_times(t) -> np.ndarray:
    """``t`` as a float array; rejects NaN and negative times."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0):
        if np.any(np.isnan(t_arr)):
            raise ValueError("query times must not be NaN")
        raise ValueError("curve is only defined for t >= 0")
    return t_arr


def _step_lookup(knots, values, t, side, start):
    """Value of the step function with ``knots`` and ``values`` at the last
    knot at or below (``side="right"``) or strictly below (``side="left"``)
    ``t``, or ``start`` where there is none. A scalar ``t`` gives a float;
    NaN and negative times are refused."""
    t_arr = _query_times(t)
    idx = np.searchsorted(knots, t_arr, side=side) - 1
    out = np.where(idx >= 0, values[np.maximum(idx, 0)], start)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous, non-increasing step function with values in [0, 1].

    The curve equals 1 before its first knot, ``values[k]`` on
    ``[knots[k], knots[k+1])`` and ``values[-1]`` from the last knot on.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.ndim != 1 or values.ndim != 1 or knots.size != values.size:
            raise ValueError("knots and values must be 1-d arrays of equal length")
        if knots.size == 0:
            raise ValueError("curve must have at least one knot")
        bad = _first_bad_row(knots, values[None, :], None)
        if bad is not None:
            raise ValueError(bad[1])

    @property
    def t_last(self) -> float:
        return float(self.knots[-1])

    @property
    def v_last(self) -> float:
        return float(self.values[-1])

    def value(self, t):
        """Right-continuous lookup; 1 before the first knot. Accepts scalars or arrays."""
        return _step_lookup(self.knots, self.values, t, "right", 1.0)

    def value_before(self, t):
        """Left limit: the value just before ``t`` (1 when no knot lies strictly below)."""
        return _step_lookup(self.knots, self.values, t, "left", 1.0)

    def integrate(self, a: float, b: float) -> float:
        """Exact integral of the step function over ``[a, b]``."""
        if not 0 <= a <= b:
            raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
        if a == b:
            return 0.0
        inner = self.knots[(self.knots > a) & (self.knots < b)]
        lefts = np.concatenate(([a], inner))
        rights = np.concatenate((inner, [b]))
        return float(np.sum(self.value(lefts) * (rights - lefts)))

    def median_time(self) -> float:
        """First time the curve is at or below one half.

        Falls back to a chord through (0, 1) and the curve's endpoint when the
        curve never descends that far; raises ``DegenerateCurveError`` if the
        curve never descends at all.
        """
        below = np.nonzero(self.values <= 0.5)[0]
        if below.size:
            return float(self.knots[below[0]])
        if self.v_last >= 1.0:
            raise DegenerateCurveError("curve never descends; median undefined")
        return 0.5 * self.t_last / (1.0 - self.v_last)

    def mean_time(self) -> float:
        """Area under the curve, linearly extended beyond the last knot down to zero."""
        if self.v_last >= 1.0:
            raise DegenerateCurveError("curve never descends; mean undefined")
        area = self.integrate(0.0, self.t_last)
        if self.v_last > 0.0:
            t_zero = self.t_last / (1.0 - self.v_last)
            area += self.v_last * (t_zero - self.t_last) / 2.0
        return area


# cells per block of rows that the batch checks, CurveBatch.median_times and
# CurveBatch.mean_times handle at once. For mean_times, of 2**12 ... 2**20,
# 2**16 was the fastest on both a 2e4-row noisy-oracle batch and 4000 Cox
# rows of 16,000 knots, with a traced peak of 2.6 MB (30 MB at 2**20). The
# check of a 1000 x 100 curve file took 282 us in blocks of 2**16 cells, 274
# at 2**14, 413 at 2**13 and 268 whole
_PIECE_BLOCK = 1 << 16


def _block_rows(width, cells=None) -> int:
    """Rows of ``width`` cells in a block of at most ``cells`` cells, one at
    least. The budget is read at each call: ``_PIECE_BLOCK`` by default
    (batch checks, median and mean times), ``metrics._IBS_CELLS`` (the IBS
    terms, ``d_calibration``'s bin masses), ``harness._CURVE_BLOCK_CELLS``
    (the curve file blocks a summary takes) or ``_BLOCK_CELLS``
    (``_write_columns``)."""
    return max(1, (_PIECE_BLOCK if cells is None else cells) // width)


def _row_blocks(n, width, cells=None):
    """Slices that cut ``n`` rows of ``width`` cells into blocks of
    :func:`_block_rows` rows each, the last fewer, in order."""
    step = _block_rows(width, cells)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _knots_pass(knots) -> bool:
    """Whether every knot row rises strictly from a nonnegative first knot to
    a finite last one (so all are finite). Comparing neighbours instead of
    differencing them keeps ``inf - inf`` from warning."""
    return bool(
        (knots[..., 0] >= 0).all()
        and np.isfinite(knots[..., -1]).all()
        and (knots[..., 1:] > knots[..., :-1]).all()
    )


def _one_row(values) -> bool:
    """Whether the rows of ``values`` are one broadcast row: rows of stride
    0, which numpy may also give an array of no rows."""
    return values.shape[0] > 0 and values.strides[0] == 0


def _batch_passes(knots, values) -> bool:
    """Whether every row of an unpadded batch keeps every :class:`StepCurve`
    rule, in one pass: its knots pass :func:`_knots_pass`, and its values
    lie in [0, 1] (so all are finite) and rise nowhere by more than 1e-12.
    The values are differenced in blocks of rows (``_row_blocks``), so the
    check builds no temporary as large as the batch."""
    if _one_row(values):
        values = values[:1]
    return bool(
        _knots_pass(knots)
        and values.min() >= 0
        and values.max() <= 1
        and not any(
            (block[:, 1:] - block[:, :-1] > 1e-12).any()
            for block in map(values.__getitem__, _row_blocks(*values.shape))
        )
    )


def _hazard_rows_pass(knots, hazard, risks) -> bool:
    """Whether every row ``exp(-hazard * risks[i])`` on the shared ``knots``
    keeps every :class:`StepCurve` rule, known in O(n + K) time: the knots
    pass :func:`_knots_pass`, the hazard is finite, starts at 0 or above and
    never falls, and every risk is at least 0 (not NaN), infinite only where
    the hazard starts above 0 (``exp(-0 * inf)`` is NaN). Rows that pass are
    then finite, in [0, 1] and non-increasing."""
    return bool(
        _knots_pass(knots)
        and np.isfinite(hazard).all()
        and hazard[0] >= 0
        and (hazard[1:] >= hazard[:-1]).all()
        and (risks >= 0).all()
        and (hazard[0] > 0 or np.isfinite(risks).all())
    )


def _first_bad_row(knots, values, real):
    """``(row, reason)`` of the first row that breaks a :class:`StepCurve`
    rule, or None. ``real`` masks the entries that are not padding (None: all
    are real). An unpadded batch that keeps every rule is accepted in one
    pass; the rule-by-rule scan runs only to name a failure."""
    if not values.shape[0] or (real is None and _batch_passes(knots, values)):
        return None
    # inf - inf, or finite knots of opposite sign past 8.9e307, in the diffs
    # of bad rows
    with np.errstate(invalid="ignore", over="ignore"):
        return _scan_bad_row(knots, values, real)


def _scan_bad_row(knots, values, real):
    """:func:`_first_bad_row` rule by rule, each rule on every row. A rule
    that shared knots break is broken by every row. Rows whose values are one
    broadcast row are checked once."""
    n = values.shape[0]
    if _one_row(values) and real is None:
        values = values[:1]
    pairs = None if real is None else real[:, 1:]

    def rows(flags, mask):
        if mask is not None:
            flags = flags & mask
        return np.broadcast_to(flags.any(axis=-1), (n,))

    checks = (
        (rows(~np.isfinite(knots), real), "knots must be finite"),
        (rows(~np.isfinite(values), real), "values must be finite"),
        (
            rows(knots[..., :1] < 0, None) | rows(np.diff(knots) <= 0, pairs),
            "knots must be nonnegative and strictly increasing",
        ),
        (rows((values < 0) | (values > 1), real), "values must lie in [0, 1]"),
        (rows(np.diff(values) > 1e-12, pairs), "values must be non-increasing"),
    )
    return _first_failure(checks)


@dataclass(frozen=True, eq=False)
class CurveBatch:
    """Survival curves of ``n`` subjects held as arrays, one row per subject.

    ``values`` is an ``n x K`` matrix. ``knots`` is either one row of ``K``
    knots that every subject shares (the fast path for curves on a common
    grid) or an ``n x K`` matrix. Ragged rows pass ``lengths`` with an
    ``n x K`` knot matrix: row ``i`` uses its first ``lengths[i]`` entries and
    ignores the rest. Row ``i`` is the :class:`StepCurve` ``batch[i]``.

    A proportional-hazards batch passes ``hazard``, one row of ``K``
    cumulative hazards on a shared knot row, and ``risks``, one per row, in
    place of ``values``, which is then None. Row ``i`` is
    ``exp(-hazard * risks[i])``, row ``i`` of the matrix
    ``np.exp(-hazard[None, :] * risks[:, None])``, but no ``n x K`` array is
    held: every lookup computes ``exp(-hazard[c] * risks[i])`` at the cells
    it reads, bit for bit the matrix's entries.

    Every :class:`StepCurve` rule is checked on all rows at once; a broken
    rule raises :class:`InvalidCurveError` naming the first bad row. A
    proportional-hazards batch is checked in O(n + K) time when its hazard
    never falls (:func:`_hazard_rows_pass`), else on its rows block by block.
    """

    knots: np.ndarray
    values: np.ndarray | None = None
    lengths: np.ndarray | None = None
    hazard: np.ndarray | None = None
    risks: np.ndarray | None = None

    def __post_init__(self, led=None):
        knots = np.asarray(self.knots, dtype=float)
        dense = self.values is not None
        if dense == (self.hazard is not None) or dense == (self.risks is not None):
            raise ValueError("pass values, or a hazard row and risks")
        if not dense:
            self._init_hazard_rows(knots)
            return
        values = np.asarray(self.values, dtype=float)
        if (
            values.ndim != 2
            or knots.ndim not in (1, 2)
            or knots.shape[-1] != values.shape[1]
            or (knots.ndim == 2 and knots.shape != values.shape)
        ):
            raise ValueError("values must be n x K and knots K or n x K")
        n, width = values.shape
        if width == 0:
            raise ValueError("curve must have at least one knot")
        real = None
        if self.lengths is None:
            lengths = np.full(n, width)
        else:
            lengths = np.asarray(self.lengths)
            # a fraction would truncate, and a bool pass as a count
            whole = lengths.dtype.kind in "iu" or not lengths.size
            if not whole or lengths.shape != (n,) or np.any(lengths < 1) or np.any(lengths > width):
                raise ValueError(f"lengths must hold one count in [1, {width}] per row")
            lengths = lengths.astype(int, copy=False)
            if np.any(lengths < width):
                if knots.ndim == 1:
                    raise ValueError("ragged rows need an n x K knot matrix")
                real = np.arange(width) < lengths[:, None]
        bad = _first_bad_row(knots, values, real)
        if bad is not None:
            raise InvalidCurveError(*bad)
        rows = np.arange(n)
        # the values led by a column of ones: column c holds the value after c
        # knots, so a lookup is one gather at the knot count; one broadcast
        # row serves rows that share their values, and :meth:`_adopt` passes
        # a table to keep
        if led is None and _one_row(values) and real is None:
            led = np.broadcast_to(np.concatenate(([1.0], values[0])), (n, width + 1))
        elif led is None:
            led = np.empty((n, width + 1))
            led[:, 0] = 1.0
            led[:, 1:] = values
        if real is not None:
            # padding knots lie beyond every query time and repeat the last value
            knots = np.where(real, knots, np.inf)
            np.copyto(led[:, 1:], values[rows, lengths - 1][:, None], where=~real)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", led[:, 1:])
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_led", led)

    def _init_hazard_rows(self, knots):
        """:meth:`__post_init__` of a proportional-hazards batch."""
        hazard = np.asarray(self.hazard, dtype=float)
        risks = np.asarray(self.risks, dtype=float)
        if knots.ndim != 1 or hazard.shape != knots.shape or risks.ndim != 1:
            raise ValueError("hazard and knots must be one row of K each and risks 1-d")
        if self.lengths is not None:
            raise ValueError("rows of a hazard batch share their knots: no lengths")
        if knots.size == 0:
            raise ValueError("curve must have at least one knot")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "hazard", hazard)
        object.__setattr__(self, "risks", risks)
        object.__setattr__(self, "lengths", np.full(risks.size, knots.size))
        object.__setattr__(self, "_rows", np.arange(risks.size))
        object.__setattr__(self, "_led", None)
        # the hazard led by 0: entry c is the hazard after c knots
        object.__setattr__(self, "_hazard", np.concatenate(([0.0], hazard)))
        object.__setattr__(self, "_infinite", bool(np.isinf(risks).any()))
        monotone = _hazard_rows_pass(knots, hazard, risks)
        object.__setattr__(self, "_monotone", monotone)
        if not monotone:
            for rows in _row_blocks(risks.size, knots.size):
                bad = _first_bad_row(knots, self._heights(rows, slice(1, None)), None)
                if bad is not None:
                    raise InvalidCurveError(rows.start + bad[0], bad[1])

    @classmethod
    def _adopt(cls, knots, led, lengths=None) -> "CurveBatch":
        """The dense batch whose values are ``led[:, 1:]``, checked as the
        constructor checks them, that keeps ``led`` itself: an ``n x (K+1)``
        float array whose column 0 holds ones, such as a curve file's table
        or a gather of a batch's rows, which no one else writes. ``hazard``
        and ``risks`` keep their defaults, None."""
        batch = cls.__new__(cls)
        batch.__dict__.update(knots=knots, values=led[:, 1:], lengths=lengths)
        batch.__post_init__(led)
        return batch

    @classmethod
    def broadcast(cls, curve: StepCurve, n: int) -> "CurveBatch":
        """``n`` subjects that all share ``curve``."""
        return cls(
            knots=curve.knots,
            values=np.broadcast_to(curve.values, (n, curve.values.size)),
        )

    @classmethod
    def from_curves(cls, curves) -> "CurveBatch":
        """Batch of a sequence of :class:`StepCurve`; a batch is returned as is.

        Curves that all have the same knots share one knot row; otherwise
        rows are padded to the longest curve.
        """
        if isinstance(curves, CurveBatch):
            return curves
        curves = list(curves)
        if not curves:
            raise ValueError("need at least one curve")
        first = curves[0]
        if all(c is first for c in curves):
            return cls.broadcast(first, len(curves))
        if all(np.array_equal(c.knots, first.knots) for c in curves):
            return cls(knots=first.knots, values=np.stack([c.values for c in curves]))
        lengths = np.array([c.knots.size for c in curves])
        knots = np.zeros((len(curves), lengths.max()))
        values = np.zeros_like(knots)
        for i, c in enumerate(curves):
            knots[i, : c.knots.size] = c.knots
            values[i, : c.values.size] = c.values
        return cls(knots=knots, values=values, lengths=lengths)

    def __len__(self) -> int:
        return self._rows.size

    def __getitem__(self, i) -> StepCurve:
        i = range(len(self))[i]
        size = self.lengths[i]
        knots = self.knots if self.knots.ndim == 1 else self.knots[i]
        values = self._heights(slice(i, i + 1), slice(1, size + 1))[0]
        return StepCurve(knots=knots[:size], values=values)

    def take(self, rows) -> "CurveBatch":
        """The batch of the given rows, in that order."""
        rows = np.asarray(rows, dtype=int)
        if self._led is None:
            return CurveBatch(knots=self.knots, hazard=self.hazard, risks=self.risks[rows])
        knots = self.knots if self.knots.ndim == 1 else self.knots[rows]
        return CurveBatch._adopt(knots, self._led[rows], self.lengths[rows])

    @property
    def _shared(self) -> bool:
        """Whether every row reads one broadcast row of values."""
        return self._led is not None and _one_row(self._led)

    @property
    def t_last(self) -> np.ndarray:
        return self._knot(self.lengths - 1)

    @property
    def v_last(self) -> np.ndarray:
        return self._pick(self.lengths)

    def _knot(self, cols) -> np.ndarray:
        """Row ``i``'s knot in column ``cols[i]``."""
        return self.knots[cols] if self.knots.ndim == 1 else self.knots[self._rows, cols]

    def _row_times(self, t) -> np.ndarray:
        """``t`` as one query time per row; a scalar serves every row."""
        t_arr = _query_times(t)
        if t_arr.shape not in ((), (len(self),)):
            raise ValueError(f"need one time per row ({len(self)}), got shape {t_arr.shape}")
        return np.broadcast_to(t_arr, (len(self),))

    def _counts(self, t, side):
        """Per row, its knots at or below (``side="right"``) or strictly below
        (``side="left"``) that row's entry of ``t``."""
        if self.knots.ndim == 1:
            return np.searchsorted(self.knots, t, side=side)
        below = self.knots <= t[:, None] if side == "right" else self.knots < t[:, None]
        return np.count_nonzero(below, axis=1)

    def _grid_counts(self, grid, rows):
        """``len(rows) x G`` counts of the knots of rows ``rows`` (a slice) at or
        below every point of ``grid``."""
        if self.knots.ndim == 1:
            counts = np.searchsorted(self.knots, grid, side="right")
            return np.broadcast_to(counts, (len(self._rows[rows]), grid.size))
        knots = self.knots[rows]
        # an ascending grid, such as the IBS grid, needs no sort
        order = None if np.all(grid[1:] >= grid[:-1]) else np.argsort(grid, kind="stable")
        # a knot counts toward every grid point from the first one it does not exceed
        first = np.searchsorted(grid if order is None else grid[order], knots, side="left")
        size = grid.size + 1
        n = len(knots)
        hist = np.bincount((np.arange(n)[:, None] * size + first).ravel(), minlength=n * size)
        counts = np.cumsum(hist.reshape(n, size), axis=1)[:, :-1]
        if order is None:
            return counts
        unsorted = np.empty((n, grid.size), dtype=np.intp)
        unsorted[:, order] = counts
        return unsorted

    def _pick(self, counts, rows=slice(None)):
        """Values of rows ``rows`` (a slice or index array) after the given
        knot counts (one column per query): one gather from the values led by
        ones, so a count of 0 reads 1. A hazard batch gathers its hazard led
        by 0 and computes the values there."""
        if self._led is None:
            risks = self.risks[rows] if counts.ndim == 1 else self.risks[rows, None]
            cells = self._hazard.take(counts)
            # -h * r in place, as the dense matrix forms it; the product
            # overflows to -inf where the value is 0, and is NaN for 0 * inf;
            # exp overflows on the hazard below 0 of a batch the check refuses
            np.negative(cells, out=cells)
            with np.errstate(over="ignore", invalid="ignore"):
                cells *= risks
                np.exp(cells, out=cells)
            # after no knot every row reads 1, an infinite risk's too
            return np.where(counts == 0, 1.0, cells) if self._infinite else cells
        led = self._led
        if _one_row(led):
            return led[0].take(counts)
        rows = self._rows[rows] if counts.ndim == 1 else self._rows[rows, None]
        return led.ravel().take(counts + rows * led.shape[1])

    def _heights(self, rows, cols):
        """The values led by ones (column ``c``: the value after ``c`` knots)
        of rows ``rows`` (a slice or index array) in columns ``cols`` (a
        slice): a view or gather of a dense batch's, picked by :meth:`_pick`
        at every column for a hazard batch."""
        if self._led is not None:
            return self._led[rows, cols]
        counts = np.arange(self._hazard.size)[cols]
        return self._pick(np.broadcast_to(counts, (len(self._rows[rows]), counts.size)), rows)

    def value(self, t) -> np.ndarray:
        """Row ``i`` at ``t[i]`` (right-continuous); a scalar ``t`` serves every row."""
        return self._pick(self._counts(self._row_times(t), "right"))

    def value_and_piece(self, t):
        """``(value, mass, width)`` per row: ``value(t)``, and the survival
        mass the row drops over the piece of its curve that holds ``t[i]``,
        and that piece's width. Pieces run from knot to knot and hold their
        right end; the first starts at 0 at height 1. Past the last knot the
        row drops no mass, over an infinite width."""
        t = self._row_times(t)
        before = self._counts(t, "left")
        size = self.knots.shape[-1]
        # the piece runs from knot before - 1 (or 0) to knot before
        end = self._knot(np.minimum(before, size - 1))
        start = np.where(before > 0, self._knot(before - 1), 0.0)
        start_value = self._pick(before)
        end_value = self._pick(np.minimum(before + 1, size))
        # knots increase strictly, so only the piece's end can equal t
        value = np.where(end == t, end_value, start_value)
        return value, start_value - end_value, np.where(before < size, end - start, np.inf)

    def value_on(self, grid) -> np.ndarray:
        """``n x G`` matrix of every row at every time of the shared ``grid``."""
        grid = _query_times(grid)
        if grid.ndim != 1:
            raise ValueError("grid must be a 1-d array of times")
        return self._grid_values(grid, slice(None))

    def _grid_values(self, grid, rows) -> np.ndarray:
        """:meth:`value_on` of rows ``rows`` (a slice) alone, at a ``grid``
        of valid query times."""
        return self._pick(self._grid_counts(grid, rows), rows)

    def _median_index(self) -> np.ndarray:
        """Per row of a hazard batch whose hazard never falls, the index of
        its first value at or below one half, or K where there is none: a
        binary search of the hazard for ``ln 2 / risk``, then, where the
        computed values disagree, steps over whole runs of equal hazards (so
        of equal values) until the value before the index is above one half
        and the value at it is not. Each row moves one way only."""
        hazard, size = self.hazard, self.hazard.size
        with np.errstate(divide="ignore", over="ignore"):  # ln 2 / 0 or a subnormal: inf
            first = np.searchsorted(hazard, np.log(2.0) / self.risks)
        while True:
            # the value before the index already at or below one half: back
            # to the start of its run
            back = self._pick(first) <= 0.5
            first = np.where(back, np.searchsorted(hazard, hazard[np.maximum(first - 1, 0)]), first)
            # the value at the index still above one half: on past its run
            on = (first < size) & (self._pick(np.minimum(first + 1, size)) > 0.5)
            ahead = np.searchsorted(hazard, hazard[np.minimum(first, size - 1)], side="right")
            first = np.where(on, ahead, first)
            if not (back.any() or on.any()):
                return first

    def median_times(self) -> np.ndarray:
        """:meth:`StepCurve.median_time` of every row. Rows that share one
        broadcast value row find its median index once; a hazard batch whose
        hazard never falls finds it by :meth:`_median_index`; other rows are
        scanned in blocks (``_row_blocks``)."""
        size = self.knots.shape[-1]
        if self._led is None and self._monotone:
            first = self._median_index()
        else:
            first = np.empty(1 if self._shared else len(self), dtype=np.intp)
            for rows in _row_blocks(first.size, size):
                below = self._heights(rows, slice(1, None)) <= 0.5
                first[rows] = np.where(below.any(axis=1), np.argmax(below, axis=1), size)
        hit = first < size
        v_last = self.v_last
        flat = np.flatnonzero(~hit & (v_last >= 1.0))
        if flat.size:
            raise DegenerateCurveError(
                f"subject {flat[0]}: curve never descends; median undefined"
            )
        with np.errstate(divide="ignore", over="ignore"):  # inf: refused by extraction
            chord = 0.5 * self.t_last / (1.0 - v_last)
        return np.where(hit, self._knot(np.minimum(first, size - 1)), chord)

    def mean_times(self) -> np.ndarray:
        """:meth:`StepCurve.mean_time` of every row, bit for bit.

        A row's area is the sum of its pieces up to its last knot, the first
        from 0 at height 1 unless its first knot is 0. Rows of one length
        whose first knots are all 0, or all above 0, have equally many
        pieces: each such group sums one matrix of them row by row, in the
        order :meth:`StepCurve.integrate` sums one curve's, in blocks of at
        most ``_PIECE_BLOCK`` pieces. Rows that share one knot row and one
        broadcast value row are summed once.
        """
        flat = np.flatnonzero(self.v_last >= 1.0)
        if flat.size:
            raise DegenerateCurveError(f"subject {flat[0]}: curve never descends; mean undefined")
        n = 1 if self.knots.ndim == 1 and self._shared else len(self)
        knots = np.atleast_2d(self.knots)
        # a row whose first knot is 0 has no piece from 0 to that knot
        at_zero = np.broadcast_to(knots[:, 0] == 0.0, (n,))
        groups = 2 * self.lengths[:n] + at_zero
        area = np.empty(n)
        for group in np.unique(groups):
            size, skip = divmod(int(group), 2)
            rows = np.flatnonzero(groups == group)
            for block in map(rows.__getitem__, _row_blocks(rows.size, size)):
                edges = knots[:, :size] if knots.shape[0] == 1 else knots[block, :size]
                widths = np.diff(edges, prepend=0.0)[:, skip:]
                area[block] = np.sum(self._heights(block, slice(skip, size)) * widths, axis=1)
        t_last, v_last = self.t_last[:n], self.v_last[:n]
        with np.errstate(over="ignore"):  # Python floats overflow to inf silently
            tail = v_last * (t_last / (1.0 - v_last) - t_last) / 2.0
        return np.broadcast_to(np.where(v_last > 0.0, area + tail, area), (len(self),)).copy()


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics of a dataset; time aggregates are over events only."""

    n: int
    censor_rate: float
    t_max_event: float
    t_median_event: float
    sigma_event: float


def dataset_stats(ds: SurvivalDataset) -> DatasetStats:
    """Compute :class:`DatasetStats`; needs at least two uncensored subjects."""
    event_times = ds.times[ds.events]
    if event_times.size < 2:
        raise InsufficientEventsError(
            f"need at least two uncensored subjects, found {event_times.size}"
        )
    return DatasetStats(
        n=ds.n,
        censor_rate=float(np.mean(~ds.events)),
        t_max_event=float(np.max(event_times)),
        t_median_event=float(np.median(event_times)),
        sigma_event=float(np.std(event_times, ddof=1)),
    )


@dataclass(frozen=True)
class FoldSplit:
    """A disjoint partition of subject indices into cross-validation folds."""

    folds: tuple

    def train_indices(self, fold: int) -> np.ndarray:
        others = list(self.folds)
        del others[fold]
        return np.sort(np.concatenate(others))

    @property
    def k(self) -> int:
        return len(self.folds)


def stratified_kfold(
    ds: SurvivalDataset, k: int, seed: int, time_bins: int = 4
) -> FoldSplit:
    """Deterministic stratified k-fold split.

    Strata are the cross product of the event flag and ``time_bins`` quantile
    bins of the observed time. Subjects are shuffled within each stratum with a
    generator seeded by ``seed`` and dealt round-robin with a cursor that runs
    across strata, so fold sizes differ by at most one and censoring is spread
    as evenly as the counts allow.
    """
    k = _at_least(k, "k", 2, ConfigurationError)
    time_bins = _at_least(time_bins, "time_bins", 1, ConfigurationError)
    seed = _check_seed(seed)
    if k > ds.n:
        raise ConfigurationError(f"cannot split {ds.n} records into {k} folds")
    times = ds.times
    edges = np.quantile(times, np.arange(1, time_bins) / time_bins)
    bins = np.searchsorted(edges, times, side="right")
    rng = np.random.default_rng(seed)
    shuffled = []
    for flag in (False, True):
        for b in range(time_bins):
            members = np.nonzero((ds.events == flag) & (bins == b))[0]
            if members.size:
                shuffled.append(rng.permutation(members))
    # the deal: the p-th subject of the shuffled strata goes to fold p mod k
    order = np.concatenate(shuffled)
    return FoldSplit(folds=tuple(np.sort(order[f::k]) for f in range(k)))


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(
            f"line {line}: non-numeric value {text!r} in column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(
            f"line {line}: non-finite value {text!r} in column {column!r}"
        )
    return value


# bytes the readers take from a file at once, then up to the end of the line
# they cut; each chunk is parsed by one orjson.loads. In short benchmark runs
# on a 2-vCPU host, fitted_cli's peak RSS was lowest with chunks of 2**15
# bytes; 2**16 and 2**17 raised it by about 0.1 and 0.35 MB. A 192 MiB,
# 1e5 x 101 curve file read in 1.2-1.9 s at each of these sizes
_CHUNK_BYTES = 1 << 15
# the bytes of rows of plain numbers, one per line; with these alone, a line
# can add no JSON structure (no bracket, quote, brace, name or literal). A
# carriage return is JSON white space; the reader takes it only before a
# line feed
_NUMERIC_BYTES = b"0123456789.eE+-, \t\r\n"
# a carriage return not followed by a line feed: csv breaks a line there.
# Searched only where find sees a carriage return: alone it took 1.4 ms on a
# 2 MB LF file, where find takes 0.06 ms; on a CRLF file it took 0.86 ms
# against 3.8 ms for counting CRs and CRLFs
_BARE_CR = re.compile(rb"\r(?!\n)")
# an integer -0 field: orjson reads it as 0 where float() gives -0.0. The -0
# of an exponent (1e-0) is read exactly. The lookbehind comes last: one that
# leads the pattern costs re its literal-prefix search, 25 times the scan
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![.eE0-9])(?<![eE]-0)")
# a line ending, as a text file opened with newline="" splits its lines
_LINE_END = re.compile(rb"\r\n?|\n")


def _read_columns(data, width, index=False):
    """The comma-separated lines of the bytes ``data`` (a chunk of a file's
    lines below its header) as an ``n x width`` float table, or None.

    The lines are parsed by one ``orjson.loads`` of the rows rejoined as
    ``[[row],[row],...]``. orjson parses every number to the double
    ``float()`` gives, save the integer ``-0``. With ``index``, the first
    field of each row must be an integer that fits int64, and the result is
    that column as int64 and the other columns as the table.

    Returns None for anything else: a carriage return not followed by a line
    feed (a line break to the line reader); a byte other than an ASCII digit,
    ``.eE+-,``, space, tab or line ending; an integer ``-0`` field; a field
    over the ``csv`` module's size limit; a blank row or one of another
    width; an index that is not an int64 integer; text that is not a JSON
    number; no rows. Callers then read the lines with ``csv``, which names
    the fault.
    """
    import orjson

    end = len(data)  # the last line ends here, before its line ending
    if data.endswith(b"\n"):
        end -= 2 if data.endswith(b"\r\n") else 1
    if data.find(b"\r", 0, end) >= 0 and _BARE_CR.search(data, 0, end):
        return None
    if data.translate(None, _NUMERIC_BYTES):
        return None
    # a field over csv's size limit lies on a line over it: step from line
    # feed to line feed at most the limit apart, and split the fields only
    # where no line feed lies within the limit
    limit = csv.field_size_limit()
    start = 0
    while end - start > limit:
        cut = data.rfind(b"\n", start, start + limit + 1)
        if cut < 0:
            fields = data[:end].replace(b"\n", b",").split(b",")
            if any(len(field) > limit for field in fields):
                return None
            break
        start = cut + 1
    try:
        rows = orjson.loads(
            b"".join((b"[[", memoryview(data)[:end], b"]]")).replace(b"\n", b"],[")
        )
    except orjson.JSONDecodeError:
        return None
    if set(map(len, rows)) != {width}:
        return None
    table = np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * width)
    table = table.reshape(len(rows), width)
    # an integer -0 parses to a zero cell, so a chunk without one holds none
    if not table.all() and _INTEGER_MINUS_ZERO.search(data):
        return None
    if not index:
        return table
    first = [row[0] for row in rows]
    if not all(type(i) is int and -(2**63) <= i < 2**63 for i in first):
        return None
    return np.array(first, dtype=np.int64), table[:, 1:]


class _Stream(io.RawIOBase):
    """The bytes ``head``, then the rest of the binary file ``fh``, as a raw
    stream for a text stream to decode. With ``kept`` a list, each read also
    appends the bytes it gives to it."""

    def __init__(self, fh, head=b"", kept=None):
        self._fh = fh
        self._head = memoryview(head)
        self.kept = kept

    def readable(self):
        return True

    def readinto(self, buffer):
        if self._head:
            size = min(len(buffer), len(self._head))
            buffer[:size] = self._head[:size]
            self._head = self._head[size:]
        else:
            size = self._fh.readinto(buffer)
        if self.kept is not None:
            self.kept.append(bytes(buffer[:size]))
        return size


def _split_csv(fh, path: Path):
    """Read the header row of the csv file at ``path``, open as the binary
    ``fh``, dropping a leading UTF-8 byte-order mark; it is decoded as
    ``path.open(newline="")`` decodes text. Returns the header; the file line
    of the first row below it (a quoted header field may span lines); the
    bytes read past the header, with which those rows begin, and None. When
    the text's encoding does not read the bytes of plain numbers as ASCII,
    it returns None and a text stream of the rows instead.
    """
    head = fh.read(len(codecs.BOM_UTF8))
    kept = []
    stream = _Stream(fh, b"" if head == codecs.BOM_UTF8 else head, kept)
    text = io.TextIOWrapper(stream, newline="")
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: file is empty") from None
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise DataFormatError(f"line 1: {exc}") from None
    stream.kept = None
    start = reader.line_num + 1
    if codecs.decode(_NUMERIC_BYTES, text.encoding, "replace") != _NUMERIC_BYTES.decode():
        return header, start, None, text
    # the text stream read ahead of the header: the rows begin in what it kept
    data = b"".join(kept)
    offset = 0
    for _ in range(reader.line_num):
        found = _LINE_END.search(data, offset)
        offset = len(data) if found is None else found.end()
    return header, start, data[offset:], None


def _chunks(head, fh):
    """The bytes ``head``, then the rest of the binary file ``fh``, in chunks
    of about ``_CHUNK_BYTES`` bytes; each but the file's last ends at a line
    feed."""
    chunk = head + fh.read(_CHUNK_BYTES)
    while chunk:
        if not chunk.endswith(b"\n"):
            chunk += fh.readline()
        yield chunk
        chunk = fh.read(_CHUNK_BYTES)


def _put(array, n, rows) -> None:
    """Write ``rows`` below the first ``n`` rows of ``array``, into its last
    columns, first growing it in place, to at least twice its rows, when
    they do not fit."""
    stop = n + len(rows)
    if stop > len(array):
        # no view of the array is alive, so it may move
        array.resize((max(stop, 2 * len(array)), *array.shape[1:]), refcheck=False)
    array[n:stop][..., -rows.shape[-1] :] = rows


def _room(fh, chunk, rows) -> int:
    """Rows to make room for once the first ``chunk`` of the binary file
    ``fh``, of ``rows`` rows, is read: those, and the rest of the file at the
    chunk's bytes per row, a quarter more. A pipe gets room for the chunk's
    rows alone. Room that no row fills is never written, so an array of
    more than a few pages takes no memory there."""
    try:
        rest = max(0, os.fstat(fh.fileno()).st_size - fh.tell())
    except OSError:  # no size or no position: a pipe
        rest = 0
    return rows + 5 * rest * rows // (4 * len(chunk))


def _index_array(indices) -> np.ndarray:
    """The integers ``indices`` as int64, or as objects when one lies past int64."""
    try:
        return np.array(indices, dtype=np.int64)
    except OverflowError:
        return np.array(indices, dtype=object)


def _read_rows(fh, head, text, start, width, parse, index=False, rows=None):
    """The rows below the header of a csv file, as :func:`_split_csv` left
    the binary ``fh`` and returned ``head``, ``text`` and ``start``, yielded
    in blocks of ``(indices, table, lines)``: the rows' ``width`` fields as
    a float table, and the file line of each row. With ``index``, the first
    field of each row is an integer index: ``indices`` holds them, as
    :func:`_index_array` gives them, and the table keeps their column's
    place, filled with ones, so that a :class:`CurveBatch` adopts it as the
    values led by ones. Without, ``indices`` is None.

    Chunk after chunk of the file is parsed by :func:`_read_columns`, whose
    index field must fit int64. From the first chunk it declines on, the
    rest of the file is decoded and read by :func:`_read_lines` with
    ``parse``, which gives a row's numbers (with ``index``, as ``(index,
    the other numbers)``); the chunks before held only plain numbers, so no
    quoted field crosses the hand-off. A chunk with a blank row is
    declined, so the chunks' rows are lines ``start``, ``start + 1``, ...
    Once every block is taken, the read has gone to the end of the file, so
    that a pipe is drained, and the line reader's error is raised, if it
    met one.

    With ``rows``, each block holds ``rows`` rows (fewer where the rows end
    or the line reader takes over), in one table that the next block writes
    over. Without, one block holds every row, in a table made with room for
    the file's rows (:func:`_room`) that grows in place should they not fit.
    """
    table = np.empty((rows or 0, width))
    table[:, 0] = 1.0
    indices = np.empty(len(table), dtype=np.int64)
    n, line = 0, start  # rows in the table, and the file line of its first
    if text is None:
        for chunk in _chunks(head, fh):
            got = _read_columns(chunk, width, index)
            if got is None:
                text = io.TextIOWrapper(_Stream(fh, chunk), newline="")
                break
            first, got = got if index else (None, got)
            if rows is None:
                if not n:
                    room = _room(fh, chunk, len(got))
                    table = np.empty((room, width))
                    indices = np.empty(room if index else 0, dtype=np.int64)
                if index:
                    _put(indices, n, first)
                _put(table, n, got)
                n += len(got)
                continue
            done = 0
            while done < len(got):
                take = min(rows - n, len(got) - done)
                if index:
                    indices[n : n + take] = first[done : done + take]
                table[n : n + take, width - got.shape[1] :] = got[done : done + take]
                n, done = n + take, done + take
                if n == rows:
                    yield indices, table, range(line, line + n)
                    n, line = 0, line + n
    if rows is None:
        table.resize((n, width), refcheck=False)
        if index:
            indices.resize(n, refcheck=False)
            table[:, 0] = 1.0
    failure, lines = None, range(line, line + n)
    if text is not None:
        entries, numbers, failure = _read_lines(text.readlines(), line + n, width, parse)
        if entries:
            more = _index_array([i for i, _ in entries]) if index else None
            if index:
                entries = np.column_stack((np.ones(len(entries)), [v for _, v in entries]))
            entries = np.asarray(entries, dtype=float)
            if rows is None:
                if index:
                    indices = np.concatenate((indices, more))
                table = np.concatenate((table, entries))
                lines = [*lines, *numbers]
            else:
                if n:
                    yield indices[:n], table[:n], lines
                n, lines = 0, range(0)
                for part in _row_blocks(len(entries), 1, rows):
                    yield (more[part] if index else None), entries[part], numbers[part]
    if rows is None or n:
        yield (indices[: len(lines)] if index else None), table[: len(lines)], lines
    if failure is not None:
        raise failure


def _read_lines(lines, start, width, parse):
    """Read the csv ``lines`` below a header one row at a time, skipping
    blank rows; ``lines[0]`` is file line ``start``. ``parse(row, line)``
    turns a row of ``width`` fields, whose first line in the file is
    ``line``, into its entry or raises :class:`DataFormatError`. Returns the
    entries, the line of each and the error that ended the read (a row of
    another width, a row csv cannot read, a failed parse), or None when every
    row was read."""
    entries, numbers = [], []
    reader = csv.reader(lines)
    line = start  # first line of the row being read: a quoted field may span lines
    try:
        for row in reader:
            if row:
                if len(row) != width:
                    raise DataFormatError(f"line {line}: expected {width} fields, found {len(row)}")
                entries.append(parse(row, line))
                numbers.append(line)
            line = start + reader.line_num
    except csv.Error as exc:  # e.g. a field over csv's size limit
        return entries, numbers, DataFormatError(f"line {line}: {exc}")
    except DataFormatError as exc:
        return entries, numbers, exc
    return entries, numbers, None


# cells per block of rows handed to one orjson.dumps by the writer. Writing a
# 1e5 x 8 dataset peaked at 0.9 MB of traced memory with 8192-cell blocks,
# 3.2 MB with 32768 and 23 MB with whole columns; larger blocks were no faster
_BLOCK_CELLS = 8192


def _spelled(part):
    """The entries of the 1-d array ``part`` for :func:`_write_columns`: a
    float array's numbers as floats where orjson spells them as ``repr``
    does, else as their ``repr`` text; any other array's ``tolist()``."""
    if part.dtype != float:
        return part.tolist()
    # orjson's shortest round-trip text equals repr at 0 and for magnitudes
    # in [1e-4, 1e16); outside that range it spells the exponent otherwise
    # (1e-5 for 1e-05, 1e16 for 1e+16) and writes [1e-5, 1e-4) positionally.
    # NaN and +-inf compare false and take repr too
    size = np.abs(part)
    same = (size < 1e16) & ((size >= 1e-4) | (part == 0.0))
    values = part.tolist()
    if not same.all():
        for i in np.flatnonzero(~same).tolist():
            values[i] = repr(values[i])
    return values


def _write_columns(path, header, columns) -> None:
    """Write the csv file at ``path``: ``header`` through ``csv.writer``, then
    one row per entry of the equal-length 1-d arrays ``columns``. A float
    array's numbers are written as ``repr`` spells them; any other array's
    entries (integers, or integer texts) as ``str`` spells them.

    The rows go in blocks of about ``_BLOCK_CELLS`` cells, each written by
    one ``orjson.dumps`` of the block's rows. A text (a ``repr`` or an
    integer text) comes out quoted; no field holds a quote, comma or line
    break, so csv would quote none, and the quotes are dropped."""
    import orjson

    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in _row_blocks(len(columns[0]), len(columns), _BLOCK_CELLS):
            rows = zip(*(_spelled(column[block]) for column in columns))
            text = orjson.dumps(list(rows))[2:-2]  # [[row],[row],...]
            fh.write(text.replace(b"],[", b"\r\n").replace(b'"', b"").decode() + "\r\n")


def load_dataset(
    path, time_column: str = "time", event_column: str = "event"
) -> SurvivalDataset:
    """Read a CSV file with a header into a :class:`SurvivalDataset`.

    The time and event columns are looked up by name; a ``true_time`` column,
    when present, populates the hidden ground truth. Every other column is
    treated as a numeric feature. A header that names a column twice, or the
    same column for time and event, is rejected. Rows keep their file order
    and parse errors name the offending line (the header is line 1).

    The file is read once, as bytes, in chunks, so it may be a pipe; a
    leading UTF-8 byte-order mark is dropped. The header is decoded as
    ``open`` decodes text. The rows of a valid file are parsed from those
    bytes, chunk by chunk, by orjson's exact number parser; from the first
    chunk that is not plain numbers (a bare carriage return, a text encoding
    that does not read ASCII digits as ASCII, any field that is not a plain
    number) the rest of the file is decoded and parsed line by line.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header, start, head, text = _split_csv(fh, path)
        header = [h.strip() for h in header]
        for needed in (time_column, event_column):
            if needed not in header:
                raise DataFormatError(f"{path}: column {needed!r} not found in header")
        if time_column == event_column:
            raise DataFormatError(f"line 1: column {time_column!r} cannot be both time and event")
        repeat = _first_repeat(header)
        if repeat is not None:
            raise DataFormatError(f"line 1: column {header[repeat]!r} appears more than once")
        t_idx = header.index(time_column)
        e_idx = header.index(event_column)
        truth_idx = [header.index("true_time")] if "true_time" in header else []
        feat_idx = [j for j in range(len(header)) if j not in (t_idx, e_idx, *truth_idx)]
        names = tuple(header[j] for j in feat_idx)
        # the columns of the dataset, in the order it takes them
        order = [t_idx, e_idx, *truth_idx, *feat_idx]

        def parse(row, line):
            # the fields in file order, read in the order of the columns
            values = [0.0] * len(header)
            for j in order:
                values[j] = _parse_float(row[j], line, header[j])
            return values

        failure = None
        try:  # one block of every row, then the line reader's error
            for _, table, lines in _read_rows(fh, head, text, start, len(header), parse):
                pass
        except DataFormatError as exc:
            failure = exc
    data = table[:, order]
    times, flags, features = data[:, 0], data[:, 1], data[:, 2 + len(truth_idx) :]
    truths = data[:, 2] if truth_idx else None
    if failure is None:
        try:
            return SurvivalDataset(times, flags, features, truths, names)
        except ValueError:
            pass  # a rule is broken, or there is no row: name the line
    # a rule broken on a line before the failure is the first error
    bad = _first_bad_subject(times, flags, truths, features)
    if bad is not None:
        raise DataFormatError(f"line {lines[bad[0]]}: {bad[1]}")
    if failure is not None:
        raise failure
    raise DataFormatError(f"{path}: no data rows")


def save_dataset(ds: SurvivalDataset, path) -> None:
    """Write a dataset back to CSV in the layout :func:`load_dataset` reads.

    The reader strips every header name, so a feature name with surrounding
    whitespace, a repeated one, or one named ``time``, ``event`` or
    ``true_time`` would not read back as written: it raises ``ValueError``
    before the file is opened. Every dataset that is written reads back
    with the same names and the same floats.
    """
    names = ds.feature_names
    for j, name in enumerate(names):
        if name != name.strip() or name in ("time", "event", "true_time") or name in names[:j]:
            raise ValueError(f"feature name {name!r} would not read back as a feature")
    with_truth = ds.true_times is not None
    header = ["time", "event"] + (["true_time"] if with_truth else []) + list(names)
    columns = [ds.times, ds.events.view(np.uint8)]  # event flags as integers
    if with_truth:
        columns.append(ds.true_times)
    columns.extend(ds.feature_matrix.T)
    _write_columns(path, header, columns)
