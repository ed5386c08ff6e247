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

import csv
import math
import warnings
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


def _first_bad_subject(times, events, true_times, features):
    """``(index, reason)`` of the first subject that breaks a dataset rule, or
    None (``true_times`` None: no truths to check). A subject that breaks
    several rules is reported with the first one listed."""
    truths = times if true_times is None else true_times
    checks = (
        (~np.isfinite(times), "non-finite time value"),
        (~np.isfinite(truths), "non-finite true time value"),
        (~np.isfinite(features).all(axis=1), "non-finite feature value"),
        (~(times > 0), "observed time must be positive, got {t}"),
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
    return i, reason.format(t=float(times[i]), truth=float(truths[i]))


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
    (a non-finite value, a time that is not positive, an inconsistent true
    time) raises ``ValueError`` naming its index.
    """

    times: np.ndarray
    events: np.ndarray
    feature_matrix: np.ndarray
    true_times: np.ndarray | None = None
    feature_names: tuple = ()

    def __post_init__(self):
        times = _frozen(self.times, float)
        events = _frozen(self.events, bool)
        features = _frozen(self.feature_matrix, float)
        truths = None if self.true_times is None else _frozen(self.true_times, float)
        names = tuple(self.feature_names)
        if times.ndim != 1 or events.shape != times.shape:
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
        bad = _first_bad_subject(times, events, truths, features)
        if bad is not None:
            raise ValueError("subject {}: {}".format(*bad))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events)
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
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if knots[0] < 0 or not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be nonnegative and strictly increasing")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("values must lie in [0, 1]")
        if np.any(np.diff(values) > 1e-12):
            raise ValueError("values must be non-increasing")

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


def _batch_passes(knots, values) -> bool:
    """Whether every row of an unpadded batch keeps every :class:`StepCurve`
    rule, in one pass: knots rise strictly from a nonnegative first knot to a
    finite last one (so all are finite), and values lie in [0, 1] (so all are
    finite) and rise nowhere by more than 1e-12. Comparing neighbours instead
    of differencing them keeps ``inf - inf`` from warning."""
    if values.strides[0] == 0:
        values = values[:1]
    return bool(
        (knots[..., 0] >= 0).all()
        and np.isfinite(knots[..., -1]).all()
        and (knots[..., 1:] > knots[..., :-1]).all()
        and values.min() >= 0
        and values.max() <= 1
        and not (values[:, 1:] - values[:, :-1] > 1e-12).any()
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
    if n and values.strides[0] == 0 and real is None:
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

    Every :class:`StepCurve` rule is checked on all rows at once; a broken
    rule raises :class:`InvalidCurveError` naming the first bad row.
    """

    knots: np.ndarray
    values: np.ndarray
    lengths: np.ndarray | None = None

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
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
            lengths = np.asarray(self.lengths, dtype=int)
            if lengths.shape != (n,) or np.any(lengths < 1) or np.any(lengths > width):
                raise ValueError(f"lengths must hold one count in [1, {width}] per row")
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
        # row serves rows that share their values
        if n and values.strides[0] == 0 and real is None:
            led = np.broadcast_to(np.concatenate(([1.0], values[0])), (n, width + 1))
        else:
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
        return self.values.shape[0]

    def __getitem__(self, i) -> StepCurve:
        i = range(len(self))[i]
        size = self.lengths[i]
        knots = self.knots if self.knots.ndim == 1 else self.knots[i]
        return StepCurve(knots=knots[:size], values=self.values[i, :size])

    def take(self, rows) -> "CurveBatch":
        """The batch of the given rows, in that order."""
        rows = np.asarray(rows, dtype=int)
        knots = self.knots if self.knots.ndim == 1 else self.knots[rows]
        return CurveBatch(knots=knots, values=self.values[rows], lengths=self.lengths[rows])

    @property
    def t_last(self) -> np.ndarray:
        if self.knots.ndim == 1:
            return np.full(len(self), self.knots[-1])
        return self.knots[self._rows, self.lengths - 1]

    @property
    def v_last(self) -> np.ndarray:
        return self.values[:, -1]

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

    def _grid_counts(self, grid, side):
        """``n x G`` counts of each row's knots at or below (``side="right"``)
        or strictly below (``side="left"``) every point of ``grid``."""
        if self.knots.ndim == 1:
            return np.broadcast_to(np.searchsorted(self.knots, grid, side=side), (len(self), grid.size))
        # an ascending grid, such as the IBS grid, needs no sort
        order = None if np.all(grid[1:] >= grid[:-1]) else np.argsort(grid, kind="stable")
        # a knot counts toward every grid point from the first one it does not exceed
        first = np.searchsorted(
            grid if order is None else grid[order],
            self.knots,
            side="left" if side == "right" else "right",
        )
        size = grid.size + 1
        hist = np.bincount((self._rows[:, None] * size + first).ravel(), minlength=len(self) * size)
        counts = np.cumsum(hist.reshape(len(self), size), axis=1)[:, :-1]
        if order is None:
            return counts
        unsorted = np.empty((len(self), grid.size), dtype=np.intp)
        unsorted[:, order] = counts
        return unsorted

    def _pick(self, counts):
        """Values after the given knot counts (one column per query): one
        gather from the values led by ones, so a count of 0 reads 1."""
        led = self._led
        if led.strides[0] == 0:
            return led[0].take(counts)
        rows = self._rows if counts.ndim == 1 else self._rows[:, None]
        return led.ravel().take(counts + rows * led.shape[1])

    def _on_grid(self, grid, side):
        grid = _query_times(grid)
        if grid.ndim != 1:
            raise ValueError("grid must be a 1-d array of times")
        return self._pick(self._grid_counts(grid, side))

    def value(self, t) -> np.ndarray:
        """Row ``i`` at ``t[i]`` (right-continuous); a scalar ``t`` serves every row."""
        return self._pick(self._counts(self._row_times(t), "right"))

    def value_before(self, t) -> np.ndarray:
        """Left limits: row ``i`` just before ``t[i]``; a scalar ``t`` serves every row."""
        return self._pick(self._counts(self._row_times(t), "left"))

    def value_and_knots_before(self, t):
        """``value(t)`` and, per row, how many of its knots lie strictly
        before ``t[i]``, from one count of the knots."""
        t = self._row_times(t)
        before = self._counts(t, "left")
        # knots increase strictly, so only the next knot can equal t
        nxt = np.minimum(before, self.knots.shape[-1] - 1)
        at_t = (self.knots[nxt] if self.knots.ndim == 1 else self.knots[self._rows, nxt]) == t
        return self._pick(before + at_t), before

    def value_on(self, grid) -> np.ndarray:
        """``n x G`` matrix of every row at every time of the shared ``grid``."""
        return self._on_grid(grid, "right")

    def value_before_on(self, grid) -> np.ndarray:
        """``n x G`` matrix of the left limits of every row on ``grid``."""
        return self._on_grid(grid, "left")

    def median_times(self) -> np.ndarray:
        """:meth:`StepCurve.median_time` of every row. Rows that share one
        broadcast value row find its median index once."""
        values = self.values
        below = (values[:1] if values.strides[0] == 0 else values) <= 0.5
        hit = below.any(axis=1)
        v_last = self.v_last
        flat = np.flatnonzero(~hit & (v_last >= 1.0))
        if flat.size:
            raise DegenerateCurveError(
                f"subject {flat[0]}: curve never descends; median undefined"
            )
        first = np.argmax(below, axis=1)
        at_knot = self.knots[first] if self.knots.ndim == 1 else self.knots[self._rows, first]
        with np.errstate(divide="ignore"):
            chord = 0.5 * self.t_last / (1.0 - v_last)
        return np.where(hit, at_knot, chord)

    def mean_times(self) -> np.ndarray:
        """:meth:`StepCurve.mean_time` of every row.

        Loops over the rows: the area sums must keep each row's own length
        and order to give the same floats as the single curve.
        """
        out = np.empty(len(self))
        for i in range(len(self)):
            size = self.lengths[i]
            knots = (self.knots if self.knots.ndim == 1 else self.knots[i])[:size]
            values = self.values[i, :size]
            t_last, v_last = float(knots[-1]), float(values[-1])
            if v_last >= 1.0:
                raise DegenerateCurveError(
                    f"subject {i}: curve never descends; mean undefined"
                )
            area = 0.0
            if t_last > 0.0:
                inner = (knots > 0.0) & (knots < t_last)
                lefts = np.concatenate(([0.0], knots[inner]))
                rights = np.concatenate((knots[inner], [t_last]))
                start = values[0] if knots[0] == 0.0 else 1.0
                heights = np.concatenate(([start], values[inner]))
                area = float(np.sum(heights * (rights - lefts)))
            if v_last > 0.0:
                t_zero = t_last / (1.0 - v_last)
                area += v_last * (t_zero - t_last) / 2.0
            out[i] = area
        return out


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
    if k < 2:
        raise ConfigurationError(f"need at least two folds, got k={k}")
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


def _read_columns(lines, dtype):
    """The comma-separated ``lines`` (a file's lines below its header, each
    with its own line ending), read by NumPy's C reader into a 1-d array of
    the structured ``dtype``, or None when the reader fails or warns: a field
    it cannot convert, a row of another width, no rows. Callers then read the
    lines with ``csv``, which names the fault. Every number the reader accepts
    is the double ``float()`` gives."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None


def _split_csv(path: Path):
    """The header row of the csv file at ``path``, the file's other lines and
    the file line of the first of them (a quoted header field may span
    lines). The file is read once, so it may be a pipe."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        except csv.Error as exc:  # e.g. a field over csv's size limit
            raise DataFormatError(f"line 1: {exc}") from None
        return header, fh.readlines(), reader.line_num + 1


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


def _write_csv(path, header, rows) -> None:
    """Write the csv file at ``path``: ``header``, then each row of formatted
    numbers. A formatted number holds no comma, quote or line break, so csv
    would not quote it and the rows are joined as they are."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def load_dataset(
    path, time_column: str = "time", event_column: str = "event"
) -> SurvivalDataset:
    """Read a CSV file with a header into a :class:`SurvivalDataset`.

    The time and event columns are looked up by name; a ``true_time`` column,
    when present, populates the hidden ground truth. Every other column is
    treated as a numeric feature. A header that names a column twice, or the
    same column for time and event, is rejected. Rows keep their file order
    and parse errors name the offending line (the header is line 1).

    The file is read once, so it may be a pipe. A valid file is parsed in one
    pass of NumPy's C reader; any other file is parsed again line by line.
    """
    path = Path(path)
    header, rest, start = _split_csv(path)
    header = [h.strip() for h in header]
    for needed in (time_column, event_column):
        if needed not in header:
            raise DataFormatError(f"{path}: column {needed!r} not found in header")
    if time_column == event_column:
        raise DataFormatError(f"line 1: column {time_column!r} cannot be both time and event")
    seen = set()
    for name in header:
        if name in seen:
            raise DataFormatError(f"line 1: column {name!r} appears more than once")
        seen.add(name)
    t_idx = header.index(time_column)
    e_idx = header.index(event_column)
    truth_idx = [header.index("true_time")] if "true_time" in header else []
    feat_idx = [j for j in range(len(header)) if j not in (t_idx, e_idx, *truth_idx)]
    names = tuple(header[j] for j in feat_idx)
    # both readers give the columns in this order
    order = [t_idx, e_idx, *truth_idx, *feat_idx]

    def columns(data):
        """Times, event flags, features and true times (or None) of ``data``."""
        truths = data[:, 2] if truth_idx else None
        return data[:, 0], data[:, 1] == 1.0, data[:, 2 + len(truth_idx) :], truths

    table = _read_columns(rest, [("row", float, (len(header),))])
    if table is not None:
        data = table["row"][:, order]
        if np.all((data[:, 1] == 0.0) | (data[:, 1] == 1.0)):
            try:
                return SurvivalDataset(*columns(data), names)
            except ValueError:
                pass  # a rule is broken: the line-by-line read names the line

    def parse(row, line):
        time = _parse_float(row[t_idx], line, time_column)
        flag = _parse_float(row[e_idx], line, event_column)
        if flag not in (0.0, 1.0):
            raise DataFormatError(f"line {line}: event flag must be 0 or 1, got {row[e_idx]!r}")
        return [time, flag] + [_parse_float(row[j], line, header[j]) for j in order[2:]]

    rows, lines, failure = _read_lines(rest, start, len(header), parse)
    times, events, features, truths = columns(
        np.array(rows, dtype=float).reshape(len(rows), len(order))
    )
    # a rule broken on a line before the failure is the first error
    bad = _first_bad_subject(times, events, truths, features)
    if bad is not None:
        raise DataFormatError(f"line {lines[bad[0]]}: {bad[1]}")
    if failure is not None:
        raise failure
    if not times.size:
        raise DataFormatError(f"{path}: no data rows")
    return SurvivalDataset(times, events, features, truths, names)


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
    columns = [map(repr, ds.times.tolist()), map(str, ds.events.astype(int).tolist())]
    if with_truth:
        columns.append(map(repr, ds.true_times.tolist()))
    columns.extend(map(repr, col) for col in ds.feature_matrix.T.tolist())
    _write_csv(path, header, zip(*columns))
