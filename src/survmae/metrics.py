"""Auxiliary evaluation metrics: discrimination, Brier scores, likelihood, calibration.

These complement the MAE family: the concordance index measures ranking only,
Brier scores measure probability accuracy at fixed horizons, and the two
calibration tests check predicted probabilities against observed frequencies.
The curve metrics take a :class:`~survmae.core.CurveBatch`, a sequence of
``StepCurve`` or their scoring summary (:class:`_Summary`), and read only the
summary: curves they are given they summarize once, through the same
:meth:`_Summary.add` that the harness feeds block by block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CurveBatch, SurvivalDataset, _at_least, _check_count, _finite_real, _row_blocks
from .errors import BinningError, DegenerateScoreWarning, UndefinedMetricError
from .estimators import KaplanMeierFit
from .mae import PredictedTimes, _Extraction

__all__ = [
    "CalibrationResult",
    "brier_score_at",
    "comparable_pair_ratio",
    "concordance_index",
    "d_calibration",
    "integrated_brier_score",
    "log_likelihood",
    "one_calibration",
]

# Up to this many subjects the C-index compares every event with every
# subject at once; above it the merge levels are faster. Measured on a
# 2-vCPU host, half the subjects events, best of 5 per call: dense 181 us
# against merge 198 us at n=450, 214 us against 203 us at n=500.
_DENSE_MAX = 480
# cells (subjects x grid points) per block of subjects whose integrated
# Brier score terms _Summary.add sums at once. With shared weights and the sizes
# timed in turn, 400 subjects on a 100-point grid (a test fold of the
# criterion-6 experiment) took 379 us on a shared grid and 1437 us on
# noisy-oracle knots in blocks of 2**14 cells, against 721 and 1785 us as one
# block of 2**16; at 1e4 and 1e5 subjects 2**16 was 5-10% faster. At 1e4
# subjects the metric's traced peak fell from 26.2 MB as one matrix to 4.1 MB
_IBS_CELLS = 1 << 14


def _comparable_count(times, events) -> int:
    """Pairs whose earlier time is an event and whose times differ."""
    later = times.size - np.searchsorted(np.sort(times), times[events], side="right")
    return int(np.sum(later))


def _dense_rank(values):
    """0-based ranks of ``values``: equal values share a rank, with no gaps."""
    order = np.argsort(values)
    ordered = values[order]
    rank = np.empty(values.size, dtype=np.int64)
    rank[order] = np.cumsum(np.concatenate(([0], ordered[1:] != ordered[:-1])))
    return rank


def _concordant_counts(preds, times, events) -> tuple[int, int]:
    """The comparable pairs whose earlier subject has the smaller prediction,
    and those whose predictions tie.

    Up to ``_DENSE_MAX`` subjects every event is compared with every subject
    at once. Above it the count takes O(n log^2 n) time and O(n) memory. The
    tied pairs come from one sort by (prediction, time). The others come
    from merge levels over the subjects ordered by time, and by descending
    prediction within a time tie, so that a later subject with a greater
    prediction also has a greater time. At each level, each event in the
    left half of a block counts the subjects in the block's right half with
    a greater prediction rank; every (event, later subject) pair is counted
    at exactly one level.
    """
    n = times.size
    if n <= _DENSE_MAX:
        t_ev, p_ev = times[events, None], preds[events, None]
        later = t_ev < times
        return (
            int(np.count_nonzero(later & (p_ev < preds))),
            int(np.count_nonzero(later & (p_ev == preds))),
        )
    p_rank, t_rank = _dense_rank(preds), _dense_rank(times)
    p_count, t_count = int(p_rank.max()) + 1, int(t_rank.max()) + 1
    # ties: per event, the end of its prediction group minus the end of its
    # run of equal (prediction, time). Sorted queries search faster, and the
    # sums do not depend on their order.
    key = p_rank * t_count + t_rank
    keys = np.sort(key)
    ev_keys = np.sort(key[events])
    group_end = np.searchsorted(keys, (ev_keys // t_count + 1) * t_count)
    tied = int(np.sum(group_end) - np.sum(np.searchsorted(keys, ev_keys, side="right")))
    by_time = np.argsort(t_rank * p_count - p_rank)
    rank = p_rank[by_time]
    pos = np.arange(n, dtype=np.int64)
    at = pos[events[by_time]]  # the events' positions in time order
    concordant = 0
    level = 0
    while (1 << level) < n:
        half = 1 << level  # blocks of 2 * half positions
        right = (pos & half) != 0
        right_keys = np.sort((pos[right] >> (level + 1)) * p_count + rank[right])
        left = at[(at & half) == 0]
        block = left >> (level + 1)
        # the right-half subjects of the blocks up to each event's, less those
        # of rank at most the event's
        ends = np.minimum((block + 1) * half, right_keys.size)
        at_most = np.searchsorted(right_keys, np.sort(block * p_count + rank[left]), side="right")
        concordant += int(np.sum(ends) - np.sum(at_most))
        level += 1
    return concordant, tied


def concordance_index(preds: PredictedTimes, ds: SurvivalDataset) -> float:
    """Harrell's C-index with risk taken as the negated predicted time.

    A pair is comparable when the earlier subject's time is an event and the
    times are distinct; it is concordant when the earlier subject also has the
    smaller predicted time, with prediction ties scoring one half (Harrell et
    al., 1982). The counts are integers below 2**53, so the index is exact
    up to its one division.
    """
    _check_count(preds.values.size, ds.n, "predictions")
    comparable = _comparable_count(ds.times, ds.events)
    if comparable == 0:
        raise UndefinedMetricError("no comparable pair (check censoring and ties)")
    concordant, tied = _concordant_counts(preds.values, ds.times, ds.events)
    return (float(concordant) + 0.5 * float(tied)) / comparable


def comparable_pair_ratio(ds: SurvivalDataset) -> float:
    """Fraction of subject pairs the C-index can use."""
    if ds.n < 2:
        raise ValueError("need at least two subjects")
    return _comparable_count(ds.times, ds.events) / (ds.n * (ds.n - 1) / 2)


def _check_t_star(t_star) -> None:
    """ValueError unless the horizon ``t_star`` is a finite, nonnegative
    real number."""
    if not (_finite_real(t_star) and t_star >= 0):
        raise ValueError(f"t_star must be finite and nonnegative, got {t_star!r}")


def brier_score_at(
    curves, ds: SurvivalDataset, t_star: float, g_train: KaplanMeierFit
) -> float:
    """IPCW Brier score of the predicted survival probabilities at ``t_star``.

    Subjects dead by ``t_star`` contribute S(t*)^2 / G(t-), subjects still
    under observation contribute (1 - S(t*))^2 / G(t*); subjects censored
    before ``t_star`` contribute nothing. Terms whose censoring weight is zero
    are dropped while the denominator stays at the full subject count.
    """
    _check_count(len(curves), ds.n, "curves")
    _check_t_star(t_star)
    s_star = _summary_of(curves, ds, t_star=t_star).s_star
    dead = (ds.times <= t_star) & ds.events
    alive = ds.times > t_star
    g_dead = g_train.curve.value_before(ds.times)
    g_alive = g_train.curve.value(t_star)

    usable_dead = dead & (g_dead > 0.0)
    usable_alive = alive & (g_alive > 0.0)
    needs_weight = dead | alive
    if needs_weight.any() and not (usable_dead.any() or usable_alive.any()):
        raise UndefinedMetricError("all subjects lost their censoring weight")
    total = float(np.sum(s_star[usable_dead] ** 2 / g_dead[usable_dead]))
    if usable_alive.any():
        total += float(np.sum((1.0 - s_star[usable_alive]) ** 2) / g_alive)
    return total / ds.n


@dataclass(frozen=True, eq=False)
class _BrierWeights:
    """The inputs of :func:`integrated_brier_score` that depend only on the
    dataset, the censoring fit, the grid size and the horizon, so that every
    model scored on one test set can share them.

    ``grid`` is None for a one-point grid, which scores the plain Brier score
    at ``horizon``. Otherwise subject ``i`` adds a dead term at the grid
    points from ``first[i]`` on, those at or past its time, and a surviving
    term at the points before. ``g_dead`` divides the dead terms: G(t-) at
    each subject's time, inf where the subject is censored or keeps no
    censoring weight. ``g_grid`` divides the surviving terms: G on the grid,
    inf where it is 0. A term divided by inf is 0.0, the term left out.
    ``undefined`` is True when some grid point needs a censoring weight
    that no subject keeps.
    """

    ds: SurvivalDataset
    g_train: KaplanMeierFit
    grid_size: int
    t_max: float | None  # as requested; None takes the dataset's last event
    horizon: float
    grid: np.ndarray | None = None
    first: np.ndarray | None = None
    g_dead: np.ndarray | None = None
    g_grid: np.ndarray | None = None
    undefined: bool = False


def _brier_weights(
    ds: SurvivalDataset, g_train: KaplanMeierFit, grid_size: int, t_max: float | None
) -> _BrierWeights:
    """The :class:`_BrierWeights` of :func:`integrated_brier_score` with these
    arguments; raises what it raises for a bad grid size or horizon."""
    grid_size = _at_least(grid_size, "grid_size", 1)
    horizon = t_max
    if horizon is None:
        if not ds.events.any():
            raise UndefinedMetricError("no event time available to set the horizon")
        horizon = float(ds.times[ds.events].max())
    if not (_finite_real(horizon) and horizon > 0):
        raise ValueError(f"t_max must be finite and positive, got {horizon!r}")
    if grid_size == 1:
        return _BrierWeights(ds, g_train, grid_size, t_max, horizon)
    grid = np.linspace(0.0, horizon, grid_size)
    times = ds.times
    g_dead = g_train.curve.value_before(times)
    g_grid = g_train.curve.value(grid)
    weighed = ds.events & (g_dead > 0.0)
    # a grid point where a subject is dead or alive needs one that keeps its
    # censoring weight: a weighed death by then, or weighed survivors
    some_alive = grid < times.max()
    needy = some_alive | (grid >= np.min(times, where=ds.events, initial=np.inf))
    covered = (some_alive & (g_grid > 0.0)) | (grid >= np.min(times, where=weighed, initial=np.inf))
    return _BrierWeights(
        ds,
        g_train,
        grid_size,
        t_max,
        horizon,
        grid=grid,
        first=np.searchsorted(grid, times, side="left"),
        g_dead=np.where(weighed, g_dead, np.inf),
        g_grid=np.where(g_grid > 0.0, g_grid, np.inf),
        undefined=bool(np.any(needy & ~covered)),
    )


def _brier_sums(sums, values, weights: _BrierWeights, rows) -> np.ndarray:
    """``sums`` plus the Brier terms on ``weights.grid`` of the subjects
    ``rows`` (a slice), whose curves read ``values`` there: S^2 / G(t_i-)
    where subject i is dead, (1 - S)^2 / G(t) where it is alive. numpy sums
    axis 0 row after row, so the sums carried in front of the terms give the
    floats of one sum over every subject, however the subjects are cut."""
    contrib = np.empty((len(values) + 1, values.shape[1]))
    contrib[0] = sums
    terms = contrib[1:]
    np.square(values, out=terms)
    np.divide(terms, weights.g_dead[rows, None], out=terms)
    alive = np.square(1.0 - values)
    np.divide(alive, weights.g_grid, out=alive)
    np.copyto(terms, alive, where=np.arange(values.shape[1]) < weights.first[rows, None])
    return contrib.sum(axis=0)


def integrated_brier_score(
    curves,
    ds: SurvivalDataset,
    g_train: KaplanMeierFit,
    grid_size: int = 100,
    t_max: float | None = None,
    *,
    weights: _BrierWeights | None = None,
) -> float:
    """Trapezoidal average of the Brier score over [0, t_max].

    ``t_max`` defaults to the largest event time in ``ds``; pass the combined
    train/test maximum when scoring folds. A single-point grid degenerates to
    the plain Brier score at ``t_max``. ``weights`` are the inputs that do
    not depend on ``curves``, built once by ``_brier_weights`` with the same
    ``ds``, ``g_train``, ``grid_size`` and ``t_max`` (``ValueError``
    otherwise) and shared by the models scored on one test set; the score is
    the same float with them or without. ``curves`` may be a scoring
    summary of ``ds`` (:class:`_Summary`) that summed its terms with these
    ``weights``.
    """
    _check_count(len(curves), ds.n, "curves")
    grid_size = _at_least(grid_size, "grid_size", 1)
    if weights is None:
        weights = _brier_weights(ds, g_train, grid_size, t_max)
    elif (
        weights.ds is not ds
        or weights.g_train is not g_train
        or weights.grid_size != grid_size
        or weights.t_max != t_max
    ):
        raise ValueError("weights were built for another dataset, censoring fit, grid or horizon")
    # a summary holds no one-point grid's sums: _summary_of refuses it
    if weights.grid is None and not isinstance(curves, _Summary):
        return brier_score_at(curves, ds, weights.horizon, g_train)
    summary = _summary_of(curves, ds, weights=weights)
    if weights.undefined:
        raise UndefinedMetricError("all subjects lost their censoring weight")
    scores = summary.ibs_sums / ds.n
    steps = np.diff(weights.grid)
    area = float(np.sum((scores[:-1] + scores[1:]) / 2.0 * steps))
    return area / weights.horizon


class _Summary:
    """What the scoring path reads of the curves of the subjects of ``ds``,
    one entry per subject, so that no metric needs the curves themselves:

    * ``predictions``, their predicted times by ``method``
      (:class:`~survmae.mae._Extraction`), unless ``method`` is None;
    * ``s_star``, S(``t_star``), unless ``t_star`` is None;
    * ``at_times``, S(T_i) at each subject's time T_i, and the mass and
      width of the piece of its curve that holds T_i
      (:meth:`CurveBatch.value_and_piece`);
    * ``ibs_sums``, the column sums of the integrated Brier score's terms
      with ``weights`` (built by ``_brier_weights`` for ``ds`` on a grid of
      several points), unless ``weights`` is None or its score undefined.

    :meth:`add` takes the curves of the next subjects, in subject order,
    and sums their Brier terms in blocks of about ``_IBS_CELLS`` grid cells.
    Every entry is a function of one curve and the Brier sums are carried in
    front of each block, so any cut of the subjects into batches and blocks
    gives the same floats. The curve metrics read nothing else of the
    curves: they take a summary of every subject, or summarize the curves
    they are given (:func:`_summary_of`).
    """

    def __init__(self, ds: SurvivalDataset, method: str, t_star, weights):
        if weights is not None and weights.grid is None:
            raise ValueError("a summary sums the Brier terms of a grid of several points")
        self.ds, self.t_star, self.weights = ds, t_star, weights
        self.count = 0
        self.predictions = None if method is None else _Extraction(ds.n, method)
        self.s_star = None if t_star is None else np.empty(ds.n)
        self.at_times = np.empty((3, ds.n))
        keep = weights is not None and not weights.undefined
        self.ibs_sums = np.zeros(weights.grid.size) if keep else None

    def __len__(self) -> int:
        """The subjects added so far."""
        return self.count

    def add(self, batch: CurveBatch) -> None:
        """Add the curves of the next ``len(batch)`` subjects."""
        start, stop = self.count, self.count + len(batch)
        if stop > self.ds.n:
            raise ValueError(f"got {stop} curves for {self.ds.n} subjects")
        self.count = stop
        if self.predictions is not None:
            self.predictions.add(batch)
        if self.s_star is not None:
            self.s_star[start:stop] = batch.value(self.t_star)
        self.at_times[:, start:stop] = batch.value_and_piece(self.ds.times[start:stop])
        if self.ibs_sums is not None:
            grid = self.weights.grid
            for rows in _row_blocks(len(batch), grid.size, _IBS_CELLS):
                at = slice(start + rows.start, start + rows.stop)
                values = batch._grid_values(grid, rows)
                self.ibs_sums = _brier_sums(self.ibs_sums, values, self.weights, at)


def _summary_of(curves, ds, t_star=None, weights=None) -> _Summary:
    """``curves`` if it is a :class:`_Summary`, which must be of ``ds`` and
    of ``t_star`` and ``weights`` where given (``ValueError`` otherwise), or
    else the summary of these curves, with no predicted times."""
    if not isinstance(curves, _Summary):
        summary = _Summary(ds, None, t_star, weights)
        summary.add(CurveBatch.from_curves(curves))
        return summary
    if curves.ds is not ds:
        raise ValueError("the summary was made for another dataset")
    if t_star is not None and curves.t_star != t_star:
        raise ValueError(f"the summary holds S at t_star={curves.t_star}, not {t_star}")
    if weights is not None and curves.weights is not weights:
        raise ValueError("the summary summed its Brier terms with other weights")
    return curves


def log_likelihood(curves, ds: SurvivalDataset) -> float:
    """Mean log-likelihood of the observed outcomes under the predicted curves.

    Events use a discrete density: the probability mass dropped across the
    bin ending at the first knot at or above the event time, divided by the
    bin width. Censored subjects use log S(t). Zero mass or zero survival at
    a needed point yields negative infinity and a
    :class:`DegenerateScoreWarning`.
    """
    _check_count(len(curves), ds.n, "curves")
    surv, mass, width = _summary_of(curves, ds).at_times
    usable = np.where(ds.events, mass > 0.0, surv > 0.0)
    contributions = np.full(ds.n, -np.inf)
    contributions[usable] = np.log(np.where(ds.events, mass / width, surv)[usable])
    degenerate = not usable.all()
    if degenerate:
        warnings.warn(
            "zero density or survival mass at an observed time",
            DegenerateScoreWarning,
            stacklevel=2,
        )
    return float(np.mean(contributions))


# log of the largest double, cephes' MAXLOG
_MAXLOG = 709.782712893384
# e^(-h) is a normal double up to this h
_EXP_NORMAL = 708.0
# a term past this takes in one more factor of e^(-h)
_BIG = 2.0**600
# 2^27 + 1: splits a double into two halves whose products are exact
_SPLIT = 134217729.0
_SQRT_PI = math.sqrt(math.pi)


def _erfc_sqrt(h: float) -> float:
    """erfc(√h), corrected for the rounding of √h.

    An error of one ulp in z moves erfc(z) by about 2z² ulps, up to 1e-13
    relative where the tail is still a normal double. The residual h - z² of
    the rounded root z, exact from Dekker's split product, gives the
    first-order correction -(h - z²) e^(-h) / (z √π).
    """
    z = math.sqrt(h)
    c = _SPLIT * z
    hi = c - (c - z)
    lo = z - hi
    sq = z * z
    residual = (h - sq) - (((hi * hi - sq) + 2.0 * hi * lo) + lo * lo)
    return math.erfc(z) - residual * math.exp(-h) / (z * _SQRT_PI)


def _chi2_sf(statistic: float, df: int) -> float:
    """Chi-square upper tail probability at an integer ``df``; NaN when there
    is no degree of freedom or the statistic is NaN.

    The finite sums of Abramowitz and Stegun 26.4.4-26.4.5, with h = x / 2
    and m = df // 2: ``e^(-h) Σ_{k<m} h^k / k!`` at even df, and
    ``erfc(√h) + e^(-h) Σ_{k=1..m} h^(k-1/2) / Γ(k+1/2)`` at odd df. Each
    term is the one before times h / k (h / (k - 1/2)); all are positive, so
    nothing cancels. e^(-h) starts the terms while it is a normal double.
    Past that it is taken as n factors e^(-h/n), n a power of two so that
    h / n is exact: one starts the terms, the others come in whenever a term
    grows past 2^600 and at the end, so no term overflows.

    The result is exactly 0.0 where h > df / 2 and the leading factor
    e^(-h) h^a / Γ(a), a = df / 2, is below e^(-709.78): the rule of cephes'
    ``igamc`` on its continued-fraction branch, so the tail is 0.0 exactly
    where cephes' ``chdtrc`` is. Against 40-digit values at df 1-60 the
    relative error of a normal result is about 1e-15.
    """
    if df < 1 or math.isnan(statistic):
        return math.nan
    if statistic == math.inf:
        return 0.0
    a, h = df / 2, statistic / 2
    if h <= 0.0:  # x <= 0, or the smallest subnormal x, which halves to 0.0
        return 1.0
    if h > a and a * math.log(h) - h - math.lgamma(a) < -_MAXLOG:
        return 0.0
    n = 1
    while h / n > _EXP_NORMAL:
        n *= 2
    factor = math.exp(-(h / n))
    pending = n - 1
    m, odd = divmod(df, 2)
    if odd:
        term, shift, ks = factor * 2.0 * math.sqrt(h) / _SQRT_PI, 0.5, range(2, m + 1)
    else:
        term, shift, ks = factor, 0.0, range(1, m)
    total = term if m else 0.0
    for k in ks:
        term *= h / (k - shift)
        if pending and term > _BIG:
            term *= factor
            total *= factor
            pending -= 1
        total += term
    for _ in range(pending):
        total *= factor
    return _erfc_sqrt(h) + total if odd else total


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration test: statistic, p-value, per-bin table."""

    statistic: float
    p_value: float
    bin_table: tuple  # (expected, observed) per bin


def one_calibration(
    curves, ds: SurvivalDataset, t_star: float, n_bins: int = 10
) -> CalibrationResult:
    """Hosmer-Lemeshow style test of the predicted probabilities at one horizon.

    Subjects are sorted by predicted S(t*) into ``n_bins`` equal-count bins.
    Expected events per bin sum 1 - S(t*); observed events are ``n_g`` times
    one minus the within-bin Kaplan-Meier survival at ``t_star``, which keeps
    censored subjects informative. The statistic is compared to a chi-square
    with ``n_bins - 2`` degrees of freedom; with two bins that leaves none,
    and the p-value is NaN.

    All bins share one grouped product-limit table: the subjects sorted by
    (bin, time), whose runs of equal (bin, event time) give each bin's
    at-risk and event counts ``n_k``, ``d_k``. Each bin's survival is the
    running product of its ``(n_k - d_k) / n_k`` over the event times up to
    ``t_star``, multiplied in ascending time, as ``km_fit(...).curve`` of the
    bin alone multiplies them.

    Subjects with tied S(t*) are binned in subject order (a stable sort), so
    when ties straddle a bin edge, reordering the subjects can change the
    result; with distinct S(t*) values it does not.
    """
    _check_count(len(curves), ds.n, "curves")
    _check_t_star(t_star)
    n_bins = _at_least(n_bins, "n_bins", 2, BinningError)
    s_star = _summary_of(curves, ds, t_star=t_star).s_star
    if ds.n < n_bins:
        raise BinningError(f"cannot fill {n_bins} bins with {ds.n} subjects")
    order = np.argsort(s_star, kind="stable")
    # np.array_split's bins: the first r hold q + 1 subjects, the others q
    q, r = divmod(ds.n, n_bins)
    sizes = np.full(n_bins, q)
    sizes[:r] += 1
    # row sums of a bin per row add up each bin as a sum of the bin alone does
    lost = 1.0 - s_star[order]
    big = r * (q + 1)
    expected = np.concatenate(
        (lost[:big].reshape(r, q + 1).sum(axis=1), lost[big:].reshape(-1, q).sum(axis=1))
    )
    label = np.empty(ds.n, dtype=np.intp)
    label[order] = np.repeat(np.arange(n_bins), sizes)
    by = np.lexsort((ds.times, label))
    b, t = label[by], ds.times[by]
    start = np.flatnonzero(np.concatenate(([True], (b[1:] != b[:-1]) | (t[1:] != t[:-1]))))
    d_k = np.add.reduceat(ds.events[by], start, dtype=np.intp)
    b = b[start]
    n_k = np.cumsum(sizes)[b] - start  # at risk: the run and the rest of its bin
    used = (d_k > 0) & (t[start] <= t_star)
    b, n_k, d_k = b[used], n_k[used], d_k[used]
    # bins x (event times up to t*) factors in ascending time, padded with 1
    per_bin = np.bincount(b, minlength=n_bins)
    col = np.arange(b.size) - (np.cumsum(per_bin) - per_bin)[b]
    factors = np.ones((n_bins, max(per_bin.max(), 1)))
    factors[b, col] = (n_k - d_k) / n_k
    observed = sizes * (1.0 - np.cumprod(factors, axis=1)[:, -1])
    table = tuple(zip(expected.tolist(), observed.tolist()))
    # the statistic in Python floats, a term per bin in bin order
    statistic = 0.0
    for n_g, (e_g, o_g) in zip(sizes.tolist(), table):
        if e_g <= 0.0:
            e_g = 0.5
        elif e_g >= n_g:
            e_g = n_g - 0.5
        statistic += (o_g - e_g) ** 2 / (e_g * (1.0 - e_g / n_g))
    return CalibrationResult(
        statistic=statistic, p_value=_chi2_sf(statistic, n_bins - 2), bin_table=table
    )


def d_calibration(curves, ds: SurvivalDataset, n_bins: int = 10) -> CalibrationResult:
    """Distribution calibration: S(t_i) values should be uniform on [0, 1].

    Uncensored subjects drop unit mass into the bin holding S(t_i). A subject
    censored at probability level p spreads its mass uniformly over [0, p]:
    each whole bin below p receives (bin width)/p and the bin containing p
    receives the leftover fraction; p = 0 sends everything to the lowest bin.
    The bin masses are tested against uniform with ``n_bins - 1`` degrees of
    freedom.
    """
    _check_count(len(curves), ds.n, "curves")
    n_bins = _at_least(n_bins, "n_bins", 2, BinningError)
    width = 1.0 / n_bins
    p_all = _summary_of(curves, ds).at_times[0]
    masses = np.zeros(n_bins)
    for block in _row_blocks(ds.n, n_bins, _IBS_CELLS):
        p = p_all[block]
        whole = ds.events[block] | (p <= 0.0)
        top = np.minimum((p * n_bins).astype(int), n_bins - 1)
        rows = np.arange(p.size)
        # one row of bin masses per subject, after the masses so far: numpy
        # sums axis 0 row after row, so they add up in subject order, as one
        # subject at a time would, however the blocks cut the subjects
        carried = np.zeros((p.size + 1, n_bins))
        carried[0] = masses
        mass = carried[1:]
        mass[rows[whole], top[whole]] = 1.0  # p = 0 lies in the lowest bin
        spread = ~whole
        p_s, top_s = p[spread, None], top[spread, None]
        mass[spread] = np.where(np.arange(n_bins) < top_s, width / p_s, 0.0)
        mass[rows[spread], top[spread]] = ((p_s - top_s * width) / p_s)[:, 0]
        masses = carried.sum(axis=0)
    expected = ds.n / n_bins
    statistic = float(np.sum((masses - expected) ** 2 / expected))
    p_value = _chi2_sf(statistic, n_bins - 1)
    return CalibrationResult(
        statistic=statistic,
        p_value=p_value,
        bin_table=tuple((expected, float(m)) for m in masses),
    )
