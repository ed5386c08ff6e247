"""Auxiliary evaluation metrics: discrimination, Brier scores, likelihood, calibration.

These complement the MAE family: the concordance index measures ranking only,
Brier scores measure probability accuracy at fixed horizons, and the two
calibration tests check predicted probabilities against observed frequencies.
The curve metrics take a :class:`~survmae.core.CurveBatch` or a sequence of
``StepCurve`` (converted once on entry).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CurveBatch, SurvivalDataset
from .errors import BinningError, DegenerateScoreWarning, UndefinedMetricError
from .estimators import KaplanMeierFit
from .mae import PredictedTimes

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
    if preds.values.size != ds.n:
        raise ValueError(f"got {preds.values.size} predictions for {ds.n} subjects")
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


def brier_score_at(
    curves, ds: SurvivalDataset, t_star: float, g_train: KaplanMeierFit
) -> float:
    """IPCW Brier score of the predicted survival probabilities at ``t_star``.

    Subjects dead by ``t_star`` contribute S(t*)^2 / G(t-), subjects still
    under observation contribute (1 - S(t*))^2 / G(t*); subjects censored
    before ``t_star`` contribute nothing. Terms whose censoring weight is zero
    are dropped while the denominator stays at the full subject count.
    """
    if len(curves) != ds.n:
        raise ValueError(f"got {len(curves)} curves for {ds.n} subjects")
    if t_star < 0:
        raise ValueError("t_star must be nonnegative")
    s_star = CurveBatch.from_curves(curves).value(t_star)
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
    at ``horizon``. Otherwise ``g_dead`` is G(t-) at each subject's time,
    ``g_grid`` is G on the grid, ``dead_term`` and ``alive_term`` mark the
    subjects x grid entries that add a dead or a surviving term, and
    ``undefined`` is True when some grid point needs a censoring weight that
    no subject keeps.
    """

    ds: SurvivalDataset
    g_train: KaplanMeierFit
    grid_size: int
    t_max: float | None  # as requested; None takes the dataset's last event
    horizon: float
    grid: np.ndarray | None = None
    g_dead: np.ndarray | None = None
    g_grid: np.ndarray | None = None
    dead_term: np.ndarray | None = None
    alive_term: np.ndarray | None = None
    undefined: bool = False


def _brier_weights(
    ds: SurvivalDataset, g_train: KaplanMeierFit, grid_size: int, t_max: float | None
) -> _BrierWeights:
    """The :class:`_BrierWeights` of :func:`integrated_brier_score` with these
    arguments; raises what it raises for a bad grid size or horizon."""
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    horizon = t_max
    if horizon is None:
        if not ds.events.any():
            raise UndefinedMetricError("no event time available to set the horizon")
        horizon = float(ds.times[ds.events].max())
    if horizon <= 0:
        raise ValueError("t_max must be positive")
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
    dead = times[:, None] <= grid[None, :]
    return _BrierWeights(
        ds,
        g_train,
        grid_size,
        t_max,
        horizon,
        grid=grid,
        g_dead=g_dead,
        g_grid=g_grid,
        dead_term=dead & weighed[:, None],
        alive_term=~dead & (g_grid > 0.0),
        undefined=bool(np.any(needy & ~covered)),
    )


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
    the same float with them or without.
    """
    if weights is None:
        weights = _brier_weights(ds, g_train, grid_size, t_max)
    elif (
        weights.ds is not ds
        or weights.g_train is not g_train
        or weights.grid_size != grid_size
        or weights.t_max != t_max
    ):
        raise ValueError("weights were built for another dataset, censoring fit, grid or horizon")
    if weights.grid is None:
        return brier_score_at(curves, ds, weights.horizon, g_train)
    s_matrix = CurveBatch.from_curves(curves).value_on(weights.grid)  # subjects x grid
    if weights.undefined:
        raise UndefinedMetricError("all subjects lost their censoring weight")
    contrib = np.zeros(s_matrix.shape)
    np.divide(s_matrix**2, weights.g_dead[:, None], out=contrib, where=weights.dead_term)
    np.divide((1.0 - s_matrix) ** 2, weights.g_grid, out=contrib, where=weights.alive_term)
    scores = contrib.sum(axis=0) / ds.n
    steps = np.diff(weights.grid)
    area = float(np.sum((scores[:-1] + scores[1:]) / 2.0 * steps))
    return area / weights.horizon


def log_likelihood(curves, ds: SurvivalDataset) -> float:
    """Mean log-likelihood of the observed outcomes under the predicted curves.

    Events use a discrete density: the probability mass dropped across the
    bin ending at the first knot at or above the event time, divided by the
    bin width. Censored subjects use log S(t). Zero mass or zero survival at
    a needed point yields negative infinity and a
    :class:`DegenerateScoreWarning`.
    """
    if len(curves) != ds.n:
        raise ValueError(f"got {len(curves)} curves for {ds.n} subjects")
    batch = CurveBatch.from_curves(curves)
    times, events = ds.times, ds.events
    rows = np.arange(ds.n)
    # censored subjects: log S(t)
    surv, before = batch.value_and_knots_before(times)
    alive = surv > 0.0
    # events: the bin edges are the knots, led by 0 unless the first knot is
    # 0; edge j is the first at or above t, at knot position j - lead
    lead = batch.knots[..., 0] != 0.0
    j = before + (lead & (times > 0.0))
    binned = (j >= 1) & (j < batch.lengths + lead)
    hi = np.where(binned, j - lead, 0)
    lo = hi - 1  # -1 is the leading 0, where the curve is 1
    knots = np.broadcast_to(batch.knots, batch.values.shape)
    lo_t = np.where(lo >= 0, knots[rows, np.maximum(lo, 0)], 0.0)
    lo_v = np.where(lo >= 0, batch.values[rows, np.maximum(lo, 0)], 1.0)
    mass = lo_v - batch.values[rows, hi]
    dense = binned & (mass > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(dense, mass / (knots[rows, hi] - lo_t), 1.0)
    usable = np.where(events, dense, alive)
    contributions = np.full(ds.n, -np.inf)
    contributions[usable] = np.log(np.where(events, density, surv)[usable])
    degenerate = not usable.all()
    if degenerate:
        warnings.warn(
            "zero density or survival mass at an observed time",
            DegenerateScoreWarning,
            stacklevel=2,
        )
    return float(np.mean(contributions))


def _chi2_sf(statistic: float, df: int) -> float:
    """Chi-square upper tail probability; NaN when there is no degree of freedom.

    ``scipy.special`` is imported here, with the first p-value: it is most of
    the cost of importing the package, and many runs compute no p-value.
    """
    if df < 1:
        return float("nan")
    from scipy.special import chdtrc

    return float(chdtrc(df, statistic))


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration test: statistic, p-value, per-bin table."""

    statistic: float
    p_value: float
    bin_table: tuple  # (expected, observed) per bin


def _bin_count(n_bins) -> int:
    """``n_bins`` as an int; :class:`BinningError` unless it is an integer
    (a NumPy integer too) of at least 2."""
    try:
        count = operator.index(n_bins)
    except TypeError:
        count = None
    if count is None or count < 2:
        raise BinningError(f"n_bins must be an integer of at least 2, got {n_bins!r}")
    return count


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
    if len(curves) != ds.n:
        raise ValueError(f"got {len(curves)} curves for {ds.n} subjects")
    n_bins = _bin_count(n_bins)
    s_star = CurveBatch.from_curves(curves).value(t_star)
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
    if len(curves) != ds.n:
        raise ValueError(f"got {len(curves)} curves for {ds.n} subjects")
    n_bins = _bin_count(n_bins)
    width = 1.0 / n_bins
    p = CurveBatch.from_curves(curves).value(ds.times)
    top = np.minimum((p * n_bins).astype(int), n_bins - 1)
    rows = np.arange(ds.n)
    # one row of bin masses per subject
    mass = np.zeros((ds.n, n_bins))
    whole = ds.events | (p <= 0.0)
    mass[rows[whole], top[whole]] = 1.0  # p = 0 lies in the lowest bin
    spread = ~whole
    p_s, top_s = p[spread, None], top[spread, None]
    mass[spread] = np.where(np.arange(n_bins) < top_s, width / p_s, 0.0)
    mass[rows[spread], top[spread]] = ((p_s - top_s * width) / p_s)[:, 0]
    # added up in subject order, as one subject at a time would
    masses = np.cumsum(mass, axis=0)[-1]
    expected = ds.n / n_bins
    statistic = float(np.sum((masses - expected) ** 2 / expected))
    p_value = _chi2_sf(statistic, n_bins - 1)
    return CalibrationResult(
        statistic=statistic,
        p_value=p_value,
        bin_table=tuple((expected, float(m)) for m in masses),
    )
