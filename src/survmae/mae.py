"""Censored MAE estimators.

Every estimator reduces to the plain mean absolute error when nothing is
censored. Censored subjects are handled by one of three strategies: dropping
(uncensored-only), lower-bounding (hinge), or replacing the censored time
with a surrogate best guess plus a confidence weight (margin, IPCW-T,
pseudo-observation and its population ablation). IPCW-D instead reweights the
uncensored subjects by the inverse probability of remaining uncensored.

Surrogate builders return a :class:`SurrogateSet`; :func:`weighted_mae`
reduces any of them against predicted times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CurveBatch, SurvivalDataset
from .errors import (
    MissingGroundTruthError,
    UndefinedMetricError,
)
from .estimators import KaplanMeierFit, km_fit

__all__ = [
    "PredictedTimes",
    "SurrogateSet",
    "extract_predicted_times",
    "ipcw_t_surrogates",
    "mae_hinge",
    "mae_ipcw_d",
    "mae_ipcw_t",
    "mae_margin",
    "mae_po",
    "mae_pop_po",
    "mae_uncensored",
    "margin_surrogates",
    "pop_po_surrogates",
    "pseudo_obs_surrogates",
    "true_mae",
    "weighted_mae",
]


@dataclass(frozen=True)
class PredictedTimes:
    """Point predictions of survival time, one per subject, all finite and positive."""

    values: np.ndarray
    method: str = "median"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError("predicted times must form a 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("predicted times must be finite and positive")
        if self.method not in ("median", "mean"):
            raise ValueError(f"unknown extraction method {self.method!r}")


@dataclass(frozen=True)
class SurrogateSet:
    """Per-subject surrogate event times with weights and inclusion flags.

    Uncensored subjects always carry their observed time with weight 1.
    ``included`` marks subjects that participate in the weighted mean at all
    (IPCW-T drops censored subjects with no later event).
    """

    surrogate: np.ndarray
    weight: np.ndarray
    included: np.ndarray

    def __post_init__(self):
        surrogate = np.asarray(self.surrogate, dtype=float)
        weight = np.asarray(self.weight, dtype=float)
        included = np.asarray(self.included, dtype=bool)
        for name, arr in (("surrogate", surrogate), ("weight", weight), ("included", included)):
            object.__setattr__(self, name, arr)
        if not (surrogate.shape == weight.shape == included.shape):
            raise ValueError("surrogate, weight and included must share a shape")
        if np.any(weight < 0) or np.any(weight > 1 + 1e-12):
            raise ValueError("weights must lie in [0, 1]")


def extract_predicted_times(curves, method: str = "median") -> PredictedTimes:
    """Summarize survival curves into point predictions (median by default).

    ``curves`` is a :class:`CurveBatch` or a sequence of ``StepCurve``; a
    curve that never descends raises :class:`DegenerateCurveError` naming its
    subject.
    """
    batch = CurveBatch.from_curves(curves)
    out = batch.median_times() if method == "median" else batch.mean_times()
    return PredictedTimes(values=out, method=method)


def _check_lengths(preds: PredictedTimes, n: int):
    if preds.values.size != n:
        raise ValueError(
            f"got {preds.values.size} predictions for {n} subjects"
        )


def mae_uncensored(preds: PredictedTimes, ds: SurvivalDataset) -> float:
    """Mean absolute error over the uncensored subjects only."""
    _check_lengths(preds, ds.n)
    if not ds.events.any():
        raise UndefinedMetricError("no uncensored subjects")
    err = np.abs(ds.times - preds.values)
    return float(err[ds.events].mean())


def mae_hinge(preds: PredictedTimes, ds: SurvivalDataset) -> float:
    """One-sided MAE: censored subjects only penalize predictions below their time."""
    _check_lengths(preds, ds.n)
    err = np.abs(ds.times - preds.values)
    hinge = np.maximum(ds.times - preds.values, 0.0)
    return float(np.where(ds.events, err, hinge).mean())


def true_mae(preds: PredictedTimes, ds: SurvivalDataset) -> float:
    """MAE against the hidden true event times (semi-synthetic data only)."""
    _check_lengths(preds, ds.n)
    if ds.true_times is None:
        raise MissingGroundTruthError("dataset has no true event times")
    return float(np.abs(ds.true_times - preds.values).mean())


def weighted_mae(surrogates: SurrogateSet, preds: PredictedTimes) -> float:
    """Weighted mean of |surrogate - prediction| over the included subjects."""
    if surrogates.surrogate.shape != preds.values.shape:
        raise ValueError("surrogate set and predictions differ in length")
    inc = surrogates.included
    total = float(surrogates.weight[inc].sum())
    if not inc.any() or total <= 0.0:
        raise UndefinedMetricError("no included subject carries positive weight")
    err = np.abs(surrogates.surrogate[inc] - preds.values[inc])
    return float((surrogates.weight[inc] * err).sum() / total)


def _uncensored_base(ds: SurvivalDataset):
    """Surrogate arrays pre-filled with the uncensored convention."""
    surrogate = ds.times.copy()
    weight = np.where(ds.events, 1.0, 0.0)
    included = np.ones(ds.n, dtype=bool)
    return surrogate, weight, included


def margin_surrogates(ds: SurvivalDataset, km_train: KaplanMeierFit) -> SurrogateSet:
    """Margin surrogates: conditional residual life under a training KM curve.

    A subject censored at t gets surrogate ``t + I(t) / S(t)`` where I(t) is
    the area under the training curve from t to its last knot, and weight
    ``1 - S(t)``. When the curve has already hit zero at t the surrogate
    falls back to t itself with full weight.

    All censored subjects are handled in one pass: I(t) is the partial piece
    ``S(t) * (next knot - t)`` plus a reverse cumulative sum of the curve's
    piece areas from that knot on, O((n + K) log K) for n subjects and K
    knots. It adds the pieces in another order than integrating each subject
    separately (:meth:`StepCurve.integrate`), so the surrogates may differ
    from that in the last bits; weights and inclusion flags are the same.
    """
    curve = km_train.curve
    surrogate, weight, included = _uncensored_base(ds)
    censored = np.nonzero(~ds.events)[0]
    t_c = ds.times[censored]
    s_c = curve.value(t_c)
    # area of each piece [knots[k], knots[k+1]) and, per k, the area from
    # knots[k] to the last knot
    areas = curve.values[:-1] * np.diff(curve.knots)
    from_knot = np.append(np.cumsum(areas[::-1])[::-1], 0.0)
    nxt = np.searchsorted(curve.knots, t_c, side="right")
    inside = nxt < curve.knots.size  # t before the last knot
    nxt = np.minimum(nxt, curve.knots.size - 1)
    tail = np.where(inside, s_c * (curve.knots[nxt] - t_c) + from_knot[nxt], 0.0)
    alive = s_c > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        surrogate[censored] = np.where(alive, t_c + tail / s_c, t_c)
    weight[censored] = np.where(alive, 1.0 - s_c, 1.0)
    return SurrogateSet(surrogate=surrogate, weight=weight, included=included)


def _km_of(ds: SurvivalDataset, km: KaplanMeierFit | None) -> KaplanMeierFit:
    """``km``, which must be the Kaplan-Meier fit of ``ds``, or that fit."""
    if km is None:
        return km_fit(ds.times, ds.events)
    if km.curve.t_last != ds.times.max() or km.n_events.sum() != np.count_nonzero(ds.events):
        raise ValueError("km is not the Kaplan-Meier fit of this dataset")
    return km


def ipcw_t_surrogates(
    ds: SurvivalDataset, *, km: KaplanMeierFit | None = None
) -> SurrogateSet:
    """Surrogate = mean of the strictly later uncensored times, margin weights.

    Censored subjects with no later event are excluded entirely. ``km`` is
    ``km_fit(ds.times, ds.events)``, passed to share one fit among the
    builders; without it the fit is made here.
    """
    surrogate, weight, included = _uncensored_base(ds)
    ev_times = np.sort(ds.times[ds.events])
    suffix = np.concatenate((np.cumsum(ev_times[::-1])[::-1], [0.0]))
    censored = np.nonzero(~ds.events)[0]
    pos = np.searchsorted(ev_times, ds.times[censored], side="right")
    later = ev_times.size - pos
    has_later = later > 0
    included[censored[~has_later]] = False
    kept = censored[has_later]
    if kept.size:
        km = _km_of(ds, km)
        surrogate[kept] = suffix[pos[has_later]] / later[has_later]
        weight[kept] = 1.0 - km.curve.value(ds.times[kept])
    return SurrogateSet(surrogate=surrogate, weight=weight, included=included)


def _km_pieces(fit: KaplanMeierFit):
    """``(head, p_full, widths)`` of the KM curve ``fit``: its first event
    time, its survival on each piece from one event time to the next, and
    the pieces' widths, the last piece ending at the last curve knot (the
    largest observed time)."""
    p_full = np.cumprod((fit.at_risk - fit.n_events) / fit.at_risk)
    widths = np.diff(np.append(fit.event_times, fit.curve.t_last))
    return float(fit.event_times[0]), p_full, widths


def _km_restricted_mean(fit: KaplanMeierFit) -> float:
    """Restricted mean of the KM curve ``fit`` over [0, last curve knot],
    extending the final plateau."""
    head, p_full, widths = _km_pieces(fit)
    return head + float(np.sum(p_full * widths))


def _km_restricted_means(fit: KaplanMeierFit):
    """Restricted mean of the KM curve ``fit`` plus all leave-one-censored-out
    means.

    Returns ``(theta, theta_loo)`` where ``theta`` is
    ``_km_restricted_mean(fit)`` and ``theta_loo[c]`` is the restricted
    mean after removing one censored subject whose time covers the first
    ``c`` event knots. All integrals run over [0, last curve knot].
    """
    n_k, d_k = fit.at_risk, fit.n_events
    head, p_full, widths = _km_pieces(fit)
    p_dec = np.cumprod((n_k - 1 - d_k) / np.maximum(n_k - 1, 1))
    theta = head + float(np.sum(p_full * widths))

    # prefix[c] = integral mass over knots below the cutoff, decremented
    prefix = np.concatenate(([0.0], np.cumsum(p_dec * widths)))
    suffix = np.concatenate((np.cumsum((p_full * widths)[::-1])[::-1], [0.0]))
    # slots where the full curve already reached zero are never indexed:
    # a censored subject is always at risk through its own time, so the
    # survival mass at its cutoff stays positive
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.concatenate(([1.0], p_dec / p_full))
        theta_loo = head + prefix + ratio * suffix
    return theta, theta_loo


def pseudo_obs_surrogates(
    ds: SurvivalDataset, *, km: KaplanMeierFit | None = None
) -> SurrogateSet:
    """Pseudo-observation surrogates with margin-style weights.

    Each censored subject i receives ``N * theta - (N - 1) * theta_loo(i)``
    where theta is the restricted mean survival time of the KM curve over the
    whole sample and theta_loo(i) drops subject i. The leave-one-out fit is
    recomputed incrementally from the shared count table (at-risk counts fall
    by one at every knot the subject outlived). ``km`` is as in
    :func:`ipcw_t_surrogates`.
    """
    if not ds.events.any():
        raise UndefinedMetricError("pseudo-observations need at least one event")
    surrogate, weight, included = _uncensored_base(ds)
    fit = _km_of(ds, km)
    theta, theta_loo = _km_restricted_means(fit)
    censored = np.nonzero(~ds.events)[0]
    cuts = np.searchsorted(fit.event_times, ds.times[censored], side="right")
    surrogate[censored] = ds.n * theta - (ds.n - 1) * theta_loo[cuts]
    weight[censored] = 1.0 - fit.curve.value(ds.times[censored])
    return SurrogateSet(surrogate=surrogate, weight=weight, included=included)


def pop_po_surrogates(
    ds: SurvivalDataset, *, km: KaplanMeierFit | None = None
) -> SurrogateSet:
    """Population ablation: every censored subject gets the group KM mean.
    ``km`` is as in :func:`ipcw_t_surrogates`."""
    if not ds.events.any():
        raise UndefinedMetricError("population surrogate needs at least one event")
    surrogate, weight, included = _uncensored_base(ds)
    fit = _km_of(ds, km)
    censored = ~ds.events
    surrogate[censored] = _km_restricted_mean(fit)
    weight[censored] = 1.0 - fit.curve.value(ds.times[censored])
    return SurrogateSet(surrogate=surrogate, weight=weight, included=included)


def mae_ipcw_d(
    preds: PredictedTimes, ds: SurvivalDataset, g_train: KaplanMeierFit
) -> float:
    """IPCW MAE: uncensored errors weighted by 1/G(t-) under the censoring KM.

    G is evaluated at the left limit of each event time. Subjects whose
    weight denominator hits zero are dropped from the numerator while the
    denominator stays at the full subject count.
    """
    _check_lengths(preds, ds.n)
    g = g_train.curve.value_before(ds.times)
    usable = ds.events & (g > 0.0)
    if not usable.any():
        raise UndefinedMetricError("no uncensored subject with positive censoring mass")
    err = np.abs(ds.times[usable] - preds.values[usable])
    return float(np.sum(err / g[usable]) / ds.n)


def mae_margin(
    preds: PredictedTimes, ds: SurvivalDataset, km_train: KaplanMeierFit
) -> float:
    return weighted_mae(margin_surrogates(ds, km_train), preds)


def mae_ipcw_t(preds: PredictedTimes, ds: SurvivalDataset) -> float:
    return weighted_mae(ipcw_t_surrogates(ds), preds)


def mae_po(preds: PredictedTimes, ds: SurvivalDataset) -> float:
    return weighted_mae(pseudo_obs_surrogates(ds), preds)


def mae_pop_po(preds: PredictedTimes, ds: SurvivalDataset) -> float:
    return weighted_mae(pop_po_surrogates(ds), preds)
