"""Semi-synthetic censoring pipeline.

Starting from a real dataset, keep only the uncensored subjects (so every
retained time is a known truth), then re-censor them with a synthetic
mechanism. The result carries both the new observed data and the hidden true
event times, so evaluation metrics can be compared against the truth.

Censor-time sampling uses a splittable generator keyed by (seed, subject
index): each subject's draw is independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DatasetStats,
    StepCurve,
    SurvivalDataset,
    SurvivalRecord,
    dataset_stats,
    load_dataset,
)
from .errors import ConfigurationError, InsufficientEventsError
from .estimators import CoxModel, KaplanMeierFit, censoring_km_fit, coxph_fit

__all__ = [
    "CENSORING_KINDS",
    "CensoringSpec",
    "ExternalCensoringRef",
    "apply_censoring",
    "flip_censor_bits",
    "keep_uncensored",
    "make_semi_synthetic",
    "sample_censor_times",
]

CENSORING_KINDS = frozenset(
    {
        "uniform",
        "uniform_admin",
        "exponential",
        "original_independent",
        "original_dependent",
        "external",
    }
)


@dataclass(frozen=True)
class CensoringSpec:
    """Which synthetic censoring mechanism to apply, plus its parameters.

    ``params`` is kind-specific; currently only the external kind uses it
    (``reference``: path to the reference CSV, or a loaded dataset).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in CENSORING_KINDS:
            raise ConfigurationError(
                f"unknown censoring kind {self.kind!r}; expected one of "
                f"{sorted(CENSORING_KINDS)}"
            )


@dataclass(frozen=True)
class ExternalCensoringRef:
    """Censoring distribution of a reference dataset plus its event-time range."""

    censoring_km: KaplanMeierFit
    t_max_event: float


def flip_censor_bits(ds: SurvivalDataset) -> SurvivalDataset:
    """Invert every event flag so censoring becomes the modelled event.

    Hidden true event times are dropped: they describe the original event
    process and are meaningless once the flags are flipped.
    """
    records = tuple(
        SurvivalRecord(
            features=r.features, time=r.time, event=not r.event, true_event_time=None
        )
        for r in ds.records
    )
    return SurvivalDataset(records=records, feature_names=ds.feature_names)


def keep_uncensored(ds: SurvivalDataset) -> SurvivalDataset:
    """Keep only uncensored subjects; their times become known ground truth."""
    records = tuple(
        SurvivalRecord(
            features=r.features, time=r.time, event=True, true_event_time=r.time
        )
        for r in ds.records
        if r.event
    )
    if not records:
        raise InsufficientEventsError("dataset has no uncensored subject")
    return SurvivalDataset(records=records, feature_names=ds.feature_names)


def _subject_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _km_inverse(curve: StepCurve, u: float) -> float:
    """Smallest knot where the survival curve is at or below ``u``.

    Draws beyond the curve's support (u below the final plateau) land on the
    last knot, i.e. administrative censoring at the end of follow-up.
    """
    idx = np.searchsorted(-curve.values, -u, side="left")
    if idx >= curve.values.size:
        return curve.t_last
    return float(curve.knots[idx])


def sample_censor_times(
    spec: CensoringSpec,
    d_prime: SurvivalDataset,
    stats: DatasetStats,
    aux=None,
    seed: int = 0,
) -> np.ndarray:
    """Draw one synthetic censor time per subject of ``d_prime``.

    ``aux`` supplies the fitted censoring model for the kinds that need one:
    a :class:`KaplanMeierFit` for ``original_independent``, a
    :class:`CoxModel` for ``original_dependent`` and an
    :class:`ExternalCensoringRef` for ``external``.
    """
    n = d_prime.n
    kind = spec.kind
    out = np.empty(n)

    if kind == "uniform":
        for i in range(n):
            out[i] = _subject_rng(seed, i).uniform(0.0, stats.t_max_event)
    elif kind == "uniform_admin":
        for i in range(n):
            draw = _subject_rng(seed, i).uniform(0.0, stats.t_max_event)
            out[i] = min(draw, stats.t_median_event)
    elif kind == "exponential":
        for i in range(n):
            out[i] = _subject_rng(seed, i).exponential(stats.sigma_event)
    elif kind == "original_independent":
        if not isinstance(aux, KaplanMeierFit):
            raise ConfigurationError(
                "original_independent censoring needs a fitted censoring KM"
            )
        for i in range(n):
            out[i] = _km_inverse(aux.curve, _subject_rng(seed, i).random())
    elif kind == "original_dependent":
        if not isinstance(aux, CoxModel):
            raise ConfigurationError(
                "original_dependent censoring needs a fitted Cox censoring model"
            )
        base = aux.baseline_cumhaz
        base_surv = StepCurve(knots=base.knots, values=np.exp(-base.values))
        for i in range(n):
            u = _subject_rng(seed, i).random()
            r = aux.risk(d_prime.feature_matrix[i])
            # S(t|x) = S0(t)^r <= u  iff  S0(t) <= u^(1/r)
            out[i] = _km_inverse(base_surv, u ** (1.0 / r))
    elif kind == "external":
        if not isinstance(aux, ExternalCensoringRef):
            raise ConfigurationError("external censoring needs an ExternalCensoringRef")
        scale = stats.t_max_event / aux.t_max_event
        for i in range(n):
            u = _subject_rng(seed, i).random()
            out[i] = _km_inverse(aux.censoring_km.curve, u) * scale
    else:  # pragma: no cover - guarded by CensoringSpec
        raise ConfigurationError(f"unknown censoring kind {kind!r}")
    return out


def apply_censoring(d_prime: SurvivalDataset, censor_times) -> SurvivalDataset:
    """Censor each subject whose drawn censor time lands before its event.

    Ties go to the event, matching the global convention. The true event time
    is retained on every record.
    """
    censor_times = np.asarray(censor_times, dtype=float)
    if censor_times.shape != (d_prime.n,):
        raise ValueError("need exactly one censor time per subject")
    records = []
    for r, c in zip(d_prime.records, censor_times):
        truth = r.true_event_time if r.true_event_time is not None else r.time
        if c < r.time:
            records.append(
                SurvivalRecord(
                    features=r.features, time=float(c), event=False,
                    true_event_time=truth,
                )
            )
        else:
            records.append(
                SurvivalRecord(
                    features=r.features, time=r.time, event=True,
                    true_event_time=truth,
                )
            )
    return SurvivalDataset(records=tuple(records), feature_names=d_prime.feature_names)


def _max_event_time(ds: SurvivalDataset) -> float:
    if not ds.events.any():
        raise InsufficientEventsError("reference dataset has no uncensored subject")
    return float(ds.times[ds.events].max())


def _resolve_reference(params: dict) -> SurvivalDataset:
    ref = params.get("reference")
    if ref is None:
        raise ConfigurationError("external censoring needs params['reference']")
    if isinstance(ref, SurvivalDataset):
        return ref
    return load_dataset(
        ref,
        time_column=params.get("time_column", "time"),
        event_column=params.get("event_column", "event"),
    )


def make_semi_synthetic(
    ds_raw: SurvivalDataset, spec: CensoringSpec, seed: int = 0
) -> SurvivalDataset:
    """Full pipeline: strip censored subjects, then re-censor synthetically.

    Statistics driving the mechanisms come from the kept uncensored subjects;
    the data-driven mechanisms (original_independent / original_dependent) are
    fitted on the bit-flipped *full* original dataset, so they reproduce the
    original censoring distribution.
    """
    d_prime = keep_uncensored(ds_raw)
    stats = dataset_stats(d_prime)
    aux = None
    if spec.kind == "original_independent":
        aux = censoring_km_fit(ds_raw)
    elif spec.kind == "original_dependent":
        if not ds_raw.feature_names:
            raise ConfigurationError(
                "original_dependent censoring needs at least one feature"
            )
        aux = coxph_fit(flip_censor_bits(ds_raw))
    elif spec.kind == "external":
        ref = _resolve_reference(spec.params)
        aux = ExternalCensoringRef(
            censoring_km=censoring_km_fit(ref), t_max_event=_max_event_time(ref)
        )
    censor_times = sample_censor_times(spec, d_prime, stats, aux=aux, seed=seed)
    return apply_censoring(d_prime, censor_times)
