"""Semi-synthetic censoring pipeline.

Starting from a real dataset, keep only the uncensored subjects (so every
retained time is a known truth), then re-censor them with a synthetic
mechanism. The result carries both the new observed data and the hidden true
event times, so evaluation metrics can be compared against the truth.

Censor-time sampling is keyed by (seed, subject index): subject ``i``'s
censor time is a function of ``u_i``, the first uniform draw of
``np.random.default_rng([seed, i])``, so it depends only on ``(seed, i)``
and is independent of evaluation order and of the other subjects. Every kind
takes the uniforms of all subjects at once (:func:`_first_uniforms`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    DatasetStats,
    StepCurve,
    SurvivalDataset,
    _check_seed,
    _kind_row,
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

@dataclass(frozen=True)
class CensoringSpec:
    """Which synthetic censoring mechanism to apply, plus its parameters.

    Only the external kind reads ``params``: ``reference`` (a loaded dataset,
    or the path of a CSV whose ``time_column`` and ``event_column`` it names);
    None means no params. Params that are no mapping, or a key the kind does
    not read, raise :class:`ConfigurationError`.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _, params = _kind_row("censoring", self.kind, self.params, CENSORING_KINDS)
        object.__setattr__(self, "params", params)


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
    return SurvivalDataset(ds.times, ~ds.events, ds.feature_matrix, None, ds.feature_names)


def keep_uncensored(ds: SurvivalDataset) -> SurvivalDataset:
    """Keep only uncensored subjects; their times become known ground truth."""
    kept = np.flatnonzero(ds.events)
    if not kept.size:
        raise InsufficientEventsError("dataset has no uncensored subject")
    uncensored = ds.subset(kept)
    return replace(uncensored, true_times=uncensored.times)


# ``default_rng([seed, i]).random()`` for every subject at once: NumPy's
# SeedSequence (pool of four 32-bit words) seeds a PCG64 generator (O'Neill
# 2014, https://www.pcg-random.org/paper.html), whose first 64-bit output
# gives the double. All words are 32-bit values held in uint64 arrays, so
# products fit and every result is masked back to 32 bits; a 128-bit PCG
# state is four such words, least significant first.
_MASK32 = 0xFFFFFFFF
_PCG_MULT = [(0x2360ED051FC65DA44385DF649FCCF645 >> (32 * j)) & _MASK32 for j in range(4)]


def _seed_pool(entropy):
    """SeedSequence's pool of four words mixed from the ``entropy`` words."""
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[j] if j < len(entropy) else zero) for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    return pool


def _state_words(pool):
    """``generate_state(4, uint64)`` as eight 32-bit words, low word first."""
    hash_const = 0x8B51F9DD
    words = []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return words


def _add128(a, b):
    out, carry = [], 0
    for x, y in zip(a, b):
        column = x + y + carry
        out.append(column & _MASK32)
        carry = column >> 32
    return out


def _pcg_step(state, inc):
    """``state * multiplier + inc`` mod 2**128."""
    columns = [0, 0, 0, 0]
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * _PCG_MULT[j]
            columns[i + j] += product & _MASK32
            if i + j < 3:
                columns[i + j + 1] += product >> 32
    return _add128(columns, inc)


def _first_uniforms(seed: int, n: int) -> np.ndarray:
    """``default_rng([seed, i]).random()`` for ``i`` in ``range(n)``, bit for bit."""
    seed_words = []
    while True:  # the seed's little-endian 32-bit words, as SeedSequence takes them
        seed_words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy = [np.full(n, w, dtype=np.uint64) for w in seed_words]
    entropy.append(np.arange(n, dtype=np.uint64))
    w = _state_words(_seed_pool(entropy))
    # PCG64 seeding with s = w0 * 2**64 + w1 and inc = 2 * (w2 * 2**64 + w3) + 1
    s = [w[2], w[3], w[0], w[1]]
    seq = [w[6], w[7], w[4], w[5]]
    inc = [((seq[0] << 1) | 1) & _MASK32]
    inc += [((seq[k] << 1) | (seq[k - 1] >> 31)) & _MASK32 for k in range(1, 4)]
    # from state 0: step, add s, step; the first output takes one more step
    state = _pcg_step(_pcg_step(_add128(inc, s), inc), inc)
    hi = (state[3] << 32) | state[2]
    lo = (state[1] << 32) | state[0]
    xored, rot = hi ^ lo, hi >> 58  # XSL-RR output: rotate hi ^ lo right
    out = (xored >> rot) | (xored << ((64 - rot) & 63))
    return (out >> 11).astype(float) * (1.0 / 9007199254740992.0)


def _km_inverse(curve: StepCurve, u):
    """Smallest knot where the survival curve is at or below ``u``.

    Draws beyond the curve's support (u below the final plateau) land on the
    last knot, i.e. administrative censoring at the end of follow-up. ``u``
    may be one draw or an array of them.
    """
    idx = np.searchsorted(-curve.values, -np.asarray(u), side="left")
    out = np.append(curve.knots, curve.t_last)[idx]
    return float(out) if out.ndim == 0 else out


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
    seed = _check_seed(seed)
    row = CENSORING_KINDS[spec.kind]
    if not isinstance(aux, row.aux[0]):
        raise ConfigurationError(f"{spec.kind} censoring needs {row.aux[1]}")
    return row.draw(_first_uniforms(seed, d_prime.n), d_prime, stats, aux)


def apply_censoring(d_prime: SurvivalDataset, censor_times) -> SurvivalDataset:
    """Censor each subject whose drawn censor time lands before its event.

    Ties go to the event, matching the global convention. The true event time
    is retained for every subject. A censor time of ``inf`` never censors; a
    NaN one raises ``ValueError`` naming the first such subject.
    """
    censor_times = np.asarray(censor_times, dtype=float)
    if censor_times.shape != (d_prime.n,):
        raise ValueError("need exactly one censor time per subject")
    nan = np.flatnonzero(np.isnan(censor_times))
    if nan.size:
        raise ValueError(f"subject {nan[0]}: censor time is NaN")
    times = d_prime.times
    censored = censor_times < times
    truths = times if d_prime.true_times is None else d_prime.true_times
    return SurvivalDataset(
        np.where(censored, censor_times, times),
        ~censored,
        d_prime.feature_matrix,
        truths,
        d_prime.feature_names,
    )


def _max_event_time(ds: SurvivalDataset) -> float:
    if not ds.events.any():
        raise InsufficientEventsError("reference dataset has no uncensored subject")
    return float(ds.times[ds.events].max())


def _external_reference(params: dict) -> ExternalCensoringRef:
    ref = params.get("reference")
    if ref is None:
        raise ConfigurationError("external censoring needs params['reference']")
    if not isinstance(ref, SurvivalDataset):
        ref = load_dataset(
            ref,
            time_column=params.get("time_column", "time"),
            event_column=params.get("event_column", "event"),
        )
    return ExternalCensoringRef(censoring_km=censoring_km_fit(ref), t_max_event=_max_event_time(ref))


def _exponential_draws(u, d_prime, stats, aux):
    # inverse of the distribution function; Python's log1p, like the pow of
    # _cox_draws, gives the same float on every platform
    return -stats.sigma_event * np.array(list(map(math.log1p, (-u).tolist())))


def _external_draws(u, d_prime, stats, aux):
    scale = stats.t_max_event / aux.t_max_event
    return _km_inverse(aux.censoring_km.curve, u) * scale


def _cox_draws(u, d_prime, stats, aux):
    base = aux.baseline_cumhaz
    base_surv = StepCurve(knots=base.knots, values=np.exp(-base.values))
    exponents = 1.0 / aux.risks(d_prime.feature_matrix)
    # S(t|x) = S0(t)^r <= u  iff  S0(t) <= u^(1/r); Python's pow, which
    # np.power does not match bit for bit on every platform
    return _km_inverse(base_surv, list(map(pow, u.tolist(), exponents.tolist())))


@dataclass(frozen=True)
class _CensoringKind:
    """A row of the censoring kinds' table."""

    # ``(u, d_prime, stats, aux) -> censor times`` from every subject's
    # first uniform ``u``
    draw: Callable
    reads: tuple = ()  # the keys of ``CensoringSpec.params`` it reads
    # ``(raw dataset, params) -> aux``, the censoring model that
    # ``make_semi_synthetic`` fits; None for a kind that needs none
    fit: Callable | None = None
    aux: tuple = (object, "")  # the type ``sample_censor_times`` requires of aux, and its name
    needs_feature: bool = False  # refused on raw data without a feature column


# censoring kind -> its row; every row looks public functions up by global
# name when called
CENSORING_KINDS = {
    "uniform": _CensoringKind(lambda u, d, stats, aux: stats.t_max_event * u),
    "uniform_admin": _CensoringKind(
        lambda u, d, stats, aux: np.minimum(stats.t_max_event * u, stats.t_median_event)
    ),
    "exponential": _CensoringKind(_exponential_draws),
    "original_independent": _CensoringKind(
        lambda u, d, stats, aux: _km_inverse(aux.curve, u),
        fit=lambda raw, params: censoring_km_fit(raw),
        aux=(KaplanMeierFit, "a fitted censoring KM"),
    ),
    "original_dependent": _CensoringKind(
        _cox_draws,
        fit=lambda raw, params: coxph_fit(flip_censor_bits(raw)),
        aux=(CoxModel, "a fitted Cox censoring model"),
        needs_feature=True,
    ),
    "external": _CensoringKind(
        _external_draws,
        reads=("reference", "time_column", "event_column"),
        fit=lambda raw, params: _external_reference(params),
        aux=(ExternalCensoringRef, "an ExternalCensoringRef"),
    ),
}


def make_semi_synthetic(
    ds_raw: SurvivalDataset, spec: CensoringSpec, seed: int = 0
) -> SurvivalDataset:
    """Full pipeline: strip censored subjects, then re-censor synthetically.

    Statistics driving the mechanisms come from the kept uncensored subjects;
    the data-driven mechanisms (original_independent / original_dependent) are
    fitted on the bit-flipped *full* original dataset, so they reproduce the
    original censoring distribution. A seed that is not a nonnegative integer
    is refused before anything is fitted.
    """
    seed = _check_seed(seed)
    d_prime = keep_uncensored(ds_raw)
    stats = dataset_stats(d_prime)
    row = CENSORING_KINDS[spec.kind]
    if row.needs_feature and not ds_raw.feature_names:
        raise ConfigurationError(f"{spec.kind} censoring needs at least one feature")
    aux = None if row.fit is None else row.fit(ds_raw, spec.params)
    censor_times = sample_censor_times(spec, d_prime, stats, aux=aux, seed=seed)
    return apply_censoring(d_prime, censor_times)
