"""Survival estimators: Kaplan-Meier, Cox proportional hazards, Weibull AFT.

All fits share the tie convention that events are processed before
censorings, i.e. a subject censored at time t is still at risk for events at
t. Kaplan-Meier fits keep their count table so leave-one-out variants can be
recomputed incrementally. The Cox and Weibull fits run one damped-Newton
driver, :func:`_newton`, with a fixed gradient tolerance ``_TOL``. The
Weibull "AFT" fit is, for now, a covariate-free two-parameter Weibull fit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CurveBatch, StepCurve, SurvivalDataset
from .core import _finite_real, _first_bad_subject, _step_lookup
from .errors import ConvergenceError, InsufficientEventsError, SeparationError

__all__ = [
    "CoxModel",
    "CumulativeHazard",
    "KaplanMeierFit",
    "WeibullAFTModel",
    "breslow_baseline",
    "censoring_km_fit",
    "cox_survival_curve",
    "coxph_fit",
    "km_fit",
    "model_from_json",
    "model_to_json",
    "weibull_aft_fit",
]

# Absolute bound on any Cox coefficient before the fit is declared separated.
_SEPARATION_BOUND = 50.0
# Gradient max-norm below which a Newton fit has converged.
_TOL = 1e-8
# Survival probabilities 0.99, 0.98, ..., 0.01 at which curves are sampled.
_PROB_GRID = np.arange(99, 0, -1) / 100.0


@dataclass(frozen=True)
class KaplanMeierFit:
    """Product-limit fit: count table over event times plus the survival curve.

    ``event_times``, ``at_risk`` and ``n_events`` are parallel arrays (the
    classic (t_k, n_k, d_k) table). The curve carries a knot at every distinct
    observed time, so its last knot is the largest observed time even when
    that subject was censored.
    """

    event_times: np.ndarray
    at_risk: np.ndarray
    n_events: np.ndarray
    curve: StepCurve

    @property
    def table(self):
        """The (t_k, n_k, d_k) rows as a list of tuples."""
        return list(
            zip(self.event_times.tolist(), self.at_risk.tolist(), self.n_events.tolist())
        )


def _product_limit(t: np.ndarray, e: np.ndarray):
    """Product-limit table of one sample: ``(t_k, n_k, d_k, S(t_k))``.

    ``t_k`` are the distinct event times, ``n_k`` the subjects at risk at each
    (events before censorings), ``d_k`` the events there and ``S(t_k)`` the
    running product of ``(n_k - d_k) / n_k``. All four are empty when the
    sample has no event.
    """
    event_times, d_k = np.unique(t[e], return_counts=True)
    # at risk at t_k: everyone whose observed time is >= t_k
    n_k = t.size - np.searchsorted(np.sort(t), event_times, side="left")
    return event_times, n_k, d_k, np.cumprod((n_k - d_k) / n_k)


def km_fit(times, events) -> KaplanMeierFit:
    """Kaplan-Meier product-limit estimator.

    Parameters
    ----------
    times : sequence of positive floats
    events : sequence of bools or 0/1 flags, true where the event was
        observed; any other flag, NaN included, raises ``ValueError`` naming
        the first subject that holds one

    Notes
    -----
    At tied times events are counted before censorings: a subject censored at
    t remains in the at-risk count n_k for events at t.
    """
    t = np.asarray(times, dtype=float)
    flags = np.asarray(events)
    if t.ndim != 1 or t.shape != flags.shape:
        raise ValueError("times and events must be 1-d arrays of equal length")
    if t.size == 0:
        raise ValueError("cannot fit on an empty sample")
    bad = _first_bad_subject(t, flags, None, np.empty((t.size, 0)))
    if bad is not None:
        raise ValueError("subject {}: {}".format(*bad))
    e = flags.astype(bool, copy=False)

    event_times, n_k, d_k, surv = _product_limit(t, e)
    all_times = np.unique(t)
    # 1 before the first event time, else S at the last event time <= t
    values = np.concatenate(([1.0], surv))[
        np.searchsorted(event_times, all_times, side="right")
    ]
    curve = StepCurve(knots=all_times, values=values)
    return KaplanMeierFit(
        event_times=event_times, at_risk=n_k.astype(int), n_events=d_k.astype(int),
        curve=curve,
    )


def censoring_km_fit(ds: SurvivalDataset) -> KaplanMeierFit:
    """Kaplan-Meier fit of the censoring distribution (event flags inverted)."""
    return km_fit(ds.times, ~ds.events)


@dataclass(frozen=True)
class CumulativeHazard:
    """Nondecreasing step function, zero before its first knot.

    Its knots must be finite, nonnegative and strictly increasing, as a
    :class:`~survmae.core.StepCurve`'s are, and its values finite, nonnegative
    and nondecreasing; a broken rule raises ``ValueError`` whose reason
    begins with the word ``knots`` or ``values``.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.size != values.size or knots.ndim != 1:
            raise ValueError("knots and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if (knots.size and knots[0] < 0) or np.any(knots[1:] <= knots[:-1]):
            raise ValueError("knots must be strictly increasing from a nonnegative first knot")
        if np.any(values[1:] < values[:-1] - 1e-12) or (values.size and values[0] < 0):
            raise ValueError("values must be nonnegative and nondecreasing")

    def value(self, t):
        """Right-continuous lookup; 0 before the first knot. Accepts scalars
        or arrays; NaN and negative times raise ``ValueError``."""
        return _step_lookup(self.knots, self.values, t, "right", 0.0)


@dataclass(frozen=True)
class CoxModel:
    """Fitted proportional-hazards model with a Breslow baseline."""

    beta: np.ndarray
    baseline_cumhaz: CumulativeHazard
    feature_means: np.ndarray

    def risk(self, x) -> float:
        """Relative risk exp(beta . (x - mean)) of one covariate vector."""
        x = np.asarray(x, dtype=float)
        return float(np.exp(self.beta @ (x - self.feature_means)))

    def risks(self, features) -> np.ndarray:
        """Relative risks of the rows of ``features``, equal to :meth:`risk` of each row.

        Each row is one vector dot product, as in :meth:`risk`; a single
        matrix-vector product may sum in another order.
        """
        x_c = np.asarray(features, dtype=float) - self.feature_means
        return np.exp(np.matmul(x_c[:, None, :], self.beta)[:, 0])


@dataclass(frozen=True)
class _RiskSets:
    """Time-order structure of one sample, shared by every likelihood call of a fit.

    ``order`` is the stable time order, ``x_sorted`` the centered features in
    that order, ``event_times`` the distinct event times with ``n_events``
    events each, and ``pos`` the first sorted position at or after each event
    time, where the suffix sums over the risk set start.
    """

    order: np.ndarray
    x_sorted: np.ndarray
    events: np.ndarray
    event_times: np.ndarray
    n_events: np.ndarray
    pos: np.ndarray
    x_event_sum: np.ndarray  # summed centered features of the events


def _risk_sets(x_centered, times, events) -> _RiskSets:
    order = np.argsort(times, kind="stable")
    event_times, d_k = np.unique(times[events], return_counts=True)
    pos = np.searchsorted(times[order], event_times, side="left")
    return _RiskSets(
        order, x_centered[order], events, event_times, d_k, pos,
        np.sum(x_centered[events], axis=0),
    )


def _cox_loglik(beta, x_centered, rs: _RiskSets):
    """Breslow partial log-likelihood, with the sorted weights exp(eta) and
    the risk-set sums S0 at each event time that its derivatives reuse."""
    eta = x_centered @ beta
    # guard against overflow in pathological iterates; step halving recovers
    with np.errstate(over="ignore"):
        w = np.exp(eta)
    w_sorted = w[rs.order]
    # suffix sums so S0(u) = sum of w over subjects with t >= u
    s0 = np.cumsum(w_sorted[::-1])[::-1][rs.pos]
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = float(np.sum(eta[rs.events]) - np.sum(rs.n_events * np.log(s0)))
    return ll, w_sorted, s0


def _cox_derivatives(rs: _RiskSets, w_sorted, s0):
    """Gradient of the Breslow partial log-likelihood, and a function that
    gives its Hessian, from the sorted weights and risk-set sums of its
    likelihood pass."""
    d_k = rs.n_events
    xw_sorted = rs.x_sorted * w_sorted[:, None]
    s1 = np.cumsum(xw_sorted[::-1], axis=0)[::-1][rs.pos]
    mean_x = s1 / s0[:, None]
    grad = rs.x_event_sum - (d_k[:, None] * mean_x).sum(axis=0)

    def hessian():
        s2_terms = np.einsum("ij,ik->ijk", rs.x_sorted, xw_sorted)
        s2 = np.cumsum(s2_terms[::-1], axis=0)[::-1][rs.pos]
        covs = s2 / s0[:, None, None] - mean_x[:, :, None] * mean_x[:, None, :]
        return -np.sum(d_k[:, None, None] * covs, axis=0)

    return grad, hessian


def _newton(loglik, derivatives, x0, max_iter, halvings, singular, what, params):
    """Damped Newton ascent of ``loglik`` from ``x0``: the last iterate and
    the terms of its likelihood pass.

    ``loglik(x)`` gives ``(ll, *terms)`` and ``derivatives(x, *terms)`` the
    gradient and a function of no arguments that gives the Hessian, so each
    point tried costs one pass and the Hessian is computed only where a step
    is taken; ``singular(hess, grad)`` is the step at a singular Hessian.
    A step is halved up to ``halvings`` times. A failure raises :class:`ConvergenceError` carrying
    ``params(x)``; a candidate equal to the iterate, bit for bit, is a fixed
    point, so the budget's error is raised at once.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    stalled = f"no convergence after {max_iter} Newton iterations"
    x = x0
    ll, *terms = loglik(x)
    grad, hessian = derivatives(x, *terms)
    done = 0
    while not np.max(np.abs(grad)) < _TOL:  # a NaN gradient has not converged
        if done == max_iter:
            raise ConvergenceError(stalled, last_params=params(x))
        done += 1
        hess = hessian()
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = singular(hess, grad)
        scale = 1.0
        for _ in range(halvings):
            cand = x + scale * step
            if np.isfinite(ll) and cand.tobytes() == x.tobytes():
                # accepted with the same likelihood, then repeated every iteration
                raise ConvergenceError(stalled, last_params=params(x))
            cand_ll, *cand_terms = loglik(cand)
            if np.isfinite(cand_ll) and cand_ll >= ll - 1e-13:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"step halving failed to improve the {what}", last_params=params(x)
            )
        x, ll, terms = cand, cand_ll, cand_terms
        grad, hessian = derivatives(x, *terms)
    return x, terms


def coxph_fit(ds: SurvivalDataset, max_iter: int = 100) -> CoxModel:
    """Fit a Cox proportional-hazards model by damped Newton iteration.

    Uses the Breslow approximation for tied event times and centers the
    features before fitting. :func:`_newton` iterates until the gradient
    max-norm is below 1e-8, halving a step up to 30 times and taking a
    least-squares step at a singular Hessian. Raises :class:`SeparationError`
    when a coefficient runs away (a covariate perfectly orders the risk sets)
    and :class:`ConvergenceError`, carrying the last ``beta``, when the fit
    fails. The risk sets are built once per fit and shared by every pass.
    """
    if ds.feature_matrix.shape[1] == 0:
        raise ValueError("Cox model needs at least one feature")
    if not ds.events.any():
        raise InsufficientEventsError("Cox model needs at least one event")
    means = ds.feature_matrix.mean(axis=0)
    x_c = ds.feature_matrix - means
    rs = _risk_sets(x_c, ds.times, ds.events)

    def derivatives(beta, w_sorted, s0):
        if np.max(np.abs(beta)) > _SEPARATION_BOUND:
            raise SeparationError(
                "coefficient magnitude exceeded "
                f"{_SEPARATION_BOUND}; a covariate separates the risk order"
            )
        return _cox_derivatives(rs, w_sorted, s0)

    beta, (_, s0) = _newton(
        lambda beta: _cox_loglik(beta, x_c, rs), derivatives, np.zeros(x_c.shape[1]),
        max_iter, 30, lambda hess, grad: -np.linalg.lstsq(hess, grad, rcond=None)[0],
        "partial likelihood", lambda beta: beta,
    )
    return CoxModel(beta=beta, baseline_cumhaz=_breslow(rs, s0), feature_means=means)


def _breslow(rs: _RiskSets, s0) -> CumulativeHazard:
    """Breslow cumulative hazard from the risk-set sums ``s0`` of a likelihood pass."""
    return CumulativeHazard(knots=rs.event_times, values=np.cumsum(rs.n_events / s0))


def breslow_baseline(model: CoxModel, ds: SurvivalDataset) -> CumulativeHazard:
    """Breslow baseline cumulative hazard of ``model`` evaluated on ``ds``."""
    x_c = ds.feature_matrix - model.feature_means
    rs = _risk_sets(x_c, ds.times, ds.events)
    return _breslow(rs, _cox_loglik(model.beta, x_c, rs)[2])


def cox_survival_curve(model: CoxModel, x):
    """Survival curve exp(-H0(t) * risk) on the baseline knots.

    A covariate vector ``x`` gives its :class:`StepCurve`; a matrix with one
    row per subject gives a :class:`CurveBatch` on the shared baseline knots
    whose row i is ``exp(-H0 * risks[i])``, held as the baseline hazard and
    the risks, never as an n x K matrix.
    """
    h = model.baseline_cumhaz
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return CurveBatch(knots=h.knots, hazard=h.values, risks=model.risks(x))
    r = model.risk(x)
    return StepCurve(knots=h.knots, values=np.exp(-h.values * r))


@dataclass(frozen=True)
class WeibullAFTModel:
    """Two-parameter Weibull survival model S(t) = exp(-(t/scale)^shape)."""

    shape: float
    scale: float

    def survival_at(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.exp(-((t_arr / self.scale) ** self.shape))
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def median(self) -> float:
        return self.scale * np.log(2.0) ** (1.0 / self.shape)

    def as_step_curve(self, probs=None) -> StepCurve:
        """Sample the continuous curve onto a survival-probability grid."""
        probs = np.array(_PROB_GRID if probs is None else probs, dtype=float)
        knots = self.scale * (-np.log(probs)) ** (1.0 / self.shape)
        return StepCurve(knots=knots, values=probs)


def _weibull_loglik(a, b, log_t, e):
    """Censored Weibull log-likelihood in (log shape, log scale), with the
    shape ``k`` and the terms ``u = log t - b`` and ``z = exp(k u)`` that its
    derivatives reuse. A Newton step may overshoot to a log shape whose ``k``
    overflows; the likelihood there is not finite and the step is halved."""
    u = log_t - b
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.exp(a)
        z = np.exp(k * u)
        ll = float(np.sum(e * (a + (k - 1.0) * log_t - k * b)) - np.sum(z))
    return ll, k, u, z


def _weibull_derivatives(k, u, z, e):
    """Gradient of the censored Weibull log-likelihood, and a function that
    gives its Hessian, from the shape ``k`` and the terms ``u`` and ``z`` of
    its likelihood pass."""
    d = float(e.sum())
    zu = z * u
    g_a = d + k * (float(np.sum(u[e])) - float(np.sum(zu)))
    g_b = k * (float(np.sum(z)) - d)

    def hessian():
        h_aa = (g_a - d) - k * k * float(np.sum(zu * u))
        h_ab = g_b + k * k * float(np.sum(zu))
        h_bb = -(k * k) * float(np.sum(z))
        return np.array([[h_aa, h_ab], [h_ab, h_bb]])

    return np.array([g_a, g_b]), hessian


def weibull_aft_fit(ds: SurvivalDataset, max_iter: int = 100) -> WeibullAFTModel:
    """Maximum-likelihood two-parameter Weibull fit honouring censoring.

    For now a covariate-free fit, despite its name: it ignores the features.
    :func:`_newton` iterates in (log shape, log scale) until the gradient
    max-norm is below 1e-8, halving a step up to 40 times and taking a plain
    ascent step at a singular Hessian. Raises :class:`ConvergenceError`,
    carrying the last ``(shape, scale)``, when the fit fails.
    """
    t, e = ds.times, ds.events
    if not e.any():
        raise InsufficientEventsError("Weibull fit needs at least one event")
    log_t = np.log(t)
    theta, _ = _newton(
        lambda theta: _weibull_loglik(theta[0], theta[1], log_t, e),
        lambda theta, k, u, z: _weibull_derivatives(k, u, z, e),
        np.array([0.0, np.log(float(t.sum()) / float(e.sum()))]),
        max_iter, 40, lambda hess, grad: grad, "Weibull likelihood", np.exp,
    )
    return WeibullAFTModel(shape=float(np.exp(theta[0])), scale=float(np.exp(theta[1])))


def model_to_json(model, path=None) -> str:
    """Serialize a fitted model (KM, Cox or Weibull) to a JSON string.

    When ``path`` is given the JSON is also written there.
    """
    if isinstance(model, KaplanMeierFit):
        payload = {
            "kind": "km",
            "knots": model.curve.knots.tolist(),
            "values": model.curve.values.tolist(),
            "event_times": model.event_times.tolist(),
            "at_risk": model.at_risk.tolist(),
            "n_events": model.n_events.tolist(),
        }
    elif isinstance(model, CoxModel):
        payload = {
            "kind": "coxph",
            "beta": model.beta.tolist(),
            "baseline_knots": model.baseline_cumhaz.knots.tolist(),
            "baseline_values": model.baseline_cumhaz.values.tolist(),
            "feature_means": model.feature_means.tolist(),
        }
    elif isinstance(model, WeibullAFTModel):
        payload = {"kind": "weibull_aft", "shape": model.shape, "scale": model.scale}
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    text = json.dumps(payload, indent=2)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def _json_field(data, name):
    if name not in data:
        raise ValueError(f"model JSON lacks the field {name!r}")
    return data[name]


def _json_positive(data, name) -> float:
    """The field ``name`` of a model payload, a finite number > 0."""
    value = _json_field(data, name)
    if not (_finite_real(value) and value > 0):
        raise ValueError(f"field {name!r} must be a finite number > 0, got {value!r}")
    return float(value)


def _json_arrays(data, *names):
    """The fields ``names`` of a model payload, lists of finite numbers of one
    length, as float arrays."""
    arrays = []
    for name in names:
        value = _json_field(data, name)
        if not isinstance(value, list):
            raise ValueError(f"field {name!r} must be a list of numbers")
        bad = next((i for i, v in enumerate(value) if not _finite_real(v)), None)
        if bad is not None:
            raise ValueError(
                f"field {name!r} entry {bad} must be a finite number, got {value[bad]!r}"
            )
        if arrays and len(value) != arrays[0].size:
            raise ValueError(
                f"field {name!r} has {len(value)} entries but {names[0]!r} has {arrays[0].size}"
            )
        arrays.append(np.array(value, dtype=float))
    return arrays


def model_from_json(source):
    """Inverse of :func:`model_to_json`; accepts a JSON string or a file path.

    A string that starts with ``{`` or ``[`` after blanks is read as JSON.
    A payload :func:`model_to_json` could not have written raises
    ``ValueError`` naming the field: a missing field, a non-finite number, a
    Weibull shape or scale <= 0, a Kaplan-Meier count that is not a whole
    number >= 0, parallel lists of unequal lengths, or a Cox baseline that
    :class:`CumulativeHazard` refuses, with that class's reason.
    """
    if isinstance(source, str) and source.lstrip()[:1] in ("{", "["):
        data = json.loads(source)
    else:
        data = json.loads(Path(source).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"model JSON must be an object, got {type(data).__name__}")
    kind = _json_field(data, "kind")
    if kind == "km":
        event_times, at_risk, n_events = _json_arrays(data, "event_times", "at_risk", "n_events")
        knots, values = _json_arrays(data, "knots", "values")
        for name, counts in (("at_risk", at_risk), ("n_events", n_events)):
            if np.any((counts < 0) | (counts != np.floor(counts))):
                raise ValueError(f"field {name!r} must hold whole numbers >= 0")
        return KaplanMeierFit(
            event_times=event_times, at_risk=at_risk.astype(int), n_events=n_events.astype(int),
            curve=StepCurve(knots=knots, values=values),
        )
    if kind == "coxph":
        beta, means = _json_arrays(data, "beta", "feature_means")
        knots, values = _json_arrays(data, "baseline_knots", "baseline_values")
        try:
            baseline = CumulativeHazard(knots=knots, values=values)
        except ValueError as exc:  # the reason names the knots or the values first
            name, rule = str(exc).split(" ", 1)
            raise ValueError(f"field 'baseline_{name}' {rule}") from None
        return CoxModel(beta=beta, baseline_cumhaz=baseline, feature_means=means)
    if kind == "weibull_aft":
        return WeibullAFTModel(
            shape=_json_positive(data, "shape"), scale=_json_positive(data, "scale")
        )
    raise ValueError(f"unknown model kind {kind!r}")
