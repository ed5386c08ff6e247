"""Experiment harness: cross-validated scoring of models under every metric.

The harness exists to answer one question: which evaluation metric ranks
models the way the hidden true MAE would? It fits simple reference models
(or synthetic noisy oracles) across stratified folds, scores them with every
MAE variant plus the auxiliary metrics, and reports ranking agreement against
the true MAE whenever the dataset carries ground truth.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import CurveBatch, SurvivalDataset, stratified_kfold
from .core import _read_columns, _read_lines, _split_csv, _write_csv
from .errors import (
    BinningError,
    ConfigurationError,
    ConvergenceError,
    DataFormatError,
    DegenerateCurveError,
    DegenerateScoreWarning,
    InsufficientEventsError,
    InvalidCurveError,
    MissingGroundTruthError,
    SeparationError,
    UndefinedMetricError,
)
from .estimators import (
    censoring_km_fit,
    cox_survival_curve,
    coxph_fit,
    km_fit,
    weibull_aft_fit,
)
from .mae import (
    extract_predicted_times,
    ipcw_t_surrogates,
    mae_hinge,
    mae_ipcw_d,
    mae_uncensored,
    margin_surrogates,
    pop_po_surrogates,
    pseudo_obs_surrogates,
    true_mae,
    weighted_mae,
)
from .metrics import (
    _brier_weights,
    concordance_index,
    d_calibration,
    integrated_brier_score,
    log_likelihood,
    one_calibration,
)

__all__ = [
    "AgreementStats",
    "CurveTable",
    "ExperimentReport",
    "MAE_METRICS",
    "METRICS",
    "ModelSpec",
    "REFERENCE_MODELS",
    "evaluate_dataset",
    "load_curve_file",
    "noisy_oracle_predictions",
    "parse_model_spec",
    "rank_agreement",
    "run_experiment",
    "save_curve_file",
]

# errors that make one cell missing instead of aborting the experiment
_CELL_ERRORS = (
    UndefinedMetricError,
    MissingGroundTruthError,
    InsufficientEventsError,
    DegenerateCurveError,
    BinningError,
    ConvergenceError,
    SeparationError,
)


def _surrogate_mae(preds, ref, metric):
    surrogates = ref.surrogates[metric]
    return None if surrogates is None else weighted_mae(surrogates, preds)


# Table entries look functions up by global name when called, so a replaced
# module attribute (a test's monkeypatch, the benchmark tracer) is seen.

# metric -> scorer(predicted times, ref)
_PREDICTION_METRICS = {
    "mae_uncensored": lambda p, ref: mae_uncensored(p, ref.test),
    "mae_hinge": lambda p, ref: mae_hinge(p, ref.test),
    "mae_margin": lambda p, ref: _surrogate_mae(p, ref, "mae_margin"),
    "mae_ipcw_d": lambda p, ref: mae_ipcw_d(p, ref.test, ref.g),
    "mae_ipcw_t": lambda p, ref: _surrogate_mae(p, ref, "mae_ipcw_t"),
    "mae_po": lambda p, ref: _surrogate_mae(p, ref, "mae_po"),
    "mae_pop_po": lambda p, ref: _surrogate_mae(p, ref, "mae_pop_po"),
    "true_mae": lambda p, ref: true_mae(p, ref.test),
    "c_index": lambda p, ref: concordance_index(p, ref.test),
}

_IBS_GRID = 100  # integrated Brier score grid points

# metric -> scorer(curves, ref)
_CURVE_METRICS = {
    "ibs": lambda c, ref: integrated_brier_score(
        c, ref.test, ref.g, _IBS_GRID, ref.t_max, weights=ref.ibs_weights
    ),
    "log_likelihood": lambda c, ref: log_likelihood(c, ref.test),
    "one_calibration_p": lambda c, ref: (
        None if ref.t_star is None else one_calibration(c, ref.test, ref.t_star).p_value
    ),
    "d_calibration_p": lambda c, ref: d_calibration(c, ref.test).p_value,
}

METRICS = tuple(_PREDICTION_METRICS) + tuple(_CURVE_METRICS)
MAE_METRICS = tuple(met for met in METRICS if met.startswith("mae_"))

# reference model kind -> (fit on a dataset, the fit's curves for a test set)
REFERENCE_MODELS = {
    "km": (
        lambda ds: km_fit(ds.times, ds.events),
        lambda fit, test: CurveBatch.broadcast(fit.curve, test.n),
    ),
    "coxph": (
        lambda ds: coxph_fit(ds),
        lambda fit, test: cox_survival_curve(fit, test.feature_matrix),
    ),
    "weibull_aft": (
        lambda ds: weibull_aft_fit(ds),
        lambda fit, test: CurveBatch.broadcast(fit.as_step_curve(), test.n),
    ),
}


_NOISE_RULE = "noise must be a finite number >= 0"


@dataclass(frozen=True)
class ModelSpec:
    """A model to evaluate: a reference fit, a noisy oracle, or external curves.

    A noisy oracle's ``noise`` must be a finite number >= 0; any other value
    raises :class:`ConfigurationError` naming the spec.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(
                f"unknown model kind {self.kind!r}; expected one of {sorted(MODEL_KINDS)}"
            )
        if self.kind == "noisy_oracle":
            noise = self.params.get("noise", 0.0)
            try:
                valid = 0.0 <= float(noise) < math.inf
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                spec = f"noisy:{noise}"
                raise ConfigurationError(f"model spec {spec!r}: {_NOISE_RULE}")


def parse_model_spec(text: str) -> ModelSpec:
    """Parse CLI notation: ``km``, ``coxph``, ``weibull_aft``, ``noisy:<sd>``,
    ``external:<path>``."""
    if text in REFERENCE_MODELS:
        return ModelSpec(kind=text)
    if text.startswith("noisy:"):
        try:
            return ModelSpec(kind="noisy_oracle", params={"noise": float(text[6:])})
        except ValueError:
            raise ConfigurationError(f"model spec {text!r}: {_NOISE_RULE}") from None
    if text.startswith("external:"):
        return ModelSpec(kind="external_curves", params={"path": text[9:]})
    raise ConfigurationError(f"cannot parse model spec {text!r}")


_ORACLE_SHAPE = 2.0
_PROB_GRID = np.arange(99, 0, -1) / 100.0
# relative knot positions of a Weibull curve with unit median; the entry for
# probability one half is exactly 1, so the extracted median is exact
_REL_KNOTS = (np.log(_PROB_GRID) / np.log(0.5)) ** (1.0 / _ORACLE_SHAPE)


def noisy_oracle_predictions(ds_test: SurvivalDataset, noise: float, seed: int):
    """Weibull-shaped curves whose medians are the true times times exp(noise).

    Returns a :class:`CurveBatch`: knot row i is ``median_i * _REL_KNOTS`` and
    every row shares the probability grid. With ``noise == 0`` the extracted
    medians reproduce the hidden truths exactly. Requires ground truth on the
    dataset and a finite ``noise >= 0``. A large noise can draw a median whose
    knots overflow to inf or round together near 0; the first such subject
    raises :class:`DegenerateCurveError`.
    """
    if ds_test.true_times is None:
        raise MissingGroundTruthError("noisy oracle needs true event times")
    if not 0.0 <= noise < math.inf:
        raise ValueError(_NOISE_RULE)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        medians = ds_test.true_times * np.exp(rng.normal(0.0, noise, ds_test.n))
        knots = medians[:, None] * _REL_KNOTS[None, :]
    try:
        return CurveBatch(
            knots=knots, values=np.broadcast_to(_PROB_GRID, (ds_test.n, _PROB_GRID.size))
        )
    except InvalidCurveError as exc:
        raise DegenerateCurveError(
            f"subject {exc.row}: noise {noise:g} drew the median {float(medians[exc.row])!r}, "
            f"which gives no valid curve ({exc.reason})"
        ) from None


class CurveTable(Mapping):
    """The curves of a curve file: a mapping from subject index to curve.

    The rows are held as one :class:`CurveBatch` on the file's grid, in file
    order; looking up one subject gives its ``StepCurve``, and
    :meth:`select` gives the batch of many subjects.
    """

    def __init__(self, indices, batch: CurveBatch):
        self.batch = batch
        self._row = {int(idx): row for row, idx in enumerate(indices)}

    def __getitem__(self, subject):
        return self.batch[self._row[subject]]

    def __iter__(self):
        return iter(self._row)

    def __len__(self) -> int:
        return len(self._row)

    def select(self, subjects) -> CurveBatch:
        """The batch of ``subjects``, in that order; all must be in the file."""
        subjects = [int(i) for i in subjects]
        missing = [i for i in subjects if i not in self._row]
        if missing:
            raise ConfigurationError(
                f"curve file does not cover subjects {missing[:5]} "
                f"({len(missing)} missing of {len(subjects)})"
            )
        return self.batch.take([self._row[i] for i in subjects])


def load_curve_file(path) -> CurveTable:
    """Read a curve file: header ``t,<grid times>``, rows ``<index>,<values>``.

    Returns a :class:`CurveTable` mapping subject index to curve on the shared
    grid. The grid is checked as a row of knots first; the curve rules are
    checked on all rows at once; every error names the first bad line.

    The file is read once, so it may be a pipe. A valid file is parsed in one
    pass of NumPy's C reader; any other file is parsed again line by line.
    """
    path = Path(path)
    header, rest, start = _split_csv(path)
    if not header or header[0].strip() != "t":
        raise DataFormatError(f"{path}: first header field must be 't'")
    try:
        grid = np.array([float(v) for v in header[1:]], dtype=float)
    except ValueError:
        raise DataFormatError(f"{path}: non-numeric grid time in header") from None
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise DataFormatError("line 1: need at least one grid time, all finite")
    try:
        CurveBatch(knots=grid, values=np.ones((1, grid.size)))
    except InvalidCurveError as exc:
        raise DataFormatError(f"line 1: {exc.reason}") from None
    table = _read_columns(rest, [("index", np.int64), ("values", float, (grid.size,))])
    if table is not None:
        subjects = table["index"]
        if np.unique(subjects).size == subjects.size:
            try:
                batch = CurveBatch(knots=grid, values=table["values"])
            except InvalidCurveError:
                pass  # a rule is broken: the line-by-line read names the line
            else:
                return CurveTable(subjects.tolist(), batch)
    seen = set()

    def parse(row, line):
        try:
            idx = int(row[0])
            values = np.fromiter(map(float, row[1:]), dtype=float, count=grid.size)
        except ValueError:
            raise DataFormatError(f"line {line}: non-numeric field") from None
        if idx in seen:
            raise DataFormatError(f"line {line}: duplicate subject index {idx}")
        seen.add(idx)
        return idx, values

    rows, lines, failure = _read_lines(rest, start, grid.size + 1, parse)
    values = np.array([v for _, v in rows]).reshape(len(rows), grid.size)
    try:
        # a bad curve on a line before the failure is the first error
        batch = CurveBatch(knots=grid, values=values)
    except InvalidCurveError as exc:
        raise DataFormatError(f"line {lines[exc.row]}: {exc.reason}") from None
    if failure is not None:
        raise failure
    return CurveTable([i for i, _ in rows], batch)


def save_curve_file(path, grid, value_rows, indices=None) -> None:
    """Write curves sharing ``grid`` in the format :func:`load_curve_file` reads."""
    grid = np.asarray(grid, dtype=float)
    value_rows = np.asarray(value_rows, dtype=float)
    if indices is None:
        indices = range(value_rows.shape[0])
    _write_csv(
        path,
        ["t"] + [repr(t) for t in grid.tolist()],
        ([str(int(idx)), *map(repr, row)] for idx, row in zip(indices, value_rows.tolist())),
    )


@dataclass(frozen=True)
class AgreementStats:
    """How closely a metric's model ranking tracks the true MAE ranking."""

    kendall_tau: float
    top3_overlap: int
    mean_abs_gap: float


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a cross-validated comparison produced.

    ``per_fold[model][metric]`` is a list with one entry per fold (None when
    the metric was undefined on that fold); ``mean_scores`` averages the
    defined entries. Rank orderings cover the MAE family, best (smallest)
    first. ``agreement`` is empty when the dataset has no ground truth.
    """

    model_names: tuple
    metric_names: tuple
    per_fold: dict
    mean_scores: dict
    per_metric_rank: dict
    true_mae_rank: tuple | None
    agreement: dict

    def to_json_dict(self) -> dict:
        def clean(v):
            if v is None or not np.isfinite(v):
                return None
            return float(v)

        return {
            "models": list(self.model_names),
            "metrics": list(self.metric_names),
            "per_fold": {
                m: {met: [clean(v) for v in rows] for met, rows in d.items()}
                for m, d in self.per_fold.items()
            },
            "mean_scores": {
                m: {met: clean(v) for met, v in d.items()}
                for m, d in self.mean_scores.items()
            },
            "per_metric_rank": {
                met: list(order) for met, order in self.per_metric_rank.items()
            },
            "true_mae_rank": list(self.true_mae_rank) if self.true_mae_rank else None,
            "agreement": {
                met: {
                    "kendall_tau": clean(a.kendall_tau),
                    "top3_overlap": a.top3_overlap,
                    "mean_abs_gap": clean(a.mean_abs_gap),
                }
                for met, a in self.agreement.items()
            },
        }


def _top3(scores: dict) -> set:
    ordered = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    return {name for name, _ in ordered[:3]}


def _kendall_tau_b(x, y) -> float:
    """Kendall's tau-b of two equal-length score lists, as ``scipy.stats.kendalltau``.

    Counts every pair once with integer counts and returns
    ``(concordant - discordant) / sqrt(tot - x_ties) / sqrt(tot - y_ties)``
    clipped to [-1, 1], the formula and order of operations scipy uses. NaN
    when either list holds a NaN or is tied throughout.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    i, j = np.triu_indices(x.size, k=1)
    # comparisons, not differences: inf - inf is NaN
    sign_x = (x[i] > x[j]).astype(np.int64) - (x[i] < x[j])
    sign_y = (y[i] > y[j]).astype(np.int64) - (y[i] < y[j])
    tot = i.size
    x_ties = int(np.count_nonzero(sign_x == 0))
    y_ties = int(np.count_nonzero(sign_y == 0))
    if x_ties == tot or y_ties == tot:
        return float("nan")
    con_minus_dis = int(np.sum(sign_x * sign_y))
    tau = con_minus_dis / np.sqrt(tot - x_ties) / np.sqrt(tot - y_ties)
    return float(min(1.0, max(-1.0, tau)))


def rank_agreement(true_scores: dict, metric_scores: dict):
    """Kendall tau-b and top-3 overlap between two model score maps.

    Both maps must cover the same models; smaller scores rank better. Ties in
    the top-3 cut are broken by model name so the result is deterministic.
    Returns ``(kendall_tau, top3_overlap)``; tau is NaN for fewer than two
    models.
    """
    if set(true_scores) != set(metric_scores):
        raise ValueError("score maps must cover the same models")
    names = sorted(true_scores)
    if len(names) < 2:
        tau = float("nan")
    else:
        tau = _kendall_tau_b(
            [true_scores[n] for n in names], [metric_scores[n] for n in names]
        )
    overlap = len(_top3(true_scores) & _top3(metric_scores))
    return tau, overlap


def _unique_names(models) -> tuple:
    names = []
    for spec in models:
        if spec.kind == "noisy_oracle":
            base = f"noisy_{spec.params.get('noise', 0.0):g}"
        elif spec.kind == "external_curves":
            stem = Path(str(spec.params.get("path", "external"))).stem
            base = f"external_{stem}" if spec.params.get("path") else "external"
        else:
            base = spec.kind
        name, bump = base, 2
        while name in names:
            name, bump = f"{base}_{bump}", bump + 1
        names.append(name)
    return tuple(names)


def _external_curves(params):
    table = load_curve_file(params["path"])
    return lambda train, test, test_indices, seed: table.select(test_indices)


def _noisy_oracle(params):
    noise = float(params.get("noise", 0.0))
    return lambda train, test, _, seed: noisy_oracle_predictions(test, noise, seed)


def _reference_model(kind):
    fit, predict = REFERENCE_MODELS[kind]
    return lambda params: lambda train, test, *_: predict(fit(train), test)


# model kind -> factory(params) of the model's fold function
# ``(train, test, test_indices, seed) -> CurveBatch``; a factory runs once per
# experiment, so a curve file is read once
MODEL_KINDS = {
    **{kind: _reference_model(kind) for kind in REFERENCE_MODELS},
    "noisy_oracle": _noisy_oracle,
    "external_curves": _external_curves,
}


def _attempt(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or None when it raises one of ``_CELL_ERRORS``:
    the one place where an undefined score or model becomes a missing cell."""
    try:
        return fn(*args, **kwargs)
    except _CELL_ERRORS:
        return None


@dataclass(frozen=True)
class _Reference:
    """What the scores of every model on one test set share."""

    test: SurvivalDataset
    g: object  # censoring KM fit of the training set
    t_star: float | None  # one-calibration horizon: median training event time
    t_max: float | None  # IBS horizon; None takes the test set's last event
    surrogates: dict  # surrogate-based MAE metric -> its set, None if undefined
    ibs_weights: object  # the IBS inputs of every model, None if undefined


def _reference(train, test, t_max) -> _Reference:
    km = km_fit(train.times, train.events)
    # one KM fit of the test set serves every surrogate builder that needs it
    test_km = km if test is train else km_fit(test.times, test.events)
    surrogates = {
        "mae_margin": _attempt(margin_surrogates, test, km),
        "mae_ipcw_t": _attempt(ipcw_t_surrogates, test, km=test_km),
        "mae_po": _attempt(pseudo_obs_surrogates, test, km=test_km),
        "mae_pop_po": _attempt(pop_po_surrogates, test, km=test_km),
    }
    events = train.times[train.events]
    t_star = float(np.median(events)) if events.size else None
    g = censoring_km_fit(train)
    # an undefined IBS horizon leaves the weights to integrated_brier_score,
    # which raises its error for each model
    ibs_weights = _attempt(_brier_weights, test, g, _IBS_GRID, t_max)
    return _Reference(test, g, t_star, t_max, surrogates, ibs_weights)


def _score(curves: CurveBatch, ref: _Reference, pred_method: str) -> dict:
    """Every metric of ``curves`` on ``ref.test``; None where undefined."""
    preds = _attempt(extract_predicted_times, curves, pred_method)
    scores = {}
    with warnings.catch_warnings():
        # log_likelihood warns of its -inf, which is a score like any other
        warnings.simplefilter("ignore", DegenerateScoreWarning)
        for table, arg in ((_PREDICTION_METRICS, preds), (_CURVE_METRICS, curves)):
            for met, scorer in table.items():
                scores[met] = None if arg is None else _attempt(scorer, arg, ref)
    return scores


def evaluate_dataset(ds: SurvivalDataset, curves, pred_method: str = "median") -> dict:
    """Score one set of per-subject curves on one dataset, no folds.

    ``curves`` is a :class:`CurveBatch` or a sequence of ``StepCurve``.
    Reference quantities (KM curve, censoring KM, calibration horizon) come
    from the dataset itself. Returns a metric-name to score map with None for
    undefined entries; ``true_mae`` appears only when ground truth is present.
    """
    if len(curves) != ds.n:
        raise ConfigurationError(f"got {len(curves)} curves for {ds.n} subjects")
    scores = _score(CurveBatch.from_curves(curves), _reference(ds, ds, None), pred_method)
    if ds.true_times is None:
        scores.pop("true_mae")
    return scores


def _mean_defined(rows):
    defined = [v for v in rows if v is not None]
    return float(np.mean(defined)) if defined else None


def run_experiment(
    ds: SurvivalDataset,
    models,
    k: int = 5,
    seed: int = 0,
    pred_method: str = "median",
) -> ExperimentReport:
    """Cross-validated scoring of ``models`` under every metric.

    Splits ``ds`` with :func:`stratified_kfold`, fits each model on the train
    side of each fold, scores its predictions on the test side, and aggregates
    fold means, rank orderings, and (when the dataset carries hidden truths)
    agreement statistics against the true MAE. Undefined metrics become
    missing cells rather than failures. Deterministic for a fixed seed.

    Raises :class:`ConfigurationError` naming the model, before any fold
    starts, when a ``coxph`` model meets a dataset without feature columns.
    """
    models = list(models)
    if not models:
        raise ConfigurationError("need at least one model")
    names = _unique_names(models)
    if not ds.feature_names:
        for spec, name in zip(models, names):
            if spec.kind == "coxph":
                raise ConfigurationError(
                    f"model {name!r} needs at least one feature column; the dataset has none"
                )
    split = stratified_kfold(ds, k, seed)
    fold_curves = [MODEL_KINDS[spec.kind](spec.params) for spec in models]
    per_fold = {n: {met: [None] * k for met in METRICS} for n in names}
    t_max_all = float(ds.times[ds.events].max()) if ds.events.any() else None

    for f in range(k):
        test_idx = split.folds[f]
        train = ds.subset(split.train_indices(f))
        test = ds.subset(test_idx)
        ref = _reference(train, test, t_max_all)
        for m_idx, (curves_of, name) in enumerate(zip(fold_curves, names)):
            child_seed = int(np.random.SeedSequence((seed, f, m_idx)).generate_state(1)[0])
            curves = _attempt(curves_of, train, test, test_idx, child_seed)
            if curves is not None:
                for met, score in _score(curves, ref, pred_method).items():
                    per_fold[name][met][f] = score

    mean_scores = {
        n: {met: _mean_defined(rows) for met, rows in per_fold[n].items()} for n in names
    }

    true_means = {n: mean_scores[n]["true_mae"] for n in names}
    have_truth = all(v is not None for v in true_means.values())
    per_metric_rank, agreement = {}, {}
    for met in MAE_METRICS + ("true_mae",):
        present = {n: mean_scores[n][met] for n in names if mean_scores[n][met] is not None}
        if not present:
            continue
        per_metric_rank[met] = tuple(sorted(present, key=lambda n: (present[n], n)))
        if have_truth:
            truth = {n: true_means[n] for n in present}
            tau, overlap = rank_agreement(truth, present)
            gap = float(np.mean([abs(present[n] - truth[n]) for n in present]))
            agreement[met] = AgreementStats(tau, overlap, gap)
    return ExperimentReport(
        model_names=names,
        metric_names=METRICS,
        per_fold=per_fold,
        mean_scores=mean_scores,
        per_metric_rank=per_metric_rank,
        true_mae_rank=per_metric_rank.get("true_mae"),
        agreement=agreement,
    )
