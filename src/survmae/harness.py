"""Experiment harness: cross-validated scoring of models under every metric.

The harness exists to answer one question: which evaluation metric ranks
models the way the hidden true MAE would? It fits simple reference models
(or synthetic noisy oracles) across stratified folds, scores them with every
MAE variant plus the auxiliary metrics, and reports ranking agreement against
the true MAE whenever the dataset carries ground truth.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import CurveBatch, SurvivalDataset, _finite_real, _kind_row, stratified_kfold
from .core import _block_rows, _check_count, _check_seed, _read_rows, _split_csv, _write_columns
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
    _PROB_GRID,
    censoring_km_fit,
    cox_survival_curve,
    coxph_fit,
    km_fit,
    weibull_aft_fit,
)
from .mae import (
    _check_pred_method,
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
    _Summary,
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


def _valid_noise(noise) -> bool:
    """Whether ``noise`` keeps the noisy oracle's rule, ``_NOISE_RULE``; a
    bool or a string does not."""
    return isinstance(noise, numbers.Real) and _finite_real(noise) and noise >= 0


def _valid_path(path) -> bool:
    """Whether ``path`` may name a curve file: a string or path that is not
    empty (``Path("")`` is the working directory, ``.``)."""
    return isinstance(path, (str, os.PathLike)) and str(path) not in ("", ".")


@dataclass(frozen=True)
class _ModelKind:
    """A row of ``MODEL_KINDS``: a model kind, and the one param it may read."""

    spelling: str  # on the command line: the bare kind, or "<prefix>:<...>" setting the param
    # factory(param value) of the fold function ``(train, test, test_indices,
    # seed) -> CurveBatch``; it runs once per experiment, so a curve file is
    # read once
    fold_curves: Callable
    needs_feature: bool = False
    key: str | None = None  # the param's key in ``ModelSpec.params``, None for no param
    default: object = None  # the param's value when the key is absent
    valid: Callable | None = None  # value -> whether it keeps ``rule``
    rule: str = ""
    parse: Callable = str  # the command-line text after the prefix -> value
    base_name: Callable | None = None  # value -> the model's base name in a report

    @property
    def reads(self) -> tuple:
        return (self.key,) if self.key else ()

    def value(self, params):
        """The param's value in ``params``; None for a kind without one."""
        return params.get(self.key, self.default) if self.key else None


def _reference_model(kind):
    fit, predict = REFERENCE_MODELS[kind]
    return lambda _: lambda train, test, *_: predict(fit(train), test)


def _noisy_oracle(noise):
    noise = float(noise)
    return lambda train, test, _, seed: noisy_oracle_predictions(test, noise, seed)


def _external_curves(path):
    table = load_curve_file(path)
    return lambda train, test, test_indices, seed: table.select(test_indices)


# model kind -> its row; factories look functions up by global name when called
MODEL_KINDS = {
    "km": _ModelKind("km", _reference_model("km")),
    "coxph": _ModelKind("coxph", _reference_model("coxph"), needs_feature=True),
    "weibull_aft": _ModelKind("weibull_aft", _reference_model("weibull_aft")),
    "noisy_oracle": _ModelKind(
        "noisy:<sd>", _noisy_oracle, key="noise", default=0.0, valid=_valid_noise,
        rule=_NOISE_RULE, parse=float, base_name=lambda noise: f"noisy_{noise:g}",
    ),
    "external_curves": _ModelKind(
        "external:<path>", _external_curves, key="path", default="", valid=_valid_path,
        rule="path must name a curve file", base_name=lambda path: f"external_{Path(path).stem}",
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    """A model to evaluate: a reference fit, a noisy oracle, or external curves.

    ``noisy_oracle`` reads ``noise`` (default 0), a finite real number >= 0,
    and ``external_curves`` reads ``path``, a nonempty string or path; the
    other kinds read no params; None means no params. An unknown kind, params
    that are no mapping, a key the kind does not read or a value that breaks
    its rule raises :class:`ConfigurationError`.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        row, params = _kind_row("model", self.kind, self.params, MODEL_KINDS)
        object.__setattr__(self, "params", params)
        value = row.value(params)
        if row.key and not row.valid(value):
            spec = f"{row.spelling.partition(':')[0]}:{value}"
            raise ConfigurationError(f"model spec {spec!r}: {row.rule}")


def parse_model_spec(text: str) -> ModelSpec:
    """Parse CLI notation, the spelling of a ``MODEL_KINDS`` row: ``km``,
    ``coxph``, ``weibull_aft``, ``noisy:<sd>``, ``external:<path>``."""
    head, colon, rest = text.partition(":")
    for kind, row in MODEL_KINDS.items():
        if row.spelling.partition(":")[:2] == (head, colon):
            try:
                return ModelSpec(kind=kind, params={row.key: row.parse(rest)} if row.key else {})
            except ValueError:
                raise ConfigurationError(f"model spec {text!r}: {row.rule}") from None
    raise ConfigurationError(f"cannot parse model spec {text!r}")


_ORACLE_SHAPE = 2.0
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
    if not _valid_noise(noise):
        raise ValueError(_NOISE_RULE)
    rng = np.random.default_rng(_check_seed(seed))
    with np.errstate(over="ignore"):
        # abs: -0.0 keeps the rule, but numpy refuses a scale whose sign bit is set
        medians = ds_test.true_times * np.exp(rng.normal(0.0, abs(noise), ds_test.n))
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


def _uncovered(missing, count, n) -> ConfigurationError:
    """The error of a curve file that lacks ``count`` of ``n`` subjects,
    ``missing`` the first of them."""
    return ConfigurationError(
        f"curve file does not cover subjects {list(missing[:5])} ({count} missing of {n})"
    )


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
        """The batch of ``subjects``, in that order, a new batch of copied
        rows; all must be in the file."""
        subjects = [int(i) for i in subjects]
        missing = [i for i in subjects if i not in self._row]
        if missing:
            raise _uncovered(missing, len(missing), len(subjects))
        return self.batch.take([self._row[i] for i in subjects])


class _Subjects:
    """The subject indices of the curve file rows read so far: those below
    ``run``, given by the leading rows in order, and the set ``others``."""

    def __init__(self):
        self.run = 0
        self.others = set()

    def fault(self, indices):
        """Row of the first of ``indices``, the next rows' indices, that is
        negative or read before, or None; the rows before it count as read."""
        count = len(indices)
        if (
            not self.others
            and indices.dtype == np.int64
            and np.array_equal(indices, np.arange(self.run, self.run + count))
        ):
            self.run += count
            return None
        for row, i in enumerate(indices.tolist()):
            if i < 0 or i < self.run or i in self.others:
                return row
            if i == self.run:
                self.run += 1
            else:
                self.others.add(i)
        return None


def _checked_rows(grid, indices, table, lines, subjects) -> CurveBatch:
    """The batch of a block of curve file rows (``indices``, their values
    led by ones in ``table`` and their file ``lines``) on ``grid``. Its rows
    end at the first index that is negative or repeats one of ``subjects``,
    a failure of its line; a bad curve on a line before it is the first
    error. The batch adopts ``table``."""
    fault = subjects.fault(indices)
    try:
        batch = CurveBatch._adopt(grid, table[: len(indices) if fault is None else fault])
    except InvalidCurveError as exc:
        raise DataFormatError(f"line {lines[exc.row]}: {exc.reason}") from None
    if fault is not None:
        i = indices[fault]
        reason = f"subject index must be >= 0, got {i}" if i < 0 else f"duplicate subject index {i}"
        raise DataFormatError(f"line {lines[fault]}: {reason}")
    return batch


# cells per block of curve file rows that evaluate_dataset reads, checks and
# adds to a summary at once. Over the 8 measured eval_file instances (1000
# subjects x 100 grid times) on a 2-vCPU host, blocks of 2**14, 2**15 and
# 2**16 cells peaked at 40.8, 40.9 and 41.3 MB resident after one pass,
# against 41.7 MB with the file's table held, and took a median 16.0, 15.1
# and 14.7 ms an iteration, against 16.1 ms
_CURVE_BLOCK_CELLS = 1 << 15


def _curve_blocks(path, cells=None):
    """The rows of the curve file at ``path``, yielded as checked blocks
    ``(indices, batch)`` of about ``cells`` cells each, or as one block
    without ``cells``: the rules and errors of :func:`load_curve_file`.
    Every block must be taken: the line reader's error, if it met one, is
    raised after the last."""
    path = Path(path)
    with path.open("rb") as fh:
        header, start, head, text = _split_csv(fh, path)
        if not header or header[0].strip() != "t":
            raise DataFormatError(f"{path}: first header field must be 't'")
        try:
            grid = np.array([float(v) for v in header[1:]], dtype=float)
        except ValueError:
            raise DataFormatError(f"{path}: non-numeric grid time in header") from None
        try:
            CurveBatch(knots=grid, values=np.ones((1, grid.size)))
        except ValueError as exc:  # InvalidCurveError, or no grid time at all
            raise DataFormatError(f"line 1: {getattr(exc, 'reason', exc)}") from None

        def parse(row, line):
            try:
                idx = int(row[0])
            except ValueError:
                try:
                    float(row[0])
                except ValueError:
                    raise DataFormatError(f"line {line}: non-numeric field") from None
                raise DataFormatError(
                    f"line {line}: subject index must be an integer, got {row[0]!r}"
                ) from None
            try:
                values = np.fromiter(map(float, row[1:]), dtype=float, count=grid.size)
            except ValueError:
                raise DataFormatError(f"line {line}: non-numeric field") from None
            return idx, values

        width = grid.size + 1
        rows = None if cells is None else _block_rows(width, cells)
        subjects = _Subjects()
        for indices, table, lines in _read_rows(fh, head, text, start, width, parse, True, rows):
            yield indices, _checked_rows(grid, indices, table, lines, subjects)


def load_curve_file(path) -> CurveTable:
    """Read a curve file: header ``t,<grid times>``, rows ``<index>,<values>``.

    Returns a :class:`CurveTable` mapping subject index to curve on the shared
    grid. The grid is checked as a row of knots first (a fault of line 1);
    the curve rules are checked on all rows at once; every error names the
    first bad line. A subject index is a nonnegative integer, given once.

    The file is read once, as bytes, in chunks, so it may be a pipe, and is
    read as :func:`~survmae.core.load_dataset` reads a CSV file: a leading
    UTF-8 byte-order mark is dropped, the rows of a valid file are parsed
    from the bytes, chunk by chunk, by orjson's exact number parser, and from
    the first chunk that is not plain numbers the rest of the file is
    decoded and parsed line by line.
    """
    for indices, batch in _curve_blocks(path):
        curves = CurveTable(indices.tolist(), batch)
    return curves


def save_curve_file(path, grid, value_rows, indices=None) -> None:
    """Write curves sharing ``grid`` in the format :func:`load_curve_file` reads.

    ``value_rows`` is one row of ``len(grid)`` values per curve, and
    ``indices`` (default ``0, 1, ...``) one subject index per row, written
    as ``str(int(index))``. A grid that is not 1-d, a value matrix that is
    not 2-d or not ``len(grid)`` wide, an index count other than the row
    count or a negative index raises ``ValueError`` before the file is
    opened.
    """
    grid = np.asarray(grid, dtype=float)
    value_rows = np.asarray(value_rows, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"grid must be 1-d, got {grid.ndim} dimensions")
    if value_rows.ndim != 2 or value_rows.shape[1] != grid.size:
        raise ValueError(
            f"value_rows has shape {value_rows.shape}, expected (rows, {grid.size}):"
            " one value per grid time"
        )
    n = value_rows.shape[0]
    index = [int(i) for i in (range(n) if indices is None else indices)]
    if len(index) != n:
        raise ValueError(f"{len(index)} indices for {n} value rows")
    negative = [i for i in index if i < 0]
    if negative:
        raise ValueError(f"subject index must be >= 0, got {negative[0]}")
    _write_columns(
        path,
        ["t"] + [repr(t) for t in grid.tolist()],
        [np.array([str(i) for i in index], dtype=object), *value_rows.T],
    )


@dataclass(frozen=True)
class AgreementStats:
    """How closely a metric's model ranking tracks the true MAE ranking."""

    kendall_tau: float
    top3_overlap: int
    mean_abs_gap: float


def _finite_or_none(value):
    """``value`` as a float for JSON, or None when it is None, NaN or infinite."""
    return None if value is None or not math.isfinite(value) else float(value)


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
        return {
            "models": list(self.model_names),
            "metrics": list(self.metric_names),
            "per_fold": {
                m: {met: [_finite_or_none(v) for v in rows] for met, rows in d.items()}
                for m, d in self.per_fold.items()
            },
            "mean_scores": {
                m: {met: _finite_or_none(v) for met, v in d.items()}
                for m, d in self.mean_scores.items()
            },
            "per_metric_rank": {
                met: list(order) for met, order in self.per_metric_rank.items()
            },
            "true_mae_rank": list(self.true_mae_rank) if self.true_mae_rank else None,
            "agreement": {
                met: {
                    "kendall_tau": _finite_or_none(a.kendall_tau),
                    "top3_overlap": a.top3_overlap,
                    "mean_abs_gap": _finite_or_none(a.mean_abs_gap),
                }
                for met, a in self.agreement.items()
            },
        }


def _top3(scores: dict) -> set:
    ordered = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    return {name for name, _ in ordered[:3]}


def _kendall_tau_b(x, y) -> float:
    """Kendall's tau-b of two equal-length score lists.

    Counts every pair once with integer counts and returns
    ``(concordant - discordant) / sqrt(tot - x_ties) / sqrt(tot - y_ties)``
    clipped to [-1, 1], in the order of operations of the usual reference
    implementation, which the tests check it against bit for bit. NaN when
    either list holds a NaN or is tied throughout.
    """
    x = np.asarray(x, dtype=float).tolist()
    y = np.asarray(y, dtype=float).tolist()
    if any(map(math.isnan, x)) or any(map(math.isnan, y)):
        return float("nan")
    tot = con_minus_dis = x_ties = y_ties = 0
    for i, (xi, yi) in enumerate(zip(x, y)):
        for xj, yj in zip(x[i + 1 :], y[i + 1 :]):
            # comparisons, not differences: inf - inf is NaN
            sign_x = (xi > xj) - (xi < xj)
            sign_y = (yi > yj) - (yi < yj)
            tot += 1
            x_ties += not sign_x
            y_ties += not sign_y
            con_minus_dis += sign_x * sign_y
    if x_ties == tot or y_ties == tot:
        return float("nan")
    tau = con_minus_dis / math.sqrt(tot - x_ties) / math.sqrt(tot - y_ties)
    return min(1.0, max(-1.0, tau))


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
        row = MODEL_KINDS[spec.kind]
        base = row.base_name(row.value(spec.params)) if row.key else spec.kind
        name, bump = base, 2
        while name in names:
            name, bump = f"{base}_{bump}", bump + 1
        names.append(name)
    return tuple(names)


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


def _score(summary: _Summary, ref: _Reference) -> dict:
    """Every metric of the curves of ``summary`` on ``ref.test``; None where
    undefined."""
    predictions = summary.predictions
    preds = _attempt(extract_predicted_times, predictions, predictions.method)
    scores = {}
    with warnings.catch_warnings():
        # log_likelihood warns of its -inf, which is a score like any other
        warnings.simplefilter("ignore", DegenerateScoreWarning)
        for table, arg in ((_PREDICTION_METRICS, preds), (_CURVE_METRICS, summary)):
            for met, scorer in table.items():
                scores[met] = None if arg is None else _attempt(scorer, arg, ref)
    return scores


def evaluate_dataset(ds: SurvivalDataset, curves, pred_method: str = "median") -> dict:
    """Score one set of per-subject curves on one dataset, no folds.

    ``curves`` is a :class:`CurveBatch`, a sequence of ``StepCurve`` or the
    path (``os.PathLike``) of a curve file, read by the rules of
    :func:`load_curve_file` in blocks of rows that go into the scores'
    summary at their subjects as they are read, in any row order, so that
    its table is never held; rows of subjects past the dataset's are
    dropped, and the file must cover the dataset's subjects
    (``ConfigurationError`` otherwise, after the file's own errors).
    Reference quantities (KM curve, censoring KM, calibration
    horizon) come from the dataset itself. Returns a metric-name to score
    map with None for undefined entries; ``true_mae`` appears only when
    ground truth is present. A wrong curve count or ``pred_method`` raises
    :class:`ConfigurationError`.
    """
    from_file = isinstance(curves, os.PathLike)
    if not from_file:
        _check_count(len(curves), ds.n, "curves", ConfigurationError)
    _check_pred_method(pred_method)
    batch = None if from_file else CurveBatch.from_curves(curves)
    ref = _reference(ds, ds, None)
    summary = _Summary(ds, pred_method, ref.t_star, ref.ibs_weights)
    if batch is None:
        for indices, block in _curve_blocks(curves, _CURVE_BLOCK_CELLS):
            ours = np.flatnonzero(indices < ds.n)
            summary.add(block if ours.size == len(block) else block.take(ours), indices[ours])
        missing = np.flatnonzero(~summary.seen)
        if missing.size:
            raise _uncovered(missing[:5].tolist(), missing.size, ds.n)
    else:
        summary.add(batch, slice(None))
    scores = _score(summary, ref)
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

    Raises :class:`ConfigurationError`, before any fold starts, for an
    unknown ``pred_method`` or, on a dataset without features, a model whose
    kind needs one (``coxph``).
    """
    _check_pred_method(pred_method)
    models = list(models)
    if not models:
        raise ConfigurationError("need at least one model")
    names = _unique_names(models)
    kind_rows = [MODEL_KINDS[spec.kind] for spec in models]
    if not ds.feature_names:
        for row, name in zip(kind_rows, names):
            if row.needs_feature:
                raise ConfigurationError(
                    f"model {name!r} needs at least one feature column; the dataset has none"
                )
    split = stratified_kfold(ds, k, seed)
    fold_curves = [row.fold_curves(row.value(spec.params)) for row, spec in zip(kind_rows, models)]
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
                summary = _Summary(test, pred_method, ref.t_star, ref.ibs_weights)
                summary.add(curves, slice(None))
                for met, score in _score(summary, ref).items():
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
