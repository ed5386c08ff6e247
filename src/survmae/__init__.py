"""Evaluation toolkit for time-to-event models under right censoring.

The package centers on the censored MAE family: six estimators of the mean
absolute error of survival-time predictions that handle censored subjects by
dropping, bounding, reweighting, or imputing them. Around that sit the
supporting estimators (Kaplan-Meier, Cox PH, Weibull AFT), auxiliary metrics
(concordance, Brier scores, likelihood, calibration), a semi-synthetic
censoring pipeline that keeps hidden ground truth, and an experiment harness
that measures how faithfully each metric ranks models against the true MAE.
"""

from .core import (
    CurveBatch,
    DatasetStats,
    FoldSplit,
    StepCurve,
    SurvivalDataset,
    SurvivalRecord,
    dataset_stats,
    load_dataset,
    save_dataset,
    stratified_kfold,
)
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
    CoxModel,
    CumulativeHazard,
    KaplanMeierFit,
    WeibullAFTModel,
    breslow_baseline,
    censoring_km_fit,
    cox_survival_curve,
    coxph_fit,
    km_fit,
    model_from_json,
    model_to_json,
    weibull_aft_fit,
)
from .harness import (
    AgreementStats,
    CurveTable,
    ExperimentReport,
    ModelSpec,
    evaluate_dataset,
    load_curve_file,
    noisy_oracle_predictions,
    parse_model_spec,
    rank_agreement,
    run_experiment,
    save_curve_file,
)
from .mae import (
    PredictedTimes,
    SurrogateSet,
    extract_predicted_times,
    ipcw_t_surrogates,
    mae_hinge,
    mae_ipcw_d,
    mae_ipcw_t,
    mae_margin,
    mae_po,
    mae_pop_po,
    mae_uncensored,
    margin_surrogates,
    pop_po_surrogates,
    pseudo_obs_surrogates,
    true_mae,
    weighted_mae,
)
from .metrics import (
    CalibrationResult,
    brier_score_at,
    comparable_pair_ratio,
    concordance_index,
    d_calibration,
    integrated_brier_score,
    log_likelihood,
    one_calibration,
)
from .synth import (
    CENSORING_KINDS,
    CensoringSpec,
    ExternalCensoringRef,
    apply_censoring,
    flip_censor_bits,
    keep_uncensored,
    make_semi_synthetic,
    sample_censor_times,
)

__version__ = "0.1.0"
