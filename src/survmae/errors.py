"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "BinningError",
    "ConfigurationError",
    "ConvergenceError",
    "DataFormatError",
    "DegenerateCurveError",
    "DegenerateScoreWarning",
    "InsufficientEventsError",
    "InvalidCurveError",
    "MissingGroundTruthError",
    "SeparationError",
    "UndefinedMetricError",
]


class DataFormatError(ValueError):
    """A data file could not be parsed; the message names the offending line."""


class InvalidCurveError(ValueError):
    """A row of a curve batch breaks a curve rule. Carries the row and the bare reason."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class InsufficientEventsError(ValueError):
    """Too few uncensored subjects for the requested computation."""


class DegenerateCurveError(ValueError):
    """A survival curve does not support the requested summary (e.g. it never descends)."""


class UndefinedMetricError(ValueError):
    """A metric has no defined value on this input (empty numerator, all weights zero, ...)."""


class MissingGroundTruthError(ValueError):
    """An operation needs hidden true event times that the dataset does not carry."""


class ConfigurationError(ValueError):
    """Invalid run configuration (bad fold count, missing auxiliary model, unknown kind)."""


class BinningError(ValueError):
    """A calibration binning produced an unusable layout (e.g. an empty bin)."""


class ConvergenceError(RuntimeError):
    """An iterative fit failed to converge. Carries the last iterate for diagnosis."""

    def __init__(self, message: str, last_params=None):
        super().__init__(message)
        self.last_params = last_params


class SeparationError(RuntimeError):
    """A proportional-hazards fit diverged because a covariate separates the risk order."""


class DegenerateScoreWarning(UserWarning):
    """A score became degenerate (negative infinity) due to zero density or survival mass."""
