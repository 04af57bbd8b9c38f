"""Exception hierarchy with stable machine-readable error codes.

Every error raised by this package derives from :class:`TramsurvError` and
carries a ``code`` attribute that is stable across releases, so callers (and
the CLI's ``error.json``) can dispatch on it without parsing messages.
"""

import math
from numbers import Integral, Real


class TramsurvError(Exception):
    code = "E_GENERIC"


# -- dataset validation -------------------------------------------------------

class NonPositiveTime(TramsurvError):
    code = "E_NON_POSITIVE_TIME"


class InvertedInterval(TramsurvError):
    code = "E_INVERTED_INTERVAL"


class RaggedCovariates(TramsurvError):
    code = "E_RAGGED_COVARIATES"


class NonFiniteCovariate(TramsurvError):
    code = "E_NON_FINITE_COVARIATE"


class EmptyDataset(TramsurvError):
    code = "E_EMPTY_DATASET"


class AllCensored(TramsurvError):
    code = "E_ALL_CENSORED"


# -- model artifacts ----------------------------------------------------------

class MalformedArtifact(TramsurvError):
    code = "E_MALFORMED_ARTIFACT"


class SchemaVersionMismatch(TramsurvError):
    code = "E_SCHEMA_VERSION_MISMATCH"


# -- basis / target -----------------------------------------------------------

class InvalidOrder(TramsurvError):
    code = "E_INVALID_ORDER"


class ProbabilityOutOfRange(TramsurvError):
    code = "E_PROBABILITY_OUT_OF_RANGE"


# -- feature extractor / transformation ---------------------------------------

class DimensionMismatch(TramsurvError):
    code = "E_DIMENSION_MISMATCH"


# -- training -----------------------------------------------------------------

class NonFiniteLoss(TramsurvError):
    code = "E_NON_FINITE_LOSS"


# -- scoring ------------------------------------------------------------------

class NoComparablePairs(TramsurvError):
    code = "E_NO_COMPARABLE_PAIRS"


class UnsupportedCensoringKind(TramsurvError):
    code = "E_UNSUPPORTED_CENSORING_KIND"


class QuadratureNonConvergence(TramsurvError):
    code = "E_QUADRATURE_NON_CONVERGENCE"


class BisectionNonConvergence(TramsurvError):
    """A quantile target lies beyond a zero slope, or its Newton solve ran out of steps."""

    code = "E_BISECTION_NON_CONVERGENCE"


# -- sampling -----------------------------------------------------------------

class SchemaMismatch(TramsurvError):
    code = "E_SCHEMA_MISMATCH"


# -- CLI / data files ---------------------------------------------------------

class MissingColumn(TramsurvError):
    code = "E_MISSING_COLUMN"


class BadStatusValue(TramsurvError):
    code = "E_BAD_STATUS_VALUE"


class NonNumericCovariate(TramsurvError):
    code = "E_NON_NUMERIC_COVARIATE"


class DataNotFound(TramsurvError):
    code = "E_DATA_NOT_FOUND"


class ModelNotFound(TramsurvError):
    code = "E_MODEL_NOT_FOUND"


class BadConfig(TramsurvError, ValueError):
    """A configuration value out of its range or of the wrong type."""

    code = "E_BAD_CONFIG"


def is_finite_real(value) -> bool:
    """Whether a setting is a real number, not a bool, that is finite as a float."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def require_int(name: str, value, minimum: int):
    """Raise :class:`BadConfig` unless ``value`` is an integer, not a bool, of at least ``minimum``.

    A float is rejected even when integral: an integer setting is never rounded.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise BadConfig(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise BadConfig(f"{name} must be >= {minimum}, got {value!r}")


def require_type(name: str, value, cls: type):
    """Raise :class:`BadConfig` unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise BadConfig(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


class DegenerateIntervalWarning(RuntimeWarning):
    """Interval observation whose CDF difference rounds to zero or below.

    The likelihood contribution is clamped instead of raising; this warning
    reports the affected observations.
    """
