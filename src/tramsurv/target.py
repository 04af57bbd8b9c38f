"""Parameter-free target distributions on the transformed scale.

The model maps time onto this scale through a monotone transformation; the
target family then fixes the conditional CDF.  Two families are supported:
the standard logistic, and the minimum extreme value (Gompertz) distribution
F(z) = 1 - exp(-exp(z)).

All log-quantities are computed in log-space-safe form; in particular the
survivor functions are evaluated directly rather than as 1 - cdf.
"""

from enum import Enum

import numpy as np

from .errors import ProbabilityOutOfRange
from .numerics import sigmoid, softplus

_MEV_CLIP = 700.0  # exp overflows just above 709; the CDF is 1 long before


class TargetFamily(str, Enum):
    LOGISTIC = "logistic"
    MEV = "minimum_extreme_value"


def _mev_w(z):
    # w = exp(z), clipped above so downstream exp/expm1 stay finite
    return np.exp(np.minimum(z, _MEV_CLIP))


def cdf(family: TargetFamily, z):
    z = np.asarray(z, dtype=float)
    if family == TargetFamily.LOGISTIC:
        return sigmoid(z)
    return -np.expm1(-_mev_w(z))


def survivor(family: TargetFamily, z):
    z = np.asarray(z, dtype=float)
    if family == TargetFamily.LOGISTIC:
        return sigmoid(-z)
    return np.exp(-_mev_w(z))


def log_cdf(family: TargetFamily, z):
    z = np.asarray(z, dtype=float)
    if family == TargetFamily.LOGISTIC:
        return -softplus(-z)
    w = _mev_w(z)
    # below the clip threshold log F(z) ~ z to double precision
    return np.where(z < -_MEV_CLIP, z, np.log(-np.expm1(-np.maximum(w, 5e-324))))


def log_survivor(family: TargetFamily, z):
    z = np.asarray(z, dtype=float)
    if family == TargetFamily.LOGISTIC:
        return -softplus(z)
    return -_mev_w(z)


def log_density(family: TargetFamily, z):
    z = np.asarray(z, dtype=float)
    if family == TargetFamily.LOGISTIC:
        return -softplus(z) - softplus(-z)
    return z - _mev_w(z)


def density(family: TargetFamily, z):
    return np.exp(log_density(family, z))


def quantile(family: TargetFamily, p):
    """Inverse CDF; p must lie strictly inside (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(~((p > 0.0) & (p < 1.0))):
        raise ProbabilityOutOfRange("quantile requires probabilities in (0, 1)")
    if family == TargetFamily.LOGISTIC:
        return np.log(p) - np.log1p(-p)
    return np.log(-np.log1p(-p))


def censored_nll(family: TargetFamily, z: np.ndarray, exact: np.ndarray, left=None):
    """Per-row negative log-likelihood on the transformed scale, and its z-derivative.

    A row of the mask ``exact`` gets -log f_Z(z), a row of the mask ``left``
    (None when no row is left-censored) -log F_Z(z), and every other row
    -log S_Z(z).  The shared subexpressions are computed once for all rows:
    w = exp(min(z, 700)) for MEV, log1p(exp(-|z|)) for the logistic family.
    Each value equals the negated ``log_density``, ``log_cdf`` or
    ``log_survivor`` bit for bit.
    """
    if family == TargetFamily.LOGISTIC:
        tail = np.log1p(np.exp(-np.abs(z)))
        neg_log_s, neg_log_f = np.maximum(z, 0.0) + tail, np.maximum(-z, 0.0) + tail  # softplus
        cdf_z = np.exp(-neg_log_f)
        nll = np.where(exact, neg_log_s + neg_log_f, neg_log_s)
        dz = np.where(exact, -(1.0 - 2.0 * cdf_z), cdf_z)
        if left is not None:
            nll = np.where(left, neg_log_f, nll)
            dz = np.where(left, -np.exp(-neg_log_s), dz)
        return nll, dz
    w = _mev_w(z)
    nll = np.where(exact, w - z, w)
    dz = np.where(exact, -(1.0 - w), w)
    if left is not None:
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = -np.exp(z - w) / (-np.expm1(-w))
        # deep in the left tail density/CDF -> 1; the direct ratio underflows 0/0
        nll = np.where(left, -log_cdf(family, z), nll)
        dz = np.where(left, np.where(z < -_MEV_CLIP / 2, -1.0, ratio), dz)
    return nll, dz
