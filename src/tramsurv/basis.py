"""Bernstein polynomial basis on scaled log-time.

The transformation functions express their time dependence through a
Bernstein expansion ``b(u)^T theta`` of order K evaluated at scaled log-time
``u``.  This module provides the basis and its derivative, the strictly
increasing reparameterization of the coefficient vector, and the affine
scaler that maps observed log-times onto [0, 1].
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import InvalidOrder
from .numerics import sigmoid, softplus


@dataclass(frozen=True)
class LogTimeScaler:
    """Affine map of log-time onto [0, 1] over the observed range."""

    a_lo: float
    b_hi: float

    @property
    def span(self) -> float:
        return self.b_hi - self.a_lo

    def scale(self, u):
        return (np.asarray(u, dtype=float) - self.a_lo) / self.span


def fit_scaler(dataset) -> LogTimeScaler:
    """Fit the log-time scaler to the finite observation times of a dataset.

    The range is [min log t, max log t].  A degenerate range (all times
    identical) is resolved by widening to +-0.5 around the common value.
    """
    lower, upper = dataset.t_lower, dataset.t_upper
    times = np.concatenate([lower, upper[np.isfinite(upper) & (upper != lower)]])
    # math.log keeps the endpoints bitwise equal to the log of each time;
    # np.log may differ in the last place.
    lo, hi = math.log(times.min()), math.log(times.max())
    if hi == lo:
        return LogTimeScaler(a_lo=lo - 0.5, b_hi=hi + 0.5)
    return LogTimeScaler(a_lo=lo, b_hi=hi)


def _basis_matrix(order: int, u: np.ndarray) -> np.ndarray:
    """All order+1 Bernstein polynomials of a given order at points u."""
    k = np.arange(order + 1)
    coef = np.array([math.comb(order, int(j)) for j in k], dtype=float)
    u = u[..., None]
    return coef * u**k * (1.0 - u) ** (order - k)


def _deriv_vectors(order: int, u: np.ndarray) -> np.ndarray:
    """Coefficient vectors c(u) with d/du [b(u)^T theta] = c(u)^T theta."""
    lower = _basis_matrix(order - 1, u)
    out = np.zeros(u.shape + (order + 1,))
    out[..., 1:] += order * lower
    out[..., :-1] -= order * lower
    return out


def bernstein_vectors(order: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Basis and derivative coefficient vectors with linear out-of-range extension.

    For u outside [0, 1] the expansion ``b(u)^T theta`` is extended linearly
    from the nearest endpoint using the endpoint slope, which keeps the
    transformation monotone far beyond the observed time range.  Both returned
    arrays have a trailing axis of length ``order + 1`` and satisfy

        h(u)      = basis  . theta
        dh/du (u) = dbasis . theta

    exactly, including in the extension region.
    """
    if order < 1:
        raise InvalidOrder(f"Bernstein order must be >= 1, got {order}")
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, 1.0)
    basis = _basis_matrix(order, uc)
    dbasis = _deriv_vectors(order, uc)
    # inside [0, 1] the correction term is zero; outside it adds
    # (u - endpoint) * endpoint-slope, linear in theta.
    basis = basis + (u - uc)[..., None] * dbasis
    return basis, dbasis


def monotone_reparam(gamma) -> np.ndarray:
    """Map unconstrained gamma to a strictly increasing coefficient vector.

    The first entry passes through unchanged; each subsequent entry adds
    softplus of the corresponding gamma, so consecutive gaps are positive.
    Operates on the last axis.
    """
    gamma = np.asarray(gamma, dtype=float)
    theta = np.empty_like(gamma)
    theta[..., 0] = gamma[..., 0]
    theta[..., 1:] = gamma[..., :1] + np.cumsum(softplus(gamma[..., 1:]), axis=-1)
    return theta


def monotone_reparam_vjp(gamma, upstream) -> np.ndarray:
    """Chain a gradient w.r.t. theta back through :func:`monotone_reparam`."""
    gamma = np.asarray(gamma, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    # reverse cumulative sum: d theta_k / d gamma_j is nonzero only for k >= j
    tail = np.cumsum(upstream[..., ::-1], axis=-1)[..., ::-1]
    grad = np.empty_like(gamma)
    grad[..., 0] = tail[..., 0]
    grad[..., 1:] = sigmoid(gamma[..., 1:]) * tail[..., 1:]
    return grad
