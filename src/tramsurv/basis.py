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


def _polynomials(order: int, u_k: np.ndarray, v_k: np.ndarray) -> np.ndarray:
    """All order+1 Bernstein polynomials of an order, from tables of u^k and (1 - u)^k."""
    coef = np.array([math.comb(order, j) for j in range(order + 1)], dtype=float)
    return coef * u_k[..., : order + 1] * v_k[..., order::-1]


def bernstein_vectors(order: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Basis and derivative coefficient vectors with linear out-of-range extension.

    For u outside [0, 1] the expansion ``b(u)^T theta`` is extended linearly
    from the nearest endpoint using the endpoint slope, which keeps the
    transformation monotone far beyond the observed time range.  Both returned
    arrays have a trailing axis of length ``order + 1`` and satisfy

        h(u)      = basis  . theta
        dh/du (u) = dbasis . theta

    exactly, including in the extension region.  The derivative lowers the
    order by one, so both orders read one table of powers.
    """
    if order < 1:
        raise InvalidOrder(f"Bernstein order must be >= 1, got {order}")
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, 1.0)
    k = np.arange(order + 1)
    u_k, v_k = uc[..., None] ** k, (1.0 - uc[..., None]) ** k
    basis = _polynomials(order, u_k, v_k)
    lower = order * _polynomials(order - 1, u_k, v_k)
    dbasis = np.zeros(basis.shape)
    dbasis[..., 1:] += lower
    dbasis[..., :-1] -= lower
    # inside [0, 1] the correction term is zero; outside it adds
    # (u - endpoint) * endpoint-slope, linear in theta.
    basis = basis + (u - uc)[..., None] * dbasis
    return basis, dbasis


def monotone_reparam(gamma, tail=None) -> np.ndarray:
    """Map unconstrained gamma to a strictly increasing coefficient vector.

    The first entry passes through unchanged; each subsequent entry adds
    softplus of the corresponding gamma, so consecutive gaps are positive.
    Operates on the last axis.  ``tail`` is ``softplus_tail(gamma[..., 1:])``
    when already computed; :func:`monotone_reparam_vjp` reads it too.
    """
    gamma = np.asarray(gamma, dtype=float)
    theta = np.empty_like(gamma)
    theta[..., 0] = gamma[..., 0]
    np.cumsum(softplus(gamma[..., 1:], tail), axis=-1, out=theta[..., 1:])
    theta[..., 1:] += gamma[..., :1]
    return theta


def monotone_reparam_vjp(gamma, upstream, tail=None) -> np.ndarray:
    """Chain a gradient w.r.t. theta back through :func:`monotone_reparam`."""
    gamma = np.asarray(gamma, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    # reverse cumulative sum: d theta_k / d gamma_j is nonzero only for k >= j
    grad = np.empty_like(gamma)
    np.cumsum(upstream[..., ::-1], axis=-1, out=grad[..., ::-1])
    grad[..., 1:] *= sigmoid(gamma[..., 1:], tail)
    return grad
