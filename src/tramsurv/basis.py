"""Bernstein polynomial basis on scaled log-time.

The transformation functions express their time dependence through a
Bernstein expansion ``b_K(u)^T theta`` of order K at scaled log-time ``u``,
with increasing coefficients; its derivative is the order K - 1 form
``K b_{K-1}(u)^T diff(theta)`` (Farouki 2012), a sum of positive terms.  This
module provides both bases, the strictly increasing reparameterization of the
coefficients, which gives theta and its increments, and the affine scaler
that maps observed log-times onto [0, 1].
"""

from dataclasses import dataclass
import functools
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


@functools.cache
def _binomials(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns C(K, j) and K C(K - 1, j) = (K - j) C(K, j), the factors of b_K and K b_{K-1}."""
    whole = np.array([[math.comb(order, j)] for j in range(order + 1)], dtype=float)
    lowered = whole[:-1] * np.arange(order, 0, -1)[:, None]
    whole.flags.writeable = lowered.flags.writeable = False  # shared by every call
    return whole, lowered


def bernstein_vectors(order: int, u) -> tuple[np.ndarray, np.ndarray]:
    """The rows h and dh/du read: b_K(uc) and K b_{K-1}(uc), at u clipped to [0, 1].

    The arrays have trailing axes of length ``order + 1`` and ``order`` and,
    for u in [0, 1], satisfy

        h(u)      = basis . theta
        dh/du (u) = lower . diff(theta)

    With increasing theta every term of dh/du is positive.  Outside [0, 1]
    both are the nearest endpoint's: the caller extends h linearly from it,
    h(u) = h(uc) + (u - uc) dh/du (uc), which keeps the transformation
    monotone far beyond the observed time range.  The powers of uc and
    1 - uc are built by repeated multiplication on (k, n) tables; the results
    are C-contiguous (..., k) rows, and each row's numbers depend on its u
    alone.
    """
    if order < 1:
        raise InvalidOrder(f"Bernstein order must be >= 1, got {order}")
    u = np.asarray(u, dtype=float)
    uc = np.minimum(np.maximum(u.reshape(-1), 0.0), 1.0)
    # powers[0, k] = uc^k and powers[1, k] = (1 - uc)^k
    powers = np.empty((2, order + 1, uc.size))
    powers[:, 0] = 1.0
    powers[0, 1] = uc
    np.subtract(1.0, uc, out=powers[1, 1])
    for k in range(2, order + 1):
        np.multiply(powers[:, k - 1], powers[:, 1], out=powers[:, k])
    up, vp = powers
    whole, lowered = _binomials(order)
    basis = whole * up
    basis *= vp[::-1]
    lower = lowered * up[:order]
    lower *= vp[order - 1 :: -1]
    return (np.ascontiguousarray(basis.T).reshape(u.shape + (order + 1,)),
            np.ascontiguousarray(lower.T).reshape(u.shape + (order,)))


def monotone_reparam(gamma, tail=None) -> tuple[np.ndarray, np.ndarray]:
    """Map unconstrained gamma to a strictly increasing coefficient vector and its increments.

    The first entry passes through unchanged; each subsequent entry adds
    softplus of the corresponding gamma, so consecutive gaps are positive.
    Returns ``(theta, increments)``, where ``increments = softplus(gamma[..., 1:])``
    is ``diff(theta)`` before the cumulative sum rounds it.
    Operates on the last axis.  ``tail`` is ``softplus_tail(gamma[..., 1:])``
    when already computed; :func:`monotone_reparam_vjp` reads it too.
    """
    gamma = np.asarray(gamma, dtype=float)
    increments = softplus(gamma[..., 1:], tail)
    theta = np.empty_like(gamma)
    theta[..., 0] = gamma[..., 0]
    np.cumsum(increments, axis=-1, out=theta[..., 1:])
    theta[..., 1:] += gamma[..., :1]
    return theta, increments


def monotone_reparam_vjp(gamma, upstream, upstream_increments, tail=None) -> np.ndarray:
    """Chain gradients w.r.t. theta and its increments back through :func:`monotone_reparam`."""
    gamma = np.asarray(gamma, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    # reverse cumulative sum: d theta_k / d gamma_j is nonzero only for k >= j
    grad = np.empty_like(gamma)
    np.cumsum(upstream[..., ::-1], axis=-1, out=grad[..., ::-1])
    grad[..., 1:] += upstream_increments
    grad[..., 1:] *= sigmoid(gamma[..., 1:], tail)
    return grad
