"""Overflow-safe elementwise helpers shared across modules."""

import numpy as np


def _as_float(z):
    z = np.asarray(z, dtype=float)
    return z, z.ndim == 0


def softplus_tail(z):
    """log1p(exp(-|z|)), the term :func:`softplus` and :func:`sigmoid` of z share."""
    return np.log1p(np.exp(-np.abs(z)))


def softplus(z, tail=None):
    """log(1 + exp(z)) computed as max(z, 0) + log1p(exp(-|z|)).

    ``tail`` is ``softplus_tail(z)``, computed here when not given; :func:`sigmoid`
    takes the same.
    """
    z, scalar = _as_float(z)
    out = np.maximum(z, 0.0) + (softplus_tail(z) if tail is None else tail)
    return float(out) if scalar else out


def softplus_inv(y):
    """Inverse of softplus on y > 0: y + log(-expm1(-y))."""
    y, scalar = _as_float(y)
    if np.any(y <= 0.0):
        raise ValueError("softplus_inv requires positive input")
    out = y + np.log(-np.expm1(-y))
    return float(out) if scalar else out


def sigmoid(z, tail=None):
    """Logistic function, stable for large |z|: exp(-softplus(-z)), as exp(min(z, 0) - tail).

    ``tail`` is ``softplus_tail(z)``, computed here when not given.
    """
    z, scalar = _as_float(z)
    out = np.exp(np.minimum(z, 0.0) - (softplus_tail(z) if tail is None else tail))
    return float(out) if scalar else out


def logsumexp(a, axis=None):
    a = np.asarray(a, dtype=float)
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out
