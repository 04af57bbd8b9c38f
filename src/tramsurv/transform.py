"""Monotone transformations of time and the conditional distributions they induce.

Every parameterization is one form, strictly increasing in t,

    h(t | x_i) = s_i * b(u)^T theta_i + c_i + m_i * log t,

with b the Bernstein basis at the scaled log-time u, extended linearly
outside the training range, and F(t | x) = F_Z(h(t | x)).  ``coefficients``
maps the head and each subject's features to (theta, s, c, m);
``eval_transform`` evaluates the form and dh/dlog t at log-times.  Each has a
hand-written pullback, and training composes the two.  A distribution holds
its subjects' coefficients, computed once.  Quantiles invert h = F_Z^{-1}(p)
in log-time: in closed form for the linear parameterizations and on the
affine Bernstein tails, by bracketed Newton steps inside the training range.

Every number a subject gets at inference depends on its row alone: features
come from ``feature.features``, which multiplies row by row, and every
row-wise contraction here is ``_rowdot``, one BLAS dot per row whatever the
batch size.  A quantile's Newton path, and so its root, is then the same bits
alone, in a batch, or permuted.  Sums over rows (the pullbacks' gradients)
stay matrix products.
"""

from functools import partial
from typing import NamedTuple

import numpy as np

from . import feature, target
from .basis import LogTimeScaler, bernstein_vectors, monotone_reparam, monotone_reparam_vjp
from .core import FittedModel, ModelSpec, Parameterization
from .errors import BisectionNonConvergence, DimensionMismatch
from .numerics import sigmoid, softplus, softplus_inv


def head_size(spec: ModelSpec) -> int:
    """Length of the flat head vector.

    Its layout, in storage order (``k`` = order + 1, ``d`` = extractor output
    dimension): baseline ``gamma[k]``; linear_shift ``a, b_raw, w[d]``;
    linear_scale ``a, w[d]``; bernstein_shift ``gamma[k], w[d]``;
    bernstein_shift_scale ``gamma[k], w[d], beta[d]``; bernstein_flexible
    nothing, since all its parameters live in the extractor.
    """
    k = spec.bernstein_order + 1
    d = spec.extractor.output_dim if spec.extractor is not None else 0
    return {
        Parameterization.BASELINE: k,
        Parameterization.LINEAR_SHIFT: 2 + d,
        Parameterization.LINEAR_SCALE: 1 + d,
        Parameterization.BERNSTEIN_SHIFT: k + d,
        Parameterization.BERNSTEIN_SHIFT_SCALE: k + 2 * d,
        Parameterization.BERNSTEIN_FLEXIBLE: 0,
    }[spec.parameterization]


def init_head(spec: ModelSpec) -> np.ndarray:
    """Deterministic head initialization as a flat vector.

    The scale parameter starts at softplus(b_raw) = 1, shifts at zero, and
    the Bernstein coefficients spread evenly over [-2, 2] so the initial
    transformation maps the observed range onto the bulk of the target
    distribution.
    """
    k = spec.bernstein_order
    head = np.zeros(head_size(spec))
    p = spec.parameterization
    if p == Parameterization.LINEAR_SHIFT:
        head[1] = softplus_inv(1.0)
    elif spec.uses_basis and p != Parameterization.BERNSTEIN_FLEXIBLE:
        head[: k + 1] = softplus_inv(4.0 / k)
        head[0] = -2.0
    return head


def _rowdot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One BLAS dot per row of ``a`` with ``v`` (a vector, or a matrix paired row by row).

    ``a @ v`` would take gemv for several rows, whose rounding depends on the
    row count; this gives a row the same bits in any batch.
    """
    return np.vecdot(a, v)


class Coefficients(NamedTuple):
    """The coefficients of h(t | x) = s * b(u)^T theta + c + m * log t.

    A field holds one value for every row, or one per row on a leading axis:
    ``theta`` is (k,) or (n, k); ``s``, ``c`` and ``m`` are scalars or (n,).
    ``theta`` is None for the linear parameterizations (s = 0), ``m`` for the
    Bernstein ones (m = 0).
    """

    theta: np.ndarray | None
    s: np.ndarray | float
    c: np.ndarray | float
    m: np.ndarray | float | None

    _shared_ndim = (1, 0, 0, 0)  # ndim of each field when one value serves every row

    def _per_row(self) -> list[bool]:
        return [v is not None and np.ndim(v) > nd for v, nd in zip(self, self._shared_ndim)]

    @property
    def n_rows(self) -> int | None:
        """Number of rows; None when every field serves every row."""
        return next((len(v) for v, per_row in zip(self, self._per_row()) if per_row), None)

    def take(self, rows) -> "Coefficients":
        """The rows an index, a mask, a slice or an index array selects."""
        return Coefficients(*(v[rows] if r else v for v, r in zip(self, self._per_row())))


def _at(v: np.ndarray, rows) -> np.ndarray:
    return v if rows is None else v[rows]


def coefficients(spec: ModelSpec, head: np.ndarray, features):
    """Per-subject coefficients of h, with their pullback.

    The one place the six parameterizations are written out:

    - baseline: theta = monotone(gamma), s = 1, c = 0;
    - bernstein_shift: theta = monotone(gamma), s = 1, c = f.w;
    - bernstein_shift_scale: theta = monotone(gamma), s = softplus(f.beta), c = f.w;
    - bernstein_flexible: theta = monotone(f), s = 1, c = 0;
    - linear_shift: s = 0, c = a + f.w, m = softplus(b_raw);
    - linear_scale: s = 0, c = a, m = softplus(f.w).

    ``head`` is the flat head vector of :func:`head_size` (another length
    raises :class:`DimensionMismatch`); ``features`` is one subject's
    extractor output or one row per subject.  ``pullback(d, rows=None)`` maps
    the output of :func:`eval_transform`'s pullback at the coefficient rows
    ``rows`` (all when None) to the head gradient and those rows' feature
    sensitivities.
    """
    head = np.asarray(head, dtype=float)
    if head.shape != (head_size(spec),):
        raise DimensionMismatch(
            f"expected {head_size(spec)} head parameters, got shape {head.shape}"
        )
    p = spec.parameterization
    f = np.asarray(features, dtype=float) if spec.uses_extractor else None

    if p == Parameterization.LINEAR_SHIFT:
        a, b_raw, w = head[0], head[1], head[2:]

        def pullback(d, rows=None):
            d_head = [[np.sum(d.c), sigmoid(b_raw) * np.sum(d.m)], _at(f, rows).T @ d.c]
            return np.concatenate(d_head), d.c[:, None] * w

        return Coefficients(None, 0.0, a + _rowdot(f, w), softplus(b_raw)), pullback

    if p == Parameterization.LINEAR_SCALE:
        a, w = head[0], head[1:]
        r = _rowdot(f, w)

        def pullback(d, rows=None):
            d_r = sigmoid(_at(r, rows)) * d.m
            return np.concatenate([[np.sum(d.c)], _at(f, rows).T @ d_r]), d_r[:, None] * w

        return Coefficients(None, 0.0, a, softplus(r)), pullback

    k = spec.bernstein_order + 1
    if p == Parameterization.BERNSTEIN_FLEXIBLE:
        # the extractor output is each row's coefficient vector
        if f.shape[-1] != k:
            raise DimensionMismatch(
                "flexible parameterization needs extractor output of dimension order + 1"
            )
        return Coefficients(monotone_reparam(f), 1.0, 0.0, None), lambda d, rows=None: (
            np.zeros(0), monotone_reparam_vjp(_at(f, rows), d.theta)
        )

    # baseline, bernstein_shift and bernstein_shift_scale share one theta
    d_out = 0 if f is None else spec.extractor.output_dim
    gamma, w, beta = head[:k], head[k : k + d_out], head[k + d_out :]
    r = _rowdot(f, beta) if p == Parameterization.BERNSTEIN_SHIFT_SCALE else None

    def pullback(d, rows=None):
        grads = [monotone_reparam_vjp(gamma, d.theta)]
        if f is None:
            return grads[0], np.zeros((d.c.size, 0))
        grads.append(_at(f, rows).T @ d.c)
        d_feats = d.c[:, None] * w
        if r is not None:
            d_r = sigmoid(_at(r, rows)) * d.s
            grads.append(_at(f, rows).T @ d_r)
            d_feats += d_r[:, None] * beta
        return np.concatenate(grads), d_feats

    s = 1.0 if r is None else softplus(r)
    c = 0.0 if f is None else _rowdot(f, w)
    return Coefficients(monotone_reparam(gamma), s, c, None), pullback


def basis_rows(spec: ModelSpec, log_t, scaler: LogTimeScaler):
    """Basis and derivative rows ``eval_transform`` reads at ``log_t``; None if linear."""
    return bernstein_vectors(spec.bernstein_order, scaler.scale(log_t)) if spec.uses_basis else None


def eval_transform(
    spec: ModelSpec, coef: Coefficients, rows, log_t, scaler: LogTimeScaler, *, basis=None
):
    """h = s * b(u)^T theta + c + m * log t and dh/dlog t at ``log_t``, with their pullback.

    ``rows`` is the coefficient row each log-time reads (an index array), or
    None to pair per-row coefficients with ``log_t`` in order; ``basis`` takes
    rows :func:`basis_rows` precomputed at ``log_t``.  ``pullback(upstream_h,
    upstream_dh)`` returns :class:`Coefficients` sensitivities, one per time,
    except that a theta shared by every row comes summed.
    """
    log_t = np.atleast_1d(np.asarray(log_t, dtype=float))
    theta, s, c, m = coef if rows is None else coef.take(rows)

    if theta is None:  # s = 0: h is affine in log t

        def pullback(uh, ud):
            return Coefficients(None, None, uh, uh * log_t + ud)

        return c + m * log_t, np.full_like(log_t, m), pullback

    # m = 0
    basis_v, deriv_v = basis_rows(spec, log_t, scaler) if basis is None else basis
    span = scaler.span
    base, base_d = _rowdot(basis_v, theta), _rowdot(deriv_v, theta) / span

    def pullback(uh, ud):
        us, uds = uh * s, ud * s / span
        if np.ndim(theta) == 2:
            d_theta = basis_v * us[:, None] + deriv_v * uds[:, None]
        else:
            d_theta = basis_v.T @ us + deriv_v.T @ uds
        return Coefficients(d_theta, uh * base + ud * base_d, uh, None)

    return s * base + c, s * base_d, pullback


def transformed_log_pdf(family, h, dh_dlog_t, log_t):
    """log f(t | x) = log f_Z(h) + log(dh/dlog t) - log t, the exact-row likelihood term."""
    return target.log_density(family, h) + np.log(dh_dlog_t) - log_t


# ---------------------------------------------------------------------------
# Conditional distributions

BISECTION_STEPS = 200


def _solve_increasing(fn, targets: np.ndarray, lo, hi) -> np.ndarray:
    """Solve value(u) = targets[rows] for every row; the value is increasing in u.

    ``lo`` and ``hi`` (arrays like ``targets``, or scalars) bracket each
    row's root; a row whose bracket is one point is solved.  ``fn(u, rows)``
    returns ``(value, d value / du)`` at ``u`` for the rows still in play.
    Each row starts at its bracket's midpoint and takes safeguarded Newton
    steps (rtsafe, Press et al., *Numerical Recipes* 9.4): the residual's
    sign shrinks the bracket, and a step that is not finite or leaves it
    halves the bracket instead, until the step or the bracket is at most
    ``1e-12 * max(1, |u|)``.  Steps are elementwise, so a row's root is the
    same in any batch if fn's values are.  Raises
    :class:`BisectionNonConvergence` for a row unconverged after
    ``BISECTION_STEPS`` iterations.
    """
    targets = np.asarray(targets, dtype=float)
    lo = np.array(np.broadcast_to(lo, targets.shape), dtype=float)
    hi = np.array(np.broadcast_to(hi, targets.shape), dtype=float)
    u = 0.5 * (lo + hi)
    rows = np.flatnonzero(lo < hi)
    for _ in range(BISECTION_STEPS):
        if rows.size == 0:
            break
        rows = rows[~_newton_step(fn, targets, u, lo, hi, rows)]
    if rows.size:
        raise BisectionNonConvergence(
            f"{rows.size} quantile target(s) unconverged after {BISECTION_STEPS} iterations"
        )
    return u


def _newton_step(fn, targets, u, lo, hi, rows) -> np.ndarray:
    """One safeguarded Newton step of ``_solve_increasing`` on ``rows``.

    Updates ``u``, ``lo`` and ``hi`` in place and returns which of the rows
    stop.  Its temporaries die on return, before fn is called again.
    """
    at = u[rows]
    value, slope = fn(at, rows)
    residual = value - targets[rows]
    below = residual < 0.0
    lo[rows[below]] = at[below]
    hi[rows[~below]] = at[~below]
    a, b = lo[rows], hi[rows]
    with np.errstate(all="ignore"):
        dx = residual / slope
        newton = at - dx
    tol = 1e-12 * np.maximum(1.0, np.abs(at))
    small_step = np.abs(dx) <= tol
    u[rows] = np.where(small_step | ((newton > a) & (newton < b)), newton, 0.5 * (a + b))
    return small_step | (b - a <= tol)


def _time_of_roots(u: np.ndarray) -> np.ndarray:
    """exp(u) of quantile roots in log-time; a root past the largest float raises."""
    overflow = int(np.sum(u > np.log(np.finfo(float).max)))
    if overflow:
        raise BisectionNonConvergence(f"{overflow} quantile root(s) overflow the largest float")
    return np.exp(u)


def _leading_index(shape) -> np.ndarray:
    """First-axis index of each element of an array of ``shape``, in C order."""
    return np.nonzero(np.ones(shape, dtype=bool))[0]


class ConditionalDistribution:
    """Time-to-event distribution of one subject, or of n subjects at once.

    It holds the subjects' :class:`Coefficients`.  When they have rows, the
    first axis of the times, and of the probabilities given to
    :meth:`quantile`, indexes subjects: shape (n,) holds one value per
    subject, shape (n, m) m values per subject.  Otherwise times may have
    any shape.  t = 0 and t = +inf map to the exact distribution limits.
    """

    def __init__(self, spec: ModelSpec, coef: Coefficients, scaler: LogTimeScaler):
        self.spec = spec
        self.coef = coef
        self.scaler = scaler

    @property
    def n_subjects(self) -> int | None:
        """Number of subjects of a batch; None when one distribution serves every row."""
        return self.coef.n_rows

    def subject(self, i) -> "ConditionalDistribution":
        """Row ``i`` of a batch, or the batch of the rows an index array ``i`` selects."""
        return ConditionalDistribution(self.spec, self.coef.take(i), self.scaler)

    def check_subjects(self, values: np.ndarray):
        """For a batch, require the leading axis of ``values`` to index its subjects."""
        n = self.n_subjects
        if n is not None and values.shape[:1] != (n,):
            raise DimensionMismatch(
                f"expected a leading axis of {n} subjects, got shape {values.shape}"
            )

    def h_at_log_time(self, u, subjects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h and dh/dlog t at log-times ``u`` of the rows ``subjects`` (ignored for one subject)."""
        return eval_transform(self.spec, self.coef, subjects, u, self.scaler)[:2]

    def log_time_bracket(self, p: np.ndarray, subjects: np.ndarray):
        """Targets z = F_Z^{-1}(p) of the rows ``subjects`` and log-time brackets of h = z.

        Returns ``(z, lo, hi)``.  Linear models invert in closed form, log t =
        (z - c) / m, and so does a Bernstein target outside [h(a_lo), h(b_hi)]
        = [s theta_0 + c, s theta_K + c] on its affine tail, of slope s K
        (theta_1 - theta_0) / span or s K (theta_K - theta_{K-1}) / span; these
        get lo == hi, the others [a_lo, b_hi].  A target beyond a zero slope
        (softplus underflow) raises :class:`BisectionNonConvergence`.
        """
        self.check_subjects(p)
        z = target.quantile(self.spec.family, p).ravel()
        theta, s, c, m = self.coef.take(subjects)
        a_lo, b_hi, span = self.scaler.a_lo, self.scaler.b_hi, self.scaler.span
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if theta is None:
                lo = hi = (z - c) / m
            else:
                order = theta.shape[-1] - 1
                h_lo, h_hi = s * theta[..., 0] + c, s * theta[..., -1] + c
                below = z < h_lo
                tail = np.where(
                    below,
                    a_lo + (z - h_lo) / (s * order * (theta[..., 1] - theta[..., 0]) / span),
                    b_hi + (z - h_hi) / (s * order * (theta[..., -1] - theta[..., -2]) / span),
                )
                outside = below | (z > h_hi)
                lo, hi = np.where(outside, tail, a_lo), np.where(outside, tail, b_hi)
        unsolvable = int(np.sum(~np.isfinite(lo) | ~np.isfinite(hi)))
        if unsolvable:
            raise BisectionNonConvergence(
                f"{unsolvable} quantile target(s) lie beyond a zero slope of h"
            )
        return z, lo, hi

    def _apply(self, t, of_transform, at_zero: float, at_inf: float):
        """Evaluate ``of_transform(h, dh/dlog t, log t)`` at the positive, finite times."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        self.check_subjects(t_arr)
        out = np.empty_like(t_arr)
        zero = t_arr <= 0.0
        infinite = np.isposinf(t_arr)
        inside = ~zero & ~infinite
        out[zero] = at_zero
        out[infinite] = at_inf
        if np.any(inside):
            rows = None if self.n_subjects is None else np.nonzero(inside)[0]
            log_t = np.log(t_arr[inside])
            h, dh, _ = eval_transform(self.spec, self.coef, rows, log_t, self.scaler)
            out[inside] = of_transform(h, dh, log_t)
        return float(out[0]) if np.ndim(t) == 0 else out

    def _of_h(self, fn):
        return lambda h, dh, log_t: fn(self.spec.family, h)

    def cdf(self, t):
        return self._apply(t, self._of_h(target.cdf), 0.0, 1.0)

    def survivor(self, t):
        return self._apply(t, self._of_h(target.survivor), 1.0, 0.0)

    def log_cdf(self, t):
        return self._apply(t, self._of_h(target.log_cdf), -np.inf, 0.0)

    def log_survivor(self, t):
        return self._apply(t, self._of_h(target.log_survivor), 0.0, -np.inf)

    def log_pdf(self, t):
        return self._apply(t, partial(transformed_log_pdf, self.spec.family), -np.inf, -np.inf)

    def pdf(self, t):
        log_pdf = partial(transformed_log_pdf, self.spec.family)
        return self._apply(t, lambda *args: np.exp(log_pdf(*args)), 0.0, 0.0)

    def quantile(self, p):
        """Inverse CDF: h(t) = F_Z^{-1}(p) in closed form or by Newton steps on dh/dlog t."""
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        subjects = _leading_index(p_arr.shape)
        u = _solve_increasing(
            lambda v, rows: self.h_at_log_time(v, subjects[rows]),
            *self.log_time_bracket(p_arr, subjects),
        )
        t = _time_of_roots(u).reshape(p_arr.shape)
        return float(t[0]) if np.ndim(p) == 0 else t


def conditional_distribution(model: FittedModel, x) -> ConditionalDistribution:
    """The conditional distribution of one subject, x of shape (p,), or of n, shape (n, p).

    Features come from ``feature.features``, so a subject's numbers do not
    depend on which other subjects share the batch.
    """
    spec = model.spec
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise DimensionMismatch(
            f"expected a covariate vector or an (n, p) matrix, got shape {x.shape}"
        )
    f = feature.features(spec.extractor, model.extractor_params, x) if spec.uses_extractor else None
    coef, _ = coefficients(spec, model.head_params, f)
    return ConditionalDistribution(spec, coef, model.scaler)
