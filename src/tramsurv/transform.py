"""Monotone transformations of time and the conditional distributions they induce.

Every parameterization is one form, strictly increasing in t,

    h(t | x_i) = s_i * b(u)^T theta_i + c_i + m_i * log t,

with b the Bernstein basis at the scaled log-time u, extended linearly
outside the training range, and F(t | x) = F_Z(h(t | x)).  ``coefficients``
maps the head and each subject's features to (theta, increments, s, c, m),
the increments being theta's positive steps; ``eval_transform`` evaluates
the form and dh/dlog t = s K b_{K-1}(u)^T increments / span, a sum of
positive terms, at log-times.  Each has a hand-written pullback, and
training composes the two.  A distribution holds its subjects' coefficients,
computed once, and broadcasts them over a subject's row of times: no
per-node gather remains.  ``Pointwise`` writes each distribution operation
once, ``quantile`` as one bracketed Newton solve in log-time;
``ConditionalDistribution`` and the deep-ensemble mixture
``EnsembleDistribution``, one distribution of its members' ``Stacked``
coefficients, supply their values at log-times and their Newton problem.
h = F_Z^{-1}(p) inverts in closed form for the linear parameterizations and
on the affine Bernstein tails.

Every number a subject gets at inference depends on its row alone: its
features come from ``feature.forward`` with the subject as a one-row
minibatch, and every row-wise contraction here is ``_rowdot``, one BLAS dot
per row whatever the batch size.  A quantile's Newton path, and so its root,
is then the same bits alone, in a batch, or permuted, and a mixture member's
values the bits it gives alone.  Sums over rows (the pullbacks' gradients)
stay matrix products.
"""

import copy
import functools
from typing import NamedTuple

import numpy as np

from . import feature, target
from .basis import LogTimeScaler, bernstein_vectors, monotone_reparam, monotone_reparam_vjp
from .core import FittedModel, ModelSpec, Parameterization, float_array
from .errors import (
    BadConfig,
    BisectionNonConvergence,
    DimensionMismatch,
    NonFiniteCovariate,
    require_type,
)
from .numerics import logsumexp, sigmoid, softplus, softplus_inv, softplus_tail


# head length per parameterization as (multiple of k, multiple of d, constant)
_HEAD_LAYOUT = {
    Parameterization.BASELINE: (1, 0, 0),
    Parameterization.LINEAR_SHIFT: (0, 1, 2),
    Parameterization.LINEAR_SCALE: (0, 1, 1),
    Parameterization.BERNSTEIN_SHIFT: (1, 1, 0),
    Parameterization.BERNSTEIN_SHIFT_SCALE: (1, 2, 0),
    Parameterization.BERNSTEIN_FLEXIBLE: (0, 0, 0),
}


def head_size(spec: ModelSpec) -> int:
    """Length of the flat head vector.

    Its layout, in storage order (``k`` = order + 1, ``d`` = extractor output
    dimension): baseline ``gamma[k]``; linear_shift ``a, b_raw, w[d]``;
    linear_scale ``a, w[d]``; bernstein_shift ``gamma[k], w[d]``;
    bernstein_shift_scale ``gamma[k], w[d], beta[d]``; bernstein_flexible
    nothing, since all its parameters live in the extractor.
    """
    per_k, per_d, const = _HEAD_LAYOUT[spec.parameterization]
    d = spec.extractor.output_dim if spec.extractor is not None else 0
    return per_k * (spec.bernstein_order + 1) + per_d * d + const


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

    ``increments`` are theta's steps theta[j + 1] - theta[j], all positive,
    as the reparameterization gives them, unrounded by theta's sums; dh/dlog t
    reads them.  A field holds one value for every row, or one per row on a
    leading axis: ``theta`` is (k,) or (n, k), ``increments`` (k - 1,) or
    (n, k - 1); ``s``, ``c`` and ``m`` are scalars or (n,).  A training stack
    of M models adds a member axis first, and a member's value shared by its
    rows keeps a unit row axis: ``theta`` is (M, 1, k) or (M, n, k), the
    scalars (M, 1) or (M, n); a distribution's stack is :class:`Stacked`.
    ``theta`` and ``increments`` are None for the linear parameterizations
    (s = 0), ``m`` for the Bernstein ones (m = 0).
    """

    theta: np.ndarray | None
    increments: np.ndarray | None
    s: np.ndarray | float
    c: np.ndarray | float
    m: np.ndarray | float | None

    _shared_ndim = (1, 1, 0, 0, 0)  # ndim of each field when one value serves every row
    _member_axis = ()  # the index that gives times a unit axis for a stack's member axis

    def _per_row(self) -> list[bool]:
        return [getattr(v, "ndim", 0) > nd for v, nd in zip(self, self._shared_ndim)]

    @property
    def n_rows(self) -> int | None:
        """Number of rows; None when every field serves every row."""
        return next((len(v) for v, per_row in zip(self, self._per_row()) if per_row), None)

    def take(self, rows) -> "Coefficients":
        """The rows an index, a mask, a slice or an index array selects (any numpy index)."""
        # a list: unpacking a generator resizes a new tuple per call, and CPython keeps
        # such tuples in its free list, so a writer's traced memory grew with its blocks
        return type(self)(*[v[rows] if r else v for v, r in zip(self, self._per_row())])


class Stacked(Coefficients):
    """The :class:`Coefficients` of M models, a member axis after the row axis.

    ``theta`` is (M, k) or (n, M, k), ``s``, ``c`` and ``m`` (M,) or (n, M),
    so that rows stay first: an index array takes rows, and ``n_rows`` counts
    them, as for one model.  A distribution gives its times a unit axis after
    their first (``_member_axis``), against which every model broadcasts, so
    that its values come out (n, M, ...) with the times' last axis innermost;
    a basic index of the times' axes puts its unit axes after the member axis.
    """

    _shared_ndim = (2, 2, 1, 1, 1)
    _member_axis = (slice(None), None)

    def take(self, rows) -> "Stacked":
        if not isinstance(rows, tuple):
            return super().take(rows)
        return Stacked(*[None if v is None else v[(slice(None),) * (1 + per_row) + rows[1:]]
                         for v, per_row in zip(self, self._per_row())])


def _rows_dot(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """f^T d summed over the rows of each member: (..., n, j) and (..., n) give (..., j)."""
    return (f.mT @ d[..., None])[..., 0]


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
    raises :class:`DimensionMismatch`) and ``features`` one subject's
    extractor output or one row per subject.  A stack of M heads (M, P_h)
    takes (M, n, d) features, one minibatch per member, and gives stacked
    fields (see :class:`Coefficients`); a member's coefficients are the bits
    its head alone gives.  ``pullback(d, out=None)`` maps the output of
    :func:`eval_transform`'s pullback, one sensitivity per coefficient row,
    to the head gradient, shaped like ``head`` and written into ``out`` when
    given, and the feature sensitivities (None without an extractor).  Each
    softplus shares its ``log1p(exp(-|z|))`` with the sigmoid of its pullback.
    """
    head = np.asarray(head, dtype=float)
    if head.ndim not in (1, 2) or head.shape[-1] != head_size(spec):
        raise DimensionMismatch(
            f"expected {head_size(spec)} head parameters, got shape {head.shape}"
        )
    members = head.shape[:-1]
    # a member's head values broadcast over the rows of its minibatch
    per_row = head[:, None, :] if members else head
    p = spec.parameterization
    f = np.asarray(features, dtype=float) if spec.uses_extractor else None

    # the head gradient joins (..., j) pieces on the last axis; a scalar's piece is (..., 1)
    if p == Parameterization.LINEAR_SHIFT:
        w, b_raw = per_row[..., 2:], per_row[..., 1]
        b_tail = softplus_tail(b_raw)

        def pullback(d, out=None):
            d_b = sigmoid(b_raw, b_tail) * d.m.sum(axis=-1, keepdims=True)
            d_head = [d.c.sum(axis=-1, keepdims=True), d_b, _rows_dot(f, d.c)]
            return np.concatenate(d_head, axis=-1, out=out), d.c[..., None] * w

        c = per_row[..., 0] + _rowdot(f, w)
        return Coefficients(None, None, 0.0, c, softplus(b_raw, b_tail)), pullback

    if p == Parameterization.LINEAR_SCALE:
        w = per_row[..., 1:]
        r = _rowdot(f, w)
        r_tail = softplus_tail(r)

        def pullback(d, out=None):
            d_r = sigmoid(r, r_tail) * d.m
            d_head = [d.c.sum(axis=-1, keepdims=True), _rows_dot(f, d_r)]
            return np.concatenate(d_head, axis=-1, out=out), d_r[..., None] * w

        return Coefficients(None, None, 0.0, per_row[..., 0], softplus(r, r_tail)), pullback

    k = spec.bernstein_order + 1
    if p == Parameterization.BERNSTEIN_FLEXIBLE:
        # the extractor output is each row's coefficient vector
        if f.shape[-1] != k:
            raise DimensionMismatch(
                "flexible parameterization needs extractor output of dimension order + 1"
            )
        f_tail = softplus_tail(f[..., 1:])

        def pullback(d, out=None):
            d_feats = monotone_reparam_vjp(f, d.theta, d.increments, f_tail)
            return np.zeros(members + (0,)) if out is None else out, d_feats

        return Coefficients(*monotone_reparam(f, f_tail), 1.0, 0.0, None), pullback

    # baseline, bernstein_shift and bernstein_shift_scale share one theta
    d_out = 0 if f is None else spec.extractor.output_dim
    gamma = head[..., :k]
    gamma_tail = softplus_tail(gamma[..., 1:])
    w, beta = per_row[..., k : k + d_out], per_row[..., k + d_out :]
    r = _rowdot(f, beta) if p == Parameterization.BERNSTEIN_SHIFT_SCALE else None
    r_tail = None if r is None else softplus_tail(r)

    def pullback(d, out=None):
        grads = [monotone_reparam_vjp(gamma, d.theta, d.increments, gamma_tail)]
        if f is None:
            return np.concatenate(grads, axis=-1, out=out), None
        grads.append(_rows_dot(f, d.c))
        d_feats = d.c[..., None] * w
        if r is not None:
            d_r = sigmoid(r, r_tail) * d.s
            grads.append(_rows_dot(f, d_r))
            d_feats += d_r[..., None] * beta
        return np.concatenate(grads, axis=-1, out=out), d_feats

    s = 1.0 if r is None else softplus(r, r_tail)
    c = 0.0 if f is None else _rowdot(f, w)
    theta, increments = monotone_reparam(per_row[..., :k],
                                         gamma_tail[:, None] if members else gamma_tail)
    return Coefficients(theta, increments, s, c, None), pullback


def basis_rows(spec: ModelSpec, log_t, scaler: LogTimeScaler):
    """What ``eval_transform`` reads at ``log_t``: ``(basis, lower, excess)``; None if linear.

    ``basis`` and ``lower`` are :func:`bernstein_vectors` at the log-times
    clipped to [a_lo, b_hi], and ``excess`` is ``log_t`` minus the clipped
    log-times; ``eval_transform`` also takes None for an excess of zeros.
    """
    if not spec.uses_basis:
        return None
    clipped = np.minimum(np.maximum(log_t, scaler.a_lo), scaler.b_hi)
    basis, lower = bernstein_vectors(spec.bernstein_order, scaler.scale(clipped))
    return basis, lower, log_t - clipped


def eval_transform(
    spec: ModelSpec, coef: Coefficients, rows, log_t, scaler: LogTimeScaler, *, basis=None
):
    """h = s * b(u)^T theta + c + m * log t and dh/dlog t at ``log_t``, with their pullback.

    dh/dlog t is s K b_{K-1}(u)^T increments / span, or m.  Beyond the
    scaler's range [a_lo, b_hi] h goes on linearly: h = h(e) + (log t - e)
    dh/dlog t (e), e the nearer end, the line whose inverse
    :meth:`ConditionalDistribution.log_time_bracket` writes in closed form.

    ``rows`` is the coefficient row each log-time of a vector reads (an index
    array); with None the fields broadcast against ``log_t`` as numpy
    broadcasts them: per-row ones over a vector, shared ones over any shape,
    and a stack's (M, ...) fields over its (M, n) log-times.  ``basis`` takes
    what :func:`basis_rows` gives at ``log_t``, precomputed.
    ``pullback(upstream_h, upstream_dh)`` returns :class:`Coefficients`
    sensitivities, one per time of a vector or of a stack's (M, n), except
    that a theta and increments shared by the rows (every parameterization
    but bernstein_flexible) come summed over them, (k,) and (k - 1,), or
    with a member axis first.  dh/dlog t
    has the axes of h and is not to be written to; a linear model's is m,
    with length one where m is shared, broadcast to h's shape only when m
    has fewer axes.
    """
    log_t = np.atleast_1d(np.asarray(log_t, dtype=float))
    if rows is not None:
        coef = coef.take(rows)
    theta, increments, s, c, m = coef

    if theta is None:  # s = 0: h is affine in log t

        def pullback(uh, ud):
            return Coefficients(None, None, None, uh, uh * log_t + ud)

        h = c + m * log_t
        return h, m if np.ndim(m) == h.ndim else np.broadcast_to(m, h.shape), pullback

    # m = 0
    basis_v, lower_v, excess = basis_rows(spec, log_t, scaler) if basis is None else basis
    span = scaler.span
    base, base_d = _rowdot(basis_v, theta), _rowdot(lower_v, increments) / span
    h, dh = s * base + c, s * base_d
    if excess is not None:
        h += excess * dh

    def pullback(uh, ud):
        if excess is not None:
            ud = ud + uh * excess
        us, uds = uh * s, ud * s / span
        if spec.parameterization != Parameterization.BERNSTEIN_FLEXIBLE:
            d_theta, d_increments = _rows_dot(basis_v, us), _rows_dot(lower_v, uds)
        else:
            d_theta, d_increments = basis_v * us[..., None], lower_v * uds[..., None]
        return Coefficients(d_theta, d_increments, uh * base + ud * base_d, uh, None)

    return h, dh, pullback


def transformed_log_pdf(family, h, dh_dlog_t, log_t):
    """log f(t | x) = log f_Z(h) + log(dh/dlog t) - log t, the exact-row likelihood term."""
    return target.log_density(family, h) + np.log(dh_dlog_t) - log_t


# ---------------------------------------------------------------------------
# Conditional distributions

BISECTION_STEPS = 200
# the log-times whose exp is a positive finite float: from the smallest subnormal to the largest
_LOG_T_RANGE = np.log([np.finfo(float).smallest_subnormal, np.finfo(float).max])


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


def _of_h(fn):
    return lambda family, h, dh, log_t: fn(family, h)


class Pointwise:
    """``cdf``, ``survivor``, ``pdf``, their logs and ``quantile``, written once.

    A subclass supplies ``at_log_time(of_transform, log_t, log)`` and
    ``newton_problem(p, subjects)``.  One ``np.log`` of the whole time array:
    times t <= 0 and t = +inf, only when present, are replaced by 1.0 first
    and get their limits afterwards, through masks that broadcast against
    the values (times shared by a batch's subjects give a value per subject).
    A batch's values for some of its subjects come from the distribution
    ``subject(rows)`` selects.  Times or probabilities that are not numbers
    raise :class:`NonNumericCovariate` (see :func:`core.float_array`).
    """

    def _apply(self, t, of_transform, at_zero: float, at_inf: float, log: bool = False):
        t_arr = np.atleast_1d(float_array(t, "times"))
        zero, infinite = t_arr <= 0.0, np.isposinf(t_arr)
        special = zero | infinite
        present = special.any()
        log_t = np.log(np.where(special, 1.0, t_arr) if present else t_arr)
        out = self.at_log_time(of_transform, log_t, log)
        if present:
            np.copyto(out, at_zero, where=zero)
            np.copyto(out, at_inf, where=infinite)
        return float(out[0]) if np.ndim(t) == 0 else out

    def cdf(self, t):
        return self._apply(t, _of_h(target.cdf), 0.0, 1.0)

    def survivor(self, t):
        return self._apply(t, _of_h(target.survivor), 1.0, 0.0)

    def log_cdf(self, t):
        return self._apply(t, _of_h(target.log_cdf), -np.inf, 0.0, log=True)

    def log_survivor(self, t):
        return self._apply(t, _of_h(target.log_survivor), 0.0, -np.inf, log=True)

    def log_pdf(self, t):
        return self._apply(t, transformed_log_pdf, -np.inf, -np.inf, log=True)

    def pdf(self, t):
        return self._apply(t, lambda *args: np.exp(transformed_log_pdf(*args)), 0.0, 0.0)

    def quantile(self, p):
        """Inverse CDF: one :func:`_solve_increasing` of ``newton_problem(p, subjects)``.

        ``subjects[j]`` is the subject of element j of ``p`` raveled.  A root
        whose time would overflow the largest float, or underflow below the
        smallest subnormal to 0, raises :class:`BisectionNonConvergence`.
        """
        p_arr = np.atleast_1d(float_array(p, "probabilities"))
        subjects = np.nonzero(np.ones(p_arr.shape, dtype=bool))[0]  # first-axis index, C order
        u = _solve_increasing(*self.newton_problem(p_arr, subjects))
        outside = int(np.sum((u < _LOG_T_RANGE[0]) | (u > _LOG_T_RANGE[1])))
        if outside:
            raise BisectionNonConvergence(
                f"{outside} quantile root(s) overflow or underflow the range of positive floats")
        t = np.exp(u).reshape(p_arr.shape)
        return float(t[0]) if np.ndim(p) == 0 else t


class ConditionalDistribution(Pointwise):
    """Time-to-event distribution of one subject, or of n subjects at once.

    It holds the subjects' :class:`Coefficients`.  When they have rows, the
    first axis of the times, and of the probabilities given to
    :meth:`quantile`, indexes subjects: shape (n,) holds one value per
    subject, shape (n, m) m values per subject.  Times of two or more axes
    whose first is 1, such as (1, m), are shared by every subject and give
    (n, m) values; scalar and 1-D times still need n values.  Otherwise
    times may have any shape.  t = 0 and t = +inf map to the exact
    distribution limits.
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
        """Row ``i`` of a batch, or the batch of the rows an index array ``i`` selects.

        An index that numpy rejects for the rows raises :class:`BadConfig`.
        """
        try:
            coef = self.coef.take(i)
        except (IndexError, ValueError) as exc:  # ValueError: a ragged index
            raise BadConfig(f"subjects must index the {self.n_subjects} rows: {exc}") from None
        return ConditionalDistribution(self.spec, coef, self.scaler)

    def check_subjects(self, values: np.ndarray):
        """For a batch, require the leading axis of ``values`` to index its subjects."""
        n = self.n_subjects
        if n is not None and values.shape[:1] != (n,):
            raise DimensionMismatch(
                f"expected a leading axis of {n} subjects, got shape {values.shape}"
            )

    def h_at_log_time(self, u, subjects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h and dh/dlog t at log-times ``u`` of the rows ``subjects`` (ignored for one subject)."""
        u = u[self.coef._member_axis]
        return eval_transform(self.spec, self.coef, subjects, u, self.scaler)[:2]

    def log_time_bracket(self, p: np.ndarray, subjects: np.ndarray):
        """Targets z = F_Z^{-1}(p) of the rows ``subjects`` and log-time brackets of h = z.

        Returns ``(z, lo, hi)``.  Linear models invert in closed form, log t =
        (z - c) / m, and so does a Bernstein target outside [h(a_lo), h(b_hi)]
        = [s theta_0 + c, s theta_K + c] on its affine tail, of slope s K
        increments_0 / span or s K increments_{K-1} / span; these get lo == hi,
        the others [a_lo, b_hi].  A target beyond a zero slope
        (softplus underflow) raises :class:`BisectionNonConvergence`.
        """
        self.check_subjects(p)
        z = target.quantile(self.spec.family, p).ravel()[self.coef._member_axis]
        theta, increments, s, c, m = self.coef.take(subjects)
        a_lo, b_hi, span = self.scaler.a_lo, self.scaler.b_hi, self.scaler.span
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if theta is None:
                lo = hi = (z - c) / m
            else:
                # h and the slope at the ends with eval_transform's operations, so
                # that these lines are the ones it evaluates beyond the range
                order = increments.shape[-1]
                h_lo, h_hi = s * theta[..., 0] + c, s * theta[..., -1] + c
                below = z < h_lo
                tail = np.where(
                    below,
                    a_lo + (z - h_lo) / (s * (order * increments[..., 0] / span)),
                    b_hi + (z - h_hi) / (s * (order * increments[..., -1] / span)),
                )
                outside = below | (z > h_hi)
                lo, hi = np.where(outside, tail, a_lo), np.where(outside, tail, b_hi)
        unsolvable = int(np.sum(~np.isfinite(lo) | ~np.isfinite(hi)))
        if unsolvable:
            raise BisectionNonConvergence(
                f"{unsolvable} quantile target(s) lie beyond a zero slope of h"
            )
        return z, lo, hi

    def at_log_time(self, of_transform, log_t, log: bool = False):
        """``of_transform`` at finite log-times; ``log`` only matters to a mixture.

        Log-times (1, ...) of two or more axes are shared by every subject: one
        basis for them broadcasts against each subject's coefficients.
        """
        if log_t.ndim < 2 or len(log_t) != 1:
            self.check_subjects(log_t)
        # unit axes broadcast each subject's coefficients over log_t's trailing axes
        index = (slice(None),) + (None,) * (log_t.ndim - 1)
        log_t = log_t[self.coef._member_axis]
        h, dh, _ = eval_transform(self.spec, self.coef.take(index), None, log_t, self.scaler)
        return of_transform(self.spec.family, h, dh, log_t)

    def newton_problem(self, p, subjects):
        """h(u) = F_Z^{-1}(p) in log-time u on :meth:`log_time_bracket`; the slope is dh/dlog t."""
        z, lo, hi = self.log_time_bracket(p, subjects)
        return (lambda u, rows: self.h_at_log_time(u, subjects[rows])), z, lo, hi


def _members_first(values: np.ndarray) -> np.ndarray:
    """Values (n, M, ...) as the C-ordered (M, n, ...) array of the members' values: a sum
    over the members then takes the order it takes over a list of them."""
    return np.ascontiguousarray(np.moveaxis(values, 1, 0))


class EnsembleDistribution(Pointwise):
    """Pointwise mixture (equal weights) of member conditional distributions.

    Members, at least one, describe the same subject, or the same batch of
    subjects, and share one spec and scaler, as ``fit_ensemble`` gives them
    (else :class:`BadConfig`); the mixture follows their shape rules.  ``stack`` is
    their distribution of :class:`Stacked` coefficients: each pass builds one
    basis and makes one :func:`eval_transform` call for every member.  ``cdf``,
    ``survivor`` and ``pdf`` add the members' values in member order and
    divide by M (``np.add.reduce`` sums nine or more members pairwise where
    the member axis is its inner loop); the logs take logsumexp over them
    minus log M, and the Newton problem the mean of their CDFs and slopes.
    """

    def __init__(self, members: list):
        if not members:
            raise BadConfig("an ensemble distribution needs at least one member")
        self.spec, self.scaler, self.n_members = members[0].spec, members[0].scaler, len(members)
        if any(m.spec != self.spec or m.scaler != self.scaler for m in members):
            raise BadConfig("the members of an ensemble distribution need one spec and scaler")
        # the member axis goes before the last axis of theta and the increments (j < 2)
        coef = Stacked(*[None if v is None else np.stack([m.coef[j] for m in members], -1 - (j < 2))
                         for j, v in enumerate(members[0].coef)])
        self.stack = ConditionalDistribution(self.spec, coef, self.scaler)

    @property
    def n_subjects(self) -> int | None:
        """Number of subjects of a batch, as for its members."""
        return self.stack.n_subjects

    def subject(self, i) -> "EnsembleDistribution":
        """Mixture of row ``i`` of a batch, or of the rows an index array ``i`` selects."""
        mixture = copy.copy(self)
        mixture.stack = self.stack.subject(i)
        return mixture

    def at_log_time(self, of_transform, log_t, log: bool = False):
        """The members' values at finite log-times, combined."""
        values = self.stack.at_log_time(of_transform, log_t)
        if log:
            return logsumexp(_members_first(values), axis=0) - np.log(self.n_members)
        return functools.reduce(np.add, np.moveaxis(values, 1, 0)) / self.n_members

    def newton_problem(self, p, subjects):
        """The averaged CDF equal to p in log-time u.

        The bracket [min_m lo_m, max_m hi_m] of the members' own brackets holds
        the root: every member CDF is at most p at its lower end and at least
        p at its upper end.  The slope is the mean of f_Z(h_m) * dh_m/dlog t.
        """
        _, lo, hi = self.stack.log_time_bracket(p, subjects)
        fam = self.spec.family

        def mean_cdf_at_log_time(u, rows):
            h, dh = self.stack.h_at_log_time(u, subjects[rows])
            return (np.mean(_members_first(target.cdf(fam, h)), axis=0),
                    np.mean(_members_first(target.density(fam, h) * dh), axis=0))

        return mean_cdf_at_log_time, p.ravel(), np.min(lo, axis=1), np.max(hi, axis=1)


def conditional_distribution(model: FittedModel, x) -> ConditionalDistribution:
    """The conditional distribution of one subject, x of shape (p,), or of n, shape (n, p).

    Each subject is a one-row minibatch of ``feature.forward``, so its
    features, and every number it gets, do not depend on which other
    subjects share the batch.
    """
    require_type("model", model, FittedModel)
    spec = model.spec
    x = float_array(x, "covariates")
    if x.ndim not in (1, 2):
        raise DimensionMismatch(
            f"expected a covariate vector or an (n, p) matrix, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise NonFiniteCovariate("covariates must be finite")
    f = None
    if spec.uses_extractor:
        f = feature.forward(spec.extractor, model.extractor_params, x[..., None, :])[0][..., 0, :]
    coef, _ = coefficients(spec, model.head_params, f)
    return ConditionalDistribution(spec, coef, model.scaler)
