"""Monotone transformations of time and the conditional distributions they induce.

Each parameterization builds a transformation h(t | x) that is strictly
increasing in t; composing it with the target family CDF yields the
conditional time-to-event distribution F(t | x) = F_Z(h(t | x)).  Covariates
enter through extractor features, either as an additive shift, a positive
scale, or (for the flexible variant) as the Bernstein coefficients
themselves.

``eval_transform`` is the one place the parameterizations are written out.
It works in log-time, where the Bernstein part lives and where the quantile
solver can expand its bracket without overflow, and returns h, dh/dlog t
and their pullback: a hand-written reverse-mode step that reuses the
forward's basis rows to turn upstream sensitivities of (h, dh/dlog t) into
head-parameter gradients and per-row feature sensitivities, the latter to be
fed to the extractor's backward pass.  The density follows from the chain
rule, log f(t | x) = log f_Z(h) + log(dh/dlog t) - log t.  Quantiles invert
h(t | x) = F_Z^{-1}(p) in log-time by bracketed Newton steps, whose slope is
the dh/dlog t of the same call.

Every number a subject gets at inference depends on that subject's row
alone, never on the batch it shares a call with: features come from
``feature.features``, which multiplies row by row, and every row-wise
contraction here is ``_rowdot``, one BLAS dot per row whatever the batch
size.  A quantile's Newton path is then the same alone, in a batch, or
permuted, and so is its root, bit for bit.  Sums over rows (the pullback's
gradients) stay matrix products; they are training quantities, not
per-subject ones.
"""

from functools import partial

import numpy as np

from . import feature, target
from .basis import (
    LogTimeScaler,
    bernstein_vectors,
    monotone_reparam,
    monotone_reparam_vjp,
)
from .core import FittedModel, ModelSpec, Parameterization
from .errors import (
    BisectionNonConvergence,
    DimensionMismatch,
)
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
    elif p in (
        Parameterization.BASELINE,
        Parameterization.BERNSTEIN_SHIFT,
        Parameterization.BERNSTEIN_SHIFT_SCALE,
    ):
        head[: k + 1] = softplus_inv(4.0 / k)
        head[0] = -2.0
    return head


def _rowdot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with ``v``, one BLAS dot per row.

    ``v`` is one vector for every row, or a matrix paired with ``a`` row by
    row.  ``a @ v`` takes a dot product for one row and gemv for several,
    and gemv itself rounds differently by row count; this gives a row the
    same bits in any batch.
    """
    return np.vecdot(a, v)


def _features_2d(features, log_t: np.ndarray) -> np.ndarray:
    """Broadcast features against times: one subject at many times, or rowwise."""
    f = np.asarray(features, dtype=float)
    if f.ndim == 1:
        return np.broadcast_to(f, (log_t.shape[0], f.shape[0]))
    if f.shape[0] != log_t.shape[0]:
        raise DimensionMismatch(
            f"{f.shape[0]} feature rows for {log_t.shape[0]} times"
        )
    return f


def basis_rows(spec: ModelSpec, log_t, scaler: LogTimeScaler):
    """Bernstein basis and derivative rows that ``eval_transform`` reads at ``log_t``.

    None for the linear parameterizations, which have no basis.  The rows
    depend on the data and the scaler only, never on the parameters.
    """
    if spec.parameterization in (Parameterization.LINEAR_SHIFT, Parameterization.LINEAR_SCALE):
        return None
    return bernstein_vectors(spec.bernstein_order, scaler.scale(log_t))


def eval_transform(
    spec: ModelSpec, head: np.ndarray, features, log_t, scaler: LogTimeScaler, *, basis=None
):
    """h(t | x) and dh/dlog t at log-times ``log_t``, with their pullback.

    ``head`` is the flat head vector laid out as :func:`head_size` documents;
    a vector of another length raises :class:`DimensionMismatch`.
    ``features`` may be a single vector (evaluated at every time) or a matrix
    matched row by row against ``log_t``; the baseline parameterization
    ignores it.  ``basis`` takes rows precomputed by :func:`basis_rows` at the
    same log-times and scaler; they are computed here when it is None.
    Returns ``(h, dh_dlog_t, pullback)``, the first two shaped like
    ``log_t``.  ``pullback(upstream_h, upstream_dh)`` takes one upstream
    sensitivity of h and of dh/dlog t per row and chains them into the flat
    head gradient (summed over rows, laid out like ``head``) and per-row
    feature sensitivities for the extractor's backward pass; it reuses the
    basis rows of this call.
    """
    log_t = np.atleast_1d(np.asarray(log_t, dtype=float))
    head = np.asarray(head, dtype=float)
    if head.shape != (head_size(spec),):
        raise DimensionMismatch(
            f"expected {head_size(spec)} head parameters, got shape {head.shape}"
        )
    p = spec.parameterization
    f = None if p == Parameterization.BASELINE else _features_2d(features, log_t)

    if p == Parameterization.LINEAR_SHIFT:
        a, b_raw, w = head[0], head[1], head[2:]
        b = softplus(b_raw)

        def pullback(uh, ud):
            d_b_raw = sigmoid(b_raw) * np.sum(uh * log_t + ud)
            return np.concatenate([[np.sum(uh), d_b_raw], f.T @ uh]), np.outer(uh, w)

        return a + b * log_t + _rowdot(f, w), np.full_like(log_t, b), pullback

    if p == Parameterization.LINEAR_SCALE:
        a, w = head[0], head[1:]
        r = _rowdot(f, w)
        c = softplus(r)

        def pullback(uh, ud):
            d_r = sigmoid(r) * (uh * log_t + ud)
            return np.concatenate([[np.sum(uh)], f.T @ d_r]), np.outer(d_r, w)

        return a + c * log_t, c, pullback

    basis_v, deriv_v = basis_rows(spec, log_t, scaler) if basis is None else basis
    span = scaler.span

    if p == Parameterization.BERNSTEIN_FLEXIBLE:
        # the extractor output is each row's coefficient vector
        if f.shape[1] != spec.bernstein_order + 1:
            raise DimensionMismatch(
                "flexible parameterization needs extractor output of dimension order + 1"
            )
        theta = monotone_reparam(f)

        def pullback(uh, ud):
            d_theta = basis_v * uh[:, None] + deriv_v * (ud / span)[:, None]
            return np.zeros(0), monotone_reparam_vjp(f, d_theta)

        return _rowdot(basis_v, theta), _rowdot(deriv_v, theta) / span, pullback

    # baseline, bernstein_shift and bernstein_shift_scale: scale * b(u)^T theta + shift
    k = spec.bernstein_order + 1
    d = 0 if f is None else spec.extractor.output_dim
    gamma, w, beta = head[:k], head[k : k + d], head[k + d :]
    theta = monotone_reparam(gamma)
    base = _rowdot(basis_v, theta)
    base_d = _rowdot(deriv_v, theta) / span
    r = _rowdot(f, beta) if p == Parameterization.BERNSTEIN_SHIFT_SCALE else None
    scale = 1.0 if r is None else softplus(r)
    shift = 0.0 if f is None else _rowdot(f, w)

    def pullback(uh, ud):
        d_theta = basis_v.T @ (uh * scale) + deriv_v.T @ (ud * scale / span)
        grads = [monotone_reparam_vjp(gamma, d_theta)]
        if f is None:
            return grads[0], np.zeros((log_t.shape[0], 0))
        grads.append(f.T @ uh)
        d_feats = np.outer(uh, w)
        if r is not None:
            d_r = sigmoid(r) * (uh * base + ud * base_d)
            grads.append(f.T @ d_r)
            d_feats += np.outer(d_r, beta)
        return np.concatenate(grads), d_feats

    return scale * base + shift, scale * base_d, pullback


def transformed_log_pdf(family, h, dh_dlog_t, log_t):
    """log f(t | x) = log f_Z(h) + log(dh/dlog t) - log t, the exact-row likelihood term."""
    return target.log_density(family, h) + np.log(dh_dlog_t) - log_t


# ---------------------------------------------------------------------------
# Conditional distributions

BISECTION_STEPS = 200


def _solve_increasing(fn, targets: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Solve value(u) = targets[rows] for every row; the value is increasing in u.

    ``fn(u, rows)`` is asked only about rows still in play and returns
    ``(value, slope)`` at log-times ``u`` of the rows ``rows``, with slope =
    d value / du.  Brackets are expanded geometrically from [lo, hi].  Each
    row then starts at its bracket's midpoint and takes safeguarded Newton
    steps (rtsafe, Press et al., *Numerical Recipes* 9.4): the residual's
    sign shrinks the bracket, and a step that is not finite or leaves the
    open bracket halves it instead.  A row stops once its step or its bracket
    is at most ``1e-12 * max(1, |u|)``.

    Every step is elementwise, so a row's root depends only on its target
    and on fn for that row; fn must give a row the same bits whatever other
    rows share the call, as ``eval_transform`` does.

    Raises :class:`BisectionNonConvergence` when a row is still unbracketed
    after ``BISECTION_STEPS`` expansions, or unconverged after as many
    iterations.
    """
    targets = np.asarray(targets, dtype=float)
    lo = np.full_like(targets, lo)
    hi = np.full_like(targets, hi)
    for bound, outside, sign in ((lo, np.greater, -1.0), (hi, np.less, 1.0)):
        step = np.maximum(hi - lo, 1.0)
        rows = np.arange(targets.size)
        for expansion in range(BISECTION_STEPS + 1):
            rows = rows[outside(fn(bound[rows], rows)[0], targets[rows])]
            if rows.size == 0:
                break
            if expansion == BISECTION_STEPS:
                raise BisectionNonConvergence(
                    f"{rows.size} quantile target(s) still unbracketed after "
                    f"{BISECTION_STEPS} expansions"
                )
            bound[rows] += sign * step[rows]
            step[rows] *= 2.0
    u = 0.5 * (lo + hi)
    rows = np.arange(targets.size)
    for _ in range(BISECTION_STEPS):
        rows = rows[~_newton_step(fn, targets, u, lo, hi, rows)]
        if rows.size == 0:
            return u
    raise BisectionNonConvergence(
        f"{rows.size} quantile target(s) unconverged after {BISECTION_STEPS} iterations"
    )


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


def _leading_index(shape) -> np.ndarray:
    """First-axis index of each element of an array of ``shape``, in C order."""
    return np.nonzero(np.ones(shape, dtype=bool))[0]


class ConditionalDistribution:
    """Time-to-event distribution of one subject, or of n subjects at once.

    ``features`` is one subject's extractor output (a vector), a matrix with
    one row per subject, or None when the parameterization ignores
    covariates.  For one subject (or none) the evaluators accept scalars or
    arrays of times of any shape.  For a matrix, the first axis of the times,
    and of the probabilities given to :meth:`quantile`, indexes subjects:
    shape (n,) holds one value per subject, shape (n, m) m values per subject.
    Boundary inputs t = 0 and t = +inf map to the exact distribution limits.
    """

    def __init__(
        self,
        spec: ModelSpec,
        head: np.ndarray,
        features: np.ndarray | None,
        scaler: LogTimeScaler,
    ):
        self.spec = spec
        self.head = head
        self.features = None if features is None else np.asarray(features, dtype=float)
        self.scaler = scaler

    @property
    def n_subjects(self) -> int | None:
        """Number of subjects of a batch; None when one distribution serves every row."""
        if self.features is None or self.features.ndim == 1:
            return None
        return self.features.shape[0]

    def subject(self, i) -> "ConditionalDistribution":
        """Row ``i`` of a batch, or the batch of the rows an index array ``i`` selects."""
        features = self.features if self.n_subjects is None else self.features[i]
        return ConditionalDistribution(self.spec, self.head, features, self.scaler)

    def check_subjects(self, values: np.ndarray):
        """For a batch, require the leading axis of ``values`` to index its subjects."""
        n = self.n_subjects
        if n is not None and values.shape[:1] != (n,):
            raise DimensionMismatch(
                f"expected a leading axis of {n} subjects, got shape {values.shape}"
            )

    def h_at_log_time(self, u, subjects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h and dh/dlog t at log-times ``u`` of the batch rows ``subjects``, element by element.

        A single subject's distribution ignores ``subjects``.
        """
        features = self.features if self.n_subjects is None else self.features[subjects]
        return eval_transform(self.spec, self.head, features, u, self.scaler)[:2]

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
            features = self.features
            if self.n_subjects is not None:
                features = features[np.nonzero(inside)[0]]
            log_t = np.log(t_arr[inside])
            h, dh, _ = eval_transform(self.spec, self.head, features, log_t, self.scaler)
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
        """Inverse CDF: solves h(t) = F_Z^{-1}(p) in log-time by bracketed Newton.

        All probabilities are solved in one vectorized call, with the slope
        dh/dlog t from the same transformation call as h.
        """
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        self.check_subjects(p_arr)
        z_target = target.quantile(self.spec.family, p_arr).ravel()
        subjects = _leading_index(p_arr.shape)
        u = _solve_increasing(
            lambda v, rows: self.h_at_log_time(v, subjects[rows]),
            z_target,
            self.scaler.a_lo,
            self.scaler.b_hi,
        )
        t = np.exp(u).reshape(p_arr.shape)
        return float(t[0]) if np.ndim(p) == 0 else t


def conditional_distribution(model: FittedModel, x) -> ConditionalDistribution:
    """Build the conditional distribution of one subject or of n subjects.

    ``x`` is one covariate vector of shape (p,), or a matrix of shape (n, p)
    with one subject per row.  Features come from ``feature.features``, so a
    subject's numbers do not depend on which other subjects share the batch.
    """
    spec = model.spec
    head = model.head_params
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise DimensionMismatch(
            f"expected a covariate vector or an (n, p) matrix, got shape {x.shape}"
        )
    if not spec.uses_extractor:
        return ConditionalDistribution(spec, head, None, model.scaler)
    features = feature.features(spec.extractor, model.extractor_params, x)
    return ConditionalDistribution(spec, head, features, model.scaler)
