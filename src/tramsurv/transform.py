"""Monotone transformations of time and the conditional distributions they induce.

Each parameterization builds a transformation h(t | x) that is strictly
increasing in t; composing it with the target family CDF yields the
conditional time-to-event distribution F(t | x) = F_Z(h(t | x)).  Covariates
enter through extractor features, either as an additive shift, a positive
scale, or (for the flexible variant) as the Bernstein coefficients
themselves.

``eval_transform``/``grad_transform`` are the two halves of a hand-written
reverse-mode pass: the gradient call chains upstream sensitivities of h and
dh/dt into head-parameter gradients and feature sensitivities, the latter to
be fed to the extractor's backward pass.
"""

from dataclasses import dataclass

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
    NonPositiveTime,
    ProbabilityOutOfRange,
)
from .numerics import sigmoid, softplus, softplus_inv


@dataclass
class HeadParams:
    """Structured view of the transformation head parameters.

    Only the fields used by the parameterization at hand are set; the same
    container is also used for gradients, which share the structure.
    """

    a: float = 0.0
    b_raw: float = 0.0
    w: np.ndarray | None = None
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None


def head_layout(spec: ModelSpec) -> list[tuple[str, int]]:
    """Field names and sizes of the flat head vector, in storage order."""
    k = spec.bernstein_order + 1
    d = spec.extractor.output_dim if spec.extractor is not None else 0
    p = spec.parameterization
    if p == Parameterization.BASELINE:
        return [("gamma", k)]
    if p == Parameterization.LINEAR_SHIFT:
        return [("a", 1), ("b_raw", 1), ("w", d)]
    if p == Parameterization.LINEAR_SCALE:
        return [("a", 1), ("w", d)]
    if p == Parameterization.BERNSTEIN_SHIFT:
        return [("gamma", k), ("w", d)]
    if p == Parameterization.BERNSTEIN_SHIFT_SCALE:
        return [("gamma", k), ("w", d), ("beta", d)]
    return []  # bernstein_flexible: all parameters live in the extractor


def head_size(spec: ModelSpec) -> int:
    return sum(size for _, size in head_layout(spec))


def head_from_flat(spec: ModelSpec, flat: np.ndarray) -> HeadParams:
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (head_size(spec),):
        raise DimensionMismatch(
            f"expected {head_size(spec)} head parameters, got shape {flat.shape}"
        )
    head = HeadParams()
    pos = 0
    for name, size in head_layout(spec):
        chunk = flat[pos : pos + size]
        pos += size
        setattr(head, name, float(chunk[0]) if name in ("a", "b_raw") else chunk)
    return head


def head_to_flat(spec: ModelSpec, head: HeadParams) -> np.ndarray:
    parts = []
    for name, size in head_layout(spec):
        value = getattr(head, name)
        parts.append(np.atleast_1d(np.asarray(value, dtype=float)))
    if not parts:
        return np.zeros(0)
    flat = np.concatenate(parts)
    if flat.shape != (head_size(spec),):
        raise DimensionMismatch("head fields do not match the model spec layout")
    return flat


def init_head(spec: ModelSpec) -> np.ndarray:
    """Deterministic head initialization as a flat vector.

    The scale parameter starts at softplus(b_raw) = 1, shifts at zero, and
    the Bernstein coefficients spread evenly over [-2, 2] so the initial
    transformation maps the observed range onto the bulk of the target
    distribution.
    """
    k = spec.bernstein_order
    head = HeadParams()
    head.b_raw = softplus_inv(1.0)
    if spec.extractor is not None:
        head.w = np.zeros(spec.extractor.output_dim)
        head.beta = np.zeros(spec.extractor.output_dim)
    head.gamma = np.full(k + 1, softplus_inv(4.0 / k))
    head.gamma[0] = -2.0
    return head_to_flat(spec, head)


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise NonPositiveTime("transformation times must be positive")
    return t


def _features_2d(features, t: np.ndarray) -> np.ndarray:
    """Broadcast features against times: one subject at many times, or rowwise."""
    f = np.asarray(features, dtype=float)
    if f.ndim == 1:
        return np.broadcast_to(f, (t.shape[0], f.shape[0]))
    if f.shape[0] != t.shape[0]:
        raise DimensionMismatch(
            f"{f.shape[0]} feature rows for {t.shape[0]} times"
        )
    return f


def eval_transform(
    spec: ModelSpec,
    head: HeadParams,
    features,
    t,
    scaler: LogTimeScaler,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate h(t | x) and its time derivative dh/dt.

    ``features`` may be a single vector (evaluated at every time) or a matrix
    matched row by row against ``t``; the baseline parameterization ignores
    it.  Returns arrays shaped like ``t``.
    """
    t = _check_times(np.atleast_1d(t))
    p = spec.parameterization
    log_t = np.log(t)

    if p == Parameterization.LINEAR_SHIFT:
        f = _features_2d(features, t)
        b = softplus(head.b_raw)
        h = head.a + b * log_t + f @ head.w
        return h, np.full_like(t, b) / t

    if p == Parameterization.LINEAR_SCALE:
        f = _features_2d(features, t)
        c = softplus(f @ head.w)
        return head.a + c * log_t, c / t

    u = scaler.scale(log_t)
    basis_v, deriv_v = bernstein_vectors(spec.bernstein_order, u)
    du_dt = 1.0 / (scaler.span * t)

    if p == Parameterization.BASELINE:
        theta = monotone_reparam(head.gamma)
        return basis_v @ theta, (deriv_v @ theta) * du_dt

    if p == Parameterization.BERNSTEIN_SHIFT:
        f = _features_2d(features, t)
        theta = monotone_reparam(head.gamma)
        return basis_v @ theta + f @ head.w, (deriv_v @ theta) * du_dt

    if p == Parameterization.BERNSTEIN_SHIFT_SCALE:
        f = _features_2d(features, t)
        theta = monotone_reparam(head.gamma)
        scale = softplus(f @ head.beta)
        return scale * (basis_v @ theta) + f @ head.w, scale * (deriv_v @ theta) * du_dt

    # bernstein_flexible: extractor output becomes the coefficient vector per subject
    f = _features_2d(features, t)
    if f.shape[1] != spec.bernstein_order + 1:
        raise DimensionMismatch(
            "flexible parameterization needs extractor output of dimension order + 1"
        )
    theta = monotone_reparam(f)
    return np.sum(basis_v * theta, axis=-1), np.sum(deriv_v * theta, axis=-1) * du_dt


def grad_transform(
    spec: ModelSpec,
    head: HeadParams,
    features,
    t,
    scaler: LogTimeScaler,
    upstream_h,
    upstream_dhdt,
) -> tuple[HeadParams, np.ndarray]:
    """Chain upstream sensitivities of (h, dh/dt) into parameter gradients.

    Returns head gradients (summed over the batch, in a :class:`HeadParams`
    container) and per-row feature sensitivities ready for the extractor's
    backward pass.  Linear in the upstream arguments.
    """
    t = _check_times(np.atleast_1d(t))
    uh = np.broadcast_to(np.asarray(upstream_h, dtype=float), t.shape)
    ud = np.broadcast_to(np.asarray(upstream_dhdt, dtype=float), t.shape)
    p = spec.parameterization
    log_t = np.log(t)
    grad = HeadParams()

    if p == Parameterization.LINEAR_SHIFT:
        f = _features_2d(features, t)
        grad.a = float(np.sum(uh))
        grad.b_raw = float(sigmoid(head.b_raw) * np.sum(uh * log_t + ud / t))
        grad.w = f.T @ uh
        return grad, np.outer(uh, head.w)

    if p == Parameterization.LINEAR_SCALE:
        f = _features_2d(features, t)
        r = f @ head.w
        d_r = sigmoid(r) * (uh * log_t + ud / t)
        grad.a = float(np.sum(uh))
        grad.w = f.T @ d_r
        return grad, np.outer(d_r, head.w)

    u = scaler.scale(log_t)
    basis_v, deriv_v = bernstein_vectors(spec.bernstein_order, u)
    du_dt = 1.0 / (scaler.span * t)

    if p == Parameterization.BASELINE:
        d_theta = basis_v.T @ uh + deriv_v.T @ (ud * du_dt)
        grad.gamma = monotone_reparam_vjp(head.gamma, d_theta)
        return grad, np.zeros((t.shape[0], 0))

    if p == Parameterization.BERNSTEIN_SHIFT:
        f = _features_2d(features, t)
        d_theta = basis_v.T @ uh + deriv_v.T @ (ud * du_dt)
        grad.gamma = monotone_reparam_vjp(head.gamma, d_theta)
        grad.w = f.T @ uh
        return grad, np.outer(uh, head.w)

    if p == Parameterization.BERNSTEIN_SHIFT_SCALE:
        f = _features_2d(features, t)
        theta = monotone_reparam(head.gamma)
        base = basis_v @ theta
        base_deriv = (deriv_v @ theta) * du_dt
        r = f @ head.beta
        scale = softplus(r)
        d_theta = basis_v.T @ (uh * scale) + deriv_v.T @ (ud * scale * du_dt)
        d_r = sigmoid(r) * (uh * base + ud * base_deriv)
        grad.gamma = monotone_reparam_vjp(head.gamma, d_theta)
        grad.w = f.T @ uh
        grad.beta = f.T @ d_r
        return grad, np.outer(uh, head.w) + np.outer(d_r, head.beta)

    # bernstein_flexible
    f = _features_2d(features, t)
    d_theta = basis_v * uh[:, None] + deriv_v * (ud * du_dt)[:, None]
    return grad, monotone_reparam_vjp(f, d_theta)


def transform_at_log_time(
    spec: ModelSpec,
    head: HeadParams,
    features,
    u,
    scaler: LogTimeScaler,
) -> np.ndarray:
    """h as a function of log-time u = log t, for any real u.

    Working in log-time avoids exp overflow when the quantile bisection
    expands its bracket far beyond the observed range.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = spec.parameterization

    if p == Parameterization.LINEAR_SHIFT:
        f = _features_2d(features, u)
        return head.a + softplus(head.b_raw) * u + f @ head.w
    if p == Parameterization.LINEAR_SCALE:
        f = _features_2d(features, u)
        return head.a + softplus(f @ head.w) * u

    basis_v, _ = bernstein_vectors(spec.bernstein_order, scaler.scale(u))
    if p == Parameterization.BASELINE:
        return basis_v @ monotone_reparam(head.gamma)
    if p == Parameterization.BERNSTEIN_SHIFT:
        f = _features_2d(features, u)
        return basis_v @ monotone_reparam(head.gamma) + f @ head.w
    if p == Parameterization.BERNSTEIN_SHIFT_SCALE:
        f = _features_2d(features, u)
        scale = softplus(f @ head.beta)
        return scale * (basis_v @ monotone_reparam(head.gamma)) + f @ head.w
    f = _features_2d(features, u)
    return np.sum(basis_v * monotone_reparam(f), axis=-1)


# ---------------------------------------------------------------------------
# Conditional distributions

BISECTION_STEPS = 200


def _bisect_increasing(fn, targets: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Solve fn(u, rows) = targets[rows] for every row; fn is increasing in u.

    ``fn`` receives log-times together with the indices of the rows they
    belong to, and is asked only about rows still in play.  Brackets are
    expanded geometrically from [lo, hi], then refined by bisection.  Each row
    stops as soon as its own bracket is narrower than
    ``1e-12 * max(1, |u|)``, so a row's result depends only on its target and
    on fn for that row, not on the other rows solved with it.

    Raises :class:`BisectionNonConvergence` when a row is still unbracketed
    after ``BISECTION_STEPS`` expansions, or unconverged after as many
    halvings.
    """
    targets = np.asarray(targets, dtype=float)
    lo = np.full_like(targets, lo)
    hi = np.full_like(targets, hi)
    for bound, outside, sign in ((lo, np.greater, -1.0), (hi, np.less, 1.0)):
        step = np.maximum(hi - lo, 1.0)
        rows = np.arange(targets.size)
        for expansion in range(BISECTION_STEPS + 1):
            rows = rows[outside(fn(bound[rows], rows), targets[rows])]
            if rows.size == 0:
                break
            if expansion == BISECTION_STEPS:
                raise BisectionNonConvergence(
                    f"{rows.size} quantile target(s) still unbracketed after "
                    f"{BISECTION_STEPS} expansions"
                )
            bound[rows] += sign * step[rows]
            step[rows] *= 2.0
    rows = np.arange(targets.size)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo[rows] + hi[rows])
        below = fn(mid, rows) < targets[rows]
        lo[rows[below]] = mid[below]
        hi[rows[~below]] = mid[~below]
        done = hi[rows] - lo[rows] <= 1e-12 * np.maximum(1.0, np.abs(mid))
        rows = rows[~done]
        if rows.size == 0:
            return 0.5 * (lo + hi)
    raise BisectionNonConvergence(
        f"{rows.size} quantile target(s) unconverged after {BISECTION_STEPS} halvings"
    )


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
        head: HeadParams,
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

    def transform(self, t) -> tuple[np.ndarray, np.ndarray]:
        return eval_transform(self.spec, self.head, self.features, t, self.scaler)

    def h_at_log_time(self, u, subjects: np.ndarray) -> np.ndarray:
        """h at log-times ``u`` of the batch rows ``subjects``, element by element.

        A single subject's distribution ignores ``subjects``.
        """
        features = self.features if self.n_subjects is None else self.features[subjects]
        return transform_at_log_time(self.spec, self.head, features, u, self.scaler)

    def _apply(self, t, of_transform, at_zero: float, at_inf: float):
        """Evaluate ``of_transform(h, dh/dt)`` at the positive, finite times."""
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
            h, dh_dt = eval_transform(self.spec, self.head, features, t_arr[inside], self.scaler)
            out[inside] = of_transform(h, dh_dt)
        return float(out[0]) if np.ndim(t) == 0 else out

    def _log_pdf_of(self, h, dh_dt):
        return target.log_density(self.spec.family, h) + np.log(dh_dt)

    def cdf(self, t):
        return self._apply(t, lambda h, _: target.cdf(self.spec.family, h), 0.0, 1.0)

    def survivor(self, t):
        return self._apply(t, lambda h, _: target.survivor(self.spec.family, h), 1.0, 0.0)

    def log_cdf(self, t):
        return self._apply(t, lambda h, _: target.log_cdf(self.spec.family, h), -np.inf, 0.0)

    def log_survivor(self, t):
        return self._apply(
            t, lambda h, _: target.log_survivor(self.spec.family, h), 0.0, -np.inf
        )

    def log_pdf(self, t):
        return self._apply(t, self._log_pdf_of, -np.inf, -np.inf)

    def pdf(self, t):
        return self._apply(t, lambda h, d: np.exp(self._log_pdf_of(h, d)), 0.0, 0.0)

    def quantile(self, p):
        """Inverse CDF by bracketed bisection on h(t) = F_Z^{-1}(p) in log-time.

        All probabilities are solved in one vectorized bisection.
        """
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        self.check_subjects(p_arr)
        z_target = target.quantile(self.spec.family, p_arr).ravel()
        subjects = _leading_index(p_arr.shape)
        u = _bisect_increasing(
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
    with one subject per row.  Features are computed one subject at a time
    and stacked, so a subject's numbers do not depend on which other subjects
    share the batch.
    """
    spec = model.spec
    head = head_from_flat(spec, model.head_params)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise DimensionMismatch(
            f"expected a covariate vector or an (n, p) matrix, got shape {x.shape}"
        )
    if not spec.uses_extractor:
        return ConditionalDistribution(spec, head, None, model.scaler)
    if x.shape[-1] != spec.extractor.input_dim:
        raise DimensionMismatch(
            f"expected covariates of length {spec.extractor.input_dim}, got shape {x.shape}"
        )
    if (
        spec.parameterization == Parameterization.BERNSTEIN_FLEXIBLE
        and spec.extractor.output_dim != spec.bernstein_order + 1
    ):
        raise DimensionMismatch(
            "flexible parameterization needs extractor output of dimension order + 1"
        )

    def forward(row):
        return feature.forward(spec.extractor, model.extractor_params, row)[0]

    if x.ndim == 1:
        features = forward(x)
    else:
        features = np.array([forward(row) for row in x]).reshape(
            x.shape[0], spec.extractor.output_dim
        )
    return ConditionalDistribution(spec, head, features, model.scaler)
