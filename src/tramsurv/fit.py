"""Censoring-aware likelihood, SGD training, and the fitting of deep ensembles.

The likelihood gives one negative log-likelihood term per observation,
according to its censoring kind: exact times contribute the log-density of
the transformed value plus the log-derivative of the transformation,
right-censored times the log-survivor, left-censored times the log-CDF, and
interval-censored times the log of the CDF difference across the interval
(clamped when the mass underflows).  The likelihood has one form, on a
``SurvivalDataset``: ``nll_batch`` sums the terms of its rows, and a one-row
dataset gives one observation's NLL; the exact-row term equals the
conditional log-density that scoring reads, bit for bit.  A step composes
the transform core: extractor features, then the per-row coefficients of
``transform.coefficients``, then ``eval_transform`` at the lower times and,
when the batch holds interval rows, once more on the whole stack at the
upper times; the pullbacks run in reverse, the two transformation
sensitivities summed into one coefficient pullback.

A step makes few numpy calls: one ``target.censored_nll`` call gives every
row its term and z-derivative, and the plan holds the kinds as row masks
(none for absent kinds).  The SGD loop binds a stack's parameters and one
gradient buffer of their shape once, as ``_Views``: the head columns and the
extractor's ``feature.Layers``.  It binds them again only when a member
leaves the stack.  A step reads the parameter views, writes its gradient
through the buffer's views, and updates the parameters in place; the best
epoch's parameters are copies.  The views are split and checked when bound,
not per step; the step keeps its finiteness check.  Each computes the same
operations in the same order as separate calls, bit for bit.

Training is plain minibatch SGD with separate learning rates for the
transformation head and the feature extractor, gradient clipping at the
global norm ``GRAD_CLIP``, an internal validation split, and early stopping
that restores the parameters of the best validation epoch.  Everything is
deterministic given the seed.  One SGD loop trains a stack of M models (see
``_run_sgd``): parameters are (M, P), every step carries a leading member
axis, and every operation acts per member (stacked matrix products, dots
and sums along the last axis), so a member's numbers do not depend on the
members stacked with it.  ``fit`` is a stack of one; ``fit_ensemble`` fits
its bootstrap members as contiguous stacks, one per worker process.  The
likelihood reads a plan of the dataset, built once after the scaler is
frozen (see ``_Plan``); each epoch gathers every member's shuffled training
rows once and feeds the minibatches as contiguous slices of that gather.
The basis is elementwise in the rows, so a slice scores bitwise as the same
rows computed alone.  The epoch NLLs come from one pass over the plan's rows,
whose terms each member gathers in the order of its rows, so every sum keeps
its order; a matrix product gives a row the same bits in any batch of two or
more rows.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
import logging
import math
from numbers import Real
from typing import NamedTuple
import warnings

import numpy as np

from . import feature, target
from .basis import LogTimeScaler, fit_scaler
from .core import (
    CensoringKind,
    FittedModel,
    ModelSpec,
    SurvivalDataset,
    default_learning_rates,
    validate_dataset,
)
from .errors import (
    AllCensored,
    BadConfig,
    DegenerateIntervalWarning,
    DimensionMismatch,
    EmptyDataset,
    NonFiniteLoss,
    NonPositiveTime,
    require_int,
)
from .transform import (
    Coefficients,
    EnsembleDistribution,
    basis_rows,
    coefficients,
    conditional_distribution,
    eval_transform,
    head_size,
    init_head,
)

logger = logging.getLogger(__name__)

INTERVAL_MASS_FLOOR = 1e-12
GRAD_CLIP = 10.0  # global norm above which a minibatch gradient is scaled down


@dataclass
class TrainConfig:
    """Settings of the SGD loop; a learning rate left None takes the model's default.

    :meth:`resolved` fills those in from :func:`core.default_learning_rates`.
    """

    epochs: int = 200
    batch_size: int = 64
    lr_extractor: float | None = None
    lr_head: float | None = None
    early_stopping_patience: int = 10
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        require_int("epochs", self.epochs, 1)
        require_int("batch_size", self.batch_size, 1)
        require_int("early_stopping_patience", self.early_stopping_patience, 0)
        require_int("seed", self.seed, 0)
        if not (_is_real(self.validation_fraction) and 0.0 < self.validation_fraction < 1.0):
            raise BadConfig(
                f"validation_fraction must lie in (0, 1), got {self.validation_fraction!r}"
            )
        for name in ("lr_extractor", "lr_head"):
            lr = getattr(self, name)
            if lr is not None and not (_is_real(lr) and math.isfinite(lr) and lr > 0.0):
                raise BadConfig(f"{name} must be a finite positive number, got {lr!r}")

    def resolved(self, spec: ModelSpec) -> "TrainConfig":
        """This config with each learning rate left None set to the spec's default."""
        lr_extractor, lr_head = default_learning_rates(spec.parameterization, spec.family)
        return replace(
            self,
            lr_extractor=lr_extractor if self.lr_extractor is None else self.lr_extractor,
            lr_head=lr_head if self.lr_head is None else self.lr_head,
        )


def _is_real(value) -> bool:
    """Whether a setting is a real number; a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass
class ModelState:
    """The parameters of one model, as :func:`nll_batch` reads them."""

    spec: ModelSpec
    scaler: LogTimeScaler
    head_params: np.ndarray
    extractor_params: np.ndarray


@dataclass
class EpochStats:
    epoch: int
    train_nll: float
    val_nll: float
    grad_norm: float
    clipped: int


def _interval_mass(family, h_lower, h_upper):
    """CDF difference over an interval, computed from the better-conditioned tail."""
    upper_tail = h_lower > 0.0
    diff_f = target.cdf(family, h_upper) - target.cdf(family, h_lower)
    diff_s = target.survivor(family, h_lower) - target.survivor(family, h_upper)
    return np.where(upper_tail, diff_s, diff_f)


class _Plan(NamedTuple):
    """The rows of a dataset as the likelihood reads them; none of it depends on the parameters.

    The covariates, the censoring kinds as row masks, the log-times and the
    basis and derivative rows at them (None for the linear
    parameterizations).  ``left`` and ``interval`` are None when the dataset
    has no such rows, and every other row is right-censored.  With interval
    rows, ``upper_log_t`` and ``upper_basis`` give every row an upper
    log-time and basis rows, the lower ones outside interval rows, so any
    selection of rows is one uniform gather; otherwise both are None.
    """

    x: np.ndarray
    exact: np.ndarray
    left: np.ndarray | None
    interval: np.ndarray | None
    log_t: np.ndarray
    basis: tuple | None
    upper_log_t: np.ndarray | None
    upper_basis: tuple | None

    @classmethod
    def of_dataset(cls, dataset: SurvivalDataset, spec: ModelSpec, scaler: LogTimeScaler):
        """Plan of a dataset; it shares the ``x`` column with the dataset.

        Basis rows at upper times are computed for the interval rows only.
        """
        if not np.all(dataset.t_lower > 0.0):
            raise NonPositiveTime("observation times must be positive")
        kind = dataset.kind
        left, interval = kind == CensoringKind.LEFT.code, kind == CensoringKind.INTERVAL.code
        log_t = np.log(dataset.t_lower)
        basis = basis_rows(spec, log_t, scaler)
        upper_log_t = upper_basis = None
        rows = np.flatnonzero(interval)
        if rows.size:
            upper_log_t = log_t.copy()
            upper_log_t[rows] = np.log(dataset.t_upper[rows])
        if rows.size and basis is not None:
            upper_basis = tuple(column.copy() for column in basis)
            for column, upper in zip(upper_basis, basis_rows(spec, upper_log_t[rows], scaler)):
                column[rows] = upper
        return cls(dataset.x, kind == CensoringKind.EXACT.code, left if left.any() else None,
                   interval if rows.size else None, log_t, basis, upper_log_t, upper_basis)

    def take(self, rows) -> "_Plan":
        """The rows an index array selects, in its order, or a basic numpy index of the columns.

        An (M, n) index array gives a stack of M minibatches, and
        ``(slice(None), s)`` the slice ``s`` of each member's rows.  An index
        array copies; a basic index keeps views.
        """
        if isinstance(rows, np.ndarray):
            def gather(column):
                return column.take(rows, axis=0)
        else:
            def gather(column):
                return column[rows]

        x, exact, left, interval, log_t, basis, upper_log_t, upper_basis = self
        return _Plan(
            gather(x), gather(exact),
            None if left is None else gather(left),
            None if interval is None else gather(interval),
            gather(log_t),
            None if basis is None else (gather(basis[0]), gather(basis[1])),
            None if upper_log_t is None else gather(upper_log_t),
            None if upper_basis is None else (gather(upper_basis[0]), gather(upper_basis[1])),
        )

    def shared(self) -> "_Plan":
        """The plan as one batch that every member of a stack scores: a unit member axis."""
        return self.take(None)


class _Views(NamedTuple):
    """A stack's (M, P) parameters, or a gradient buffer like them, with the views a step reads.

    ``head`` views the head columns and ``layers`` the extractor's
    ``feature.Layers`` (None without an extractor).  A training loop binds
    them once per stack, and again when the stack loses a member.
    """

    flat: np.ndarray
    head: np.ndarray
    layers: feature.Layers | None

    @classmethod
    def of(cls, spec: ModelSpec, flat: np.ndarray) -> "_Views":
        n_head = head_size(spec)
        layers = None
        if spec.uses_extractor:
            layers = feature.split_params(spec.extractor, flat[:, n_head:])
        return cls(flat, flat[:, :n_head], layers)


def _nll_core(spec: ModelSpec, scaler: LogTimeScaler, head, ext, plan: _Plan, want_grad: bool,
              grad: _Views | None = None):
    """Per-row NLL terms of a stack of M models, optionally with the gradients of their sums.

    ``head`` (M, P_h) and ``ext`` (M, P_e), or its ``feature.Layers``, hold
    one model per row.  The plan columns have a member axis: (M, n, ...)
    holds one minibatch per member, (1, n, ...) one batch that every member
    scores.  Returns (M, n) terms and the (M, P_h + P_e) gradients, written
    into the buffer ``grad`` binds (a new one when None) and returned as its
    ``flat`` array.  One transformation call covers every row at its lower
    time, and one ``target.censored_nll`` call gives every row its term and
    z-derivative.  When the plan has interval rows, a second call covers the
    whole stack at the plan's upper times (the lower ones outside interval
    rows), and the interval rows' terms are overwritten through their mask;
    the sensitivities of both calls are added field by field and go through
    one coefficient pullback.  Every operation acts per member, so a
    member's numbers are the bits a stack of one gives.
    """
    fam = spec.family
    if spec.uses_extractor:
        feats, tape = feature.forward(spec.extractor, ext, plan.x)
    else:
        feats = tape = None
    coef, coef_pullback = coefficients(spec, head, feats)
    exact, log_t = plan.exact, plan.log_t
    h, dh, pullback = eval_transform(spec, coef, None, log_t, scaler, basis=plan.basis)
    nll_z, up_h = target.censored_nll(fam, h, exact, plan.left)
    # -log f(t) = -(log f_Z(h) + log dh/dlog t - log t) on exact rows
    log_dh = np.log(dh, out=np.zeros(h.shape), where=exact)
    terms = np.where(exact, -((log_dh - nll_z) - log_t), nll_z)
    interval = plan.interval
    if interval is not None:
        # the upper log-times are the lower ones outside interval rows
        h_hi, _, pullback_hi = eval_transform(spec, coef, None, plan.upper_log_t, scaler,
                                              basis=plan.upper_basis)
        interval = np.broadcast_to(interval, h.shape)
        mass = np.where(interval, _interval_mass(fam, h, h_hi), 1.0)
        degenerate = mass < INTERVAL_MASS_FLOOR
        if degenerate.any():
            warnings.warn(
                f"{np.sum(degenerate)} interval observation(s) carry no "
                "probability mass; their likelihood contribution is clamped",
                DegenerateIntervalWarning,
                stacklevel=3,
            )
        clamped = np.maximum(mass, INTERVAL_MASS_FLOOR)
        terms = np.where(interval, -np.log(clamped), terms)
        # 1 / mass on interval rows, 0 where clamped and outside them
        inv = np.where(interval & ~degenerate, 1.0 / clamped, 0.0)
    if not want_grad:
        return terms, None

    if grad is None:
        n_ext = spec.extractor.param_count if tape is not None else 0
        grad = _Views.of(spec, np.empty((head.shape[0], head.shape[1] + n_ext)))
    up_dh = np.divide(-1.0, dh, out=np.zeros(h.shape), where=exact)
    if interval is None:
        d_coef = pullback(up_h, up_dh)
    else:
        up_h = np.where(interval, target.density(fam, h) * inv, up_h)
        d_hi = pullback_hi(-target.density(fam, h_hi) * inv, np.zeros(h.shape))
        d_coef = Coefficients(*(lo if hi is None else lo + hi
                                for lo, hi in zip(pullback(up_h, up_dh), d_hi)))
    _, d_feats = coef_pullback(d_coef, out=grad.head)
    if tape is not None:
        feature.backward(spec.extractor, tape, d_feats, out=grad.layers)
    return terms, grad.flat


def nll_batch(state: ModelState, dataset: SurvivalDataset) -> tuple[float, np.ndarray]:
    """Summed NLL of a dataset's rows and its gradient w.r.t. (head, extractor) parameters.

    A one-row dataset gives the NLL of one observation.
    """
    plan = _Plan.of_dataset(dataset, state.spec, state.scaler).shared()
    terms, grad = _nll_core(state.spec, state.scaler, state.head_params[None],
                            state.extractor_params[None], plan, want_grad=True)
    return float(np.sum(terms[0])), grad[0]


def _check_input_dim(spec: ModelSpec, p: int):
    if spec.uses_extractor and spec.extractor.input_dim != p:
        raise DimensionMismatch(
            f"extractor expects {spec.extractor.input_dim} covariates, dataset has {p}"
        )


def _mean_nll(spec: ModelSpec, scaler: LogTimeScaler, params, plan: _Plan, *row_sets) -> list:
    """Mean NLLs of a stack of models (M, P) on rows of a plan, from one pass over its rows.

    Each of ``row_sets`` gives every model its plan rows (an index array, or
    None for all of them); its result is an (M,) array.  A mean sums the
    model's terms of its rows gathered in their order.
    """
    n_head = head_size(spec)
    terms = _nll_core(spec, scaler, params[:, :n_head], params[:, n_head:], plan.shared(), False)[0]
    return [
        np.array([np.sum(t if r is None else t.take(r)) / (t.size if r is None else r.size)
                  for t, r in zip(terms, rows)])
        for rows in row_sets
    ]


class _Member(NamedTuple):
    """One model of an SGD stack: its seed and the plan rows it reads."""

    seed: int
    train: np.ndarray  # rows SGD trains on
    val: np.ndarray  # rows early stopping reads
    record: np.ndarray | None = None  # rows of the recorded train NLL; None for every row


def _init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """A model's initial parameters, head then extractor, as one flat vector."""
    if not spec.uses_extractor:
        return init_head(spec)
    ext_seed = int(np.random.default_rng([seed, 1]).integers(2**63))
    return np.concatenate([init_head(spec), feature.init_params(spec.extractor, ext_seed)])


def _run_sgd(
    spec: ModelSpec,
    scaler: LogTimeScaler,
    plan: _Plan,
    members: list,
    config: TrainConfig,
    callback=None,
) -> list:
    """SGD of a stack of models, one per :class:`_Member`, in one loop; a model per member.

    Every member trains on its own rows (the same number for each), with
    its own shuffles, gradient norms, clipping, best-epoch copy and early
    stopping on its validation rows; ``config`` gives the rest.  A member that
    stops leaves the stack.  A member's numbers do not depend on the other
    members.  ``callback`` gets each member's :class:`EpochStats`, in stack
    order, after every epoch.  A model records the mean NLL of its member's
    record rows at its parameters.
    """
    n_train = members[0].train.size
    if any(m.train.size != n_train for m in members):
        raise ValueError("the members of a stack need equally many training rows")
    n_head = head_size(spec)
    params = np.stack([_init_params(spec, m.seed) for m in members])
    lr = np.full(params.shape[1], config.lr_extractor)
    lr[:n_head] = config.lr_head
    rngs = [np.random.default_rng([m.seed, 2]) for m in members]
    n_batches = -(-n_train // config.batch_size)

    best = params.copy()  # row i: member i's best parameters
    best_val = np.full(len(members), np.inf)
    wait = np.zeros(len(members), dtype=int)
    active = np.arange(len(members))  # the member of each stack row
    # views of the parameters, updated in place, and the buffer every step's gradient fills
    views, grad = _Views.of(spec, params), _Views.of(spec, np.empty(params.shape))
    for epoch in range(config.epochs):
        # One gather per epoch; each minibatch is then a slice of views.
        order = np.stack([members[i].train[rngs[i].permutation(n_train)] for i in active])
        shuffled = plan.take(order)
        norms = np.empty((active.size, n_batches))
        clipped = np.zeros(active.size, dtype=int)
        for b in range(n_batches):
            start = b * config.batch_size
            batch = shuffled.take((slice(None), slice(start, start + config.batch_size)))
            terms, g = _nll_core(spec, scaler, views.head, views.layers, batch, True, grad)
            if not np.isfinite(terms.sum(axis=-1)).all():
                raise NonFiniteLoss(f"non-finite loss in epoch {epoch}")
            g /= terms.shape[1]
            norms[:, b] = norm = np.sqrt(np.vecdot(g, g))
            if norm.max() > GRAD_CLIP:
                over = norm > GRAD_CLIP
                g[over] *= (GRAD_CLIP / norm[over])[:, None]
                clipped += over
            # In place: the best parameters are copies, never views of these.
            g *= lr
            params -= g
        # Free the shuffled rows before the epoch NLLs score the plan.
        del shuffled, batch
        train_nll, val_nll = _mean_nll(spec, scaler, params, plan,
                                       [members[i].train for i in active],
                                       [members[i].val for i in active])
        if not np.all(np.isfinite(train_nll) & np.isfinite(val_nll)):
            raise NonFiniteLoss(f"non-finite loss in epoch {epoch}")
        keep = np.ones(active.size, dtype=bool)
        for j, i in enumerate(active):
            stats = EpochStats(epoch, float(train_nll[j]), float(val_nll[j]),
                               float(np.mean(norms[j])), int(clipped[j]))
            logger.info(
                "epoch %d, train_nll %.6f, val_nll %.6f, grad_norm %.4f, clipped %d",
                stats.epoch, stats.train_nll, stats.val_nll, stats.grad_norm, stats.clipped,
            )
            if callback is not None:
                callback(stats)
            if val_nll[j] < best_val[i]:
                best_val[i] = val_nll[j]
                best[i] = params[j]
                wait[i] = 0
            else:
                wait[i] += 1
                keep[j] = wait[i] <= config.early_stopping_patience
        if not keep.all():
            active, params = active[keep], params[keep]
            if not active.size:
                break
            views, grad = _Views.of(spec, params), _Views.of(spec, np.empty(params.shape))

    (record_nll,) = _mean_nll(spec, scaler, best, plan, [m.record for m in members])
    return [
        FittedModel(
            spec=spec,
            scaler=scaler,
            head_params=best[i, :n_head].copy(),
            extractor_params=best[i, n_head:].copy(),
            train_nll=float(record_nll[i]),
            validation_nll=float(best_val[i]),
        )
        for i in range(len(members))
    ]


def fit(
    dataset: SurvivalDataset,
    spec: ModelSpec,
    config: TrainConfig | None = None,
    *,
    scaler: LogTimeScaler | None = None,
    callback=None,
) -> FittedModel:
    """Fit a model by SGD with an internal validation split and early stopping.

    Parameters
    ----------
    dataset : SurvivalDataset
        Training data; must contain at least one exact observation.
    spec : ModelSpec
        The model's architecture.
    config : TrainConfig, optional
        Training settings; ``TrainConfig()`` when omitted, learning rates resolved for ``spec``.
    scaler : LogTimeScaler, optional
        Pre-fitted log-time scaler; fitted to ``dataset`` when omitted.
    callback : callable, optional
        Called with an :class:`EpochStats` after every epoch.
    """
    validate_dataset(dataset, for_fitting=True)
    _check_input_dim(spec, dataset.p)
    config = (TrainConfig() if config is None else config).resolved(spec)
    n = dataset.n
    n_val = min(max(int(round(config.validation_fraction * n)), 1), n - 1)
    if n_val == 0:
        raise EmptyDataset(f"the validation split is empty: fit needs at least 2 rows, got {n}")
    if scaler is None:
        scaler = fit_scaler(dataset)

    perm = np.random.default_rng([config.seed, 0]).permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    events = dataset.kind == CensoringKind.EXACT.code
    if not events[train_idx].any():
        # move one exact observation into the training split
        swap = val_idx[events[val_idx]][0]
        val_idx = np.where(val_idx == swap, train_idx[0], val_idx)
        train_idx = np.concatenate([[swap], train_idx[1:]])
    # The recorded train NLL covers the whole fitting dataset (the default
    # record rows) at the returned parameters, so re-evaluating that dataset
    # reproduces it exactly.
    plan = _Plan.of_dataset(dataset, spec, scaler)
    member = _Member(config.seed, train_idx, val_idx)
    return _run_sgd(spec, scaler, plan, [member], config, callback)[0]


# ---------------------------------------------------------------------------
# Deep ensembles


@dataclass
class EnsembleModel:
    """Top-M members of a bootstrap ensemble, plus the selection record."""

    members: list
    member_validation_nlls: np.ndarray
    selected_indices: list = field(default_factory=list)
    pool_validation_nlls: np.ndarray | None = None

    def conditional_distribution(self, x) -> "EnsembleDistribution":
        """Mixture for one covariate vector (p,) or for n subjects (n, p)."""
        return EnsembleDistribution([conditional_distribution(m, x) for m in self.members])


def _bootstrap_indices(rng, events: np.ndarray, n: int) -> np.ndarray:
    for _ in range(1000):
        idx = rng.integers(0, n, size=n)
        if events[idx].any():
            return idx
    raise AllCensored("bootstrap resampling failed to draw an exact observation")


def _bootstrap_member(dataset: SurvivalDataset, config: TrainConfig, member: int) -> _Member:
    """Ensemble member ``member``: its seed, a bootstrap resample and its out-of-bag rows.

    The model records its NLL on the resample, and validates on every row
    when none is out of bag.
    """
    n = dataset.n
    events = dataset.kind == CensoringKind.EXACT.code
    boot = _bootstrap_indices(np.random.default_rng([config.seed, 3, member]), events, n)
    oob = np.setdiff1d(np.arange(n), boot)
    seed = int(np.random.default_rng([config.seed, 4, member]).integers(2**63))
    return _Member(seed, boot, oob if oob.size else np.arange(n), boot)


def _fit_stack(args) -> list:
    """Fit the ensemble members ``members`` as one SGD stack; (member, seed, model) each."""
    dataset, spec, config, scaler, members = args
    stack = [_bootstrap_member(dataset, config, member) for member in members]
    plan = _Plan.of_dataset(dataset, spec, scaler)
    models = _run_sgd(spec, scaler, plan, stack, config)
    return [(member, m.seed, model) for member, m, model in zip(members, stack, models)]


def fit_ensemble(
    dataset: SurvivalDataset,
    spec: ModelSpec,
    config: TrainConfig | None = None,
    *,
    n_members: int = 10,
    top_m: int = 5,
    jobs: int = 1,
) -> EnsembleModel:
    """Fit a bootstrap ensemble and keep the top-M members by validation NLL.

    Each member trains on a bootstrap resample (n draws with replacement) and
    validates on its out-of-bag observations; all members share the scaler
    fitted to the full dataset.  The members are split into
    ``min(jobs, n_members)`` contiguous stacks, each fitted by one SGD loop:
    in this process for one stack, else one stack per worker process.  A
    member's model does not depend on its stack, so neither does the result
    on ``jobs``; selection sorts by (validation NLL, member seed).
    """
    require_int("n_members", n_members, 1)
    require_int("top_m", top_m, 1)
    require_int("jobs", jobs, 1)
    if top_m > n_members:
        raise BadConfig("need 1 <= top_m <= n_members")
    validate_dataset(dataset, for_fitting=True)
    _check_input_dim(spec, dataset.p)
    config = (TrainConfig() if config is None else config).resolved(spec)
    scaler = fit_scaler(dataset)

    stacks = np.array_split(np.arange(n_members), min(jobs, n_members))
    tasks = [(dataset, spec, config, scaler, stack.tolist()) for stack in stacks]
    if len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            results = [r for stack in pool.map(_fit_stack, tasks) for r in stack]
    else:
        results = _fit_stack(tasks[0])

    order = sorted(range(n_members), key=lambda m: (results[m][2].validation_nll, results[m][1]))
    selected = order[:top_m]
    return EnsembleModel(
        members=[results[m][2] for m in selected],
        member_validation_nlls=np.array([results[m][2].validation_nll for m in selected]),
        selected_indices=selected,
        pool_validation_nlls=np.array([r[2].validation_nll for r in results]),
    )
