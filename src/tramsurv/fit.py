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
for interval rows, at the upper times, gathering their coefficient rows; the
pullbacks run in reverse.

A step makes few numpy calls: one ``target.censored_nll`` call gives every
row its term and z-derivative, the plan holds the kinds as row masks (none for
absent kinds), and the extractor, its backward pass and SGD work in place on
preallocated arrays; the best epoch's parameters are copies.  Each computes
the same operations in the same order as separate calls, bit for bit.

Training is plain minibatch SGD with separate learning rates for the
transformation head and the feature extractor, gradient clipping at the
global norm ``GRAD_CLIP``, an internal validation split, and early stopping
that restores the parameters of the best validation epoch.  Everything is
deterministic given the seed.  The likelihood reads a plan of the dataset,
built once after the scaler is frozen (see ``_Plan``); each epoch gathers the
shuffled training rows once and feeds the minibatches as contiguous slices
of that gather.  The basis is elementwise in the rows, so a slice scores
bitwise as the same rows computed alone, and the epoch NLLs gather their
rows in a fixed order, so every sum keeps its order.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
import logging
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
)
from .transform import (
    EnsembleDistribution,
    basis_rows,
    coefficients,
    conditional_distribution,
    eval_transform,
    init_head,
)

logger = logging.getLogger(__name__)

INTERVAL_MASS_FLOOR = 1e-12
GRAD_CLIP = 10.0  # global norm above which a minibatch gradient is scaled down


@dataclass
class TrainConfig:
    """Knobs of the SGD loop; defaults mirror the model spec where sensible."""

    epochs: int = 200
    batch_size: int = 64
    lr_extractor: float = 0.001
    lr_head: float = 0.1
    early_stopping_patience: int = 10
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise BadConfig("epochs must be >= 1")
        if self.batch_size < 1:
            raise BadConfig("batch_size must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise BadConfig("validation_fraction must lie in (0, 1)")
        if self.early_stopping_patience < 0:
            raise BadConfig("early_stopping_patience must be >= 0")
        if self.lr_extractor <= 0.0 or self.lr_head <= 0.0:
            raise BadConfig("learning rates must be positive")
        if self.seed < 0:
            raise BadConfig("seed must be non-negative")

    @classmethod
    def from_model_spec(cls, spec: ModelSpec, **overrides) -> "TrainConfig":
        base = dict(
            epochs=spec.epochs,
            lr_extractor=spec.lr_extractor,
            lr_head=spec.lr_head,
            early_stopping_patience=spec.early_stopping_patience,
            seed=spec.seed,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class ModelState:
    """Mutable parameter state used while training."""

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

    @property
    def n(self) -> int:
        return self.exact.shape[0]

    def take(self, rows) -> "_Plan":
        """The rows an index array or a contiguous slice selects, in its order.

        A slice keeps views; an index array copies.
        """

        def gather(column):
            if column is None:
                return None
            if isinstance(column, tuple):
                return tuple(map(gather, column))
            return column[rows] if isinstance(rows, slice) else column.take(rows, axis=0)

        return _Plan(*map(gather, self))


_NO_ROWS = np.zeros(0, dtype=np.intp)


def _nll_core(state: ModelState, plan: _Plan, want_grad: bool):
    """Per-row NLL terms of a plan's rows, optionally with the gradient of their sum.

    One transformation call covers every row at its lower time, and one
    ``target.censored_nll`` call gives every row its term and z-derivative;
    interval rows take a second transformation call at their upper time, on
    their gathered coefficient rows, and overwrite their terms.
    """
    spec = state.spec
    fam = spec.family
    if spec.uses_extractor:
        feats, tape = feature.forward(spec.extractor, state.extractor_params, plan.x)
    else:
        feats = tape = None
    coef, coef_pullback = coefficients(spec, state.head_params, feats)
    exact = plan.exact
    interval = _NO_ROWS if plan.interval is None else np.flatnonzero(plan.interval)
    log_t = plan.log_t
    h, dh, pullback = eval_transform(spec, coef, None, log_t, state.scaler, basis=plan.basis)
    nll_z, up_h = target.censored_nll(fam, h, exact, plan.left)
    # -log f(t) = -(log f_Z(h) + log dh/dlog t - log t) on exact rows
    log_dh = np.log(dh, out=np.zeros_like(dh), where=exact)
    terms = np.where(exact, -((log_dh - nll_z) - log_t), nll_z)
    if interval.size:
        h_lo = h[interval]
        upper = plan.take(interval)
        h_hi, _, pullback_hi = eval_transform(
            spec, coef, interval, upper.upper_log_t, state.scaler, basis=upper.upper_basis
        )
        mass = _interval_mass(fam, h_lo, h_hi)
        degenerate = mass < INTERVAL_MASS_FLOOR
        if np.any(degenerate):
            warnings.warn(
                f"{int(np.sum(degenerate))} interval observation(s) carry no "
                "probability mass; their likelihood contribution is clamped",
                DegenerateIntervalWarning,
                stacklevel=3,
            )
        terms[interval] = -np.log(np.maximum(mass, INTERVAL_MASS_FLOOR))
    if not want_grad:
        return terms, None

    up_dh = np.divide(-1.0, dh, out=np.zeros_like(dh), where=exact)
    if interval.size:
        inv = np.where(degenerate, 0.0, 1.0 / np.maximum(mass, INTERVAL_MASS_FLOOR))
        up_h[interval] = target.density(fam, h_lo) * inv
    head_grad, d_feats = coef_pullback(pullback(up_h, up_dh))
    if interval.size:
        d_hi = pullback_hi(-target.density(fam, h_hi) * inv, np.zeros(interval.size))
        grad_hi, d_feats_hi = coef_pullback(d_hi, interval)
        head_grad += grad_hi
        d_feats[interval] += d_feats_hi
    if spec.uses_extractor:
        ext_grad = feature.backward(spec.extractor, tape, d_feats)
    else:
        ext_grad = np.zeros(0)
    return terms, np.concatenate([head_grad, ext_grad])


def nll_batch(state: ModelState, dataset: SurvivalDataset) -> tuple[float, np.ndarray]:
    """Summed NLL of a dataset's rows and its gradient w.r.t. (head, extractor) parameters.

    A one-row dataset gives the NLL of one observation.
    """
    plan = _Plan.of_dataset(dataset, state.spec, state.scaler)
    terms, grad = _nll_core(state, plan, want_grad=True)
    return float(np.sum(terms)), grad


def _check_input_dim(spec: ModelSpec, p: int):
    if spec.uses_extractor and spec.extractor.input_dim != p:
        raise DimensionMismatch(
            f"extractor expects {spec.extractor.input_dim} covariates, dataset has {p}"
        )


def _mean_nll(state: ModelState, plan: _Plan, rows=None) -> float:
    """Mean NLL of the plan rows ``rows`` (all of them when None), summed in their order."""
    if rows is not None:
        plan = plan.take(rows)
    return np.sum(_nll_core(state, plan, want_grad=False)[0]) / plan.n


def _run_sgd(
    spec: ModelSpec,
    scaler: LogTimeScaler,
    plan: _Plan,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    config: TrainConfig,
    callback=None,
    record_idx: np.ndarray | None = None,
) -> FittedModel:
    """SGD on the plan rows ``train_idx``, early-stopped on the rows ``val_idx``.

    The returned model records the mean NLL of the rows ``record_idx`` (the
    whole plan when None) at its parameters.
    """
    head = init_head(spec)
    if spec.uses_extractor:
        ext_seed = int(np.random.default_rng([config.seed, 1]).integers(2**63))
        ext = feature.init_params(spec.extractor, ext_seed)
    else:
        ext = np.zeros(0)
    state = ModelState(spec, scaler, head, ext)
    n_head = head.size
    rng = np.random.default_rng([config.seed, 2])

    best_val = np.inf
    best_head, best_ext = head.copy(), ext.copy()
    wait = 0
    for epoch in range(config.epochs):
        # One gather per epoch; each minibatch is then a slice of views.
        shuffled = plan.take(train_idx[rng.permutation(train_idx.size)])
        norms = []
        clipped = 0
        for start in range(0, shuffled.n, config.batch_size):
            batch = shuffled.take(slice(start, start + config.batch_size))
            terms, g = _nll_core(state, batch, want_grad=True)
            if not np.isfinite(np.sum(terms)):
                raise NonFiniteLoss(f"non-finite loss in epoch {epoch}")
            g /= batch.n
            norm = float(np.sqrt(g.dot(g)))  # np.linalg.norm's own sum, without its dispatch
            norms.append(norm)
            if norm > GRAD_CLIP:
                g *= GRAD_CLIP / norm
                clipped += 1
            # In place: the best parameters are copies, never views of these.
            g[:n_head] *= config.lr_head
            g[n_head:] *= config.lr_extractor
            state.head_params -= g[:n_head]
            state.extractor_params -= g[n_head:]
        # Free the shuffled rows before the epoch NLLs gather their own.
        del shuffled, batch
        train_nll = _mean_nll(state, plan, train_idx)
        val_nll = _mean_nll(state, plan, val_idx)
        if not (np.isfinite(train_nll) and np.isfinite(val_nll)):
            raise NonFiniteLoss(f"non-finite loss in epoch {epoch}")
        stats = EpochStats(epoch, train_nll, val_nll, float(np.mean(norms)), clipped)
        logger.info(
            "epoch %d, train_nll %.6f, val_nll %.6f, grad_norm %.4f, clipped %d",
            stats.epoch, stats.train_nll, stats.val_nll, stats.grad_norm, stats.clipped,
        )
        if callback is not None:
            callback(stats)
        if val_nll < best_val:
            best_val = val_nll
            best_head = state.head_params.copy()
            best_ext = state.extractor_params.copy()
            wait = 0
        else:
            wait += 1
            if wait > config.early_stopping_patience:
                break

    train_nll = _mean_nll(ModelState(spec, scaler, best_head, best_ext), plan, record_idx)
    return FittedModel(
        spec=spec,
        scaler=scaler,
        head_params=best_head,
        extractor_params=best_ext,
        train_nll=float(train_nll),
        validation_nll=float(best_val),
    )


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
        Architecture and training defaults.
    config : TrainConfig, optional
        Training knobs; defaults are derived from ``spec``.
    scaler : LogTimeScaler, optional
        Pre-fitted log-time scaler; fitted to ``dataset`` when omitted.
    callback : callable, optional
        Called with an :class:`EpochStats` after every epoch.
    """
    validate_dataset(dataset, for_fitting=True)
    _check_input_dim(spec, dataset.p)
    if config is None:
        config = TrainConfig.from_model_spec(spec)
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
    return _run_sgd(spec, scaler, plan, train_idx, val_idx, config, callback)


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


def _fit_member(args):
    dataset, spec, config, scaler, member = args
    n = dataset.n
    events = dataset.kind == CensoringKind.EXACT.code
    rng = np.random.default_rng([config.seed, 3, member])
    boot = _bootstrap_indices(rng, events, n)
    oob = np.setdiff1d(np.arange(n), boot)
    if oob.size == 0:
        oob = np.arange(n)
    member_seed = int(np.random.default_rng([config.seed, 4, member]).integers(2**63))
    member_config = replace(config, seed=member_seed)
    plan = _Plan.of_dataset(dataset, spec, scaler)
    model = _run_sgd(spec, scaler, plan, boot, oob, member_config, record_idx=boot)
    return member, member_seed, model


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
    fitted to the full dataset.  Selection sorts by (validation NLL, member
    seed), so the result is deterministic even when members are fitted in
    parallel worker processes (``jobs > 1``).
    """
    if not 1 <= top_m <= n_members:
        raise BadConfig("need 1 <= top_m <= n_members")
    validate_dataset(dataset, for_fitting=True)
    _check_input_dim(spec, dataset.p)
    if config is None:
        config = TrainConfig.from_model_spec(spec)
    scaler = fit_scaler(dataset)

    tasks = [(dataset, spec, config, scaler, m) for m in range(n_members)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_fit_member, tasks))
    else:
        results = [_fit_member(t) for t in tasks]
    results.sort(key=lambda r: r[0])

    order = sorted(range(n_members), key=lambda m: (results[m][2].validation_nll, results[m][1]))
    selected = order[:top_m]
    return EnsembleModel(
        members=[results[m][2] for m in selected],
        member_validation_nlls=np.array([results[m][2].validation_nll for m in selected]),
        selected_indices=selected,
        pool_validation_nlls=np.array([r[2].validation_nll for r in results]),
    )
