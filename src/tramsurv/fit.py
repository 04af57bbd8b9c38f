"""Censoring-aware likelihood, SGD training, and deep ensembles.

The negative log-likelihood sums one term per observation according to its
censoring kind: exact times contribute the log-density of the transformed
value plus the log-derivative of the transformation, right-censored times the
log-survivor, left-censored times the log-CDF, and interval-censored times
the log of the CDF difference across the interval (clamped when the mass
underflows).

Training is plain minibatch SGD with separate learning rates for the
transformation head and the feature extractor, gradient clipping at a global
norm, an internal validation split, and early stopping that restores the
parameters of the best validation epoch.  Everything is deterministic given
the seed.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
import logging
import warnings

import numpy as np

from . import feature, target
from .basis import LogTimeScaler, fit_scaler
from .core import (
    CensoringKind,
    FittedModel,
    ModelSpec,
    Parameterization,
    SurvivalDataset,
    validate_dataset,
)
from .errors import (
    AllCensored,
    DegenerateIntervalWarning,
    DimensionMismatch,
    NonFiniteLoss,
    ProbabilityOutOfRange,
)
from .numerics import logsumexp
from .transform import (
    _bisect_increasing,
    _leading_index,
    conditional_distribution,
    eval_transform,
    grad_transform,
    head_from_flat,
    head_size,
    head_to_flat,
    init_head,
)

logger = logging.getLogger(__name__)

INTERVAL_MASS_FLOOR = 1e-12

_KIND_CODE = {
    CensoringKind.EXACT: 0,
    CensoringKind.RIGHT: 1,
    CensoringKind.LEFT: 2,
    CensoringKind.INTERVAL: 3,
}


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
    grad_clip: float = 10.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")
        if self.early_stopping_patience < 0:
            raise ValueError("early_stopping_patience must be >= 0")
        if self.lr_extractor <= 0.0 or self.lr_head <= 0.0:
            raise ValueError("learning rates must be positive")

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


@dataclass
class _Stacked:
    """Columnar view of an observation list."""

    x: np.ndarray
    t_lower: np.ndarray
    t_upper: np.ndarray
    kind: np.ndarray

    @classmethod
    def from_observations(cls, observations) -> "_Stacked":
        return cls(
            x=np.array([o.covariates for o in observations], dtype=float),
            t_lower=np.array([o.time_lower for o in observations], dtype=float),
            t_upper=np.array([o.time_upper for o in observations], dtype=float),
            kind=np.array([_KIND_CODE[o.censoring] for o in observations], dtype=np.int8),
        )

    def take(self, idx: np.ndarray) -> "_Stacked":
        return _Stacked(self.x[idx], self.t_lower[idx], self.t_upper[idx], self.kind[idx])

    @property
    def n(self) -> int:
        return self.t_lower.shape[0]


def _interval_mass(family, h_lower, h_upper):
    """CDF difference over an interval, computed from the better-conditioned tail."""
    upper_tail = h_lower > 0.0
    diff_f = target.cdf(family, h_upper) - target.cdf(family, h_lower)
    diff_s = target.survivor(family, h_lower) - target.survivor(family, h_upper)
    return np.where(upper_tail, diff_s, diff_f)


def _nll_core(state: ModelState, st: _Stacked, want_grad: bool):
    """Summed NLL over a stacked batch, optionally with its full gradient."""
    spec = state.spec
    fam = spec.family
    head = head_from_flat(spec, state.head_params)
    if spec.uses_extractor:
        feats, tape = feature.forward(spec.extractor, state.extractor_params, st.x)
        d_feats = np.zeros_like(feats) if want_grad else None
    else:
        feats = tape = d_feats = None
    nll = 0.0
    head_grad = np.zeros(head_size(spec)) if want_grad else None

    def feats_at(idx):
        return None if feats is None else feats[idx]

    def backprop(idx, t, up_h, up_dhdt):
        g, dfg = grad_transform(spec, head, feats_at(idx), t, state.scaler, up_h, up_dhdt)
        np.add(head_grad, head_to_flat(spec, g), out=head_grad)
        if d_feats is not None:
            d_feats[idx] += dfg

    exact = np.nonzero(st.kind == 0)[0]
    if exact.size:
        t = st.t_lower[exact]
        h, dh_dt = eval_transform(spec, head, feats_at(exact), t, state.scaler)
        nll -= float(np.sum(target.log_density(fam, h)) + np.sum(np.log(dh_dt)))
        if want_grad:
            backprop(exact, t, -target.log_density_dz(fam, h), -1.0 / dh_dt)

    right = np.nonzero(st.kind == 1)[0]
    if right.size:
        t = st.t_lower[right]
        h, _ = eval_transform(spec, head, feats_at(right), t, state.scaler)
        nll -= float(np.sum(target.log_survivor(fam, h)))
        if want_grad:
            backprop(right, t, target.neg_log_survivor_dz(fam, h), 0.0)

    left = np.nonzero(st.kind == 2)[0]
    if left.size:
        t = st.t_lower[left]
        h, _ = eval_transform(spec, head, feats_at(left), t, state.scaler)
        nll -= float(np.sum(target.log_cdf(fam, h)))
        if want_grad:
            backprop(left, t, target.neg_log_cdf_dz(fam, h), 0.0)

    interval = np.nonzero(st.kind == 3)[0]
    if interval.size:
        t_lo, t_hi = st.t_lower[interval], st.t_upper[interval]
        h_lo, _ = eval_transform(spec, head, feats_at(interval), t_lo, state.scaler)
        h_hi, _ = eval_transform(spec, head, feats_at(interval), t_hi, state.scaler)
        mass = _interval_mass(fam, h_lo, h_hi)
        degenerate = mass < INTERVAL_MASS_FLOOR
        if np.any(degenerate):
            warnings.warn(
                f"{int(np.sum(degenerate))} interval observation(s) carry no "
                "probability mass; their likelihood contribution is clamped",
                DegenerateIntervalWarning,
                stacklevel=3,
            )
        nll += float(np.sum(-np.log(np.maximum(mass, INTERVAL_MASS_FLOOR))))
        if want_grad:
            inv = np.where(mass >= INTERVAL_MASS_FLOOR, 1.0 / np.maximum(mass, INTERVAL_MASS_FLOOR), 0.0)
            backprop(interval, t_lo, target.density(fam, h_lo) * inv, 0.0)
            backprop(interval, t_hi, -target.density(fam, h_hi) * inv, 0.0)

    if not want_grad:
        return nll, None
    if spec.uses_extractor:
        ext_grad, _ = feature.backward(spec.extractor, state.extractor_params, tape, d_feats)
    else:
        ext_grad = np.zeros(0)
    return nll, np.concatenate([head_grad, ext_grad])


def nll_batch(state: ModelState, observations) -> tuple[float, np.ndarray]:
    """Summed NLL of a batch and its gradient w.r.t. (head, extractor) parameters."""
    nll, grad = _nll_core(state, _Stacked.from_observations(observations), want_grad=True)
    return nll, grad


def censored_nll(dist, obs) -> float:
    """NLL contribution of one observation under a conditional distribution.

    This is the single source of truth shared by training-time evaluation and
    the log-score.  Interval censoring needs a distribution exposing
    ``transform`` (single-model distributions do).
    """
    kind = obs.censoring
    if kind == CensoringKind.EXACT:
        return float(-dist.log_pdf(obs.time_lower))
    if kind == CensoringKind.RIGHT:
        return float(-dist.log_survivor(obs.time_lower))
    if kind == CensoringKind.LEFT:
        return float(-dist.log_cdf(obs.time_lower))
    h_lo, _ = dist.transform(obs.time_lower)
    h_hi, _ = dist.transform(obs.time_upper)
    mass = _interval_mass(dist.spec.family, h_lo, h_hi)
    if np.any(mass < INTERVAL_MASS_FLOOR):
        warnings.warn(
            "interval observation carries no probability mass; clamped",
            DegenerateIntervalWarning,
            stacklevel=2,
        )
    return float(np.sum(-np.log(np.maximum(mass, INTERVAL_MASS_FLOOR))))


def nll_observation(model, obs) -> float:
    """Per-observation NLL of a fitted model (or training state)."""
    if isinstance(model, ModelState):
        model = FittedModel(
            spec=model.spec,
            scaler=model.scaler,
            head_params=model.head_params,
            extractor_params=model.extractor_params,
            train_nll=0.0,
            validation_nll=0.0,
        )
    dist = conditional_distribution(model, obs.covariates)
    return censored_nll(dist, obs)


def _check_spec_shapes(spec: ModelSpec, p: int):
    if not spec.uses_extractor:
        return
    if spec.extractor is None:
        raise DimensionMismatch(
            f"parameterization {spec.parameterization.value} requires an extractor spec"
        )
    if spec.extractor.input_dim != p:
        raise DimensionMismatch(
            f"extractor expects {spec.extractor.input_dim} covariates, dataset has {p}"
        )
    if (
        spec.parameterization == Parameterization.BERNSTEIN_FLEXIBLE
        and spec.extractor.output_dim != spec.bernstein_order + 1
    ):
        raise DimensionMismatch(
            "flexible parameterization needs extractor output of dimension order + 1"
        )


def _run_sgd(
    spec: ModelSpec,
    scaler: LogTimeScaler,
    train_st: _Stacked,
    val_st: _Stacked,
    config: TrainConfig,
    callback=None,
    record_st: _Stacked | None = None,
) -> FittedModel:
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
        order = rng.permutation(train_st.n)
        norms = []
        clipped = 0
        for start in range(0, train_st.n, config.batch_size):
            idx = order[start : start + config.batch_size]
            nll, grad = _nll_core(state, train_st.take(idx), want_grad=True)
            if not np.isfinite(nll):
                raise NonFiniteLoss(f"non-finite loss in epoch {epoch}")
            g = grad / idx.size
            norm = float(np.linalg.norm(g))
            norms.append(norm)
            if norm > config.grad_clip:
                g = g * (config.grad_clip / norm)
                clipped += 1
            state.head_params = state.head_params - config.lr_head * g[:n_head]
            state.extractor_params = state.extractor_params - config.lr_extractor * g[n_head:]
        train_nll = _nll_core(state, train_st, want_grad=False)[0] / train_st.n
        val_nll = _nll_core(state, val_st, want_grad=False)[0] / val_st.n
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

    best_state = ModelState(spec, scaler, best_head, best_ext)
    # The recorded train NLL covers the whole fitting dataset at the returned
    # parameters, so re-evaluating that dataset reproduces it exactly.
    record = train_st if record_st is None else record_st
    train_nll = _nll_core(best_state, record, want_grad=False)[0] / record.n
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
    _check_spec_shapes(spec, dataset.p)
    if config is None:
        config = TrainConfig.from_model_spec(spec)
    if scaler is None:
        scaler = fit_scaler(dataset)

    n = dataset.n
    n_val = min(max(int(round(config.validation_fraction * n)), 1), n - 1)
    perm = np.random.default_rng([config.seed, 0]).permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    events = np.array([o.event for o in dataset.observations])
    if not events[train_idx].any():
        # move one exact observation into the training split
        swap = val_idx[events[val_idx]][0]
        val_idx = np.where(val_idx == swap, train_idx[0], val_idx)
        train_idx = np.concatenate([[swap], train_idx[1:]])
    full = _Stacked.from_observations(dataset.observations)
    return _run_sgd(
        spec, scaler, full.take(train_idx), full.take(val_idx), config, callback,
        record_st=full,
    )


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


class EnsembleDistribution:
    """Pointwise mixture (equal weights) of member conditional distributions.

    Members describe the same subject, or the same batch of subjects, and the
    mixture follows their shape rules (see :class:`ConditionalDistribution`).
    """

    def __init__(self, members: list):
        if not members:
            raise ValueError("ensemble distribution needs at least one member")
        self.members = members

    def subject(self, i) -> "EnsembleDistribution":
        """Mixture of row ``i`` of a batch, or of the rows an index array ``i`` selects."""
        return EnsembleDistribution([m.subject(i) for m in self.members])

    def cdf(self, t):
        return np.mean([m.cdf(t) for m in self.members], axis=0)

    def survivor(self, t):
        return np.mean([m.survivor(t) for m in self.members], axis=0)

    def pdf(self, t):
        return np.mean([m.pdf(t) for m in self.members], axis=0)

    def log_pdf(self, t):
        return logsumexp(np.array([m.log_pdf(t) for m in self.members]), axis=0) - np.log(
            len(self.members)
        )

    def log_survivor(self, t):
        return logsumexp(
            np.array([m.log_survivor(t) for m in self.members]), axis=0
        ) - np.log(len(self.members))

    def log_cdf(self, t):
        return logsumexp(np.array([m.log_cdf(t) for m in self.members]), axis=0) - np.log(
            len(self.members)
        )

    def quantile(self, p):
        """Inverse of the averaged CDF by one vectorized bisection in log-time."""
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        if np.any(~((p_arr > 0.0) & (p_arr < 1.0))):
            raise ProbabilityOutOfRange("quantile requires probabilities in (0, 1)")
        for m in self.members:
            m.check_subjects(p_arr)
        subjects = _leading_index(p_arr.shape)

        def mean_cdf_at_log_time(u, rows):
            vals = [
                target.cdf(m.spec.family, m.h_at_log_time(u, subjects[rows]))
                for m in self.members
            ]
            return np.mean(vals, axis=0)

        lo = min(m.scaler.a_lo for m in self.members)
        hi = max(m.scaler.b_hi for m in self.members)
        u = _bisect_increasing(mean_cdf_at_log_time, p_arr.ravel(), lo, hi)
        t = np.exp(u).reshape(p_arr.shape)
        return float(t[0]) if np.ndim(p) == 0 else t


def _bootstrap_indices(rng, events: np.ndarray, n: int) -> np.ndarray:
    for _ in range(1000):
        idx = rng.integers(0, n, size=n)
        if events[idx].any():
            return idx
    raise AllCensored("bootstrap resampling failed to draw an exact observation")


def _fit_member(args):
    dataset, spec, config, scaler, member = args
    n = dataset.n
    events = np.array([o.event for o in dataset.observations])
    rng = np.random.default_rng([config.seed, 3, member])
    boot = _bootstrap_indices(rng, events, n)
    oob = np.setdiff1d(np.arange(n), boot)
    if oob.size == 0:
        oob = np.arange(n)
    member_seed = int(np.random.default_rng([config.seed, 4, member]).integers(2**63))
    member_config = replace(config, seed=member_seed)
    full = _Stacked.from_observations(dataset.observations)
    model = _run_sgd(spec, scaler, full.take(boot), full.take(oob), member_config)
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
        raise ValueError("need 1 <= top_m <= n_members")
    validate_dataset(dataset, for_fitting=True)
    _check_spec_shapes(spec, dataset.p)
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
