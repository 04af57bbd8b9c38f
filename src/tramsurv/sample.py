"""Inversion sampling and semi-synthetic data generation.

New event times are drawn by pushing uniform variates through the model's
quantile function.  Semi-synthetic datasets replicate each real subject a
fixed number of times, redrawing the time from the fitted conditional
distribution; draws exceeding the real data's maximum observed time are
replaced by that maximum and marked right-censored, mirroring the original
censoring mechanism.
"""

from dataclasses import dataclass

import numpy as np

from .core import CensoringKind, FittedModel, SurvivalDataset, validate_dataset
from .errors import BadConfig, ProbabilityOutOfRange, SchemaMismatch
from .transform import conditional_distribution


@dataclass(frozen=True)
class SynthConfig:
    """Controls for semi-synthetic generation."""

    replication: int = 10
    seed: int = 0
    censor_at_max: bool = True

    def __post_init__(self):
        if self.replication < 1:
            raise BadConfig("replication must be >= 1")
        if self.seed < 0:
            raise BadConfig("seed must be non-negative")


def sample_time(dist, u):
    """Map uniform variates through the inverse conditional CDF."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(~((u_arr > 0.0) & (u_arr < 1.0))):
        raise ProbabilityOutOfRange("uniform variates must lie strictly in (0, 1)")
    return dist.quantile(u)


def _subject_uniforms(seed: int, subject: int, count: int) -> np.ndarray:
    """Counter-based uniforms keyed by (seed, subject); replicate r is draw r.

    Each subject owns a disjoint counter block of the Philox stream, so any
    subset of subjects reproduces identically regardless of iteration order.
    """
    bits = np.random.Philox(key=seed, counter=[0, 0, subject, 0])
    return np.random.Generator(bits).random(count)


def max_observed_time(dataset: SurvivalDataset) -> float:
    """Largest finite time in the dataset (lower or upper interval endpoint)."""
    upper = dataset.t_upper
    return float(np.concatenate([dataset.t_lower, upper[np.isfinite(upper)]]).max(initial=0.0))


def generate_semisynthetic(
    model: FittedModel,
    dataset: SurvivalDataset,
    config: SynthConfig | None = None,
) -> SurvivalDataset:
    """Replicate each subject, redrawing times from the fitted model.

    Every subject keeps its own block of uniforms; all draws are then solved
    in one batched quantile call.

    Parameters
    ----------
    model : FittedModel
        Generator whose conditional distributions supply the new times.
    dataset : SurvivalDataset
        Real data providing covariates and the censoring cap.
    config : SynthConfig, optional
        Replication factor, seed, and censoring policy.

    Returns
    -------
    SurvivalDataset
        ``replication * n`` observations, ordered subject-major, with
        covariates copied from the corresponding real subject.
    """
    if config is None:
        config = SynthConfig()
    validate_dataset(dataset)
    if model.spec.uses_extractor and model.spec.extractor.input_dim != dataset.p:
        raise SchemaMismatch(
            f"model expects {model.spec.extractor.input_dim} covariates, "
            f"dataset has {dataset.p}"
        )
    t_cap = max_observed_time(dataset)
    dist = conditional_distribution(model, dataset.x)
    u = np.array(
        [_subject_uniforms(config.seed, i, config.replication) for i in range(dataset.n)]
    )
    # random() lives in [0, 1); lift an exact zero to the smallest draw
    times = sample_time(dist, np.maximum(u, 2.0**-53)).ravel()
    censored = config.censor_at_max & (times > t_cap)
    return SurvivalDataset(
        x=np.repeat(dataset.x, config.replication, axis=0),
        t_lower=np.where(censored, t_cap, times),
        t_upper=np.where(censored, np.inf, times),
        kind=np.where(censored, CensoringKind.RIGHT.code, CensoringKind.EXACT.code),
        feature_names=list(dataset.feature_names),
    )
