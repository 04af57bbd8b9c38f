"""Inversion sampling and semi-synthetic data generation.

New event times are drawn by pushing uniform variates through the model's
quantile function.  Semi-synthetic datasets replicate each real subject a
fixed number of times, redrawing the time from the fitted conditional
distribution; draws exceeding the real data's maximum observed time are
replaced by that maximum and marked right-censored, mirroring the original
censoring mechanism.

Subject i's uniforms are the stream numpy draws from
``np.random.Philox(key=seed, counter=[0, 0, i, 0])``.  ``philox_uniforms``
computes that stream for every subject at once: Philox4x64-10 (Salmon et
al. 2011, "Parallel random numbers: as easy as 1, 2, 3") is a fixed
sequence of integer rounds on a counter, so it is written here in numpy
over all (subject, block) counters, and matches numpy bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .core import CensoringKind, FittedModel, SurvivalDataset, validate_dataset
from .errors import BadConfig, SchemaMismatch, require_int, require_type
from .transform import conditional_distribution


@dataclass(frozen=True)
class SynthConfig:
    """Controls for semi-synthetic generation."""

    replication: int = 10
    seed: int = 0
    censor_at_max: bool = True

    def __post_init__(self):
        require_int("replication", self.replication, 1)
        require_int("seed", self.seed, 0)
        if self.seed >= 2**128:
            raise BadConfig(f"seed must be below 2**128, got {self.seed}")
        if not isinstance(self.censor_at_max, (bool, np.bool_)):
            raise BadConfig(f"censor_at_max must be a bool, got {self.censor_at_max!r}")


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments (Weyl)
_PHILOX_ROUNDS = 10


def _u64(value: int) -> np.ndarray:
    # a one-element array, not a scalar: numpy warns on scalar uint64
    # overflow, and the wrap-around is the arithmetic Philox wants
    return np.array([value], dtype=np.uint64)


_LOW32 = _u64(0xFFFFFFFF)
_SHIFT32 = _u64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``m * x``, in 32-bit limbs."""
    m_lo, m_hi = _u64(m & 0xFFFFFFFF), _u64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo, hi_lo, lo_hi = m_lo * x_lo, m_hi * x_lo, m_lo * x_hi
    carry = ((lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)) >> _SHIFT32
    hi = m_hi * x_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + carry
    return hi, _u64(m) * x


def philox_uniforms(seed: int, subjects, count: int) -> np.ndarray:
    """``count`` uniforms in [0, 1) for each subject index in ``subjects``, shape (n, count).

    The row of subject i equals
    ``Generator(Philox(key=seed, counter=[0, 0, i, 0])).random(count)``:
    the key is the seed's two 64-bit words, low word first; numpy increments
    counter word 0 before each block of four outputs, so subject i reads the
    blocks at counters [1..ceil(count / 4), 0, i, 0]; and a double is the top
    53 bits of an output word times 2**-53.  Each subject owns its counter
    range, so its draws do not depend on which other subjects are drawn.
    """
    subjects = np.asarray(subjects, dtype=np.uint64)
    blocks = -(-count // 4)
    shape = (subjects.size, blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c3 = np.zeros(shape, dtype=np.uint64)
    c2 = np.broadcast_to(subjects[:, None], shape)
    k0, k1 = _u64(seed & (2**64 - 1)), _u64(seed >> 64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _u64(_PHILOX_W[0]), k1 + _u64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(subjects.size, 4 * blocks)[:, :count]
    return (words >> _u64(11)) * 2.0**-53


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

    Every subject keeps its own block of uniforms (see :func:`philox_uniforms`);
    all draws are then solved in one batched quantile call.

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
    require_type("model", model, FittedModel)
    if config is None:
        config = SynthConfig()
    require_type("config", config, SynthConfig)
    validate_dataset(dataset)
    if model.spec.uses_extractor and model.spec.extractor.input_dim != dataset.p:
        raise SchemaMismatch(
            f"model expects {model.spec.extractor.input_dim} covariates, "
            f"dataset has {dataset.p}"
        )
    t_cap = max_observed_time(dataset)
    dist = conditional_distribution(model, dataset.x)
    u = philox_uniforms(config.seed, np.arange(dataset.n), config.replication)
    # random() lives in [0, 1); lift an exact zero to the smallest draw
    times = dist.quantile(np.maximum(u, 2.0**-53)).ravel()
    censored = config.censor_at_max & (times > t_cap)
    return SurvivalDataset(
        x=np.repeat(dataset.x, config.replication, axis=0),
        t_lower=np.where(censored, t_cap, times),
        t_upper=np.where(censored, np.inf, times),
        kind=np.where(censored, CensoringKind.RIGHT.code, CensoringKind.EXACT.code),
        feature_names=list(dataset.feature_names),
    )
