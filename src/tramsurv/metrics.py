"""Evaluation of fitted models: concordance, log-score, and survival CRPS.

The log-score re-exports the training likelihood term, so model comparison by
log-score and by held-out NLL are the same thing.  The CRPS follows the
censoring-adjusted form: the squared CDF below the observed time always
counts; the squared survivor above it counts only for exact observations.
"""

from dataclasses import asdict, dataclass
import json
import math

import numpy as np

from .core import CensoringKind, SurvivalDataset, validate_dataset
from .errors import (
    NoComparablePairs,
    UnsupportedCensoringKind,
)
from .fit import EnsembleModel, censored_nll
from .quadrature import simpson_doubling
from .transform import conditional_distribution


def concordance_counts(times, events, risks) -> tuple[float, int]:
    """Harrell's concordance numerator and the number of comparable pairs.

    A pair (j, i) is comparable when subject j has an exact event strictly
    before time i; it counts fully when the earlier subject has the higher
    risk score and half when the scores tie.  Memory stays linear in n: the
    pairs are compared in row chunks.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    risks = np.asarray(risks, dtype=float)
    if not times.shape == events.shape == risks.shape or times.ndim != 1:
        raise ValueError("times, events, and risks must be equal-length vectors")
    numerator = 0.0
    pairs = 0
    chunk = 1024
    for start in range(0, times.size, chunk):
        sl = slice(start, start + chunk)
        earlier = (times[sl, None] < times[None, :]) & events[sl, None]
        higher = risks[sl, None] > risks[None, :]
        tied = risks[sl, None] == risks[None, :]
        pairs += int(np.sum(earlier))
        numerator += float(np.sum(earlier & higher)) + 0.5 * float(np.sum(earlier & tied))
    return numerator, pairs


def c_index(times, events, risks) -> float:
    """Concordance between risk scores and observed event order.

    See :func:`concordance_counts` for the pair rules.  Raises
    :class:`NoComparablePairs` when no pair is comparable.
    """
    numerator, pairs = concordance_counts(times, events, risks)
    if pairs == 0:
        raise NoComparablePairs("no comparable pair has an exact earlier event")
    return numerator / pairs


def log_score(dist, obs) -> float:
    """Negative log-likelihood score of a predicted distribution at one observation.

    Identical to the training NLL term; defined for exact and right-censored
    observations only.
    """
    if obs.censoring not in (CensoringKind.EXACT, CensoringKind.RIGHT):
        raise UnsupportedCensoringKind(
            f"log-score is undefined for {obs.censoring.value}-censored observations"
        )
    return censored_nll(dist, obs)


def crps(dist, t: float, event: bool, t_max: float) -> float:
    """Censoring-adjusted continuous ranked probability score.

    Integrates the squared CDF over (0, t) plus, for exact observations, the
    squared survivor over (t, t_max), by Simpson quadrature with grid
    doubling.  The boundary node is nudged one ulp to each side of t so a
    jump exactly at the observed time contributes nothing to either integral
    (it has measure zero).

    Parameters
    ----------
    dist
        Predicted distribution exposing vectorized ``cdf`` and ``survivor``.
    t : float
        Observed (or censoring) time; must not exceed ``t_max``.
    event : bool
        True for an exact observation, False for right-censored.
    t_max : float
        Upper integration limit.
    """
    if not t > 0.0:
        raise ValueError("CRPS requires a positive observation time")
    if t > t_max:
        raise ValueError(f"observation time {t} exceeds the integration limit {t_max}")
    score = simpson_doubling(lambda u: np.square(dist.cdf(u)), 0.0, np.nextafter(t, 0.0))
    if event:
        score += simpson_doubling(
            lambda u: np.square(dist.survivor(u)), np.nextafter(t, np.inf), t_max
        )
    return score


@dataclass
class SubjectScore:
    nll: float
    crps: float


@dataclass
class EvaluationReport:
    per_subject: list
    mean_nll: float
    mean_crps: float
    c_index: float | None
    n_subjects: int
    n_comparable_pairs: int
    t_max: float

    def to_json(self) -> str:
        doc = asdict(self)
        return json.dumps(doc, indent=2, allow_nan=False)


def evaluate(model, dataset: SurvivalDataset, t_max: float | None = None) -> EvaluationReport:
    """Score a fitted model or ensemble on exact/right-censored data.

    Risk scores are negated predicted median survival times, so higher risk
    means earlier predicted failure.  When no pair of subjects is comparable
    the concordance is reported as None; per-subject scores are still
    computed.

    ``t_max`` defaults to the maximum observed time seen at training time
    (the scaler's upper endpoint), extended if the evaluation data reaches
    further.
    """
    validate_dataset(dataset)
    for i, obs in enumerate(dataset.observations):
        if obs.censoring not in (CensoringKind.EXACT, CensoringKind.RIGHT):
            raise UnsupportedCensoringKind(
                f"observation {i} is {obs.censoring.value}-censored; scoring supports "
                "exact and right-censored data only"
            )
    scaler = model.members[0].scaler if isinstance(model, EnsembleModel) else model.scaler
    times = dataset.times_lower()
    events = dataset.event_indicator().astype(bool)
    if t_max is None:
        t_max = max(math.exp(scaler.b_hi), float(np.max(times)))

    if isinstance(model, EnsembleModel):
        batch = model.conditional_distribution(dataset.covariate_matrix())
    else:
        batch = conditional_distribution(model, dataset.covariate_matrix())
    per_subject = []
    for i, obs in enumerate(dataset.observations):
        dist = batch.subject(i)
        nll = log_score(dist, obs)
        subject_crps = crps(dist, obs.time_lower, bool(obs.event), t_max)
        per_subject.append(SubjectScore(nll=nll, crps=subject_crps))
    risks = -batch.quantile(np.full(dataset.n, 0.5))

    numerator, pairs = concordance_counts(times, events, risks)
    return EvaluationReport(
        per_subject=per_subject,
        mean_nll=float(np.mean([s.nll for s in per_subject])),
        mean_crps=float(np.mean([s.crps for s in per_subject])),
        c_index=numerator / pairs if pairs else None,
        n_subjects=dataset.n,
        n_comparable_pairs=pairs,
        t_max=t_max,
    )
