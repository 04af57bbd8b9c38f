"""Evaluation of fitted models: concordance, log-score, and survival CRPS.

The log-score reads the training likelihood term of exact and right-censored
observations from the predicted distribution, so model comparison by
log-score and by held-out NLL are the same thing.  The CRPS follows the
censoring-adjusted form: the squared CDF below the observed time always
counts; the squared survivor above it counts only for exact observations.
"""

from dataclasses import dataclass, fields
import json
import math

import numpy as np

from .core import KINDS, CensoringKind, FittedModel, SurvivalDataset, float_array, validate_dataset
from .errors import (
    BadConfig,
    BadStatusValue,
    DimensionMismatch,
    InvertedInterval,
    NoComparablePairs,
    NonPositiveTime,
    UnsupportedCensoringKind,
    is_finite_real,
)
from .fit import EnsembleModel
from .quadrature import gauss_kronrod
from .transform import ConditionalDistribution, EnsembleDistribution, conditional_distribution

# break points of the CDF integral below log t: its lower limit, the splits, log t itself
_LOWER_SPLITS = np.array([40.0, 32.0, 16.0, 8.0, 4.0, 2.0, 1.0, 0.0])


def concordance_counts(times, events, risks) -> tuple[float, int]:
    """Harrell's concordance numerator and the number of comparable pairs.

    A pair (j, i) is comparable when subject j has an exact event strictly
    before time i; it counts fully when the earlier subject has the higher
    risk score and half when the scores tie.  The pairs are counted by a
    bottom-up merge (Knight 1966) in O(n log^2 n) time and linear memory:
    with the rows sorted by (time, risk rank), each level counts, for every
    row of a block's left half, the right-half rows of lower and of equal
    rank by one ``searchsorted`` over the keys ``block * n + rank``.  Later
    rows of equal time have no lower rank, and those of equal rank too are
    subtracted from the ties.  A NaN compares as numpy compares it: a NaN
    time is in no pair, and a NaN risk is neither higher nor tied.  Raises
    :class:`BadConfig` for values that are not numbers and
    :class:`DimensionMismatch` unless all three are vectors of one length.
    """
    try:
        times = np.asarray(times, dtype=float)
        events = np.asarray(events, dtype=bool)
        risks = np.asarray(risks, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadConfig(f"times, events, and risks must be vectors of numbers: {exc}") from None
    if not times.shape == events.shape == risks.shape or times.ndim != 1:
        raise DimensionMismatch("times, events, and risks must be equal-length vectors")
    times, events, risks = (v[~np.isnan(times)] for v in (times, events, risks))
    later = np.searchsorted(np.sort(times), times[events], side="right")
    pairs = int(np.sum(times.size - later))
    # a NaN risk is neither higher than nor tied with another: its pairs count 0
    times, events, risks = (v[~np.isnan(risks)] for v in (times, events, risks))
    n = times.size
    rank = np.unique(risks, return_inverse=True)[1]
    order = np.lexsort((rank, times))
    times, events, rank = times[order], events[order], rank[order]
    at = np.arange(n)
    lower = equal = 0
    for level in range(max(n - 1, 0).bit_length()):
        block = at >> level
        keys = np.sort(block * n + rank)
        left = at[events & (block % 2 == 0)]
        start = (block[left] + 1) * n
        first, below, through = np.searchsorted(
            keys, np.concatenate([start, start + rank[left], start + rank[left] + 1])
        ).reshape(3, -1)
        lower += int(np.sum(below - first))
        equal += int(np.sum(through - below))
    # later rows of the same (time, rank) run tie in rank but are not comparable
    new = np.ones(n, dtype=bool)
    new[1:] = (times[1:] != times[:-1]) | (rank[1:] != rank[:-1])
    run_end = np.append(np.flatnonzero(new)[1:], n)[np.cumsum(new) - 1]
    equal -= int(np.sum((run_end - at - 1)[events]))
    return lower + 0.5 * equal, pairs


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

    ``-log_pdf`` at an exact time, ``-log_survivor`` at a right-censored one:
    the training NLL terms of those kinds.  Other kinds are rejected.
    """
    if obs.censoring == CensoringKind.EXACT:
        return float(-dist.log_pdf(obs.time_lower))
    if obs.censoring == CensoringKind.RIGHT:
        return float(-dist.log_survivor(obs.time_lower))
    raise UnsupportedCensoringKind(
        f"log-score is undefined for {obs.censoring.value}-censored observations"
    )


def _knots(dist) -> list:
    """Log-times where a Bernstein transformation turns affine; oracle CDFs have none.

    An ensemble's members share one scaler, fitted to the full dataset, and so
    their knots.
    """
    if isinstance(dist, (ConditionalDistribution, EnsembleDistribution)) and dist.spec.uses_basis:
        return [dist.scaler.a_lo, dist.scaler.b_hi]
    return []


def _squared_in_log_time(of):
    """The integrand of(e^v)^2 e^v at log-times v, for ``of`` the CDF or the survivor."""
    def fn(v, rows):
        u = np.exp(v)
        return np.square(of(u, rows)) * u
    return fn


def _require_limit(t_max):
    if not is_finite_real(t_max):
        raise BadConfig(f"t_max must be a finite number, got {t_max!r}")


def crps(dist, t, event, t_max: float):
    """Censoring-adjusted continuous ranked probability score.

    Integrates the squared CDF over (0, t) plus, for exact observations, the
    squared survivor over (t, t_max), in log-time v = log u: the integrands
    are F(e^v)^2 e^v over [log t - 40, log t] and S(e^v)^2 e^v above log t.
    The rule is :func:`gauss_kronrod` on pieces split at the basis knots,
    where the transformation's second derivative jumps, and at log t - 1, -2,
    -4, ..., -32.  The limits are nudged one ulp to each side of t before the
    log, so a jump exactly at the observed time contributes nothing to either
    integral (it has measure zero).

    Parameters
    ----------
    dist
        Predicted distribution exposing vectorized ``cdf`` and ``survivor``;
        for arrays ``t`` and ``event``, a batch with one subject per entry
        whose ``subject(rows)`` is the distribution of the subjects ``rows``.
    t : float or array
        Observed (or censoring) times; none may exceed ``t_max``.  A scalar
        gives a float, a 1-D array one score per entry.  A batch of n
        subjects takes n times, one per subject.
    event : bool or array
        True for an exact observation, False for right-censored: one flag
        per time, or one for every time of a distribution that is not a batch.
    t_max : float
        Upper integration limit.

    Raises :class:`BadConfig` for a ``t_max`` that is not a finite number,
    :class:`NonNumericCovariate` for times or flags that are not numbers,
    :class:`BadStatusValue` for a flag that is not 0 or 1,
    :class:`DimensionMismatch` for times or flags of another shape,
    :class:`NonPositiveTime` for a time that is not positive, and
    :class:`InvertedInterval` for a time above ``t_max``, whose survivor range
    (t, t_max] is inverted.
    """
    _require_limit(t_max)
    t, event = float_array(t, "times"), float_array(event, "event flags")
    if not np.isin(event, (0.0, 1.0)).all():
        raise BadStatusValue("event flags must be True or False (1 or 0)")
    n = getattr(dist, "n_subjects", None)  # None: one distribution scores every time
    if n is not None and not t.shape == event.shape == (n,):
        raise DimensionMismatch(f"a batch of {n} subjects takes {n} times and event flags, "
                                f"got shapes {t.shape} and {event.shape}")
    if t.ndim > 1 or event.shape not in ((), t.shape):
        raise DimensionMismatch(f"expected times of at most one axis and one event flag or "
                                f"one per time, got shapes {t.shape} and {event.shape}")
    times = np.atleast_1d(t)
    if not np.all(times > 0.0):
        raise NonPositiveTime("CRPS requires a positive observation time")
    if np.any(times > t_max):
        raise InvertedInterval(
            f"observation time {times.max()} exceeds the integration limit {t_max}"
        )
    # the quadrature's rows are a batch's subjects; one time has one distribution
    at = dist.subject if t.ndim else (lambda rows: dist)
    cdf, survivor = (lambda u, rows: at(rows).cdf(u)), (lambda u, rows: at(rows).survivor(u))

    knots = np.array(_knots(dist))
    below = np.log(np.nextafter(times, 0.0))[:, None]
    above = np.log(np.nextafter(times, np.inf))[:, None]
    # censored entries get an empty upper range, which integrates to 0.0
    top = np.where(np.reshape(event, (-1, 1)), np.maximum(math.log(t_max), above), above)
    lower = np.hstack([below - _LOWER_SPLITS, np.clip(knots, below - _LOWER_SPLITS[0], below)])
    upper = np.hstack([above, np.clip(knots, above, top), top])
    members = getattr(dist, "n_members", 1)  # a mixture computes each node once per member
    score = gauss_kronrod(_squared_in_log_time(cdf), np.sort(lower, axis=1), members=members)[0]
    score += gauss_kronrod(_squared_in_log_time(survivor), np.sort(upper, axis=1),
                           members=members)[0]
    return float(score[0]) if t.ndim == 0 else score


@dataclass(eq=False)
class EvaluationReport:
    """Scores of a dataset: ``nll`` and ``crps`` hold one value per subject, in row order."""

    nll: np.ndarray
    crps: np.ndarray
    mean_nll: float
    mean_crps: float
    c_index: float | None
    n_subjects: int
    n_comparable_pairs: int
    t_max: float

    def to_json(self) -> str:
        """The report as JSON, its per-subject scores a ``per_subject`` list of {nll, crps}.

        The text, and the ``ValueError`` of a non-finite score, of ``json.dumps(...,
        indent=2, allow_nan=False)``; the list's floats are ``repr`` text, as there.
        """
        # imported here, so that importing tramsurv does not load the kernel
        from .floatrepr import LineBuffer, repr_bytes

        scores = np.stack([self.nll, self.crps], axis=1, dtype=float)
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:  # json's error, as it raises it for the first such score
            json.dumps(scores.flat[bad[0]].item(), indent=2, allow_nan=False)
        doc = {f.name: getattr(self, f.name) for f in fields(self)[2:]}
        head, tail = json.dumps({"per_subject": [], **doc}, indent=2, allow_nan=False).split("[]", 1)
        if not len(scores):
            return head + "[]" + tail
        cells = repr_bytes(scores).reshape(len(scores), 2, -1)
        body = LineBuffer().join([b'    {\n      "nll": ', cells[:, 0], b',\n      "crps": ',
                                  cells[:, 1], b"\n    },\n"])
        return head + "[\n" + body[:-2].decode() + "\n  ]" + tail


def evaluate(model, dataset: SurvivalDataset, t_max: float | None = None) -> EvaluationReport:
    """Score a fitted model or ensemble on exact/right-censored data.

    ``model`` may also be the batch distribution of the dataset's subjects,
    which a caller that evaluates it further then builds only once.

    Risk scores are negated predicted median survival times, so higher risk
    means earlier predicted failure.  When no pair of subjects is comparable
    the concordance is reported as None; per-subject scores are still
    computed.

    ``t_max`` defaults to the maximum observed time seen at training time
    (the scaler's upper endpoint), extended if the evaluation data reaches
    further; one given must be a finite number, else :class:`BadConfig`.  The
    report keeps a numpy scalar as the Python number it holds (50 stays 50).
    """
    if t_max is not None:
        _require_limit(t_max)
        if isinstance(t_max, np.generic):
            t_max = t_max.item()  # a Python number, as the report's JSON needs
    if not isinstance(model, (FittedModel, EnsembleModel, ConditionalDistribution,
                              EnsembleDistribution)):
        raise BadConfig(f"expected a fitted model, ensemble or distribution, got "
                        f"{type(model).__name__}")
    validate_dataset(dataset)
    events = dataset.kind == CensoringKind.EXACT.code
    unsupported = ~events & (dataset.kind != CensoringKind.RIGHT.code)
    if unsupported.any():
        i = int(np.argmax(unsupported))
        raise UnsupportedCensoringKind(
            f"observation {i} is {KINDS[dataset.kind[i]].value}-censored; scoring supports "
            "exact and right-censored data only"
        )
    if isinstance(model, EnsembleModel):
        batch = model.conditional_distribution(dataset.x)
    elif isinstance(model, FittedModel):
        batch = conditional_distribution(model, dataset.x)
    else:
        batch = model
    times = dataset.t_lower
    if t_max is None:
        t_max = max(math.exp(batch.scaler.b_hi), float(np.max(times)))
    nll = np.empty(dataset.n)
    nll[events] = -batch.subject(events).log_pdf(times[events])
    nll[~events] = -batch.subject(~events).log_survivor(times[~events])
    scores = crps(batch, times, events, t_max)
    risks = -batch.quantile(np.full(dataset.n, 0.5))

    numerator, pairs = concordance_counts(times, events, risks)
    return EvaluationReport(
        nll=nll,
        crps=scores,
        mean_nll=float(np.mean(nll)),
        mean_crps=float(np.mean(scores)),
        c_index=numerator / pairs if pairs else None,
        n_subjects=dataset.n,
        n_comparable_pairs=pairs,
        t_max=t_max,
    )
