import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from tramsurv.basis import LogTimeScaler
from tramsurv.core import (
    CensoringKind,
    FittedModel,
    ModelSpec,
    Observation,
    Parameterization,
    SurvivalDataset,
)
from tramsurv.errors import (
    BadConfig,
    DimensionMismatch,
    InvertedInterval,
    NoComparablePairs,
    NonPositiveTime,
    QuadratureNonConvergence,
    TramsurvError,
    UnsupportedCensoringKind,
)
from tramsurv.feature import ExtractorSpec, identity_params, init_params
from tramsurv.fit import EnsembleModel, ModelState, TrainConfig, fit, nll_batch
from tramsurv.metrics import (
    EvaluationReport,
    c_index,
    concordance_counts,
    crps,
    evaluate,
    log_score,
)
from tramsurv.numerics import softplus_inv
from tramsurv.sample import SynthConfig, generate_semisynthetic
from tramsurv.target import TargetFamily
from tramsurv.transform import (
    EnsembleDistribution,
    conditional_distribution,
    head_size,
    init_head,
)


class TestCIndex:
    def test_perfect_concordance(self):
        assert c_index([1, 2, 3], [1, 1, 1], [3, 2, 1]) == 1.0

    def test_constant_risk_is_half(self):
        assert c_index([1, 2, 3, 4], [1, 1, 1, 1], [0.3, 0.3, 0.3, 0.3]) == 0.5

    def test_censored_pairs_excluded(self):
        # comparable pairs are (1,2) and (1,3); the censored subject at t=2
        # cannot serve as the earlier event of a pair
        assert c_index([1, 2, 3], [1, 0, 1], [0.9, 0.5, 0.1]) == 1.0

    def test_anti_concordant(self):
        assert c_index([1, 2, 3], [1, 1, 1], [1, 2, 3]) == 0.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(501)
        times = rng.uniform(0.1, 5.0, 40)
        events = rng.random(40) < 0.7
        risks = rng.normal(size=40)
        base = c_index(times, events, risks)
        assert c_index(times, events, np.exp(risks)) == base
        assert c_index(times, events, 3.0 * risks + 7.0) == base

    @pytest.mark.parametrize(
        "times, events, risks",
        [([1, 2, 3], [1, 1], [3, 2, 1]), ([1, 2], [1, 1], [3, 2, 1]), (1.0, 1, 0.5),
         ([[1, 2], [3, 4]], [[1, 1], [1, 1]], [[1, 2], [3, 4]])],
        ids=["events-short", "times-short", "scalars", "matrices"],
    )
    def test_ragged_inputs_are_a_dimension_mismatch(self, times, events, risks):
        with pytest.raises(DimensionMismatch) as info:
            c_index(times, events, risks)
        assert info.value.code == "E_DIMENSION_MISMATCH"

    @pytest.mark.parametrize(
        "times, events, risks",
        [(["a", "b"], [1, 1], [1, 2]), ([1, 2], [1, 1], [{}, 2]), ([[1, 2], [3]], [1, 1], [1, 2])],
        ids=["text-times", "object-risk", "nested-ragged"],
    )
    def test_values_that_are_not_numbers_are_a_bad_config(self, times, events, risks):
        with pytest.raises(BadConfig) as info:
            c_index(times, events, risks)
        assert info.value.code == "E_BAD_CONFIG"

    def test_reversal_complement(self):
        rng = np.random.default_rng(503)
        times = rng.uniform(0.1, 5.0, 30)
        events = rng.random(30) < 0.6
        events[0] = True
        risks = rng.normal(size=30)  # continuous, so no ties
        np.testing.assert_allclose(
            c_index(times, events, risks) + c_index(times, events, -risks), 1.0, rtol=1e-12
        )

    def test_time_ties_excluded(self):
        # strict-time pairs are (t=1a, t=2) concordant and (t=1b, t=2)
        # discordant; the tied pair (t=1a, t=1b) would add a third
        # concordant pair (2/3) if it were not excluded
        assert c_index([1, 1, 2], [1, 1, 1], [5, 1, 3]) == 0.5

    def test_no_comparable_pairs(self):
        with pytest.raises(NoComparablePairs):
            c_index([1.0], [1], [0.5])
        with pytest.raises(NoComparablePairs):
            c_index([1, 2], [0, 0], [0.1, 0.2])

    def test_chunked_counts_match_dense_reference(self):
        """Across many merge levels, with tied times and tied risks, the
        merge count equals the dense n x n formula."""
        rng = np.random.default_rng(505)
        n = 2500
        times = np.round(rng.uniform(0.1, 5.0, n), 1)
        events = rng.random(n) < 0.7
        risks = np.round(rng.normal(size=n), 1)
        earlier = events[:, None] & (times[:, None] < times[None, :])
        pairs = int(np.sum(earlier))
        numerator = float(np.sum(earlier & (risks[:, None] > risks[None, :]))) + 0.5 * float(
            np.sum(earlier & (risks[:, None] == risks[None, :]))
        )
        assert concordance_counts(times, events, risks) == (numerator, pairs)
        assert c_index(times, events, risks) == numerator / pairs


    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [2000, 20000])
    def test_merge_counts_equal_the_chunked_pair_loop(self, n, ties):
        rng = np.random.default_rng(507 + n)
        times = rng.uniform(0.1, 5.0, n)
        events = rng.random(n) < 0.7
        risks = rng.normal(size=n)
        if ties:
            times, risks = np.round(times, 1), np.round(risks, 1)
        assert concordance_counts(times, events, risks) == _chunked_concordance(
            times, events, risks)

    def test_nan_and_inf_compare_as_the_pair_loop_compares(self):
        rng = np.random.default_rng(509)
        n = 1500
        times = np.round(rng.uniform(0.1, 5.0, n), 1)
        events = rng.random(n) < 0.7
        risks = np.round(rng.normal(size=n), 1)
        times[rng.random(n) < 0.1], risks[rng.random(n) < 0.1] = np.nan, np.nan
        times[rng.random(n) < 0.05], risks[rng.random(n) < 0.05] = np.inf, -np.inf
        assert concordance_counts(times, events, risks) == _chunked_concordance(
            times, events, risks)


def _chunked_concordance(times, events, risks) -> tuple[float, int]:
    """The O(n^2) reference: every pair compared, in row chunks of 1024."""
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


def _exponential_model(w=(0.0,)):
    w = np.asarray(w, dtype=float)
    spec = ModelSpec(
        family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
        extractor=ExtractorSpec(input_dim=w.size, output_dim=w.size),
    )
    return FittedModel(
        spec=spec, scaler=LogTimeScaler(0.0, 1.0),
        head_params=np.concatenate([[0.0, softplus_inv(1.0)], w]),
        extractor_params=identity_params(spec.extractor),
        train_nll=0.0, validation_nll=0.0,
    )


class TestLogScore:
    def test_exact_reference(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        model_log = _exponential_model()
        # switch family to logistic for the log 4 reference point
        spec = ModelSpec(
            family=TargetFamily.LOGISTIC, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=1, output_dim=1),
        )
        logistic = FittedModel(
            spec=spec, scaler=model_log.scaler, head_params=model_log.head_params,
            extractor_params=model_log.extractor_params, train_nll=0.0, validation_nll=0.0,
        )
        dist = conditional_distribution(logistic, np.zeros(1))
        obs = Observation.exact(1.0, [0.0])
        np.testing.assert_allclose(log_score(dist, obs), np.log(4.0), rtol=1e-12)

    def test_right_censored_reference(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        obs = Observation.right_censored(1.0, [0.0])
        np.testing.assert_allclose(log_score(dist, obs), 1.0, rtol=1e-12)

    def test_bitwise_equal_to_training_nll(self):
        rng = np.random.default_rng(509)
        model = _exponential_model(w=(0.4,))
        state = ModelState(model.spec, model.scaler, model.head_params, model.extractor_params)
        for _ in range(20):
            x = rng.normal(size=1)
            t = float(rng.uniform(0.2, 4.0))
            obs = (
                Observation.exact(t, x) if rng.random() < 0.5
                else Observation.right_censored(t, x)
            )
            dist = conditional_distribution(model, x)
            one_row = SurvivalDataset.from_observations([obs])
            assert log_score(dist, obs) == nll_batch(state, one_row)[0]

    @pytest.mark.parametrize(
        "obs",
        [
            Observation.left_censored(1.0, [0.0]),
            Observation.interval(0.5, 1.5, [0.0]),
        ],
    )
    def test_unsupported_kinds_rejected(self, obs):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        with pytest.raises(UnsupportedCensoringKind):
            log_score(dist, obs)


class _ExponentialCdf:
    """Closed-form standard exponential, used as an independent CRPS oracle."""

    def cdf(self, u):
        return -np.expm1(-np.asarray(u, dtype=float))

    def survivor(self, u):
        return np.exp(-np.asarray(u, dtype=float))


class _UniformCdf:
    def __init__(self, width):
        self.width = width

    def cdf(self, u):
        return np.clip(np.asarray(u, dtype=float) / self.width, 0.0, 1.0)

    def survivor(self, u):
        return 1.0 - self.cdf(u)


class _StepCdf:
    def __init__(self, at):
        self.at = at

    def cdf(self, u):
        return (np.asarray(u, dtype=float) >= self.at).astype(float)

    def survivor(self, u):
        return 1.0 - self.cdf(u)


class _NoisyCdf:
    """Pathological pseudo-CDF that no quadrature resolves."""

    def cdf(self, u):
        return 0.5 + 0.5 * np.sin(1e6 * np.asarray(u, dtype=float))

    def survivor(self, u):
        return 1.0 - self.cdf(u)


class TestCrps:
    def test_exponential_event_closed_form(self):
        # int_0^1 (1-e^-u)^2 du + int_1^50 e^-2u du = 2/e - 1/2 (up to e^-100)
        val = crps(_ExponentialCdf(), 1.0, True, 50.0)
        np.testing.assert_allclose(val, 0.23575888234288467, rtol=0, atol=1e-6)

    def test_exponential_censored_closed_form(self):
        val = crps(_ExponentialCdf(), 1.0, False, 50.0)
        np.testing.assert_allclose(val, 0.16809124072457832, rtol=0, atol=1e-6)

    def test_uniform_segment_event(self):
        # piecewise-quadratic integrands: [t^3 + (c-t)^3] / (3 c^2) with c=2,
        # t=1; t_max=10 keeps the derivative kink at u=c resolvable within
        # the piece budget (the value is t_max-independent past u=c)
        val = crps(_UniformCdf(2.0), 1.0, True, 10.0)
        np.testing.assert_allclose(val, 1.0 / 6.0, rtol=0, atol=1e-6)

    def test_uniform_segment_censored(self):
        val = crps(_UniformCdf(2.0), 1.0, False, 50.0)
        np.testing.assert_allclose(val, 1.0 / 12.0, rtol=0, atol=1e-6)

    def test_point_mass_scores_zero(self):
        assert crps(_StepCdf(1.0), 1.0, True, 50.0) == 0.0

    def test_zero_mass_below_censored_time(self):
        assert crps(_StepCdf(3.0), 1.0, False, 50.0) == 0.0

    def test_censored_drops_upper_integral(self):
        dist = _ExponentialCdf()
        lower_only = crps(dist, 1.0, False, 50.0)
        both = crps(dist, 1.0, True, 50.0)
        assert both > lower_only

    def test_nonconvergent_quadrature_raises(self):
        with pytest.raises(QuadratureNonConvergence):
            crps(_NoisyCdf(), 1.0, True, 50.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.array([1.0, 0.0])])
    def test_non_positive_time_has_code(self, t):
        with pytest.raises(NonPositiveTime):
            crps(_ExponentialCdf(), t, True, 50.0)

    @pytest.mark.parametrize("t", [2.0, np.array([1.0, 2.0])])
    def test_time_above_limit_has_code(self, t):
        """The survivor range (t, t_max] is inverted."""
        with pytest.raises(InvertedInterval, match="exceeds the integration limit 1.5"):
            crps(_ExponentialCdf(), t, True, 1.5)


def _scored_dataset(rng, n, p=1):
    obs = []
    for _ in range(n):
        x = rng.normal(size=p)
        t = float(rng.uniform(0.2, 4.0))
        if rng.random() < 0.3:
            obs.append(Observation.right_censored(t, x))
        else:
            obs.append(Observation.exact(t, x))
    return SurvivalDataset.from_observations(obs)


class TestEvaluate:
    def test_baseline_c_index_is_half(self):
        rng = np.random.default_rng(601)
        ds = _scored_dataset(rng, 25)
        spec = ModelSpec(
            family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE,
            bernstein_order=3,
        )
        from tramsurv.transform import init_head

        model = FittedModel(
            spec=spec, scaler=LogTimeScaler(np.log(0.2), np.log(4.0)),
            head_params=init_head(spec), extractor_params=np.zeros(0),
            train_nll=0.0, validation_nll=0.0,
        )
        report = evaluate(model, ds)
        assert report.c_index == 0.5

    def test_single_subject_scores_without_c_index(self):
        ds = SurvivalDataset.from_observations([Observation.exact(1.0, [0.0])])
        report = evaluate(_exponential_model(), ds)
        assert report.c_index is None
        assert report.n_comparable_pairs == 0
        assert report.n_subjects == 1
        assert report.nll.shape == report.crps.shape == (1,)
        assert np.isfinite(report.nll[0])
        assert np.isfinite(report.crps[0])

    def test_permutation_invariant_aggregates(self):
        rng = np.random.default_rng(603)
        ds = _scored_dataset(rng, 20)
        model = _exponential_model(w=(0.5,))
        report = evaluate(model, ds)
        perm = [ds.observations[i] for i in rng.permutation(20)]
        report_p = evaluate(model, SurvivalDataset.from_observations(perm))
        np.testing.assert_allclose(report_p.mean_nll, report.mean_nll, rtol=1e-12)
        np.testing.assert_allclose(report_p.mean_crps, report.mean_crps, rtol=1e-12)
        assert report_p.c_index == report.c_index
        assert report_p.n_comparable_pairs == report.n_comparable_pairs

    def test_means_match_per_subject_entries(self):
        rng = np.random.default_rng(605)
        ds = _scored_dataset(rng, 15)
        report = evaluate(_exponential_model(), ds)
        np.testing.assert_allclose(
            report.mean_nll, np.mean(report.nll), rtol=1e-12
        )
        np.testing.assert_allclose(
            report.mean_crps, np.mean(report.crps), rtol=1e-12
        )

    def test_t_max_below_an_observed_time_has_code(self):
        ds = SurvivalDataset.from_observations(
            [Observation.exact(1.0, [0.0]), Observation.exact(2.0, [0.0])]
        )
        with pytest.raises(InvertedInterval, match="time 2.0 exceeds the integration limit 1.5"):
            evaluate(_exponential_model(), ds, t_max=1.5)

    @pytest.mark.parametrize("t_max", [float("nan"), float("inf"), "9", True, [9.0]],
                             ids=["nan", "inf", "text", "bool", "list"])
    def test_t_max_must_be_a_finite_number(self, t_max):
        """A limit that is not a finite number fails before any scoring; a NaN one would
        drop the survivor integral silently."""
        ds = _scored_dataset(np.random.default_rng(611), 6)
        with pytest.raises(BadConfig, match="t_max must be a finite number") as info:
            evaluate(_exponential_model(), ds, t_max=t_max)
        assert info.value.code == "E_BAD_CONFIG"
        with pytest.raises(BadConfig):
            crps(_ExponentialCdf(), 1.0, True, t_max)

    @pytest.mark.parametrize("t_max, written", [(np.float32(50.0), "50.0"), (np.int64(50), "50"),
                                                 (50, "50"), (50.0, "50.0")],
                             ids=["float32", "int64", "int", "float"])
    def test_report_holds_t_max_as_a_python_number(self, t_max, written):
        """A numpy limit is written as the number it holds; an integer one stays an integer."""
        report = evaluate(_exponential_model(), _scored_dataset(np.random.default_rng(613), 6),
                          t_max=t_max)
        assert type(report.t_max) is type(t_max.item() if isinstance(t_max, np.generic) else t_max)
        assert f'"t_max": {written}\n' in report.to_json()

    def test_non_positive_time_has_code(self):
        ds = SurvivalDataset(x=[[0.0], [0.0]], t_lower=[1.0, 0.0], t_upper=[1.0, 0.0], kind=[0, 0])
        with pytest.raises(NonPositiveTime):
            evaluate(_exponential_model(), ds)

    def test_left_censored_rejected_in_scoring(self):
        ds = SurvivalDataset.from_observations(
            [Observation.exact(1.0, [0.0]), Observation.left_censored(0.5, [0.0])]
        )
        with pytest.raises(UnsupportedCensoringKind):
            evaluate(_exponential_model(), ds)

    def test_report_serializes(self):
        import json

        rng = np.random.default_rng(607)
        ds = _scored_dataset(rng, 8)
        report = evaluate(_exponential_model(), ds)
        doc = json.loads(report.to_json())
        assert doc["n_subjects"] == 8
        assert len(doc["per_subject"]) == 8
        assert doc["t_max"] >= max(o.time_lower for o in ds.observations)
        # the keys, their order and the per-subject layout of every report.json so far
        reference = {
            "per_subject": [{"nll": float(a), "crps": float(b)}
                            for a, b in zip(report.nll, report.crps)],
            "mean_nll": report.mean_nll,
            "mean_crps": report.mean_crps,
            "c_index": report.c_index,
            "n_subjects": report.n_subjects,
            "n_comparable_pairs": report.n_comparable_pairs,
            "t_max": report.t_max,
        }
        assert report.to_json() == json.dumps(reference, indent=2, allow_nan=False)


class TestPropriety:
    def test_true_model_wins_sign_test(self):
        """Mean log-score of the generating model beats a perturbed model on
        most of 20 seeds (one-sided sign test, level 0.05 needs >= 15)."""
        true_model = _exponential_model(w=(0.6,))
        wrong_model = _exponential_model(w=(1.6,))
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(700 + seed)
            xs = rng.uniform(-1.0, 1.0, size=(120, 1))
            score_true = 0.0
            score_wrong = 0.0
            for x in xs:
                dist_true = conditional_distribution(true_model, x)
                u = float(rng.uniform(1e-6, 1.0 - 1e-6))
                t = float(dist_true.quantile(u))
                obs = Observation.exact(t, x)
                score_true += log_score(dist_true, obs)
                score_wrong += log_score(conditional_distribution(wrong_model, x), obs)
            if score_true <= score_wrong:
                wins += 1
        assert wins >= 15


def _random_model(parameterization, family, rng, p=3, order=4):
    """A model with perturbed head and a one-hidden-layer extractor."""
    extractor = None
    if parameterization != Parameterization.BASELINE:
        d = order + 1 if parameterization == Parameterization.BERNSTEIN_FLEXIBLE else 2
        extractor = ExtractorSpec(input_dim=p, hidden_dims=(5,), output_dim=d)
    spec = ModelSpec(
        family=family, parameterization=parameterization, bernstein_order=order,
        extractor=extractor,
    )
    return FittedModel(
        spec=spec, scaler=LogTimeScaler(np.log(0.2), np.log(12.0)),
        head_params=init_head(spec) + 0.3 * rng.normal(size=head_size(spec)),
        extractor_params=(
            init_params(extractor, int(rng.integers(1000))) if extractor else np.zeros(0)
        ),
        train_nll=0.0, validation_nll=0.0,
    )


def _per_subject_reference(model, dataset):
    """The per-subject scoring loop: log_score and scalar crps, one subject at a time."""
    x = dataset.x
    if isinstance(model, EnsembleModel):
        batch, scaler = model.conditional_distribution(x), model.members[0].scaler
    else:
        batch, scaler = conditional_distribution(model, x), model.scaler
    times = dataset.times_lower()
    t_max = max(np.exp(scaler.b_hi), float(np.max(times)))
    nll, scores, risks = [], [], []
    for i, obs in enumerate(dataset.observations):
        dist = batch.subject(i)
        nll.append(log_score(dist, obs))
        scores.append(crps(dist, obs.time_lower, bool(obs.event), t_max))
        risks.append(-dist.quantile(0.5))
    return np.array(nll), np.array(scores), concordance_counts(
        times, np.array([obs.event for obs in dataset.observations]), np.array(risks)
    )


class TestBatchedScoring:
    """evaluate's one batch call per score against the per-subject loop."""

    N_SUBJECTS = 130  # one batch call per score, against 130 one-subject calls

    def _check(self, model, rng):
        x = rng.normal(size=(self.N_SUBJECTS, 3))
        times = rng.uniform(0.3, 10.0, self.N_SUBJECTS)
        exact = rng.random(self.N_SUBJECTS) < 0.7
        dataset = SurvivalDataset.from_observations([
            (Observation.exact if e else Observation.right_censored)(float(t), row)
            for t, e, row in zip(times, exact, x)
        ])
        report = evaluate(model, dataset)
        nll, scores, (numerator, pairs) = _per_subject_reference(model, dataset)
        np.testing.assert_allclose(report.nll, nll, rtol=1e-14)
        np.testing.assert_allclose(report.crps, scores, rtol=1e-12)
        assert report.c_index == numerator / pairs
        assert report.n_comparable_pairs == pairs

    @pytest.mark.parametrize("family", list(TargetFamily))
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_matches_per_subject_loop(self, parameterization, family):
        rng = np.random.default_rng(151)
        self._check(_random_model(parameterization, family, rng), rng)

    def test_ensemble_matches_per_subject_loop(self):
        rng = np.random.default_rng(157)
        members = [
            _random_model(Parameterization.BERNSTEIN_SHIFT_SCALE, TargetFamily.MEV, rng)
            for _ in range(3)
        ]
        self._check(EnsembleModel(members=members), rng)

    @pytest.mark.parametrize("ensemble", [False, True])
    def test_a_prebuilt_batch_scores_like_its_model(self, ensemble):
        rng = np.random.default_rng(163)
        members = [_random_model(Parameterization.BERNSTEIN_SHIFT, TargetFamily.LOGISTIC, rng)
                   for _ in range(3 if ensemble else 1)]
        model = EnsembleModel(members=members) if ensemble else members[0]
        x = rng.normal(size=(40, 3))
        dataset = SurvivalDataset.from_observations([
            (Observation.exact if e else Observation.right_censored)(float(t), row)
            for t, e, row in zip(rng.uniform(0.3, 10.0, 40), rng.random(40) < 0.7, x)
        ])
        batch = (model.conditional_distribution(x) if ensemble
                 else conditional_distribution(model, x))
        assert evaluate(batch, dataset).to_json() == evaluate(model, dataset).to_json()
        # t_max's default reads the scaler of the distribution scored
        assert evaluate(model, dataset).t_max == max(math.exp(batch.scaler.b_hi),
                                                     float(np.max(dataset.t_lower)))

    def test_an_empty_ensemble_has_a_code(self):
        """With no member, evaluate and the mixture raise E_BAD_CONFIG, not an IndexError
        or a bare ValueError."""
        dataset = SurvivalDataset.from_observations([Observation.exact(1.0, [0.0, 0.0, 0.0])])
        empty = EnsembleModel(members=[])
        for call in (lambda: evaluate(empty, dataset),
                     lambda: empty.conditional_distribution(dataset.x),
                     lambda: EnsembleDistribution([])):
            with pytest.raises(BadConfig, match="at least one member") as info:
                call()
            assert info.value.code == "E_BAD_CONFIG"


def _train_shaped(rng, n, beta, shape=0.7):
    """Rows like the benchmark's train fixture: Weibull times of scale 100 spread over
    several decades by the shape and the covariate effects, 30% right-censored."""
    x = rng.normal(size=(n, beta.size))
    t = np.exp(np.log(100.0) + x @ beta + np.log(rng.exponential(size=n)) / shape)
    censored = rng.random(n) < 0.3
    t = np.where(censored, t * rng.uniform(0.2, 1.0, n), t)
    kind = np.where(censored, CensoringKind.RIGHT.code, CensoringKind.EXACT.code)
    return SurvivalDataset(x, t, np.where(censored, np.inf, t), kind)


def _short_fit_spec(parameterization, family, p):
    extractor = None
    if parameterization != Parameterization.BASELINE:
        d = 7 if parameterization == Parameterization.BERNSTEIN_FLEXIBLE else 1
        extractor = ExtractorSpec(input_dim=p, hidden_dims=(8,), output_dim=d)
    return ModelSpec(family=family, parameterization=parameterization, bernstein_order=6,
                     extractor=extractor)


class TestScoringTrainedModels:
    """Models that SGD actually trained, scored on held-out rows of a wide time range."""

    @pytest.mark.parametrize("family", list(TargetFamily))
    @pytest.mark.parametrize("parameterization", list(Parameterization))
    def test_evaluate_succeeds_after_a_short_fit(self, parameterization, family):
        rng = np.random.default_rng(211)
        beta = rng.normal(size=6)
        beta /= np.linalg.norm(beta)
        spec = _short_fit_spec(parameterization, family, 6)
        model = fit(_train_shaped(rng, 400, beta), spec, TrainConfig(epochs=2))
        held_out = _train_shaped(rng, 200, beta)
        report = evaluate(model, held_out)
        scores = report.crps
        assert report.n_subjects == 200 and np.all(np.isfinite(scores)) and np.all(scores >= 0)
        assert report.c_index is not None and np.isfinite(report.mean_nll)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    parameterization=st.sampled_from(list(Parameterization)),
    family=st.sampled_from(list(TargetFamily)),
    shape=st.floats(0.3, 4.0),
    effect_sd=st.floats(0.0, 3.0),
)
def test_trained_models_score_and_sample_or_fail_with_a_code(
    seed, parameterization, family, shape, effect_sd
):
    rng = np.random.default_rng(seed)
    beta = effect_sd * rng.normal(size=3) / np.sqrt(3.0)
    spec = _short_fit_spec(parameterization, family, 3)
    config = TrainConfig(epochs=3, seed=seed % 1000)
    try:
        model = fit(_train_shaped(rng, 120, beta, shape), spec, config)
        held_out = _train_shaped(rng, 80, beta, shape)
        report = evaluate(model, held_out)
        assert np.all(np.isfinite(report.crps))
        synthetic = generate_semisynthetic(model, held_out, SynthConfig(replication=2, seed=seed))
        assert synthetic.n == 160 and np.all(synthetic.t_lower > 0.0)
    except QuadratureNonConvergence:
        raise  # the failure that scoring in log-time pieces removes
    except TramsurvError:
        pass
