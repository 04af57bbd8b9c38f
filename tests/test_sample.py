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
from tramsurv.errors import BadConfig, ProbabilityOutOfRange, SchemaMismatch
from tramsurv.feature import ExtractorSpec, identity_params, init_params
from tramsurv.numerics import softplus_inv
from tramsurv.sample import (
    SynthConfig,
    generate_semisynthetic,
    max_observed_time,
    philox_uniforms,
)
from tramsurv.target import TargetFamily
from tramsurv.transform import conditional_distribution


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


def _flexible_model():
    """Bernstein-flexible model whose coefficients vary with the covariate."""
    spec = ModelSpec(
        family=TargetFamily.LOGISTIC, parameterization=Parameterization.BERNSTEIN_FLEXIBLE,
        bernstein_order=4,
        extractor=ExtractorSpec(input_dim=1, hidden_dims=(4,), output_dim=5),
    )
    return FittedModel(
        spec=spec, scaler=LogTimeScaler(np.log(0.3), np.log(3.0)),
        head_params=np.zeros(0), extractor_params=init_params(spec.extractor, 17),
        train_nll=0.0, validation_nll=0.0,
    )


class TestSampleTime:
    def test_exponential_median(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        np.testing.assert_allclose(dist.quantile(0.5), np.log(2.0), rtol=1e-10)

    def test_exponential_low_quantile(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        np.testing.assert_allclose(dist.quantile(0.01), -np.log(0.99), rtol=1e-8)

    def test_inversion_round_trip(self):
        dist = conditional_distribution(_exponential_model(w=(0.7,)), np.array([0.4]))
        rng = np.random.default_rng(801)
        u = rng.uniform(0.001, 0.999, size=40)
        t = dist.quantile(u)
        np.testing.assert_allclose(dist.cdf(t), u, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary_probabilities(self, u):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        with pytest.raises(ProbabilityOutOfRange):
            dist.quantile(u)

    def test_monte_carlo_mean(self):
        """10,000 standard-exponential draws average within 3 standard errors."""
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        u = np.random.default_rng(803).random(10000)
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        times = dist.quantile(u)
        assert 0.97 <= float(np.mean(times)) <= 1.03

    def test_ks_distance_small(self):
        dist = conditional_distribution(_exponential_model(), np.zeros(1))
        u = np.random.default_rng(805).random(10000)
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        times = np.sort(dist.quantile(u))
        ecdf_hi = np.arange(1, times.size + 1) / times.size
        ecdf_lo = np.arange(0, times.size) / times.size
        model = dist.cdf(times)
        ks = max(float(np.max(np.abs(ecdf_hi - model))), float(np.max(np.abs(ecdf_lo - model))))
        assert ks < 0.02


class TestPhiloxUniforms:
    """The vectorized Philox4x64-10 against numpy's own generator, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 + 5, 2**128 - 1])
    @pytest.mark.parametrize("count", [1, 4, 5, 13, 1000])
    def test_matches_numpy_philox(self, seed, count):
        subjects = np.array([0, 1, 2, 3, 7, 64, 65_537, 999_999, 1_000_000])
        u = philox_uniforms(seed, subjects, count)
        reference = [
            np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, s, 0])).random(count)
            for s in subjects
        ]
        assert u.shape == (subjects.size, count)
        np.testing.assert_array_equal(u, reference)


def _base_dataset(rng, n, p=1):
    obs = []
    for _ in range(n):
        x = rng.uniform(-1.0, 1.0, size=p)
        obs.append(Observation.exact(float(rng.uniform(0.3, 3.0)), x))
    return SurvivalDataset.from_observations(obs)


@pytest.mark.parametrize("key", ["replication", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_synth_config_counts_are_integers(key, value):
    with pytest.raises(BadConfig, match="must be an integer") as info:
        SynthConfig(**{key: value})
    assert info.value.code == "E_BAD_CONFIG"


@pytest.mark.parametrize("value", ["no", 0, None])
def test_synth_config_censor_at_max_is_a_bool(value):
    with pytest.raises(BadConfig, match="censor_at_max must be a bool") as info:
        SynthConfig(censor_at_max=value)
    assert info.value.code == "E_BAD_CONFIG"


class TestGenerateSemisynthetic:
    def test_output_size(self):
        rng = np.random.default_rng(807)
        ds = _base_dataset(rng, 959)
        synth = generate_semisynthetic(
            _exponential_model(), ds, SynthConfig(replication=10, seed=1)
        )
        assert synth.n == 9590

    def test_covariates_copied_per_subject(self):
        rng = np.random.default_rng(809)
        ds = _base_dataset(rng, 7)
        synth = generate_semisynthetic(
            _exponential_model(), ds, SynthConfig(replication=3, seed=2)
        )
        for i, obs in enumerate(ds.observations):
            for r in range(3):
                np.testing.assert_array_equal(
                    synth.observations[i * 3 + r].covariates, obs.covariates
                )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(811)
        ds = _base_dataset(rng, 12)
        cfg = SynthConfig(replication=4, seed=9)
        a = generate_semisynthetic(_exponential_model(), ds, cfg)
        b = generate_semisynthetic(_exponential_model(), ds, cfg)
        for oa, ob in zip(a.observations, b.observations):
            assert oa.time_lower == ob.time_lower
            assert oa.censoring == ob.censoring

    def test_no_config_draws_as_the_default_config(self):
        ds = _base_dataset(np.random.default_rng(815), 12)
        a = generate_semisynthetic(_exponential_model(), ds, None)
        b = generate_semisynthetic(_exponential_model(), ds, SynthConfig())
        for column in ("x", "t_lower", "t_upper", "kind"):
            assert getattr(a, column).tobytes() == getattr(b, column).tobytes()

    def test_seed_changes_draws(self):
        rng = np.random.default_rng(813)
        ds = _base_dataset(rng, 12)
        a = generate_semisynthetic(_exponential_model(), ds, SynthConfig(replication=2, seed=0))
        b = generate_semisynthetic(_exponential_model(), ds, SynthConfig(replication=2, seed=1))
        times_a = [o.time_lower for o in a.observations]
        times_b = [o.time_lower for o in b.observations]
        assert times_a != times_b

    def test_subject_draws_independent_of_dataset_size(self):
        """Counter-based keying and per-row bisection: a subject's draws do not
        depend on how many other subjects are sampled."""
        rng = np.random.default_rng(815)
        ds = _base_dataset(rng, 10)
        head = SurvivalDataset.from_observations(
            ds.observations[:3], feature_names=ds.feature_names
        )
        cfg = SynthConfig(replication=5, seed=3, censor_at_max=False)
        for model in (_exponential_model(), _flexible_model()):
            full = generate_semisynthetic(model, ds, cfg)
            part = generate_semisynthetic(model, head, cfg)
            for i in range(3 * 5):
                assert full.observations[i].time_lower == part.observations[i].time_lower

    def test_times_beyond_max_right_censored(self):
        rng = np.random.default_rng(817)
        # tight cap: plenty of exponential draws exceed the largest base time
        ds = _base_dataset(rng, 40)
        cap = max_observed_time(ds)
        synth = generate_semisynthetic(
            _exponential_model(), ds, SynthConfig(replication=10, seed=4)
        )
        over = [o for o in synth.observations if o.censoring == CensoringKind.RIGHT]
        assert over
        for obs in over:
            assert obs.time_lower == cap
        for obs in synth.observations:
            assert obs.time_lower <= cap

    def test_censoring_fraction_matches_exceedance(self):
        rng = np.random.default_rng(819)
        ds = _base_dataset(rng, 30)
        cap = max_observed_time(ds)
        cfg = SynthConfig(replication=8, seed=5)
        capped = generate_semisynthetic(_exponential_model(), ds, cfg)
        raw = generate_semisynthetic(
            _exponential_model(), ds, SynthConfig(replication=8, seed=5, censor_at_max=False)
        )
        exceed = sum(o.time_lower > cap for o in raw.observations)
        censored = sum(o.censoring == CensoringKind.RIGHT for o in capped.observations)
        assert censored == exceed

    def test_all_below_cap_stay_exact(self):
        rng = np.random.default_rng(821)
        base = _base_dataset(rng, 15)
        # add one huge exact time so the cap dwarfs every plausible draw
        obs = list(base.observations) + [Observation.exact(1e9, [0.0])]
        ds = SurvivalDataset.from_observations(obs)
        synth = generate_semisynthetic(
            _exponential_model(), ds, SynthConfig(replication=1, seed=6)
        )
        assert synth.n == ds.n
        assert all(o.censoring == CensoringKind.EXACT for o in synth.observations)

    def test_schema_mismatch(self):
        rng = np.random.default_rng(823)
        ds = _base_dataset(rng, 5, p=3)
        with pytest.raises(SchemaMismatch):
            generate_semisynthetic(_exponential_model(), ds, SynthConfig(replication=1, seed=0))
