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
    default_learning_rates,
    deserialize_model,
    serialize_model,
    validate_dataset,
)
from tramsurv.errors import (
    AllCensored,
    DimensionMismatch,
    EmptyDataset,
    InvertedInterval,
    MalformedArtifact,
    NonFiniteCovariate,
    NonPositiveTime,
    RaggedCovariates,
    SchemaVersionMismatch,
)
from tramsurv.feature import ExtractorSpec, init_params, param_count
from tramsurv.target import TargetFamily
from tramsurv.transform import head_size, init_head


def _valid_dataset():
    return SurvivalDataset(
        [
            Observation.exact(1.0, [0.5, -0.5]),
            Observation.right_censored(2.0, [0.1, 0.2]),
            Observation.interval(0.5, 1.5, [0.0, 0.0]),
        ]
    )


class TestObservation:
    def test_exact_sets_equal_bounds(self):
        obs = Observation.exact(2.5, [1.0])
        assert obs.time_lower == obs.time_upper == 2.5
        assert obs.censoring == CensoringKind.EXACT
        assert obs.event

    def test_right_censored_upper_infinite(self):
        obs = Observation.right_censored(2.5, [1.0])
        assert obs.time_upper == np.inf
        assert not obs.event

    def test_left_censored(self):
        obs = Observation.left_censored(0.7, [1.0])
        assert obs.censoring == CensoringKind.LEFT
        assert not obs.event

    def test_covariates_coerced_to_float_array(self):
        obs = Observation.exact(1.0, [1, 2, 3])
        assert obs.covariates.dtype == np.float64
        np.testing.assert_array_equal(obs.covariates, [1.0, 2.0, 3.0])


class TestDatasetValidation:
    def test_valid_dataset_passes(self):
        ds = _valid_dataset()
        assert validate_dataset(ds) is ds

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            validate_dataset(SurvivalDataset([]))

    def test_zero_time_reports_index(self):
        ds = SurvivalDataset([Observation.exact(1.0, [0.0]), Observation.exact(0.0, [0.0])])
        with pytest.raises(NonPositiveTime, match="observation 1"):
            validate_dataset(ds)

    def test_nan_time(self):
        with pytest.raises(NonPositiveTime):
            validate_dataset(SurvivalDataset([Observation.exact(np.nan, [0.0])]))

    def test_inverted_interval(self):
        ds = SurvivalDataset([Observation.interval(2.0, 1.0, [0.0])])
        with pytest.raises(InvertedInterval):
            validate_dataset(ds)

    def test_ragged_covariates(self):
        ds = SurvivalDataset([Observation.exact(1.0, [0.0]), Observation.exact(2.0, [0.0, 1.0])])
        with pytest.raises(RaggedCovariates):
            validate_dataset(ds)

    def test_non_finite_covariate(self):
        ds = SurvivalDataset([Observation.exact(1.0, [np.inf])])
        with pytest.raises(NonFiniteCovariate):
            validate_dataset(ds)

    def test_all_censored_only_in_fitting_mode(self):
        ds = SurvivalDataset(
            [Observation.right_censored(1.0, [0.0]), Observation.right_censored(2.0, [0.0])]
        )
        validate_dataset(ds)
        with pytest.raises(AllCensored):
            validate_dataset(ds, for_fitting=True)

    def test_feature_names_default(self):
        ds = _valid_dataset()
        assert ds.feature_names == ["x0", "x1"]
        assert ds.n == 3
        assert ds.p == 2

    def test_covariate_matrix_shape(self):
        ds = _valid_dataset()
        assert ds.covariate_matrix().shape == (3, 2)
        np.testing.assert_array_equal(ds.event_indicator(), [1.0, 0.0, 0.0])


class TestModelSpec:
    def test_default_learning_rates_table(self):
        def head_rate(parameterization, family):
            return default_learning_rates(parameterization, family)[1]

        assert head_rate(Parameterization.BASELINE, TargetFamily.LOGISTIC) == 0.1
        assert head_rate(Parameterization.LINEAR_SHIFT, TargetFamily.LOGISTIC) == 0.01
        assert head_rate(Parameterization.BERNSTEIN_SHIFT, TargetFamily.LOGISTIC) == 0.1
        assert head_rate(Parameterization.BERNSTEIN_SHIFT, TargetFamily.MEV) == 0.01
        assert head_rate(Parameterization.BERNSTEIN_FLEXIBLE, TargetFamily.MEV) == 0.1
        for parameterization in Parameterization:
            for family in TargetFamily:
                assert default_learning_rates(parameterization, family)[0] == 0.001

    def test_spec_resolves_default_head_rate(self):
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=2, output_dim=1),
        )
        assert spec.lr_head == 0.01
        assert spec.lr_extractor == 0.001

    def test_explicit_rate_kept(self):
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=2, output_dim=1), lr_head=0.5,
        )
        assert spec.lr_head == 0.5

    def test_baseline_needs_no_extractor(self):
        spec = ModelSpec(
            family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE
        )
        assert not spec.uses_extractor

    @pytest.mark.parametrize(
        "parameterization", [p for p in Parameterization if p != Parameterization.BASELINE]
    )
    def test_covariate_parameterizations_need_an_extractor(self, parameterization):
        with pytest.raises(DimensionMismatch):
            ModelSpec(family=TargetFamily.LOGISTIC, parameterization=parameterization)

    def test_flexible_needs_one_output_per_coefficient(self):
        def spec(output_dim):
            return ModelSpec(
                family=TargetFamily.LOGISTIC, parameterization=Parameterization.BERNSTEIN_FLEXIBLE,
                bernstein_order=3, extractor=ExtractorSpec(input_dim=2, output_dim=output_dim),
            )

        assert spec(4).uses_extractor
        with pytest.raises(DimensionMismatch):
            spec(3)


def _random_model(rng):
    families = list(TargetFamily)
    params = list(Parameterization)
    family = families[rng.integers(len(families))]
    parameterization = params[rng.integers(len(params))]
    order = int(rng.integers(1, 9))
    if parameterization == Parameterization.BASELINE:
        extractor = None
    else:
        out = order + 1 if parameterization == Parameterization.BERNSTEIN_FLEXIBLE else int(
            rng.integers(1, 4)
        )
        extractor = ExtractorSpec(
            input_dim=int(rng.integers(1, 5)),
            hidden_dims=tuple(int(d) for d in rng.integers(1, 6, size=rng.integers(0, 3))),
            output_dim=out,
        )
    spec = ModelSpec(
        family=family,
        parameterization=parameterization,
        bernstein_order=order,
        extractor=extractor,
        seed=int(rng.integers(1000)),
    )
    head = init_head(spec)
    head = head + rng.normal(size=head.size)
    ext = (
        init_params(extractor, int(rng.integers(1 << 32)))
        if extractor is not None
        else np.zeros(0)
    )
    return FittedModel(
        spec=spec,
        scaler=LogTimeScaler(float(rng.normal()), float(rng.normal()) + 3.0),
        head_params=head,
        extractor_params=ext,
        train_nll=float(rng.normal()),
        validation_nll=float(rng.normal()),
    )


class TestSerialization:
    def test_round_trip_many_random_models(self):
        """Serialized models survive a byte round-trip bit for bit."""
        rng = np.random.default_rng(2024)
        for _ in range(100):
            model = _random_model(rng)
            clone = deserialize_model(serialize_model(model))
            assert clone == model
            assert serialize_model(clone) == serialize_model(model)

    def test_truncated_stream(self):
        blob = serialize_model(_random_model(np.random.default_rng(0)))
        with pytest.raises(MalformedArtifact):
            deserialize_model(blob[: len(blob) // 2])

    def test_not_json(self):
        with pytest.raises(MalformedArtifact):
            deserialize_model(b"not a model at all")

    def test_schema_version_checked(self):
        import json

        blob = serialize_model(_random_model(np.random.default_rng(1)))
        doc = json.loads(blob)
        doc["schema_version"] = 99
        with pytest.raises(SchemaVersionMismatch):
            deserialize_model(json.dumps(doc).encode())

    def test_deserialized_spec_matches(self):
        model = _random_model(np.random.default_rng(7))
        clone = deserialize_model(serialize_model(model))
        assert clone.spec == model.spec
        assert clone.scaler == model.scaler
        np.testing.assert_array_equal(clone.head_params, model.head_params)
        assert clone.head_params.size == head_size(model.spec)

    def test_missing_key_rejected(self):
        import json

        blob = serialize_model(_random_model(np.random.default_rng(2)))
        doc = json.loads(blob)
        del doc["scaler"]
        with pytest.raises(MalformedArtifact):
            deserialize_model(json.dumps(doc).encode())
