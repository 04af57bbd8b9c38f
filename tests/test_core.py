import json
import math

from hypothesis import example, given, settings, strategies as st
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
    BadStatusValue,
    DimensionMismatch,
    EmptyDataset,
    InvertedInterval,
    MalformedArtifact,
    NonFiniteCovariate,
    NonPositiveTime,
    RaggedCovariates,
    SchemaVersionMismatch,
    TramsurvError,
)
from tramsurv.feature import ExtractorSpec, init_params, param_count
from tramsurv.target import TargetFamily
from tramsurv.transform import head_size, init_head


def _valid_dataset():
    return SurvivalDataset.from_observations(
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
            validate_dataset(SurvivalDataset.from_observations([]))

    def test_zero_time_reports_index(self):
        ds = SurvivalDataset.from_observations(
            [Observation.exact(1.0, [0.0]), Observation.exact(0.0, [0.0])]
        )
        with pytest.raises(NonPositiveTime, match="observation 1"):
            validate_dataset(ds)

    def test_nan_time(self):
        with pytest.raises(NonPositiveTime):
            validate_dataset(SurvivalDataset.from_observations([Observation.exact(np.nan, [0.0])]))

    def test_inverted_interval(self):
        ds = SurvivalDataset.from_observations([Observation.interval(2.0, 1.0, [0.0])])
        with pytest.raises(InvertedInterval):
            validate_dataset(ds)

    def test_unknown_kind_code(self):
        ds = SurvivalDataset(np.zeros((2, 1)), [1.0, 1.0], [1.0, 1.0], [0, len(CensoringKind)])
        with pytest.raises(BadStatusValue, match="observation 1"):
            validate_dataset(ds)

    def test_nan_interval_upper_bound(self):
        ds = SurvivalDataset.from_observations(
            [Observation.exact(1.0, [0.0]), Observation.interval(1.0, np.nan, [0.0])]
        )
        with pytest.raises(InvertedInterval, match="observation 1"):
            validate_dataset(ds)

    def test_ragged_covariates(self):
        with pytest.raises(RaggedCovariates, match="observation 1"):
            SurvivalDataset.from_observations(
                [Observation.exact(1.0, [0.0]), Observation.exact(2.0, [0.0, 1.0])]
            )

    def test_non_finite_covariate(self):
        ds = SurvivalDataset.from_observations([Observation.exact(1.0, [np.inf])])
        with pytest.raises(NonFiniteCovariate):
            validate_dataset(ds)

    def test_all_censored_only_in_fitting_mode(self):
        ds = SurvivalDataset.from_observations(
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
        assert ds.x.shape == (3, 2)
        kinds = [CensoringKind.EXACT, CensoringKind.RIGHT, CensoringKind.INTERVAL]
        np.testing.assert_array_equal(ds.kind, [k.code for k in kinds])


class TestDatasetColumns:
    def test_row_view_round_trips(self):
        rows = _valid_dataset().observations
        ds = SurvivalDataset.from_observations(rows, feature_names=["a", "b"])
        assert ds.feature_names == ["a", "b"]
        for got, want in zip(ds.observations, rows, strict=True):
            assert (got.time_lower, got.time_upper, got.censoring) == (
                want.time_lower, want.time_upper, want.censoring
            )
            np.testing.assert_array_equal(got.covariates, want.covariates)

    def test_row_view_is_read_only(self):
        ds = _valid_dataset()
        with pytest.raises(AttributeError):
            ds.observations = ()

    def test_take_selects_rows_in_order(self):
        ds = _valid_dataset().take(np.array([2, 0]))
        np.testing.assert_array_equal(ds.t_lower, [0.5, 1.0])
        np.testing.assert_array_equal(ds.x, [[0.0, 0.0], [0.5, -0.5]])
        assert ds.feature_names == ["x0", "x1"]

    def test_empty_rows_keep_feature_width(self):
        ds = SurvivalDataset.from_observations([], feature_names=["a", "b"])
        assert (ds.n, ds.p) == (0, 2)

    def test_mismatched_column_lengths(self):
        with pytest.raises(ValueError):
            SurvivalDataset(np.zeros((2, 1)), [1.0], [1.0], [0])

    def test_feature_name_count_must_match(self):
        with pytest.raises(RaggedCovariates, match="3 feature names for 2 covariates"):
            SurvivalDataset.from_observations(_valid_dataset().observations, ["a", "b", "c"])


def _validate_reference(dataset, for_fitting=False):
    """The per-row validation loop that the vectorized checks replaced.

    Interval upper bounds that are NaN count as inverted.  The covariate-count
    checks are left out: a dataset checks them when it is built.
    """
    if not dataset.observations:
        raise EmptyDataset("dataset contains no observations")
    for i, obs in enumerate(dataset.observations):
        if not (obs.time_lower > 0.0) or math.isinf(obs.time_lower):
            raise NonPositiveTime(
                f"observation {i}: time {obs.time_lower} is not positive and finite"
            )
        if obs.censoring == CensoringKind.INTERVAL:
            if not (obs.time_upper >= obs.time_lower):
                raise InvertedInterval(
                    f"observation {i}: interval ({obs.time_lower}, {obs.time_upper}) is inverted"
                )
            if math.isinf(obs.time_upper):
                raise InvertedInterval(f"observation {i}: interval upper bound must be finite")
        elif obs.censoring == CensoringKind.RIGHT:
            if not math.isinf(obs.time_upper):
                raise InvertedInterval(
                    f"observation {i}: right-censored upper bound must be +inf"
                )
        else:
            if obs.time_upper != obs.time_lower:
                raise InvertedInterval(
                    f"observation {i}: {obs.censoring.value} observations carry a single time"
                )
        if not np.all(np.isfinite(obs.covariates)):
            raise NonFiniteCovariate(f"observation {i}: covariates must be finite")
    if for_fitting and not any(obs.event for obs in dataset.observations):
        raise AllCensored("fitting requires at least one exact (non-censored) observation")
    return dataset


def _outcome(check, dataset, for_fitting):
    try:
        check(dataset, for_fitting)
    except TramsurvError as exc:
        return type(exc), str(exc)
    return None


_BAD = (0.0, -1.0, math.nan, math.inf, -math.inf)
_TIMES = (0.5, 1.0, 2.0) * 4 + _BAD
_COVARIATES = (0.0, 1.5, -2.0) * 6 + (math.nan, math.inf, -math.inf)


@st.composite
def _datasets(draw):
    """Small datasets whose cells are mostly valid, with violations of every kind."""
    n, p = draw(st.integers(0, 6)), draw(st.integers(0, 2))
    kinds = draw(st.lists(st.sampled_from(list(CensoringKind)), min_size=n, max_size=n))
    lower = draw(st.lists(st.sampled_from(_TIMES), min_size=n, max_size=n))
    upper = []
    for kind, lo in zip(kinds, lower):
        if kind == CensoringKind.RIGHT:
            choices = (math.inf,) * 3 + (3.0, math.nan, -math.inf)
        elif kind == CensoringKind.INTERVAL:
            choices = (lo + 1.0,) * 3 + (lo, lo - 0.25, math.nan, math.inf, -math.inf)
        else:
            choices = (lo,) * 3 + (lo + 1.0, math.nan)
        upper.append(draw(st.sampled_from(choices)))
    rows = draw(st.lists(
        st.lists(st.sampled_from(_COVARIATES), min_size=p, max_size=p), min_size=n, max_size=n
    ))
    return SurvivalDataset(
        np.array(rows, dtype=float).reshape(n, p), lower, upper, [k.code for k in kinds]
    )


def _rows(*rows, p=1):
    """A dataset from (kind, lower, upper, covariate) tuples."""
    kinds, lower, upper, x = zip(*rows)
    return SurvivalDataset(np.repeat(np.array(x)[:, None], p, axis=1), lower, upper,
                           [k.code for k in kinds])


_E, _R, _I = CensoringKind.EXACT, CensoringKind.RIGHT, CensoringKind.INTERVAL


@given(_datasets(), st.booleans())
@example(_rows((_E, 1.0, 1.0, 0.0), (_E, 0.0, 0.0, 0.0)), False)  # non-positive time
@example(_rows((_E, 1.0, 1.0, np.inf), (_E, np.nan, np.nan, 0.0)), False)  # covariate first
@example(_rows((_E, np.inf, np.inf, 0.0)), False)  # infinite time
@example(_rows((_I, 2.0, 1.0, 0.0)), False)  # inverted interval
@example(_rows((_I, 1.0, np.nan, 0.0)), False)  # NaN interval bound
@example(_rows((_I, 1.0, np.inf, 0.0)), False)  # infinite interval bound
@example(_rows((_R, 1.0, 3.0, 0.0)), False)  # finite right-censored bound
@example(_rows((_E, 1.0, 2.0, 0.0)), False)  # exact row with two times
@example(_rows((_E, 1.0, 1.0, -np.inf), p=2), False)  # non-finite covariate
@example(_rows((_R, 1.0, np.inf, 0.0), (_I, 1.0, 2.0, 0.0)), True)  # all censored
@example(_rows((_I, 1.0, np.inf, np.nan)), False)  # two violations in one row
@example(_rows((_R, -1.0, 3.0, np.inf)), False)  # three violations in one row
@settings(max_examples=400, deadline=None)
def test_vectorized_validation_matches_per_row_reference(dataset, for_fitting):
    assert _outcome(validate_dataset, dataset, for_fitting) == _outcome(
        _validate_reference, dataset, for_fitting
    )


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
        blob = serialize_model(_random_model(np.random.default_rng(2)))
        doc = json.loads(blob)
        del doc["scaler"]
        with pytest.raises(MalformedArtifact):
            deserialize_model(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "key, value", [("bernstein_order", 0), ("bernstein_order", 2.5), ("family", "weibull")]
    )
    def test_out_of_range_spec_is_malformed(self, key, value):
        """A spec value that would be E_BAD_CONFIG on the command line is a malformed artifact."""
        doc = json.loads(serialize_model(_random_model(np.random.default_rng(3))))
        doc["spec"][key] = value
        with pytest.raises(MalformedArtifact):
            deserialize_model(json.dumps(doc).encode())

    def test_artifact_with_training_settings_loads_as_without(self):
        """Artifacts of earlier versions also held five training settings in ``spec``;
        they load, ignoring those, into the model the current format describes."""
        old = (
            b'{"schema_version": 1, "spec": {"family": "logistic", "parameterization": '
            b'"bernstein_shift", "bernstein_order": 2, "extractor": {"input_dim": 1, '
            b'"hidden_dims": [2], "output_dim": 1, "activation": "tanh", "init_scale": 1.0}, '
            b'"lr_extractor": 0.001, "lr_head": 0.3, "epochs": 40, '
            b'"early_stopping_patience": 10, "seed": 7}, "scaler": {"a_lo": -1.5, '
            b'"b_hi": 2.25}, "head_params": [0.5, -0.25, 1.0, 0.75], "extractor_params": '
            b'[0.125, -2.0, 0.5, 0.25, 1.5, -0.5, 0.0], "train_nll": 1.25, '
            b'"validation_nll": 1.5}'
        )
        spec = ModelSpec(TargetFamily.LOGISTIC, Parameterization.BERNSTEIN_SHIFT, 2,
                         ExtractorSpec(input_dim=1, hidden_dims=(2,), output_dim=1))
        model = FittedModel(spec, LogTimeScaler(-1.5, 2.25), [0.5, -0.25, 1.0, 0.75],
                            [0.125, -2.0, 0.5, 0.25, 1.5, -0.5, 0.0], 1.25, 1.5)
        loaded = deserialize_model(old)
        assert loaded == model
        assert serialize_model(loaded) == serialize_model(model)
        spec_keys = {"family", "parameterization", "bernstein_order", "extractor"}
        assert set(json.loads(serialize_model(loaded))["spec"]) == spec_keys

    def test_zero_hidden_width_is_malformed(self):
        doc = json.loads(serialize_model(_random_model(np.random.default_rng(3))))
        doc["spec"]["parameterization"] = "linear_shift"
        doc["spec"]["extractor"] = {"input_dim": 2, "hidden_dims": [0], "output_dim": 1,
                                    "activation": "tanh", "init_scale": 1.0}
        with pytest.raises(MalformedArtifact):
            deserialize_model(json.dumps(doc).encode())
