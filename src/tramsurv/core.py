"""Domain types for censored time-to-event data and model artifacts.

Observations carry one time (exact, right- or left-censored) or two times
(interval-censored).  A left-censored time means the event happened at or
before the recorded time, i.e. on the interval from the lower support bound
(zero) up to it; the likelihood uses the CDF at that time directly, so no
explicit lower interval endpoint is ever formed.

Fitted models serialize to a versioned JSON artifact that round-trips at
full float precision.
"""

from dataclasses import dataclass, field
from enum import Enum
import json
import math

import numpy as np

from .basis import LogTimeScaler
from .errors import (
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
from .feature import ExtractorSpec
from .target import TargetFamily

SCHEMA_VERSION = 1


class CensoringKind(str, Enum):
    EXACT = "exact"
    RIGHT = "right"
    LEFT = "left"
    INTERVAL = "interval"


class Parameterization(str, Enum):
    """How covariates and time enter the monotone transformation."""

    BASELINE = "baseline"
    LINEAR_SHIFT = "linear_shift"
    LINEAR_SCALE = "linear_scale"
    BERNSTEIN_SHIFT = "bernstein_shift"
    BERNSTEIN_SHIFT_SCALE = "bernstein_shift_scale"
    BERNSTEIN_FLEXIBLE = "bernstein_flexible"


@dataclass(frozen=True, eq=False)
class Observation:
    """One subject: times, censoring kind, and a covariate vector."""

    time_lower: float
    time_upper: float
    censoring: CensoringKind
    covariates: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "covariates", np.asarray(self.covariates, dtype=float)
        )

    @classmethod
    def exact(cls, t, covariates):
        return cls(float(t), float(t), CensoringKind.EXACT, covariates)

    @classmethod
    def right_censored(cls, t, covariates):
        return cls(float(t), math.inf, CensoringKind.RIGHT, covariates)

    @classmethod
    def left_censored(cls, t, covariates):
        return cls(float(t), float(t), CensoringKind.LEFT, covariates)

    @classmethod
    def interval(cls, t_lower, t_upper, covariates):
        return cls(float(t_lower), float(t_upper), CensoringKind.INTERVAL, covariates)

    @property
    def event(self) -> bool:
        return self.censoring == CensoringKind.EXACT


@dataclass(eq=False)
class SurvivalDataset:
    observations: list
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        if not self.feature_names and self.observations:
            p = len(self.observations[0].covariates)
            self.feature_names = [f"x{i}" for i in range(p)]

    @property
    def n(self) -> int:
        return len(self.observations)

    @property
    def p(self) -> int:
        return len(self.feature_names)

    def covariate_matrix(self) -> np.ndarray:
        return np.array([obs.covariates for obs in self.observations], dtype=float)

    def times_lower(self) -> np.ndarray:
        return np.array([obs.time_lower for obs in self.observations], dtype=float)

    def event_indicator(self) -> np.ndarray:
        return np.array([obs.event for obs in self.observations], dtype=float)


def validate_dataset(dataset: SurvivalDataset, for_fitting: bool = False) -> SurvivalDataset:
    """Check dataset invariants; returns the dataset unchanged (idempotent).

    Reports the index and reason of the first violation.  In fitting mode the
    dataset must contain at least one exact observation, since censored kinds
    contribute no density term to the likelihood.
    """
    if not dataset.observations:
        raise EmptyDataset("dataset contains no observations")
    p = len(dataset.observations[0].covariates)
    if dataset.feature_names and len(dataset.feature_names) != p:
        raise RaggedCovariates(
            f"{len(dataset.feature_names)} feature names for {p} covariates"
        )
    for i, obs in enumerate(dataset.observations):
        if not (obs.time_lower > 0.0) or math.isinf(obs.time_lower):
            raise NonPositiveTime(f"observation {i}: time {obs.time_lower} is not positive and finite")
        if obs.censoring == CensoringKind.INTERVAL:
            if obs.time_upper < obs.time_lower:
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
        if obs.covariates.ndim != 1 or len(obs.covariates) != p:
            raise RaggedCovariates(
                f"observation {i}: expected {p} covariates, got shape {obs.covariates.shape}"
            )
        if not np.all(np.isfinite(obs.covariates)):
            raise NonFiniteCovariate(f"observation {i}: covariates must be finite")
    if for_fitting and not any(obs.event for obs in dataset.observations):
        raise AllCensored("fitting requires at least one exact (non-censored) observation")
    return dataset


# Learning rates of the two parameter groups, per parameterization and family.
# The extractor rate is 0.001 throughout; the head rate varies.
_DEFAULT_LR_HEAD = {
    (Parameterization.BASELINE, TargetFamily.LOGISTIC): 0.1,
    (Parameterization.LINEAR_SHIFT, TargetFamily.LOGISTIC): 0.01,
    (Parameterization.LINEAR_SCALE, TargetFamily.LOGISTIC): 0.1,
    (Parameterization.BERNSTEIN_SHIFT, TargetFamily.LOGISTIC): 0.1,
    (Parameterization.BERNSTEIN_SHIFT_SCALE, TargetFamily.LOGISTIC): 0.01,
    (Parameterization.BERNSTEIN_FLEXIBLE, TargetFamily.LOGISTIC): 0.1,
    (Parameterization.BASELINE, TargetFamily.MEV): 0.01,
    (Parameterization.LINEAR_SHIFT, TargetFamily.MEV): 0.01,
    (Parameterization.LINEAR_SCALE, TargetFamily.MEV): 0.01,
    (Parameterization.BERNSTEIN_SHIFT, TargetFamily.MEV): 0.01,
    (Parameterization.BERNSTEIN_SHIFT_SCALE, TargetFamily.MEV): 0.01,
    (Parameterization.BERNSTEIN_FLEXIBLE, TargetFamily.MEV): 0.1,
}


def default_learning_rates(
    parameterization: Parameterization, family: TargetFamily
) -> tuple[float, float]:
    """(extractor rate, head rate) defaults for a model configuration."""
    return 0.001, _DEFAULT_LR_HEAD[(parameterization, family)]


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to rebuild a model architecture and its training setup."""

    family: TargetFamily
    parameterization: Parameterization
    bernstein_order: int = 6
    extractor: ExtractorSpec | None = None
    lr_extractor: float | None = None
    lr_head: float | None = None
    epochs: int = 200
    early_stopping_patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.bernstein_order < 1:
            raise ValueError("bernstein_order must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.early_stopping_patience < 0:
            raise ValueError("early_stopping_patience must be >= 0")
        lr_ext, lr_head = default_learning_rates(self.parameterization, self.family)
        if self.lr_extractor is None:
            object.__setattr__(self, "lr_extractor", lr_ext)
        if self.lr_head is None:
            object.__setattr__(self, "lr_head", lr_head)
        if self.lr_extractor <= 0.0 or self.lr_head <= 0.0:
            raise ValueError("learning rates must be positive")
        if self.uses_extractor and self.extractor is None:
            raise DimensionMismatch(
                f"parameterization {self.parameterization.value} requires an extractor spec"
            )
        if (
            self.parameterization == Parameterization.BERNSTEIN_FLEXIBLE
            and self.extractor.output_dim != self.bernstein_order + 1
        ):
            raise DimensionMismatch(
                "flexible parameterization needs extractor output of dimension order + 1"
            )

    @property
    def uses_extractor(self) -> bool:
        return self.parameterization != Parameterization.BASELINE


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Immutable result of fitting: spec, frozen scaler, and parameters."""

    spec: ModelSpec
    scaler: LogTimeScaler
    head_params: np.ndarray
    extractor_params: np.ndarray
    train_nll: float
    validation_nll: float

    def __post_init__(self):
        head = np.array(self.head_params, dtype=float)
        ext = np.array(self.extractor_params, dtype=float)
        head.setflags(write=False)
        ext.setflags(write=False)
        object.__setattr__(self, "head_params", head)
        object.__setattr__(self, "extractor_params", ext)

    def __eq__(self, other):
        if not isinstance(other, FittedModel):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.scaler == other.scaler
            and np.array_equal(self.head_params, other.head_params)
            and np.array_equal(self.extractor_params, other.extractor_params)
            and self.train_nll == other.train_nll
            and self.validation_nll == other.validation_nll
        )


def _spec_to_dict(spec: ModelSpec) -> dict:
    extractor = None
    if spec.extractor is not None:
        extractor = {
            "input_dim": spec.extractor.input_dim,
            "hidden_dims": list(spec.extractor.hidden_dims),
            "output_dim": spec.extractor.output_dim,
            "activation": spec.extractor.activation,
            "init_scale": spec.extractor.init_scale,
        }
    return {
        "family": spec.family.value,
        "parameterization": spec.parameterization.value,
        "bernstein_order": spec.bernstein_order,
        "extractor": extractor,
        "lr_extractor": spec.lr_extractor,
        "lr_head": spec.lr_head,
        "epochs": spec.epochs,
        "early_stopping_patience": spec.early_stopping_patience,
        "seed": spec.seed,
    }


def _spec_from_dict(doc: dict) -> ModelSpec:
    extractor = None
    if doc.get("extractor") is not None:
        e = doc["extractor"]
        extractor = ExtractorSpec(
            input_dim=e["input_dim"],
            hidden_dims=tuple(e["hidden_dims"]),
            output_dim=e["output_dim"],
            activation=e["activation"],
            init_scale=e["init_scale"],
        )
    return ModelSpec(
        family=TargetFamily(doc["family"]),
        parameterization=Parameterization(doc["parameterization"]),
        bernstein_order=doc["bernstein_order"],
        extractor=extractor,
        lr_extractor=doc["lr_extractor"],
        lr_head=doc["lr_head"],
        epochs=doc["epochs"],
        early_stopping_patience=doc["early_stopping_patience"],
        seed=doc["seed"],
    )


def serialize_model(model: FittedModel) -> bytes:
    """Serialize to a versioned JSON artifact; floats keep full precision."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec": _spec_to_dict(model.spec),
        "scaler": {"a_lo": model.scaler.a_lo, "b_hi": model.scaler.b_hi},
        "head_params": model.head_params.tolist(),
        "extractor_params": model.extractor_params.tolist(),
        "train_nll": model.train_nll,
        "validation_nll": model.validation_nll,
    }
    return json.dumps(doc, allow_nan=False).encode("utf-8")


def deserialize_model(data: bytes) -> FittedModel:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedArtifact(f"artifact is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise MalformedArtifact("artifact is missing the schema_version field")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"artifact has schema version {doc['schema_version']}, expected {SCHEMA_VERSION}"
        )
    try:
        return FittedModel(
            spec=_spec_from_dict(doc["spec"]),
            scaler=LogTimeScaler(a_lo=doc["scaler"]["a_lo"], b_hi=doc["scaler"]["b_hi"]),
            head_params=np.asarray(doc["head_params"], dtype=float),
            extractor_params=np.asarray(doc["extractor_params"], dtype=float),
            train_nll=doc["train_nll"],
            validation_nll=doc["validation_nll"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedArtifact(f"artifact is missing or has malformed fields: {exc}") from exc
