"""Domain types for censored time-to-event data and model artifacts.

A :class:`SurvivalDataset` holds subjects as columns, which every layer reads;
:class:`Observation` is its row type.  A subject carries one time (exact,
right- or left-censored) or two times (interval-censored).  A left-censored
time means the event happened at or before the recorded time, i.e. on the
interval from the lower support bound (zero) up to it; the likelihood uses the
CDF at that time directly, so no explicit lower interval endpoint is ever
formed.

Fitted models serialize to a versioned JSON artifact that round-trips at
full float precision.
"""

from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import cached_property
import json
import math

import numpy as np

from .basis import LogTimeScaler
from .errors import (
    AllCensored,
    BadConfig,
    BadStatusValue,
    DimensionMismatch,
    EmptyDataset,
    InvertedInterval,
    MalformedArtifact,
    NonFiniteCovariate,
    NonNumericCovariate,
    NonPositiveTime,
    RaggedCovariates,
    SchemaVersionMismatch,
    require_int,
    require_type,
)
from .feature import ExtractorSpec
from .target import TargetFamily

SCHEMA_VERSION = 1


class CensoringKind(str, Enum):
    EXACT = "exact"
    RIGHT = "right"
    LEFT = "left"
    INTERVAL = "interval"

    @property
    def code(self) -> int:
        """This kind's int8 code in :attr:`SurvivalDataset.kind`: its position in ``KINDS``."""
        return KINDS.index(self)


KINDS = tuple(CensoringKind)


class Parameterization(str, Enum):
    """How covariates and time enter the monotone transformation."""

    BASELINE = "baseline"
    LINEAR_SHIFT = "linear_shift"
    LINEAR_SCALE = "linear_scale"
    BERNSTEIN_SHIFT = "bernstein_shift"
    BERNSTEIN_SHIFT_SCALE = "bernstein_shift_scale"
    BERNSTEIN_FLEXIBLE = "bernstein_flexible"


def float_array(values, name: str, ragged=DimensionMismatch) -> np.ndarray:
    """``values`` as a float array; text, objects, an integer beyond the float
    range and rows of unequal length (``ragged``) raise coded errors."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise NonFiniteCovariate(f"{name} must be finite numbers") from None
    except (TypeError, ValueError) as exc:
        # numpy's message for rows of unequal length
        error = ragged if "with a sequence" in str(exc) else NonNumericCovariate
        raise error(f"{name} must be numbers in rows of one length") from None


def _kind_codes(kind) -> np.ndarray:
    """Censoring-kind codes as int8; a code that is not an int8 integer raises BadStatusValue."""
    try:
        codes = np.asarray(kind)
        valid = codes.dtype.kind in "biuf" and np.isin(codes, np.arange(-128, 128)).all()
    except ValueError:  # rows of unequal length
        valid = False
    if not valid:
        raise BadStatusValue("censoring-kind codes must be integers from -128 to 127")
    return codes.astype(np.int8, copy=False)


def _feature_names(names) -> list:
    """``names`` as a list; anything but a list or tuple of str raises BadConfig."""
    if not isinstance(names, (list, tuple)) or not all(isinstance(name, str) for name in names):
        raise BadConfig(f"feature names must be a list or tuple of str, got {type(names).__name__}")
    return list(names)


@dataclass(frozen=True, eq=False)
class Observation:
    """One subject: times, censoring kind, and a covariate vector."""

    time_lower: float
    time_upper: float
    censoring: CensoringKind
    covariates: np.ndarray

    def __post_init__(self):
        try:
            times = float(self.time_lower), float(self.time_upper)
        except (TypeError, ValueError, OverflowError):
            raise NonNumericCovariate("an observation's times must be numbers") from None
        object.__setattr__(self, "censoring", member_of(CensoringKind, "censoring kind",
                                                        self.censoring, BadStatusValue))
        object.__setattr__(self, "time_lower", times[0])
        object.__setattr__(self, "time_upper", times[1])
        object.__setattr__(self, "covariates", float_array(self.covariates, "covariates"))

    @classmethod
    def exact(cls, t, covariates):
        return cls(t, t, CensoringKind.EXACT, covariates)

    @classmethod
    def right_censored(cls, t, covariates):
        return cls(t, math.inf, CensoringKind.RIGHT, covariates)

    @classmethod
    def left_censored(cls, t, covariates):
        return cls(t, t, CensoringKind.LEFT, covariates)

    @classmethod
    def interval(cls, t_lower, t_upper, covariates):
        return cls(t_lower, t_upper, CensoringKind.INTERVAL, covariates)

    @property
    def event(self) -> bool:
        return self.censoring == CensoringKind.EXACT


@dataclass(frozen=True, eq=False)
class SurvivalDataset:
    """Covariates ``x`` (n, p), times and censoring-kind codes (n,), one row per subject.

    ``t_upper`` is ``+inf`` on right-censored rows and ``t_lower`` on exact and
    left-censored ones; ``kind`` holds each row's :attr:`CensoringKind.code`.
    """

    x: np.ndarray
    t_lower: np.ndarray
    t_upper: np.ndarray
    kind: np.ndarray
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "x", float_array(self.x, "covariates", ragged=RaggedCovariates))
        for name in ("t_lower", "t_upper"):
            object.__setattr__(self, name, float_array(getattr(self, name), "times"))
        object.__setattr__(self, "kind", _kind_codes(self.kind))
        shapes = {column.shape for column in (self.t_lower, self.t_upper, self.kind)}
        if self.x.ndim != 2 or shapes != {(self.n,)}:
            raise DimensionMismatch("columns need shapes x (n, p) and t_lower, t_upper, kind (n,)")
        names = _feature_names(self.feature_names) or [f"x{i}" for i in range(self.p)]
        if len(names) != self.p:
            raise RaggedCovariates(f"{len(names)} feature names for {self.p} covariates")
        object.__setattr__(self, "feature_names", names)

    @classmethod
    def from_observations(cls, rows, feature_names=None) -> "SurvivalDataset":
        """Stack :class:`Observation` rows; every row needs the same covariate count."""
        rows = list(rows) if np.iterable(rows) else [rows]
        if not all(isinstance(obs, Observation) for obs in rows):
            raise BadConfig("rows must be an iterable of Observation objects")
        feature_names = _feature_names([] if feature_names is None else feature_names)
        p = rows[0].covariates.size if rows else len(feature_names)
        for i, obs in enumerate(rows):
            if obs.covariates.shape != (p,):
                raise RaggedCovariates(
                    f"observation {i}: expected {p} covariates, got shape {obs.covariates.shape}"
                )
        return cls(
            x=np.array([obs.covariates for obs in rows], dtype=float).reshape(len(rows), p),
            t_lower=[obs.time_lower for obs in rows],
            t_upper=[obs.time_upper for obs in rows],
            kind=[obs.censoring.code for obs in rows],
            feature_names=feature_names,
        )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @cached_property
    def observations(self) -> tuple:
        """The rows as :class:`Observation` objects, built on first access."""
        columns = (self.t_lower.tolist(), self.t_upper.tolist(), self.kind.tolist(), self.x)
        return tuple(Observation(lo, hi, KINDS[k], x) for lo, hi, k, x in zip(*columns))

    def times_lower(self) -> np.ndarray:
        return self.t_lower

    def take(self, idx) -> "SurvivalDataset":
        """The rows an index array (or boolean mask) selects, in its order.

        An index that numpy rejects for the rows raises :class:`BadConfig`.
        """
        try:
            columns = [column[idx] for column in (self.x, self.t_lower, self.t_upper, self.kind)]
        except IndexError as exc:
            raise BadConfig(f"rows to take must index the {self.n} rows: {exc}") from None
        return SurvivalDataset(*columns, list(self.feature_names))


def validate_dataset(dataset: SurvivalDataset, for_fitting: bool = False) -> SurvivalDataset:
    """Check dataset invariants; returns the dataset unchanged (idempotent).

    Reports the index and reason of the first violation: the lowest violating
    row, and for that row the first failing check in the order listed below.
    In fitting mode the dataset must contain at least one exact observation,
    since censored kinds contribute no density term to the likelihood.
    """
    require_type("dataset", dataset, SurvivalDataset)
    if dataset.n == 0:
        raise EmptyDataset("dataset contains no observations")
    lo, hi, kind = dataset.t_lower, dataset.t_upper, dataset.kind
    interval = kind == CensoringKind.INTERVAL.code
    right = kind == CensoringKind.RIGHT.code
    checks = (
        ((kind < 0) | (kind >= len(KINDS)), BadStatusValue,
         lambda i: f"censoring-kind code {kind[i]} is not one of 0..{len(KINDS) - 1}"),
        (~(lo > 0.0) | np.isinf(lo), NonPositiveTime,
         lambda i: f"time {lo[i]} is not positive and finite"),
        (interval & ~(hi >= lo), InvertedInterval,
         lambda i: f"interval ({lo[i]}, {hi[i]}) is inverted"),
        (interval & np.isinf(hi), InvertedInterval,
         lambda i: "interval upper bound must be finite"),
        (right & ~np.isinf(hi), InvertedInterval,
         lambda i: "right-censored upper bound must be +inf"),
        (~(interval | right) & (hi != lo), InvertedInterval,
         lambda i: f"{KINDS[kind[i]].value} observations carry a single time"),
        (~np.isfinite(dataset.x).all(axis=1), NonFiniteCovariate,
         lambda i: "covariates must be finite"),
    )
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        error, message = next((e, m) for mask, e, m in checks if mask[i])
        raise error(f"observation {i}: {message(i)}")
    if for_fitting and not np.any(kind == CensoringKind.EXACT.code):
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


def member_of(enum, name: str, value, error=BadConfig):
    """``value`` as a member of ``enum``, given as one or as its value; else ``error``."""
    try:
        return enum(value)
    except ValueError:
        raise error(
            f"unknown {name} {value!r}; expected one of {[m.value for m in enum]}"
        ) from None


@dataclass(frozen=True)
class ModelSpec:
    """The model's architecture; how it is trained is a ``fit.TrainConfig``."""

    family: TargetFamily
    parameterization: Parameterization
    bernstein_order: int = 6
    extractor: ExtractorSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", member_of(TargetFamily, "family", self.family))
        object.__setattr__(self, "parameterization",
                           member_of(Parameterization, "parameterization", self.parameterization))
        require_int("bernstein_order", self.bernstein_order, 1)
        if not isinstance(self.extractor, (ExtractorSpec, type(None))):
            raise BadConfig(f"extractor must be an ExtractorSpec or None, got {self.extractor!r}")
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

    @property
    def uses_basis(self) -> bool:
        linear = (Parameterization.LINEAR_SHIFT, Parameterization.LINEAR_SCALE)
        return self.parameterization not in linear


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
    # the extractor's keys are its fields, in their order
    return {
        "family": spec.family.value,
        "parameterization": spec.parameterization.value,
        "bernstein_order": spec.bernstein_order,
        "extractor": None if spec.extractor is None else asdict(spec.extractor),
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
        family=doc["family"],
        parameterization=doc["parameterization"],
        bernstein_order=doc["bernstein_order"],
        extractor=extractor,
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
