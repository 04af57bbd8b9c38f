"""Conditional transformation models for censored time-to-event data.

Builds conditional survival distributions F(t | x) = F_Z(h(t | x)) from a
monotone transformation of time whose shape and covariate dependence are
chosen per model: a Bernstein-polynomial baseline combined with neural
feature shifts and scales, trained by SGD on a censoring-aware likelihood.
Includes proper scoring rules, bootstrap deep ensembles, and inversion
sampling for semi-synthetic data.
"""

__version__ = "0.1.0"

from .basis import LogTimeScaler, fit_scaler
from .core import (
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
from .feature import ExtractorSpec
from .fit import (
    EnsembleModel,
    ModelState,
    TrainConfig,
    fit,
    fit_ensemble,
    nll_batch,
)
from .metrics import EvaluationReport, c_index, crps, evaluate, log_score
from .sample import SynthConfig, generate_semisynthetic
from .target import TargetFamily
from .transform import ConditionalDistribution, conditional_distribution

__all__ = [
    "CensoringKind",
    "ConditionalDistribution",
    "EnsembleModel",
    "EvaluationReport",
    "ExtractorSpec",
    "FittedModel",
    "LogTimeScaler",
    "ModelSpec",
    "ModelState",
    "Observation",
    "Parameterization",
    "SurvivalDataset",
    "SynthConfig",
    "TargetFamily",
    "TrainConfig",
    "c_index",
    "conditional_distribution",
    "crps",
    "default_learning_rates",
    "deserialize_model",
    "evaluate",
    "fit",
    "fit_ensemble",
    "fit_scaler",
    "generate_semisynthetic",
    "log_score",
    "nll_batch",
    "serialize_model",
    "validate_dataset",
]
