"""Public constructors and scorers fail only with a coded ``TramsurvError``.

Each entry point gets drawn junk for its arguments (strings, bools, None, NaN,
infinities, floats, integers beyond the float range, lists) in place of its
settings, covariates, models and datasets, mixed with valid values so that
the later checks are reached too.  A call either succeeds,
giving a result that later steps can use, or raises a ``TramsurvError``.
"""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from tramsurv import (
    CensoringKind,
    ConditionalDistribution,
    ModelSpec,
    ModelState,
    Observation,
    Parameterization,
    SurvivalDataset,
    SynthConfig,
    TargetFamily,
    TrainConfig,
    c_index,
    conditional_distribution,
    evaluate,
    fit,
    generate_semisynthetic,
    nll_batch,
)
from tramsurv.basis import LogTimeScaler
from tramsurv.core import FittedModel
from tramsurv.errors import TramsurvError
from tramsurv.feature import ExtractorSpec, identity_params
from tramsurv.numerics import softplus_inv

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-2, max_value=9),
    st.just(10**400),
    st.lists(st.one_of(st.integers(-2, 9), st.floats(), st.text(max_size=2)), max_size=3),
)


def _or_junk(*valid) -> st.SearchStrategy:
    return st.one_of(*valid, _JUNK)


def _is_count(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _is_rate(value) -> bool:
    return value is None or (not isinstance(value, bool) and 0.0 < float(value) < math.inf)


def _exponential_model() -> FittedModel:
    """S(t | x) = exp(-t * e^x): the MEV linear-shift model with an identity extractor."""
    spec = ModelSpec(TargetFamily.MEV, Parameterization.LINEAR_SHIFT,
                     extractor=ExtractorSpec(input_dim=1))
    return FittedModel(spec, LogTimeScaler(0.0, 1.0), [0.0, softplus_inv(1.0), 1.0],
                       identity_params(spec.extractor), train_nll=0.0, validation_nll=0.0)


_MODEL = _exponential_model()
_SPEC = _MODEL.spec
_DATASET = SurvivalDataset(x=[[0.0], [0.5], [-0.5], [1.0]], t_lower=[0.5, 1.0, 2.0, 3.0],
                           t_upper=[0.5, 1.0, 2.0, np.inf], kind=[0, 0, 0, 1])
_VALUES = st.lists(st.one_of(st.floats(), st.integers(0, 5), st.none(), st.text(max_size=1)),
                   max_size=5)
# a cell of a dataset column: a number, text, an integer beyond the float range, or a row
_CELL = st.one_of(st.floats(0.1, 9.0), st.text(max_size=1), st.just(10**400),
                  st.lists(st.floats(0.1, 9.0), min_size=1, max_size=2))
# two rows of one or two cells each: equal or ragged
_ROWS = st.lists(st.lists(_CELL, min_size=1, max_size=2), min_size=2, max_size=2)
_COLUMN = st.lists(_CELL, min_size=2, max_size=2)
# feature names: lists and tuples of text of any length, and a str (a sequence, but not of names)
_NAMES = st.one_of(st.lists(st.text(max_size=2), max_size=3),
                   st.lists(st.text(max_size=2), max_size=3).map(tuple), st.text(max_size=3))
_OBSERVATIONS = st.lists(st.one_of(st.builds(Observation.exact, st.floats(0.1, 9.0),
                                             st.lists(st.floats(-2.0, 2.0), min_size=1,
                                                      max_size=1)),
                                   _JUNK), max_size=3)


def _dataset(x, t_lower, t_upper, kind, feature_names) -> SurvivalDataset:
    """A dataset that holds the codes it was given: none is rounded or wrapped."""
    dataset = SurvivalDataset(x, t_lower, t_upper, kind, feature_names)
    np.testing.assert_array_equal(dataset.kind, kind)
    return dataset


def _has_names(dataset) -> bool:
    names = dataset.feature_names
    return (isinstance(dataset, SurvivalDataset) and isinstance(names, list)
            and len(names) == dataset.p and all(isinstance(name, str) for name in names))


# entry point: (call, strategy of each argument, what a successful result must satisfy)
_ENTRY_POINTS = {
    "ModelSpec": (
        ModelSpec,
        {
            "family": _or_junk(st.sampled_from(["logistic", "minimum_extreme_value",
                                                TargetFamily.MEV])),
            "parameterization": _or_junk(st.sampled_from(
                [p.value for p in Parameterization] + [Parameterization.BASELINE])),
            "bernstein_order": _or_junk(st.integers(1, 8)),
            "extractor": _or_junk(st.builds(ExtractorSpec, input_dim=st.just(2),
                                            output_dim=st.integers(1, 9))),
        },
        lambda spec: (isinstance(spec.family, TargetFamily)
                      and isinstance(spec.parameterization, Parameterization)
                      and _is_count(spec.bernstein_order, 1)
                      and isinstance(spec.extractor, (ExtractorSpec, type(None)))),
    ),
    "ExtractorSpec": (
        ExtractorSpec,
        {
            "input_dim": _or_junk(st.integers(1, 4)),
            "hidden_dims": _or_junk(st.lists(st.integers(1, 4), max_size=2).map(tuple)),
            "output_dim": _or_junk(st.integers(1, 4)),
            "activation": _or_junk(st.sampled_from(["tanh", "relu"])),
            "init_scale": _or_junk(st.floats(0.1, 2.0)),
        },
        lambda e: (_is_count(e.input_dim, 1) and _is_count(e.output_dim, 1)
                   and all(_is_count(h, 1) for h in e.hidden_dims)
                   and e.activation in ("tanh", "relu")
                   and type(e.init_scale) is float and math.isfinite(e.init_scale)),
    ),
    "TrainConfig": (
        TrainConfig,
        {
            "epochs": _or_junk(st.integers(1, 9)),
            "batch_size": _or_junk(st.integers(1, 9)),
            "lr_extractor": _or_junk(st.floats(1e-4, 1.0)),
            "lr_head": _or_junk(st.floats(1e-4, 1.0)),
            "early_stopping_patience": _or_junk(st.integers(0, 9)),
            "validation_fraction": _or_junk(st.floats(0.1, 0.9)),
            "seed": _or_junk(st.integers(0, 9)),
        },
        lambda c: (_is_count(c.epochs, 1) and _is_count(c.batch_size, 1)
                   and _is_count(c.early_stopping_patience, 0) and _is_count(c.seed, 0)
                   and _is_rate(c.lr_extractor) and _is_rate(c.lr_head)
                   and 0.0 < c.validation_fraction < 1.0),
    ),
    "SynthConfig": (
        SynthConfig,
        {
            "replication": _or_junk(st.integers(1, 9)),
            "seed": _or_junk(st.integers(0, 9)),
            "censor_at_max": _or_junk(st.booleans()),
        },
        lambda c: (_is_count(c.replication, 1) and _is_count(c.seed, 0)
                   and isinstance(c.censor_at_max, bool)),
    ),
    "c_index": (
        c_index,
        {"times": _or_junk(_VALUES), "events": _or_junk(_VALUES), "risks": _or_junk(_VALUES)},
        lambda value: 0.0 <= value <= 1.0,
    ),
    "evaluate": (
        lambda model, dataset, t_max: evaluate(model, dataset, t_max=t_max),
        {
            "model": _or_junk(st.just(_MODEL)),
            "dataset": _or_junk(st.just(_DATASET)),
            "t_max": _or_junk(st.floats(3.0, 1e3), st.integers(3, 1000),
                              st.floats(3.0, 1e3).map(np.float32)),
        },
        lambda report: report.to_json() and math.isfinite(report.mean_crps),
    ),
    "conditional_distribution": (
        conditional_distribution,
        {
            "model": _or_junk(st.just(_MODEL)),
            "x": _or_junk(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=1),
                          st.lists(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=1),
                                   min_size=1, max_size=3)),
        },
        lambda dist: isinstance(dist, ConditionalDistribution),
    ),
    "fit": (
        fit,
        {
            "dataset": _or_junk(st.just(_DATASET)),
            "spec": _or_junk(st.just(_SPEC)),
            "config": _or_junk(st.builds(TrainConfig, epochs=st.integers(1, 3))),
        },
        lambda model: isinstance(model, FittedModel) and math.isfinite(model.train_nll),
    ),
    "SurvivalDataset": (
        _dataset,
        {
            "x": _or_junk(st.just([[0.0], [1.0]]), _ROWS),
            "t_lower": _or_junk(st.just([1.0, 2.0]), _COLUMN),
            "t_upper": _or_junk(st.just([1.0, np.inf]), _COLUMN),
            "kind": _or_junk(st.just([0, 1]), st.lists(st.sampled_from([0, 3, 2.5, 300, -129]),
                                                       min_size=2, max_size=2)),
            "feature_names": _or_junk(st.just([]), st.just(["age"]), _NAMES),
        },
        lambda ds: (ds.x.dtype == float and ds.x.shape == (ds.n, ds.p)
                    and ds.t_lower.shape == ds.t_upper.shape == ds.kind.shape == (ds.n,)
                    and _has_names(ds)),
    ),
    "SurvivalDataset feature_names": (
        lambda feature_names: SurvivalDataset([[0.0, 1.0]], [1.0], [1.0], [0], feature_names),
        {"feature_names": _or_junk(st.just(["age", "dose"]), _NAMES)},
        _has_names,
    ),
    "SurvivalDataset.from_observations": (
        SurvivalDataset.from_observations,
        {"rows": _or_junk(_OBSERVATIONS), "feature_names": _or_junk(st.none(), _NAMES)},
        _has_names,
    ),
    "SurvivalDataset.take": (
        _DATASET.take,
        {"idx": _or_junk(st.lists(st.integers(-4, 3), max_size=5).map(np.array),
                         st.lists(st.booleans(), min_size=4, max_size=4).map(np.array))},
        lambda ds: _has_names(ds) and ds.x.shape == (ds.n, 1),
    ),
    "Observation": (
        Observation,
        {
            "time_lower": _or_junk(st.floats(0.1, 9.0)),
            "time_upper": _or_junk(st.floats(0.1, 9.0)),
            "censoring": _or_junk(st.sampled_from(list(CensoringKind)),
                                  st.sampled_from([k.value for k in CensoringKind])),
            "covariates": _or_junk(_COLUMN),
        },
        lambda obs: (isinstance(obs.censoring, CensoringKind) and type(obs.time_lower) is float
                     and obs.covariates.dtype == float),
    ),
    "Observation.exact": (
        Observation.exact,
        {"t": _or_junk(st.floats(0.1, 9.0)), "covariates": _or_junk(_COLUMN)},
        lambda obs: (type(obs.time_lower) is float and type(obs.time_upper) is float
                     and obs.covariates.dtype == float),
    ),
    "generate_semisynthetic": (
        generate_semisynthetic,
        {
            "model": _or_junk(st.just(_MODEL)),
            "dataset": _or_junk(st.just(_DATASET)),
            "config": _or_junk(st.builds(SynthConfig, replication=st.integers(1, 3))),
        },
        lambda ds: isinstance(ds, SurvivalDataset) and ds.n % _DATASET.n == 0,
    ),
    "nll_batch": (
        nll_batch,
        {
            "state": _or_junk(st.just(ModelState(_SPEC, _MODEL.scaler, _MODEL.head_params,
                                                 _MODEL.extractor_params))),
            "dataset": _or_junk(st.just(_DATASET)),
        },
        lambda result: math.isfinite(result[0]),
    ),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_only_coded_errors_escape(entry, data):
    call, arguments, usable = _ENTRY_POINTS[entry]
    kwargs = {name: data.draw(strategy, label=name) for name, strategy in arguments.items()}
    try:
        result = call(**kwargs)
    except TramsurvError:
        return
    assert usable(result)
