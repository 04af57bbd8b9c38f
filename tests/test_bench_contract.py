"""Everything the benchmark reads from the package still exists.

The benchmark under ``bench/`` checks quality and CRPS through public
functions (``log_score``, ``crps``, ``conditional_distribution``, ...), reads
parsed datasets row by row, and its tracer wraps functions by name and reads
their arguments by position.  A refactor that drops or moves one of these
breaks the benchmark only when it runs, or silently zeroes a per-layer
metric; these tests find it first.
"""

import ast
import csv
import importlib
import importlib.util
import inspect
import math
from pathlib import Path
import sys

import numpy as np
import pytest

from tramsurv import cli, transform
from tramsurv.basis import LogTimeScaler
from tramsurv.core import (
    CensoringKind,
    FittedModel,
    ModelSpec,
    Parameterization,
    SurvivalDataset,
    serialize_model,
)
from tramsurv.feature import ExtractorSpec, init_params
from tramsurv.fit import TrainConfig
from tramsurv.target import TargetFamily

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src" / "tramsurv"


def _package_imports():
    """(file, module, name) of every ``from tramsurv... import name`` in bench/*.py."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tramsurv":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "tramsurv"]
    return list(dict.fromkeys(found))


IMPORTS = _package_imports()


def test_benchmark_imports_something():
    names = {name for _, _, name in IMPORTS}
    assert {"log_score", "crps", "conditional_distribution"} <= names


@pytest.mark.parametrize(
    "source, module, name", IMPORTS,
    ids=[f"{source}:{module}.{name or ''}" for source, module, name in IMPORTS],
)
def test_imported_name_resolves(source, module, name):
    imported = importlib.import_module(module)
    if name is None or hasattr(imported, name):
        return
    # ``from package import submodule`` resolves to the submodule
    assert importlib.util.find_spec(f"{module}.{name}"), f"{source} imports {name} from {module}"


def _bench_module(name):
    """Load ``bench/<name>.py`` without putting the benchmark on the import path."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_layer_it_wraps():
    """Only the bindings of functions deleted from the package are absent."""
    spans = _bench_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
    finally:
        broken = tracer.restore()
    assert broken == []
    assert sorted(tracer.absent) == [
        "tramsurv.fit.grad_transform",
        "tramsurv.fit.transform_at_log_time",
        "tramsurv.metrics.simpson_doubling",
        "tramsurv.quadrature.simpson",
        "tramsurv.transform.transform_at_log_time",
    ]


def test_traced_fit_counts_the_basis_rows_of_its_plan():
    """A fit computes basis rows once, through the binding the tracer wraps.

    ``basis.rows_per_train_row_epoch`` is read from ``basis.rows_in_fit``; if
    the basis moved off ``transform.bernstein_vectors`` it would read 0.
    """
    rng = np.random.default_rng(11)
    n = 40
    t_lower = rng.uniform(0.5, 3.0, n)
    kind = np.arange(n) % 4
    t_upper = np.where(kind == CensoringKind.RIGHT.code, np.inf, t_lower)
    t_upper = np.where(kind == CensoringKind.INTERVAL.code, 1.5 * t_lower, t_upper)
    dataset = SurvivalDataset(rng.normal(size=(n, 2)), t_lower, t_upper, kind)
    spec = ModelSpec(
        family=TargetFamily.LOGISTIC,
        parameterization=Parameterization.BERNSTEIN_SHIFT_SCALE,
        bernstein_order=3,
        extractor=ExtractorSpec(input_dim=2, hidden_dims=(4,), output_dim=2),
    )
    spans = _bench_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        tracer.enabled = True
        cli.fit(dataset, spec, TrainConfig(epochs=2, early_stopping_patience=2))
    finally:
        tracer.enabled = False
        assert tracer.restore() == []
    n_interval = int(np.sum(kind == CensoringKind.INTERVAL.code))
    assert tracer.counts["fit.epochs_run"] == 2
    assert tracer.counts["basis.rows_in_fit"] == n + n_interval


def test_traced_sample_counts_the_quantile_solve(tmp_path):
    """The quantile solver evaluates h through the binding the tracer wraps.

    ``transform.eval_calls`` and ``transform.rows`` count the solver's work on
    simulate; if it bypassed ``transform.eval_transform`` they would read 0.
    """
    n, replication = 20, 3
    data = tmp_path / "data.csv"
    _bench_module("fixtures").make(data, 1, 3, 0, n, 3, 1.5, 0.5)
    spec = ModelSpec(
        family=TargetFamily.LOGISTIC,
        parameterization=Parameterization.BERNSTEIN_FLEXIBLE,
        bernstein_order=3,
        extractor=ExtractorSpec(input_dim=3, output_dim=4),
    )
    model = FittedModel(
        spec=spec, scaler=LogTimeScaler(np.log(0.2), np.log(5.0)),
        head_params=np.zeros(0), extractor_params=init_params(spec.extractor, 1),
        train_nll=0.0, validation_nll=0.0,
    )
    (tmp_path / "model.json").write_bytes(serialize_model(model))
    spans = _bench_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        tracer.enabled = True
        code = cli.main(["sample", "--data", str(data), "--model", str(tmp_path / "model.json"),
                         "--replication", str(replication), "--out", str(tmp_path / "out")])
    finally:
        tracer.enabled = False
        assert tracer.restore() == []
    assert code == 0
    name, parent, _, _ = tracer.arrays()
    quantile = np.flatnonzero(name == tracer.name_id("transform.quantile"))
    evals = np.flatnonzero(name == tracer.name_id("transform.eval_transform"))
    assert quantile.size == 1
    # Newton steps, all inside the solve; draws outside the scaler range are
    # solved in closed form on the affine tails, draws inside take at least
    # one step each
    with open(tmp_path / "out" / "synthetic.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    # exact rows carry their draw; censored ones carry the cap instead
    times = np.array([float(row[0]) for row in rows if row[2] == "exact"])
    inside = int(np.sum((times >= 0.2) & (times <= 5.0)))
    assert 0 < inside < n * replication
    assert evals.size >= 1
    assert np.all(parent[evals] == quantile[0])
    assert tracer.counts["transform.rows"] >= inside


def test_parsed_fixture_exposes_what_the_benchmark_reads(tmp_path):
    """Sizes, lower times and rows of a parsed fixture; floats parse as ``float()`` does."""
    path = tmp_path / "fixture.csv"
    _bench_module("fixtures").make(path, 1, 1, 0, 40, 3, 0.7, 1.0)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    dataset = cli.parse_dataset_csv(path)
    assert (dataset.n, dataset.p) == (40, 3)
    assert dataset.times_lower().tolist() == [float(row[0]) for row in rows]
    assert len(dataset.observations) == len(rows)
    for obs, row in zip(dataset.observations, rows):
        assert obs.time_lower == float(row[0])
        assert obs.event == (row[2] == "exact")
        assert obs.covariates.tolist() == [float(v) for v in row[3:]]


def test_traced_arguments_keep_their_positions():
    """The tracer reads these arguments by position, falling back to the name."""
    fit_params = list(inspect.signature(cli.fit).parameters)
    grid_params = list(inspect.signature(cli.write_cdf_grid).parameters)
    transform_params = list(inspect.signature(transform.eval_transform).parameters)
    basis_params = list(inspect.signature(transform.bernstein_vectors).parameters)
    assert fit_params[:3] == ["dataset", "spec", "config"]
    assert grid_params[:3] == ["dist", "dataset", "path"]
    # transform.rows counts the log-times, basis.rows the scaled times
    assert transform_params[3] == "log_t"
    assert basis_params[1] == "u"


def test_eval_transform_takes_its_log_times_by_position():
    """The tracer counts ``transform.rows`` from argument 3, falling back to the keyword
    ``t``, which is not the parameter's name: a call passing ``log_t`` by keyword would
    fail inside the wrapper."""
    calls = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "eval_transform"
    ]
    assert {name for name, _ in calls} >= {"fit.py", "transform.py"}
    by_keyword = [f"{name}:{node.lineno}" for name, node in calls if len(node.args) < 4]
    assert by_keyword == []


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``spans`` modules, imported as ``run.py`` imports
    them, with ``bench/`` on the import path for this test only."""
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("fixtures", "spans", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("workloads"), importlib.import_module("spans")
    for name in names:
        sys.modules.pop(name, None)


def test_traced_only_probes_run_at_tiny_sizes(tmp_path, bench):
    """What only ``--trace 1`` runs call: the commands under the tracer (its argument
    readers), then the train workload's CRPS failure count and the ensemble's speed-up
    probe, which calls the three spec builders and ``fit_ensemble``."""
    workloads, spans = bench
    train = workloads.Train(tmp_path / "train", 1, True)
    ensemble = workloads.Ensemble(tmp_path / "ensemble", 1, True)
    tracer = spans.Tracer()
    for workload in (train, ensemble):
        workload.root.mkdir()
        workload.setup()
    try:
        spans.install(tracer)
        tracer.enabled = True
        for workload in (train, ensemble):
            for cmd in workload.commands():
                assert cli.main(cmd.argv) == 0, cmd.kind
                assert workload.check(cmd)[0] == [], cmd.kind
    finally:
        tracer.enabled = False
        assert tracer.restore() == []
    held_out = train.params["heldout_rows"]["n"]
    assert tracer.counts["fit.epochs_run"] == train.params["epochs"]
    assert tracer.counts["cli.cdf_grid_rows"] == held_out * cli.CDF_GRID_POINTS
    assert tracer.counts["feature.rows"] > 0 and tracer.counts["transform.rows"] > 0

    failed, attempted = train.crps_failures()
    assert attempted == held_out and 0 <= failed <= attempted
    assert math.isfinite(train.quality()) and math.isfinite(ensemble.quality())
    one_job, n_jobs, task_bytes = ensemble.speedup()
    assert one_job > 0.0 and n_jobs > 0.0 and task_bytes > 0
