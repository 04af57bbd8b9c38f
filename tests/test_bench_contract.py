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
from pathlib import Path

import pytest

from tramsurv import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
        "tramsurv.quadrature.simpson",
        "tramsurv.transform.transform_at_log_time",
    ]


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
    assert fit_params[:3] == ["dataset", "spec", "config"]
    assert grid_params[:3] == ["model", "dataset", "path"]
