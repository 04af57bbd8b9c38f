"""Every name the benchmark imports from the package still exists.

The benchmark under ``bench/`` checks quality and CRPS through public
functions (``log_score``, ``crps``, ``conditional_distribution``, ...).  A
refactor that drops one of them breaks the benchmark only when it runs; this
test finds it by parsing the benchmark's import statements.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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
