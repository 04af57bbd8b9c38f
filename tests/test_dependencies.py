"""The package's runtime dependencies stay the standard library and numpy."""

import ast
from pathlib import Path
import sys

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tramsurv"
MODULES = sorted(PACKAGE.glob("*.py"))


def _absolute_imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_the_package_has_modules():
    assert "transform.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_imports_are_stdlib_or_numpy(path):
    outside = [
        f"{path.name}:{line} imports {module}"
        for line, module in _absolute_imports(path)
        if module != "numpy" and module not in sys.stdlib_module_names
    ]
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_private_names_imported_from_other_modules(path):
    """A module uses another module's public names only (``__version__`` aside)."""
    private = [
        f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and alias.name != "__version__"
    ]
    assert private == []
