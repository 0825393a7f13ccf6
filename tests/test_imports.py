"""The package imports nothing but the standard library and numpy: numpy
is its only runtime dependency, and the tests import scipy's matrix
functions as independent references."""

import ast
import sys
from pathlib import Path

import optoweak

PACKAGE = Path(optoweak.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", PACKAGE.name}


def imported_packages(path):
    """The top-level package of every absolute import in a source file, at
    any depth: ``import a.b`` and ``from a.b import c`` both give ``a``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


def test_no_module_imports_scipy():
    # scipy, or any other package beyond the standard library and numpy
    found = {path.name: imported_packages(path) - ALLOWED for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: packages for name, packages in found.items() if packages} == {}
