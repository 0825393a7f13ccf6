"""The package imports no scipy: numpy is its only runtime dependency, and
the tests import scipy's matrix functions as independent references."""

import ast
from pathlib import Path

import optoweak

PACKAGE = Path(optoweak.__file__).parent


def scipy_imports(path):
    """Every scipy name a source file imports, at any depth: ``import a.b``
    gives ``a.b`` and ``from a import b`` gives ``a.b``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in names if name == "scipy" or name.startswith("scipy.")}


def test_no_module_imports_scipy():
    found = {path.name: scipy_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: modules for name, modules in found.items() if modules} == {}
