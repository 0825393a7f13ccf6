"""The package's scipy footprint: one sparse generator, and no dense or
sparse matrix functions (the tests import those as references)."""

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


def test_only_lindblad_imports_scipy_and_only_scipy_sparse():
    found = {path.name: scipy_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: modules for name, modules in found.items() if modules} == {
        "lindblad.py": {"scipy.sparse"}
    }
