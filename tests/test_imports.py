"""The package imports nothing but the standard library and numpy: numpy
is its only runtime dependency, and the tests import scipy's matrix
functions as independent references.  The oracle's imports stop short of
the closed forms, at run time as in the source, and the test references
that claim independence from the package import none of it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optoweak

PACKAGE = Path(optoweak.__file__).parent
TESTS = Path(__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", PACKAGE.name}
# what the oracle and the Fock-space module may take from model: no formula
MODEL_NAMES_FOR_THE_ORACLE = {"ModelParams", "TRACE_FLOOR"}
# the package modules an import of each module loads: the package root
# re-exports nothing, so a module brings in only what it imports itself
LOADED = {
    "model": {"model"},
    "fockspace": {"fockspace"},
    "lindblad": {"fockspace", "lindblad", "model"},
    "sweeps": {"fockspace", "lindblad", "model", "sweeps"},
    "cli": {"cli", "fockspace", "lindblad", "model", "sweeps"},
}


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


def package_imports(path):
    """{module: names} for every import of a package module in one of the
    package's sources, relative or absolute, at any depth:
    ``from .model import A`` gives {"model": {"A"}}, and a whole-module
    import (``from . import model``, ``import optoweak.model``) the name
    "*".  An import of the package itself counts as module "__init__"."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[0] != PACKAGE.name:
                    continue
                parts = parts[1:]
            for alias in node.names:
                if parts:
                    found.setdefault(parts[0], set()).add(alias.name)
                elif (PACKAGE / f"{alias.name}.py").exists():
                    found.setdefault(alias.name, set()).add("*")
                else:
                    found.setdefault("__init__", set()).add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE.name:
                    found.setdefault(parts[1] if len(parts) > 1 else "__init__", set()).add("*")
    return found


def test_no_module_imports_scipy():
    # scipy, or any other package beyond the standard library and numpy
    found = {path.name: imported_packages(path) - ALLOWED for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: packages for name, packages in found.items() if packages} == {}


def test_oracle_reaches_no_closed_form():
    imports = {name: package_imports(PACKAGE / name)
               for name in ("model.py", "lindblad.py", "fockspace.py")}
    assert imports["model.py"] == {}
    assert "model" not in imports["fockspace.py"]
    for name in ("lindblad.py", "fockspace.py"):
        assert "__init__" not in imports[name], name
        assert imports[name].get("model", set()) <= MODEL_NAMES_FOR_THE_ORACLE, name


def test_references_import_no_package_code():
    # pure_reference.py is exempt: its factored propagator is written in
    # model.kerr_phase and model.coherent_amplitude by design
    found = {name: imported_packages(TESTS / name) & {PACKAGE.name}
             for name in ("dense_reference.py", "literal_forms.py")}
    assert found == {"dense_reference.py": set(), "literal_forms.py": set()}


@pytest.mark.parametrize("module", sorted(LOADED))
def test_import_loads_only_what_the_module_imports(module):
    # a fresh interpreter on this checkout's src, whatever else is installed;
    # no module loads svgplot, which emit_plot imports lazily: verify never draws
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    script = (f"import sys, {PACKAGE.name}.{module}\n"
              f"print(' '.join(sorted(n for n in sys.modules if n.startswith('{PACKAGE.name}.'))))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    loaded = {name.partition(".")[2] for name in result.stdout.split()}
    assert loaded == LOADED[module]
    assert "svgplot" not in loaded


def test_benchmark_tracer_wraps_existing_names(tmp_path):
    # the tracer looks each wrapped name up without a default, so a renamed
    # public function would otherwise surface only in a traced benchmark run
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), str(root / "optobench"),
                                         os.environ.get("PYTHONPATH")]))
    script = ("import sys, tracer\n"
              "from optoweak import cli\n"
              "t = tracer.Tracer()\n"
              "tracer.install(t)\n"
              "code = cli.main(['sweep', '--engine', 'both', '--steps', '3', '--fock-dim', '8',\n"
              "                 '--tau-end', '1', '--out', sys.argv[1], '--plot', sys.argv[2]])\n"
              "print(code, len(t.spans), sum(span.error for span in t.spans))\n")
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}  # optobench/ stays as it is
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "s.csv"),
                             str(tmp_path / "s.svg")], capture_output=True, text=True,
                            timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    code, spans, errors = map(int, result.stdout.split()[-3:])
    assert (code, errors) == (0, 0) and spans > 0
