"""Module boundaries: the package's modules share only public names, and
``import cancelput`` loads only the closed form.

An underscore name is private to its module; another module that imports
it depends on an implementation detail.  ``_record`` is a private module,
but the one name it shares, ``Record``, is public.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cancelput

PACKAGE = Path(cancelput.__file__).parent
TESTS = Path(__file__).parent


def _private_imports(source: str) -> list[str]:
    """'line: module.name' for each underscore name ``source`` imports from
    a sibling module, at module level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module or ""
        elif (node.module or "").startswith("cancelput."):
            module = node.module.removeprefix("cancelput.")
        else:
            continue  # the standard library or a third-party package
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{node.lineno}: {module}.{alias.name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_a_sibling(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_every_form_of_private_import():
    source = (
        "import math\n"
        "from math import _private\n"
        "from .model import ModelParams, _psi\n"
        "from cancelput.mc import _tilt\n"
        "from ._record import Record, _set\n"
        "from . import _record, _scale\n"
        "def f():\n"
        "    from .scale import _roots\n"
    )
    assert sorted(_private_imports(source)) == [
        "3: model._psi", "4: mc._tilt", "5: _record._set", "6: ._record", "6: ._scale",
        "8: scale._roots",
    ]


def _modules(node: ast.AST) -> list[str]:
    """The modules an absolute import statement names; [] for other nodes."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module or ""]
    return []


def test_no_test_module_imports_another():
    # Code that tests share lives in box.py, oracles.py and conftest.py.
    found = [
        f"{path.name}:{node.lineno}: {name}"
        for path in sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _modules(node)
        if name.startswith("test_")
    ]
    assert found == []


#: The modules ``import cancelput`` may load of its own: the closed form.
CLOSED_FORM = {f"cancelput{m}" for m in ("", "._record", ".errors", ".model", ".scale", ".pricer")}
#: Never loaded by the import: code generated at import time (dataclasses,
#: which pulls in inspect), and the Monte Carlo, CLI and reporting layers' needs.
NOT_AT_IMPORT = {"dataclasses", "inspect", "numpy", "json", "argparse"}


def test_import_loads_only_the_closed_form():
    # A fresh ``import cancelput`` compiles and runs these modules and nothing
    # more; each added module, or code built at import, is paid on every cold
    # start.  ``__future__`` is a module import the closed form does not need.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cancelput\n"
        "print(*sorted(sys.modules))\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded, added = (set(line.split()) for line in proc.stdout.splitlines())
    assert {m for m in loaded if m.partition(".")[0] == "cancelput"} <= CLOSED_FORM
    assert loaded & NOT_AT_IMPORT == set()
    assert "__future__" not in added


#: Where numpy may be imported: the Monte Carlo layer, and the one suite that
#: runs it.  Everything else, the closed form first, runs on plain floats.
NUMPY_SCOPES = {"mc.py": {"<module>"}, "diagnostics.py": {"mc_suite"}}


def _numpy_imports(source: str) -> list[str]:
    """'line: scope' for each import of numpy or a submodule of it in
    ``source``; the scope is the enclosing function, or '<module>'."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if any(n == "numpy" or n.startswith("numpy.") for n in _modules(child)):
                found.append(f"{child.lineno}: {scope}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else scope)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_only_by_the_monte_carlo_layer(path):
    allowed = NUMPY_SCOPES.get(path.name, set())
    found = _numpy_imports(path.read_text(encoding="utf-8"))
    assert [f for f in found if f.split(": ", 1)[1] not in allowed] == []


def test_the_scan_sees_every_form_of_numpy_import():
    source = (
        "import numpy as np\n"
        "import numpyro, math\n"
        "from numpy.polynomial import laguerre\n"
        "from .numpy import x\n"
        "class K:\n"
        "    def f(self):\n"
        "        import math, numpy.random\n"
        "def g():\n"
        "    if True:\n"
        "        from numpy import exp\n"
    )
    assert _numpy_imports(source) == ["1: <module>", "3: <module>", "7: f", "10: g"]


@pytest.mark.parametrize(
    "path",
    sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_source_parses_as_python_3_10(path):
    # pyproject.toml promises requires-python >= 3.10; a newer interpreter
    # would accept syntax that 3.10 rejects.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
