"""What the library may import: numpy is its only runtime dependency, no
module of ``src/`` may lean on a reference the tests or the benchmark keep
for checking it, and no module imports a name it does not use."""

import ast
from pathlib import Path

import pytest

import triphoton

FORBIDDEN = {"tests", "bench", "window_quadrature", "quadrature_engine", "reference", "scipy"}


def _imported_names(source: str) -> set[str]:
    """Every dotted part of every module and name an import statement names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("source, found", [
    ("import scipy.special", {"scipy"}),
    ("from .reference import ft_closed", {"reference"}),
    ("from . import window_quadrature", {"window_quadrature"}),
    ("def f():\n    from tests.quadrature_engine import transform", {"tests", "quadrature_engine"}),
    ("import numpy as np\nfrom .spectra import Tabulated", set()),
])
def test_the_guard_finds_what_it_forbids(source, found):
    assert _imported_names(source) & FORBIDDEN == found


def test_src_imports_no_reference_and_no_scipy():
    files = sorted(Path(triphoton.__file__).parent.glob("*.py"))
    assert "coherence.py" in {f.name for f in files}
    found = {(f.name, name) for f in files
             for name in _imported_names(f.read_text(encoding="utf-8")) & FORBIDDEN}
    assert found == set()


def _unused_imports(source: str) -> set[str]:
    """Every name an import statement binds that the module never reads: not
    as a name, an attribute's root, or in a string annotation or an
    ``__all__`` entry. An import whose lines carry ``# noqa: F401`` is kept
    on purpose."""
    lines = source.splitlines()
    bound, used, texts = set(), set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or any("# noqa: F401" in line
                           for line in lines[node.lineno - 1:node.end_lineno])):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            texts.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            texts.append(node.returns)
        elif isinstance(node, ast.Assign) and "__all__" in {
                t.id for t in node.targets if isinstance(t, ast.Name)}:
            texts.append(node.value)
    for c in (c for text in texts for c in ast.walk(text)):
        if isinstance(c, ast.Constant) and isinstance(c.value, str):
            used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return bound - used


@pytest.mark.parametrize("source, unused", [
    ("import math\n", {"math"}),
    ("import math\nx = math.pi\n", set()),
    ("import numpy as np\nx = np.pi\n", set()),
    ("import os.path\nx = os.getcwd()\n", set()),
    ("from .errors import _real, _store_reals\nx = _real('x', 1)\n", {"_store_reals"}),
    ("from .coherence import (DelayTriple,\n    transforms)\nDelayTriple(0, 0, 0)\n",
     {"transforms"}),
    ("def f():\n    import math\n    return 1\n", {"math"}),
    ("from .coherence import gamma_prime  # noqa: F401  (a shim)\n", set()),
    ("from .errors import ParseError\n__all__ = ['ParseError']\n", set()),
    ("from .spectra import Tabulated\ndef f() -> 'Tabulated':\n    pass\n", set()),
    ("from .spectra import Tabulated\ndef f(t: 'list[Tabulated]'):\n    pass\n", set()),
    ('from .spectra import Tabulated\n"""Tabulated"""\n', {"Tabulated"}),  # a docstring
    ("from __future__ import annotations\n", set()),
])
def test_the_unused_import_guard_finds_what_it_forbids(source, unused):
    assert _unused_imports(source) == unused


def test_src_imports_only_what_it_uses():
    files = sorted(Path(triphoton.__file__).parent.glob("*.py"))
    assert "coherence.py" in {f.name for f in files}
    found = {(f.name, name) for f in files
             for name in _unused_imports(f.read_text(encoding="utf-8"))}
    assert found == set()
