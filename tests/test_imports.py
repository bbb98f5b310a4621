"""What the library may import: numpy is its only runtime dependency, and
no module of ``src/`` may lean on a reference the tests or the benchmark
keep for checking it."""

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
