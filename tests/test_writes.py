"""Where the library may write files: only ``cli._new_file``, which removes
whatever is at an output path and creates a new file there, so every output
keeps that rule."""

import ast
from pathlib import Path

import pytest

import triphoton

WRITER = ("cli.py", "_new_file")


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of ``open(file, mode)`` or ``path.open(mode)``."""
    for k in call.keywords:
        if k.arg == "mode":
            return k.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = _mode(call)
    if mode is None:
        return False  # "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return True  # a mode the parse cannot read may write


def _writers(source: str) -> list[str]:
    """The name of the function around each call in ``source`` that opens a
    file for writing (``"<module>"`` outside any function)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _writes(node):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source, found", [
    ("def f(p):\n    return open(p, 'w')", ["f"]),
    ("def f(p):\n    return open(p, mode='a', encoding='utf-8')", ["f"]),
    ("def f(p):\n    return open(p, 'x')", ["f"]),
    ("def f(p):\n    return open(p, 'r+b')", ["f"]),
    ("def f(p, m):\n    return open(p, m)", ["f"]),
    ("def f(p):\n    return p.open('wb')", ["f"]),
    ("p.write_text('a')", ["<module>"]),
    ("class C:\n    def g(self, p):\n        p.write_bytes(b'a')", ["g"]),
    ("def f(p):\n    return open(p), open(p, 'rb'), p.open(), p.read_text()", []),
])
def test_the_guard_finds_what_it_forbids(source, found):
    assert _writers(source) == found


def test_only_the_cli_writer_opens_files_for_writing():
    files = sorted(Path(triphoton.__file__).parent.glob("*.py"))
    assert "cli.py" in {f.name for f in files}
    found = [(f.name, function) for f in files
             for function in _writers(f.read_text(encoding="utf-8"))]
    assert found == [WRITER]
