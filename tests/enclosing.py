"""The function around each matching node of a Python source: the walk the
guards share that pin a kind of call to one function of the library."""

import ast


def enclosing_functions(source: str, matches) -> list[str]:
    """The name of the function around each node of ``source`` for which
    ``matches(node)`` holds, in source order (``"<module>"`` outside any
    function)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found
