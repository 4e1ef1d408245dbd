"""Source-structure rules of the package, checked on the AST.

No module imports an underscore-prefixed name from another aldual module,
and every import sits at module level (none inside a function body).
"""

import ast
from pathlib import Path

import pytest

import aldual

MODULES = sorted(Path(aldual.__file__).resolve().parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"ald", "exactrho", "cli", "numkit"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    private = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("aldual")):
            private += [f"{node.module}.{a.name} (line {node.lineno})"
                        for a in node.names if a.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = []
    for func in ast.walk(_tree(path)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested += [f"{func.name} (line {node.lineno})"
                       for node in ast.walk(func)
                       if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
