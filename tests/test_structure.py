"""Source-structure rules of the package, checked on the AST.

No module imports an underscore-prefixed name from another aldual module,
every import sits at module level (none inside a function body), and only
``numkit`` calls ``format_rat``: every other module renders through
``numkit.to_wire``, so the wire format is known in one place.  Only
``numkit`` calls ``RatVec._trusted`` or ``RatMat._trusted``, the
constructors that skip coercion (and, for matrices, the shape check): an
unchecked vector or matrix cannot be built outside the module whose
operations guarantee its entries are Fractions.  Nor does any other module read a
``RatMat``/``RatVec`` internal (``._rows``, ``._e``): they read entries
through ``row_list``, ``row`` and iteration, so the storage stays
``numkit``'s to change.  Only ``ald`` calls a method named
``assignments``: every other module walks the slices through ``ald``'s
slice table, not its own loop over the raw integer box.  Only ``numkit``
calls ``divmod``: checked exact division, and so the fraction-free
elimination kernel (``numkit.pivot``) every exact solver pivots through,
lives in one module.  Only ``ald`` names ``SliceSolver``: every other
module gets its slicers from an ``ald.SliceFamily``, which checks the
arguments once per call and shares one KKT factor mapping among the
call's weights, so no module can build a slicer outside a family, not
even through ``partial(SliceSolver, ...)``.  ``cli.main`` catches only
the error categories of ``aldual.errors`` and, last, ``Exception``: an
error's exit code comes from its base class, never from a list of names.
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


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "numkit"],
                         ids=lambda p: p.name)
def test_only_numkit_calls_format_rat(path):
    calls = [f"line {node.lineno}" for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call)
             and "format_rat" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))]
    assert calls == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "ald"],
                         ids=lambda p: p.name)
def test_only_ald_walks_the_integer_box(path):
    calls = [f"line {node.lineno}" for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "assignments"]
    assert calls == []


def _trusted_calls(tree):
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "_trusted"]


def test_trusted_rule_covers_vectors_and_matrices():
    tree = ast.parse("RatVec._trusted(e)\nRatMat._trusted(rows, cols)\n")
    assert _trusted_calls(tree) == ["line 1", "line 2"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "numkit"],
                         ids=lambda p: p.name)
def test_only_numkit_builds_trusted_vectors(path):
    assert _trusted_calls(_tree(path)) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "numkit"],
                         ids=lambda p: p.name)
def test_only_numkit_reads_matrix_internals(path):
    reads = [f"{node.attr} (line {node.lineno})" for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr in ("_rows", "_e")]
    assert reads == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "numkit"],
                         ids=lambda p: p.name)
def test_only_numkit_calls_divmod(path):
    calls = [f"line {node.lineno}" for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call)
             and "divmod" in (getattr(node.func, "id", None),
                              getattr(node.func, "attr", None))]
    assert calls == []


def _slice_solver_names(tree):
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "SliceSolver")
            or (isinstance(node, ast.Attribute) and node.attr == "SliceSolver")
            or (isinstance(node, ast.alias) and node.name == "SliceSolver")]


def test_slice_solver_rule_covers_calls_closures_and_imports():
    tree = ast.parse("from .ald import SliceSolver\n"
                     "ald.SliceSolver(inst, lam, pen, rho)\n"
                     "slicer = cache(partial(SliceSolver, inst, lam, pen))\n")
    assert len(_slice_solver_names(tree)) == 3


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "ald"],
                         ids=lambda p: p.name)
def test_only_ald_builds_slice_solvers(path):
    assert _slice_solver_names(_tree(path)) == []


def test_cli_main_catches_the_error_categories_only():
    tree = _tree(next(p for p in MODULES if p.stem == "cli"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(handler.type) for node in ast.walk(main)
              if isinstance(node, ast.Try) for handler in node.handlers]
    assert caught == ["UsageError", "(InputError, OSError)", "AssumptionError",
                      "InfeasibleError", "Exception"]
