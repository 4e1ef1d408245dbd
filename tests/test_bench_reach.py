"""The names that the benchmark in ``aldbench/`` reaches in the package.

The benchmark drives the public API of whatever checkout it runs in:
``tracing.TRACED`` lists the functions ``--trace 1`` wraps, and the
workloads call module attributes, some with keywords.  A rename, or a
dropped function or keyword, breaks the benchmark's set-up or its traced
run without failing any other test.  These tests read ``aldbench`` as
source (its AST only, nothing imported from it) and check each name
against ``aldual``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from aldual.ald import IntegerBox
from aldual.instance import MiqpInstance

BENCH = Path(__file__).resolve().parents[1] / "aldbench"
SOURCES = sorted(BENCH.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _traced():
    for node in ast.walk(_tree(BENCH / "tracing.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in aldbench/tracing.py")


def _module_uses():
    """(file, module, attribute, call keywords) for every ``mod.attr`` in
    aldbench whose ``mod`` was imported by ``from aldual import mod``, and
    every ``from aldual.mod import attr``; keywords are those of a call of
    ``mod.attr``, else empty."""
    uses = []
    for path in SOURCES:
        tree = _tree(path)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "aldual":
                aliases.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (
                    node.module or "").startswith("aldual."):
                mod = node.module.split(".", 1)[1]
                uses += [(path.name, mod, a.name, ()) for a in node.names]
        keywords = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                keywords[id(node.func)] = tuple(k.arg for k in node.keywords if k.arg)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                uses.append((path.name, aliases[node.value.id], node.attr,
                             keywords.get(id(node), ())))
    return uses


def test_aldbench_found():
    assert {p.name for p in SOURCES} >= {"tracing.py", "workloads.py", "gen.py"}


def test_traced_functions_are_callables():
    traced = _traced()
    assert {"ald", "exactrho"} <= set(traced)
    missing = [f"{home}.{name}" for home, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"aldual.{home}"),
                                       name, None))]
    assert missing == []


def test_module_attributes_exist():
    uses = _module_uses()
    assert {("ald", "NlpDuals"), ("ald", "SWEEP_CSV_HEADER")} <= {
        (mod, attr) for _, mod, attr, _ in uses}
    missing = [f"{name}: aldual.{mod}.{attr}" for name, mod, attr, _ in uses
               if not hasattr(importlib.import_module(f"aldual.{mod}"), attr)]
    assert missing == []
    assert isinstance(importlib.import_module("aldual.ald").SWEEP_CSV_HEADER, str)


def test_call_keywords_are_parameters():
    calls = {(mod, attr, kw) for _, mod, attr, kws in _module_uses() for kw in kws}
    assert {("exactrho", "certify", "z_ip"),
            ("exactrho", "certificate_for_norm", "base")} <= calls
    unknown = [f"aldual.{mod}.{attr}({kw}=)" for mod, attr, kw in sorted(calls)
               if kw not in inspect.signature(
                   getattr(importlib.import_module(f"aldual.{mod}"), attr)).parameters]
    assert unknown == []


@pytest.mark.parametrize("cls, method", [(MiqpInstance, "q_blocks"),
                                         (IntegerBox, "size")])
def test_methods_the_generator_calls(cls, method):
    assert callable(getattr(cls, method, None))
