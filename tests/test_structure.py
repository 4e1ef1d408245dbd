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
``convexsolve``'s KKT check, ``_verify_kkt`` and the int form
``_KktForm`` it reads, names no part of the QP solver's integer system
(``_System``, its ``scales``, ``first``, ``G_terms`` or ``table``): it
scales the program itself, so a scaling fault in the solver cannot hide
from it.  Nor does ``convexsolve`` keep a module-level dict or cache, of
int forms or anything else: a form lives in the caller's mapping and
goes with it.  In ``penalty``, only ``Penalty`` and ``parse_penalty`` name
``SCALED_LINF`` or read ``.alpha``, and no comparison tests a kind against
``LINF``: the max-norm family's factor is read once, as ``Penalty.factor``,
so ``linf`` and ``slinf:a`` share every formula.
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


_SOLVER_STATE = {"_System", "scales", "first", "G_terms", "table"}


def _named(node):
    """The identifier a Name, an Attribute or a string constant names."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _solver_state_reads(tree):
    """Where ``tree`` names the QP solver's integer system or a part of it."""
    return [f"{_named(node)} (line {node.lineno})" for node in ast.walk(tree)
            if _named(node) in _SOLVER_STATE]


def test_solver_state_rule_covers_names_attributes_and_getattr():
    tree = ast.parse("def _verify_kkt(qp):\n"
                     "    system = _System(qp)\n"
                     "    return system.scales, system.table, getattr(system, 'first')\n")
    assert len(_solver_state_reads(tree)) == 4


def test_kkt_check_reads_no_solver_state():
    tree = _tree(next(p for p in MODULES if p.stem == "convexsolve"))
    checks = {node.name: node for node in tree.body
              if getattr(node, "name", None) in ("_verify_kkt", "_KktForm")}
    assert sorted(checks) == ["_KktForm", "_verify_kkt"]
    assert [read for node in checks.values() for read in _solver_state_reads(node)] == []


_MAPPINGS = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary",
             "WeakValueDictionary", "ChainMap", "Counter"}
_CACHES = {"cache", "lru_cache", "cached_property"}


def _module_caches(tree):
    """Module- and class-level mappings, cached functions and ``global``
    statements in ``tree``."""
    found = []
    scopes = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    for stmt in (stmt for body in scopes for stmt in body):
        value = getattr(stmt, "value", None)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and (
                isinstance(value, (ast.Dict, ast.DictComp))
                or isinstance(value, ast.Call) and _named(value.func) in _MAPPINGS):
            found.append(f"mapping (line {stmt.lineno})")
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"global (line {node.lineno})")
        for dec in getattr(node, "decorator_list", ()):
            if _named(dec.func if isinstance(dec, ast.Call) else dec) in _CACHES:
                found.append(f"cache (line {node.lineno})")
    return found


def test_module_cache_rule_covers_mappings_caches_and_globals():
    tree = ast.parse("_FORMS = {}\n"
                     "_MORE: dict = dict()\n"
                     "class Keep:\n"
                     "    seen = defaultdict(list)\n"
                     "@functools.lru_cache(None)\n"
                     "def form(M):\n"
                     "    global _FORMS\n"
                     "@cache\n"
                     "def other(M): ...\n")
    assert len(_module_caches(tree)) == 6


def test_convexsolve_keeps_no_module_cache():
    assert _module_caches(_tree(next(p for p in MODULES if p.stem == "convexsolve"))) == []


_SCALED = {"SCALED_LINF", "slinf"}


def _max_norm_branches(tree):
    """Where a function or class of ``tree`` other than ``Penalty`` and
    ``parse_penalty`` names the ``slinf`` kind or reads ``.alpha``, and
    where a comparison tests a kind against ``LINF``."""
    found = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                and top.name not in ("Penalty", "parse_penalty"):
            found += [f"{_named(node)} (line {node.lineno})" for node in ast.walk(top)
                      if _named(node) in _SCALED or (
                          isinstance(node, (ast.Attribute, ast.Constant))
                          and _named(node) == "alpha")]
    for node in ast.walk(tree):
        names = {_named(part) for part in ast.walk(node)} \
            if isinstance(node, ast.Compare) else set()
        if "kind" in names and names & {"LINF", "linf"}:
            found.append(f"kind against LINF (line {node.lineno})")
    return found


def test_max_norm_rule_covers_names_attributes_and_comparisons():
    tree = ast.parse("SCALED_LINF = 'slinf'\n"
                     "class Penalty:\n"
                     "    def factor(self):\n"
                     "        return self.alpha if self.kind == SCALED_LINF else 1\n"
                     "def parse_penalty(spec):\n"
                     "    return Penalty(SCALED_LINF, 1) if spec in (LINF, L1) else None\n"
                     "def evaluate(p, u):\n"
                     "    if p.kind == LINF:\n"
                     "        return 1\n"
                     "    if p.kind in (pen.LINF, 'slinf'):\n"
                     "        return 2\n"
                     "    return p.alpha * getattr(p, 'alpha')\n"
                     "def level_diam(p, delta):\n"
                     "    alpha = p.factor\n"
                     "    return delta / alpha if p.kind != SCALED_LINF else 0\n")
    assert sorted(_max_norm_branches(tree)) == [
        "SCALED_LINF (line 15)", "alpha (line 12)", "alpha (line 12)",
        "kind against LINF (line 10)", "kind against LINF (line 8)",
        "slinf (line 10)"]


def test_penalty_reads_the_max_norm_factor_once():
    assert _max_norm_branches(_tree(next(p for p in MODULES if p.stem == "penalty"))) == []
