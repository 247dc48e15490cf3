"""Only production code in the package: every function and method in
``src/liebranch`` is referenced elsewhere in the package, is exported in
``__all__``, or is a command line entry point.  Code that only the tests
call belongs in ``tests/oracles.py``.  The guard matches names, so a
definition that shares its name with an attribute read anywhere in the
package escapes it.  No check in the package is an ``assert``, which
``python -O`` strips.

The layers that restrict and branch read H's roots and the weight map
only, so they import nothing of the Lie-algebra layers: no Chevalley
basis, no row reduction, no sphericity test."""

import ast
import pathlib
import re
from collections import Counter

import liebranch

SRC = pathlib.Path(liebranch.__file__).parent
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

# definitions kept without a caller in the package, each with its reason
ALLOWED = {
    # bench/ computes orbit sizes, |W_H| and the dimension check with them
    "RootSystem.weyl_order": "called by bench/",
    "RootSystem.stabilizer_order": "called by bench/",
    "RootSystem.orbit_size": "called by bench/",
}


def _trees():
    files = sorted(SRC.glob("*.py"))
    assert files
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in files}


def _references(node):
    """Names read under a node: variable names and attribute names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree, prefix=""):
    """(qualified name, node) of every function and method, nested ones
    included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _exported(trees):
    (names,) = [
        node.value
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    return {elt.value for elt in names.elts}


def _entry_points():
    """module.function of each [project.scripts] line of pyproject.toml."""
    text = PYPROJECT.read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {
        f"{m}.{f}" for m, f in re.findall(r'=\s*"liebranch\.(\w+):(\w+)"', scripts)
    }


def _unreferenced():
    trees = _trees()
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    exported = _exported(trees)
    entries = _entry_points()
    out = []
    for fname, tree in trees.items():
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language
            if total[name] > _references(node)[name]:
                continue
            if name in exported or f"{fname[:-3]}.{qual}" in entries:
                continue
            out.append(qual)
    return out


def test_every_definition_has_a_production_use():
    assert sorted(set(_unreferenced()) - set(ALLOWED)) == []


def test_allowed_names_are_definitions():
    # an allow-list entry whose definition is gone is removed with it
    defined = {q for tree in _trees().values() for q, _ in _definitions(tree)}
    assert sorted(set(ALLOWED) - defined) == []


def test_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # raises instead
    found = [
        f"{fname}:{node.lineno}"
        for fname, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


RESTRICTION_LAYERS = ("embeddings", "characters", "branching")
LIE_ALGEBRA_LAYERS = {"chevalley", "linalg", "sphericity"}


def _imported_modules(tree):
    """The package modules a module imports, by their last name: relative
    imports, ``from . import x`` and absolute ``liebranch.x`` alike."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "liebranch"):
                out |= {a.name for a in node.names}
            else:
                out.add(node.module.split(".")[-1])
    return out


def test_restriction_layers_import_no_lie_algebra_code():
    trees = _trees()
    got = {m: _imported_modules(trees[f"{m}.py"]) for m in RESTRICTION_LAYERS}
    assert {m: got[m] & LIE_ALGEBRA_LAYERS for m in got} == {
        m: set() for m in RESTRICTION_LAYERS
    }


def test_imported_modules_sees_every_import_form():
    tree = ast.parse(
        "from .chevalley import neg\n"
        "from . import linalg\n"
        "import liebranch.sphericity\n"
        "from liebranch.rootsys import root_system\n"
        "def f():\n"
        "    from liebranch import characters\n"
    )
    assert _imported_modules(tree) == {
        "chevalley", "linalg", "sphericity", "rootsys", "characters"
    }


def _is_lru_cache(node):
    """Whether a decorator is ``lru_cache`` or ``lru_cache(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "lru_cache") or (
        isinstance(node, ast.Attribute) and node.attr == "lru_cache"
    )


def test_characters_keep_one_memo_per_type():
    # everything the character layer keeps lives in the per-type object
    # that one lru_cache'd builder makes: no module-level dict, no second
    # cache, no key built from a type's name
    tree = _trees()["characters.py"]
    dicts = [
        node.lineno
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None
        and (
            isinstance(node.value, (ast.Dict, ast.DictComp))
            or (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ("dict", "defaultdict", "Counter")
            )
        )
    ]
    assert dicts == []
    cached = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_lru_cache(d) for d in node.decorator_list)
    ]
    assert cached == ["_memo"]
    type_keys = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "str"
        and any(isinstance(a, ast.Attribute) and a.attr == "type" for a in node.args)
    ]
    assert type_keys == []
