"""The runtime imports nothing outside the standard library, and only the
sphericity setup reaches rational arithmetic."""

import ast
import pathlib
import sys

import liebranch

SRC = pathlib.Path(liebranch.__file__).parent


def _imported_modules(tree):
    """Dotted names a module imports; relative imports are read inside
    liebranch, and ``from m import n`` names both m and m.n."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(
                filter(None, ["liebranch" if node.level else None, node.module])
            )
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _imports():
    """{file name: set of imported module names} over the package."""
    files = sorted(SRC.glob("*.py"))
    assert files
    return {
        path.name: set(
            _imported_modules(
                ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            )
        )
        for path in files
    }


def test_runtime_is_stdlib_only():
    allowed = set(sys.stdlib_module_names) | {"liebranch"}
    bad = [
        f"{name}: {module}"
        for name, modules in _imports().items()
        for module in sorted(modules)
        if module.split(".")[0] not in allowed
    ]
    assert not bad, bad


def test_rationals_stay_in_the_open_cell_split():
    # characters and root systems run over the integers: only the
    # sphericity setup eliminates over Q, through linalg.SpanQ
    imports = _imports()
    assert [n for n, m in imports.items() if "liebranch.linalg" in m] == [
        "sphericity.py"
    ]
    assert [n for n, m in imports.items() if "fractions" in m] == ["linalg.py"]
