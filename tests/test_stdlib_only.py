"""The runtime imports nothing outside the standard library."""

import ast
import pathlib
import sys

import liebranch

SRC = pathlib.Path(liebranch.__file__).parent


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_is_stdlib_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"liebranch"}
    bad = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bad.extend(
            f"{path.name}: {name}"
            for name in _imported_roots(tree)
            if name not in allowed
        )
    assert not bad, bad
