"""The pytest settings in pyproject.toml let a failing test report itself."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

ALWAYS_FAILS = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_always_fails(n):
    assert n != n
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # On a failure, hypothesis's pytest plugin imports libcst to write a
    # patch, and with libcst 1.0.1 and mypy_extensions 1.1.0 that import
    # warns "mypy_extensions.TypedDict is deprecated".  Under
    # filterwarnings = ["error"] alone the warning aborted the whole run
    # with INTERNALERROR (exit 3) and no failure report.  Where libcst is
    # not installed (pytest and hypothesis only) the plugin writes no
    # patch, so this passes with or without the ignore entry.
    path = tmp_path / "test_always_fails.py"
    path.write_text(ALWAYS_FAILS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
