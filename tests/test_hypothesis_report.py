"""A failing hypothesis test is reported with its example under this
project's warning filters, rather than stopping pytest with INTERNALERROR."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_given_test_reports_its_example(tmp_path):
    (tmp_path / "test_small.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_small.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_small(" in output
    assert "1 failed" in output
