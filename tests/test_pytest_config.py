"""The suite's own pytest settings: a failing property test is reported."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = """
from hypothesis import given, strategies as st


@given(st.integers(0, 100))
def test_fails(x):
    assert x < 10


def test_after():
    pass
"""


def test_failing_property_test_is_reported(tmp_path):
    """Under the project's warning filters, a falsified @given test fails
    like any other: its example is printed, the next test runs and pytest
    exits 1 (a warning raised while Hypothesis reports would end the run
    with an internal error, exit 3)."""
    (tmp_path / "test_pair.py").write_text(PAIR)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = result.stdout + result.stderr
    assert "Falsifying example: test_fails(" in out, out
    assert "1 failed, 1 passed" in out, out
    assert result.returncode == 1, out
