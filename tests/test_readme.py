"""The README's library example runs as written."""
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from guesswork_lab import KeyedHashModel" in code  # the package's lazy names
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    rate, guesses = out.getvalue().splitlines()
    assert "rate=1.6147" in rate
    assert int(guesses) > 0
