"""The README's Python examples run against the package as it is."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                     re.DOTALL | re.MULTILINE)


def test_readme_has_a_python_example():
    assert _BLOCKS


@pytest.mark.parametrize("index", range(len(_BLOCKS)))
def test_readme_python_example_runs(index):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
