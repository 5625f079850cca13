"""README's python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_example_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    if index == 0:
        # the quick tour's comment says what it prints
        assert capsys.readouterr().out == "0.267|t> + 0.733|f>\n"
