"""The documented examples run as written: the package docstring's
doctest and the README's Library code block."""

import doctest
import re
from pathlib import Path

import pytest

import chainlens

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_doctest_passes():
    result = doctest.testmod(chainlens)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["summary"].disappeared_count == 39
    assert namespace["tau"] == pytest.approx(-1 / 3)
