"""The repository's own text: the README quickstart runs as printed, and
every Python file parses under the oldest supported grammar."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST_PYTHON = (3, 10)  # requires-python in pyproject.toml


def test_readme_quickstart_runs(capsys):
    # the one ```python block of README.md, run as a script; it prints the
    # certificate's constants
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    scope = {"__name__": "__main__"}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    printed = ast.literal_eval(capsys.readouterr().out.strip())
    assert printed == scope["cert"].constants
    assert sorted(printed) == ["C_DUE", "C_N", "C_TJ", "C_tail", "C_wUE_derived",
                               "C_wUE_measured"]


@pytest.mark.parametrize("folder", ["src", "tests", "bench"])
def test_sources_parse_as_oldest_python(folder):
    # grammar only: a standard-library name that the oldest Python lacks
    # still passes
    paths = sorted((ROOT / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)
