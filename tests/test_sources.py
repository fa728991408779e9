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


def _private_kernel_attributes(source: str) -> list:
    """`kernel._x` and `<expr>.kernel._x` in `source`: a private attribute
    read or written on a kernel, as (line, attribute)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "kernel") or \
                    (isinstance(owner, ast.Attribute) and owner.attr == "kernel"):
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_only_the_kernel_module_touches_kernel_internals():
    # what a kernel derives is kept through `JumpKernel.kept`, its one cache;
    # a module that reads or writes `kernel._x` keeps a second one
    assert _private_kernel_attributes("kernel._kept[key] = gen.kernel._pairs\nkernel.kept") \
        == [(1, "_kept"), (1, "_pairs")]
    paths = sorted((ROOT / "src" / "ultraheat").glob("*.py"))
    assert any(path.name == "kernel.py" for path in paths)
    for path in paths:
        if path.name != "kernel.py":
            assert _private_kernel_attributes(path.read_text(encoding="utf-8")) == [], path.name
