"""The repository's own text: the README quickstart runs as printed,
every Python file parses under the oldest supported grammar, and every name
that the benchmark's tracer times or probes exists."""

import ast
import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from ultraheat import cli, davies
from ultraheat.semigroup import SpectralGenerator

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


def _engine_privates() -> set:
    """The private attributes of `HierarchicalHeatKernel`: each `self._x` of
    its methods and each of its `_method`s, read from semigroup.py."""
    tree = ast.parse((ROOT / "src" / "ultraheat" / "semigroup.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "HierarchicalHeatKernel")
    names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    names |= {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _attributes_named(source: str, names: set) -> list:
    """Each attribute in `source`, on any object, whose name is in `names`,
    as (line, attribute)."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in names)


def test_only_the_semigroup_module_touches_engine_internals():
    # the engine's arrays depend on its truncation range (`_set_range`); a
    # module that reads them keeps a copy that a later change would miss
    privates = _engine_privates()
    assert {"_row", "_neg_rate", "_path_row", "_path_col", "_set_range"} <= privates
    assert _attributes_named("heat._row + engine.eigenvalue + fast._path_col[0]", privates) \
        == [(1, "_path_col"), (1, "_row")]
    paths = sorted((ROOT / "src" / "ultraheat").glob("*.py"))
    assert any(path.name == "semigroup.py" for path in paths)
    for path in paths:
        if path.name != "semigroup.py":
            assert _attributes_named(path.read_text(encoding="utf-8"), privates) == [], path.name


def _bench_metrics():
    """bench/metrics.py, loaded by path and not registered as a module."""
    spec = importlib.util.spec_from_file_location("bench_metrics", ROOT / "bench" / "metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(span: str) -> bool:
    """Whether the tracer hooks `span`: a `cli.CHECK_REGISTRY` token, or a
    public function, class or method defined in a layer module, as
    `layer.name`, `layer.Class.*` or `layer.Class.method`."""
    parts = span.split(".")
    if parts[:2] == ["cli", "check"]:
        return len(parts) == 3 and parts[2] in cli.CHECK_REGISTRY
    module = importlib.import_module(f"ultraheat.{parts[0]}")
    obj = vars(module).get(parts[1])
    if parts[1].startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    if len(parts) == 2:
        return inspect.isfunction(obj)
    if len(parts) != 3 or not inspect.isclass(obj):
        return False
    if parts[2] == "*":
        return True
    member = vars(obj).get(parts[2])
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    return (parts[2] == "__init__" or not parts[2].startswith("_")) \
        and inspect.isfunction(member)


def test_every_timed_span_exists():
    # a span that has gone makes its bench metrics absent, which only the
    # bench self-test would notice
    spans = set()
    for _name, _unit, _better, source, *_ in _bench_metrics().PER_LAYER:
        if source[0] in ("incl", "self", "calls"):
            spans.add(source[1])
        elif source[0] == "counter":
            spans.add(source[2])
    assert len(spans) == 48
    assert [span for span in sorted(spans) if not _resolves(span)] == []
    assert not _resolves("cli.check.nonesuch") and not _resolves("bounds._density_scans")


def test_every_probed_attribute_exists(k4):
    # what the tracer's probes read from arguments and results
    gen = SpectralGenerator(k4, rho=1.0)
    assert (gen.is_whole, gen.rho, len(gen.blocks)) == (True, 1.0, 2)
    assert gen.omega.tolist() == [0, 1, 2, 3]
    assert k4.n == 4
    assert {"times", "c_nash"} <= {f.name for f in dataclasses.fields(davies.IterationTrace)}
    assert list(inspect.signature(davies.moser_iteration).parameters)[8] == "c_n"
