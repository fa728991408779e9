"""The JSON form of the written artifacts (`reporting.json_text`)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ultraheat import build_tree
from ultraheat.cli import generate_files
from ultraheat.reporting import json_chunks, json_text
from ultraheat.space import save_space

from conftest import S4_SPEC


def two_pass_json_text(obj) -> str:
    """The former two-pass writer: a plain copy, then `json.dumps`; a numpy
    scalar is made plain before the non-finite test, so that a non-finite
    one is written as its repr string as well."""

    def plain(obj):
        if isinstance(obj, dict):
            return {str(k): plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            obj = obj.item()
        elif isinstance(obj, np.ndarray):
            return [plain(v) for v in obj.tolist()]
        if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
            return repr(obj)
        return obj

    return json.dumps(plain(obj), indent=2, sort_keys=True)


FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                        2.2250738585072014e-308])
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
)
ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
               elements=FLOATS),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=1, max_side=3)),
)
LEAVES = st.one_of(st.text(), st.integers(-2**200, 2**200), st.booleans(), st.none(), FLOATS,
                   NUMPY_SCALARS, ARRAYS)
# every dict may hold keys that are not str: ints, which may collide with a
# str key ("1" and 1), as a str of its own
KEYS = st.text(max_size=4) | st.integers(-3, 3)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.lists(st.text(), min_size=1, max_size=4),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_emitter_writes_the_bytes_of_the_two_pass_writer(obj):
    assert json_text(obj) == two_pass_json_text(obj)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=4), VALUES, max_size=4), st.text(max_size=4),
       st.lists(VALUES, max_size=4))
def test_chunks_join_to_the_text_of_the_whole(obj, key, items):
    # the list under `key` is streamed item by item, empty or not, wherever
    # its key sorts among the others
    obj.pop(key, None)
    chunks = list(json_chunks(obj, key, iter(items)))
    assert "".join(chunks) == json_text({**obj, key: items})
    assert len(chunks) == 2 * len(obj) + len(items) + 3


@pytest.mark.parametrize("value", [np.float64("nan"), np.float64("inf"), np.float32("-inf"),
                                   math.nan, -math.inf])
def test_non_finite_floats_are_written_as_their_repr_string(value):
    text = repr(float(value))
    assert json_text(value) == json.dumps(text)
    assert json.loads(json_text({"v": [value]})) == {"v": [text]}


@pytest.mark.parametrize("value", [
    np.array(1.5), np.array(3), np.array("ab"), np.bool_(True), [np.bool_(False)],
    {"a": np.array(2.0)}, {1, 2}, 1j, np.complex128(1), b"x", object(),
    np.longdouble(1.0),
], ids=lambda v: "object()" if type(v) is object else repr(v))
def test_unsupported_types_raise_type_error(value):
    with pytest.raises(TypeError):
        json_text(value)


@pytest.mark.parametrize("kind, params", [
    ("dyadic", {"depth": 3}), ("bary", {"branching": 3, "depth": 2}),
    ("random", {"seed": 5, "mass_law": "loguniform"}),
])
def test_generated_files_are_the_json_dumps_bytes(tmp_path, kind, params):
    space_path, kernel_path = generate_files(kind, tmp_path, **params)
    for path in (space_path, kernel_path):
        spec = json.loads(path.read_text(encoding="utf-8"))
        assert path.read_text(encoding="utf-8") == json.dumps(spec, indent=2,
                                                              sort_keys=True) + "\n"
    path = tmp_path / "s4.json"
    save_space(build_tree(S4_SPEC), path)
    assert path.read_text(encoding="utf-8") == json.dumps(
        build_tree(S4_SPEC).to_spec(), indent=2, sort_keys=True) + "\n"

