"""engine.document_json against its oracle, json.dumps(sort_keys=True, indent=1).

Every metrics document goes through the writer, so its bytes must be the
stdlib's for any value json can write with string keys.  These tests need
no simulation, so they run unchanged on any CPython and catch a release
whose C encoder writes its separators differently.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from wptsim.engine import document_json


def stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


# Every float json treats apart: signed zero, NaN, both infinities and the
# subnormals, on top of hypothesis' own spread.
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.225073858507201e-308, 1e-310])
# Non-ASCII, escapes, and the brackets and new lines the writer's fast
# paths look for.
TEXT = st.text(st.characters() | st.sampled_from('[]{},:"\\\n\t\x00\x7fé '),
               max_size=12)
NUMBERS = (st.booleans() | st.integers(-(10 ** 30), 10 ** 30)
           | st.integers(-(2 ** 70), 2 ** 70) | FLOATS)
SCALARS = st.none() | NUMBERS | TEXT
# Lists of rows, as metric_trace holds: tuples and lists of numbers.
ROWS = st.lists(st.tuples(st.integers(0, 10 ** 6), FLOATS, FLOATS, FLOATS)
                | st.lists(NUMBERS, min_size=1, max_size=5), min_size=1, max_size=8)
# Any of the above nested in lists, tuples and dicts, and in rows whose
# items may be containers themselves.
DOCS = st.recursive(
    SCALARS | ROWS | st.lists(FLOATS),
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=6)
                   | st.lists(st.lists(inner, min_size=1, max_size=4), min_size=1,
                              max_size=4)),
    max_leaves=40)


@given(DOCS)
@settings(max_examples=150, deadline=None)
def test_writer_matches_stdlib(obj):
    assert document_json(obj) == stdlib(obj)


@given(st.dictionaries(TEXT, ROWS | st.lists(FLOATS) | st.lists(SCALARS), max_size=5))
@settings(max_examples=100, deadline=None)
def test_writer_matches_stdlib_on_documents_of_lists(doc):
    assert document_json({"metrics": doc, "point": {}, "seed": 3}) == stdlib(
        {"metrics": doc, "point": {}, "seed": 3})


@pytest.mark.parametrize("obj", [
    [[1, [2, 3]], [4.0, 5]],            # a row holding a list
    [[1, 2], (3, {"a": 4})],            # a row holding a dict
    [[1, [2]], 3],                      # a row, then a scalar
    [[1.5], []],                        # an empty row
    [[1], ["[", 2]],                    # a bracket inside a row's string
    [["{"], [0.5]],
    [1.0, [2.0]],                       # a scalar, then a list
    ["x", {"k": None}],
    ["[]", "]", "{", -0.0],             # brackets inside strings
    {"b": [[]], "a": [{}], "c": ([], {})},
])
def test_lists_the_single_call_cannot_indent_are_written_item_by_item(obj):
    assert document_json(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [{1: 2.0}, {"a": {None: []}}, [[0.5], {(1, 2): 3}]])
def test_a_key_that_is_no_string_raises(obj):
    with pytest.raises(TypeError, match="keys must be str"):
        document_json(obj)


@pytest.mark.parametrize("obj", [[1.0, {1, 2}], [[1, b"x"], [2, 3]], {"a": object()}])
def test_a_value_json_cannot_write_raises_as_in_json(obj):
    with pytest.raises(TypeError):
        stdlib(obj)
    with pytest.raises(TypeError):
        document_json(obj)
