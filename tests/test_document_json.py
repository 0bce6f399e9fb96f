"""engine.document_json against its oracle, oracles.document_text.

Every metrics document goes through the writer: a non-empty dict is one
sorted key per line, and every other value, each list included, is the one
line ``json.dumps(value, sort_keys=True)`` writes.  Its text must parse back
to the values it was given.  These tests need no simulation, so they run
unchanged on any CPython and catch a release whose C encoder writes its
separators differently.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import document_text
from wptsim.engine import document_json

pytestmark = pytest.mark.newest_python


def plain(obj):
    """``obj`` as json reads it back: tuples as lists, dict keys sorted."""
    if isinstance(obj, dict):
        return {key: plain(obj[key]) for key in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [plain(item) for item in obj]
    return obj


def assert_reads_back(text: str, obj) -> None:
    # repr tells 1 from 1.0 and True, -0.0 from 0.0, and shows NaN as nan.
    assert repr(json.loads(text)) == repr(plain(obj))


# Every float json treats apart: signed zero, NaN, both infinities and the
# subnormals, on top of hypothesis' own spread.
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.225073858507201e-308, 1e-310])
# Non-ASCII, escapes, brackets and new lines.
TEXT = st.text(st.characters() | st.sampled_from('[]{},:"\\\n\t\x00\x7fé '),
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
    text = document_json(obj)
    assert text == document_text(obj)
    assert_reads_back(text, obj)


@given(st.dictionaries(TEXT, ROWS | st.lists(FLOATS) | st.lists(SCALARS), max_size=5))
@settings(max_examples=100, deadline=None)
def test_writer_matches_stdlib_on_documents_of_lists(doc):
    obj = {"metrics": doc, "point": {}, "seed": 3}
    text = document_json(obj)
    assert text == document_text(obj)
    assert_reads_back(text, obj)


def test_a_document_is_one_sorted_key_per_line():
    doc = {"seed": 3, "point": {}, "metrics": {
        "metric_trace": [(0, 1.5, -0.0, 90.0), (1, math.nan, math.inf, 2.0 ** 70)],
        "final_phases": [], "sync_failed": False, "stage_log": ["sync", "alignment"]}}
    assert document_json(doc) == (
        '{\n'
        ' "metrics": {\n'
        '  "final_phases": [],\n'
        '  "metric_trace": [[0, 1.5, -0.0, 90.0], [1, NaN, Infinity, 1.1805916207174113e+21]],\n'
        '  "stage_log": ["sync", "alignment"],\n'
        '  "sync_failed": false\n'
        ' },\n'
        ' "point": {},\n'
        ' "seed": 3\n'
        '}')


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
def test_a_list_is_one_line_whatever_it_holds(obj):
    line = json.dumps([obj], sort_keys=True)
    assert "\n" not in line
    assert document_json([obj]) == line
    assert document_json({"trace": [obj]}) == '{\n "trace": ' + line + "\n}"


@pytest.mark.parametrize("obj", [{1: 2.0}, {"a": {None: []}}, [[0.5], {(1, 2): 3}]])
def test_a_key_that_is_no_string_raises(obj):
    with pytest.raises(TypeError, match="keys must be str"):
        document_json(obj)


@pytest.mark.parametrize("obj", [[1.0, {1, 2}], [[1, b"x"], [2, 3]], {"a": object()}])
def test_a_value_json_cannot_write_raises_as_in_json(obj):
    with pytest.raises(TypeError):
        json.dumps(obj)
    with pytest.raises(TypeError):
        document_json(obj)
