"""The report writer against ``json.dumps``: the same text for every JSON
value a report can hold, and a TypeError for any other type; and the text
report's compact details against ``json.dumps`` cut to 200 characters."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine.reports import _compact, json_document

# Characters that json escapes, or that a naive writer might: quotes,
# backslashes, control characters, DEL, non-ASCII, and the line and paragraph
# separators U+2028 and U+2029.
_SPECIAL = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "€", "😀", "\u2028", "\u2029"])
TEXT = st.text(st.one_of(st.characters(), _SPECIAL), max_size=8)
INTS = st.one_of(st.integers(-1000, 1000), st.integers(-(10**300), 10**300))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(TEXT, children, max_size=5),
        # the writer's one-join paths: rows of strings (over Q) or ints (over GF(p))
        st.lists(TEXT, min_size=1, max_size=5),
        st.lists(INTS, min_size=1, max_size=5),
    ),
    max_leaves=40,
)


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert json_document(value) == dumps(value)


@pytest.mark.parametrize("value", [[], {}, [[]], {"a": {}}, [[], {}], "", 0, -1, True, False, None])
def test_empty_containers_and_bare_scalars(value):
    assert json_document(value) == dumps(value)


@settings(max_examples=100, deadline=None)
@given(VALUES, st.sampled_from([0.5, -0.0, 1e300, float("nan")]))
def test_a_float_anywhere_raises_type_error(value, number):
    for holder in (number, [number], ["0", number], [value, number], {"k": [value, {"x": number}]}):
        with pytest.raises(TypeError):
            json_document(holder)


@pytest.mark.parametrize("value", [(1, 2), {1: "a"}, {"a": 1, 2: "b"}, {"a"}, b"a", ["0", ("0",)]])
def test_types_no_report_holds_raise_type_error(value):
    with pytest.raises(TypeError):
        json_document(value)


def compact_by_dumps(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return text if len(text) <= 200 else text[:197] + "..."


# a dense residual's rows, as the text report prints them: far past 200 characters
LONG = st.builds(lambda rows, cols, cell: [[cell] * cols] * rows, st.integers(1, 60), st.integers(1, 60), TEXT)


@settings(max_examples=150, deadline=None)
@given(st.one_of(VALUES, LONG, st.dictionaries(TEXT, st.one_of(VALUES, LONG), max_size=4)))
def test_compact_is_json_dumps_cut_to_200_characters(value):
    assert _compact(value) == compact_by_dumps(value)


@pytest.mark.parametrize("size", [0, 1, 195, 196, 197, 198, 199, 200, 201, 202, 5000])
def test_compact_around_the_cut(size):
    # a list of one string is its JSON text plus 4 characters: quotes and brackets
    for value in (["x" * size], {"k": "y" * size}, "z" * size, [0] * size):
        assert _compact(value) == compact_by_dumps(value)
