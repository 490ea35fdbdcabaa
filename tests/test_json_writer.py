"""dumps_indented writes what ``json.dumps(v, sort_keys=True, indent=2)`` writes, and fails where it fails."""

import enum
import json
from collections import Counter, OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wflens.instants import dumps_indented


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 0.1, 1e-7, 1.5e300]

texts = st.one_of(
    st.text(),
    st.text(st.characters(blacklist_categories=())),  # lone surrogates too
    st.text(st.sampled_from("\x00\x1f\x7f\"\\/\n\té 𐏿\U0001f600a")),
)
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
ints = st.one_of(st.integers(), st.integers(min_value=-(2**90), max_value=2**90))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    floats,
    floats.map(np.float64),
    texts,
)


def containers(children):
    # Keys of one kind per object, since sort_keys cannot order a str
    # against a number: strings, numbers (bools among them), or None.
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(st.one_of(ints, floats, st.booleans()), children, max_size=5),
        st.dictionaries(st.none(), children, max_size=1),
    )


values = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=600)
@given(values)
@example([])
@example({})
@example(())
@example({"a": [], "b": {}, "c": ()})
@example([[[]], [{}], {"x": [{"y": {}}]}])
@example({1.5: 1, 2: 2, True: 3, float("nan"): 4})
@example({None: [np.float64("nan"), np.float64(-0.0), np.float64(1e16)]})
@example(["\ud800", "\udfff\x00", "é\U0001f600"])
@example([2**64, -(2**64) - 1, 2**200])
def test_writer_matches_json_dumps(value):
    assert dumps_indented(value) == reference(value)


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


class Ratio(float):
    def __repr__(self):
        return "Ratio!"


Point = namedtuple("Point", "x y")


@pytest.mark.parametrize(
    "value",
    [
        OrderedDict([("b", 1), ("a", [Level.LOW])]),
        Counter("abracadabra"),
        Point(1.5, [True, None]),
        {Name("k"): Name("v"), "j": Ratio(0.5)},
        {Level.LOW: Ratio("nan"), 2.5: Ratio(2.0)},
        Ratio(1e16),
        Name("top"),
        Level.LOW,
    ],
    ids=["ordereddict", "counter", "namedtuple", "str-subclass", "subclass-keys", "float-subclass",
         "top-str-subclass", "top-intenum"],
)
def test_writer_treats_subclasses_as_json_does(value):
    assert dumps_indented(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        b"bytes",
        np.int64(3),
        [np.int64(3)],
        {"a": {1, 2}},
        {1: "int", "a": "str"},
        {None: 0, 1: 1},
        [{"a": 0, 2.5: 1}],
        {(1, 2): 0},
        {np.int64(1): 0},
    ],
    ids=["set", "bytes", "np.int64", "nested-np.int64", "nested-set", "mixed-keys", "none-and-int-keys",
         "nested-mixed-keys", "tuple-key", "np.int64-key"],
)
def test_writer_raises_as_json_does(value):
    with pytest.raises(Exception) as expected:
        reference(value)
    with pytest.raises(expected.type) as raised:
        dumps_indented(value)
    assert str(raised.value) == str(expected.value)
