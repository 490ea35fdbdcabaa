"""Path-to-construct abstraction."""

import copy
import json
import pickle
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

import wflens
from wflens.abstraction import ConstructBag, Placeholder, Wildcard
from wflens.model import Index, Key

from conftest import FIXTURES

GOLDEN = json.loads((FIXTURES / "golden_abstraction.json").read_text(encoding="utf-8"))

# Frozen multiset for the two-job matrix workflow: 26 paths, 19 constructs.
NODE_CI_COUNTS = {
    "name": 1,
    "on": 1,
    "on.push": 1,
    "on.push.branches": 1,
    "on.push.branches[*]": 1,
    "permissions": 1,
    "permissions.contents": 1,
    "jobs": 1,
    "jobs.<id>": 2,
    "jobs.<id>.strategy": 1,
    "jobs.<id>.strategy.matrix": 1,
    "jobs.<id>.strategy.matrix.<var>": 1,
    "jobs.<id>.strategy.matrix.<var>[*]": 2,
    "jobs.<id>.runs-on": 2,
    "jobs.<id>.steps": 2,
    "jobs.<id>.steps[*]": 3,
    "jobs.<id>.steps[*].uses": 1,
    "jobs.<id>.steps[*].run": 2,
    "jobs.<id>.needs": 1,
}


def to_segments(raw: list) -> tuple:
    return tuple(Index(s) if isinstance(s, int) else Key(s) for s in raw)


def oracle_kind(prefix: tuple[str, ...], key: str) -> str | None:
    """Independent re-statement of the placeholder rules, one branch each."""
    if prefix == ("jobs",):
        return "id"
    if prefix == ("jobs", "<id>", "strategy", "matrix"):
        return None if key in ("include", "exclude") else "var"
    if prefix in (
        ("jobs", "<id>", "strategy", "matrix", "include", "[*]"),
        ("jobs", "<id>", "strategy", "matrix", "exclude", "[*]"),
        ("env",),
        ("jobs", "<id>", "env"),
        ("jobs", "<id>", "steps", "[*]", "env"),
        ("jobs", "<id>", "container", "env"),
        ("jobs", "<id>", "services", "<s_id>", "env"),
    ):
        return "var"
    if prefix in (("jobs", "<id>", "steps", "[*]", "with"), ("jobs", "<id>", "with")):
        return "param"
    if prefix == ("jobs", "<id>", "services"):
        return "s_id"
    if prefix in (
        ("on", "workflow_dispatch", "inputs"),
        ("on", "workflow_call", "inputs"),
        ("on", "workflow_call", "outputs"),
        ("on", "workflow_call", "secrets"),
        ("jobs", "<id>", "outputs"),
        ("jobs", "<id>", "secrets"),
    ):
        return "id"
    return None


def oracle_abstract(raw_segments: list) -> str:
    parts: list[str] = []
    for seg in raw_segments:
        if isinstance(seg, int):
            parts.append("[*]")
            continue
        kind = oracle_kind(tuple(parts), seg)
        parts.append(f"<{kind}>" if kind else seg)
    text = ""
    for part in parts:
        if part == "[*]":
            text += "[*]"
        else:
            text += ("." if text else "") + part
    return text


def test_published_example_byte_exact(ruleset):
    path = wflens.parse_path("jobs.build.steps[0].uses")
    construct = wflens.abstract_path(path, ruleset)
    assert wflens.render_construct(construct) == "jobs.<id>.steps[*].uses"


def test_golden_cases_match_implementation(ruleset):
    for case in GOLDEN["cases"]:
        got = wflens.render_construct(wflens.abstract_path(to_segments(case["segments"]), ruleset))
        assert got == case["construct"], case["path"]


def test_golden_cases_match_independent_oracle():
    for case in GOLDEN["cases"]:
        assert oracle_abstract(case["segments"]) == case["construct"], case["path"]


def test_golden_covers_every_placeholder_kind():
    seen = set()
    for case in GOLDEN["cases"]:
        for kind in wflens.PLACEHOLDER_KINDS:
            if f"<{kind}>" in case["construct"]:
                seen.add(kind)
    assert seen == set(wflens.PLACEHOLDER_KINDS)
    assert len(GOLDEN["cases"]) == 50


def test_matrix_include_exclude_stay_literal(ruleset):
    got = wflens.abstract_path(wflens.parse_path("jobs.m.strategy.matrix.include"), ruleset)
    assert wflens.render_construct(got) == "jobs.<id>.strategy.matrix.include"


def test_node_ci_bag_frozen(node_ci_bag):
    assert node_ci_bag.total_paths == 26
    assert node_ci_bag.distinct() == 19
    rendered = {wflens.render_construct(c): n for c, n in node_ci_bag.counts.items()}
    assert rendered == NODE_CI_COUNTS


def test_abstraction_idempotent_on_golden(ruleset):
    for case in GOLDEN["cases"]:
        construct = wflens.parse_construct(case["construct"])
        twin = tuple(
            Index(0) if isinstance(seg, Wildcard) else Key(f"<{seg.kind}>" if isinstance(seg, Placeholder) else seg.name)
            for seg in construct
        )
        again = wflens.render_construct(wflens.abstract_path(twin, ruleset))
        assert again == case["construct"]


def test_abstraction_preserves_segment_count(ruleset, node_ci_paths):
    for path in node_ci_paths:
        assert len(wflens.abstract_path(path, ruleset)) == len(path)


_ident = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=16
).filter(lambda s: s not in ("include", "exclude"))


@given(job=_ident, var=_ident, param=_ident, service=_ident, data=st.data())
def test_user_key_renaming_is_invisible(job, var, param, service, data):
    ruleset = wflens.default_ruleset()
    templates = [
        (("jobs", job), "jobs.<id>"),
        (("jobs", job, "strategy", "matrix", var), "jobs.<id>.strategy.matrix.<var>"),
        (("jobs", job, "steps", 0, "with", param), "jobs.<id>.steps[*].with.<param>"),
        (("jobs", job, "services", service), "jobs.<id>.services.<s_id>"),
        (("jobs", job, "services", service, "env", var.upper()), "jobs.<id>.services.<s_id>.env.<var>"),
    ]
    for raw, expected in templates:
        segs = tuple(Index(s) if isinstance(s, int) else Key(s) for s in raw)
        assert wflens.render_construct(wflens.abstract_path(segs, ruleset)) == expected


def test_parse_render_construct_round_trip():
    for case in GOLDEN["cases"]:
        construct = wflens.parse_construct(case["construct"])
        assert wflens.render_construct(construct) == case["construct"]


W = Wildcard()
# text -> what parse_construct and parse_path give: the segments or the ValueError message.
PARSE_OUTCOMES = {
    "": ("empty path string", "empty path string"),
    ".": ("malformed path '.': trailing separator", "malformed path '.': trailing separator"),
    "a.": ("malformed path 'a.': trailing separator", "malformed path 'a.': trailing separator"),
    "a..b": ((Key("a"), Key(""), Key("b")), (Key("a"), Key(""), Key("b"))),
    "[0]": ("concrete index in construct '[0]'", (Key(""), Index(0))),
    "[*]": ((Key(""), W), "invalid sequence index [*] in path '[*]'"),
    ".z": ((Key(""), Key("z")), (Key(""), Key("z"))),
    "a[0]b": ("malformed path 'a[0]b' at offset 4", "malformed path 'a[0]b' at offset 4"),
    "a]": ((Key("a]"),), (Key("a]"),)),
    "a[": ("unterminated index in path 'a['", "unterminated index in path 'a['"),
    "a[1.5]": ("invalid index [1.5] in construct 'a[1.5]'", "invalid sequence index [1.5] in path 'a[1.5]'"),
    "a[1.5]b": ("malformed path 'a[1.5]b' at offset 6", "malformed path 'a[1.5]b' at offset 6"),
    "<id>": ((Placeholder("id"),), (Key("<id>"),)),
    "<nope>": ((Key("<nope>"),), (Key("<nope>"),)),
    "a[*][*]": ((Key("a"), W, W), "invalid sequence index [*] in path 'a[*][*]'"),
    "a[²]": ("invalid index [²] in construct 'a[²]'", "invalid sequence index [²] in path 'a[²]'"),
    "jobs.<id>.steps[*].uses": (
        (Key("jobs"), Placeholder("id"), Key("steps"), W, Key("uses")),
        "invalid sequence index [*] in path 'jobs.<id>.steps[*].uses'",
    ),
}


def test_parse_outcomes_match_the_recorded_table():
    def outcome(parse, text):
        try:
            return parse(text)
        except ValueError as exc:
            return str(exc)

    for text, expected in PARSE_OUTCOMES.items():
        assert (outcome(wflens.parse_construct, text), outcome(wflens.parse_path, text)) == expected, text


# Keys hold no ".", "[" or placeholder name.  A wildcard needs a segment
# before it and an empty key one after it, or the text reads back otherwise.
_abstract_segment = st.one_of(
    st.text(alphabet="ab]*<>-_ ", max_size=4).map(Key),
    st.sampled_from(wflens.PLACEHOLDER_KINDS).map(Placeholder),
    st.just(W),
)


@given(st.lists(_abstract_segment, min_size=1, max_size=6).map(tuple))
def test_parse_construct_inverts_render_construct(construct):
    assume(construct[0] != W and construct[-1] != Key(""))
    assert wflens.parse_construct(wflens.render_construct(construct)) == construct


def test_bag_totals(node_ci_paths, ruleset):
    bag = wflens.abstract_workflow(node_ci_paths, ruleset)
    assert bag.total_paths == sum(bag.counts.values())
    assert bag.distinct() == len(bag.counts)


def test_bag_matches_per_path_counter(node_ci_paths, ruleset):
    expected = Counter(wflens.abstract_path(p, ruleset) for p in node_ci_paths)
    bag = wflens.abstract_workflow(node_ci_paths, ruleset)
    assert bag.counts == dict(expected)


def test_empty_inputs_rejected(ruleset):
    with pytest.raises(ValueError):
        wflens.abstract_path((), ruleset)
    with pytest.raises(ValueError):
        wflens.abstract_workflow([], ruleset)


def test_placeholder_kind_validated():
    with pytest.raises(ValueError):
        Placeholder("nope")


def test_bag_type():
    bag = ConstructBag({}, 0)
    assert bag.distinct() == 0


# ------------------------------------------------------------------ segments


SEGMENTS = [Key("id"), Index(0), Wildcard(), Placeholder("id")]


def test_segments_of_different_kinds_never_compare_equal():
    assert Key("id") != Placeholder("id")
    assert Key("id") != Index(0) and Key("0") != Index(0)
    assert Wildcard() != Index(0)
    for i, a in enumerate(SEGMENTS):
        for j, b in enumerate(SEGMENTS):
            assert (a == b) == (i == j)


def test_equal_segments_hash_equal():
    for make in (lambda: Key("runs-on"), lambda: Index(3), Wildcard, lambda: Placeholder("var")):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert type(a) is type(b)


def test_segment_repr_and_fields():
    assert repr(Key("id")) == "Key(name='id')"
    assert repr(Index(2)) == "Index(position=2)"
    assert repr(Wildcard()) == "Wildcard()"
    assert repr(Placeholder("s_id")) == "Placeholder(kind='s_id')"
    assert (Key("a").name, Index(2).position, Placeholder("var").kind) == ("a", 2, "var")
    assert isinstance(Key("a"), Key) and not isinstance(Key("a"), Placeholder)


@pytest.mark.parametrize("segment", SEGMENTS, ids=repr)
def test_segments_are_immutable(segment):
    before = tuple(segment)
    for attribute in ("name", "position", "kind", "other"):
        with pytest.raises(AttributeError):
            setattr(segment, attribute, "x")
    assert tuple(segment) == before


@pytest.mark.parametrize("segment", SEGMENTS, ids=repr)
def test_segments_round_trip_through_pickle_and_deepcopy(segment):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(segment, protocol))
        assert back == segment and type(back) is type(segment)
    copied = copy.deepcopy((segment, [segment]))
    assert copied == (segment, [segment]) and type(copied[0]) is type(segment)


def test_placeholder_kind_checked_on_unpickling():
    with pytest.raises(ValueError):
        Placeholder.__new__(Placeholder, "nope")


def test_constructs_built_apart_find_each_other(catalog):
    text = "on: push\njobs:\n  build:\n    runs-on: ubuntu-latest\n    steps:\n      - uses: a/b@v1\n"
    bag = wflens.scan_text(text, "ci.yml", catalog).bag
    by_hand = {
        (Key("jobs"), Placeholder("id"), Key("steps"), Wildcard(), Key("uses")): "uses",
        (Key("jobs"), Placeholder("id"), Key("runs-on")): "runs-on",
        (Key("on"),): "on",
    }
    for construct, rendered in [(c, wflens.render_construct(c)) for c in bag.counts]:
        parsed = wflens.parse_construct(rendered)
        assert parsed == construct and hash(parsed) == hash(construct)
        assert bag.counts[parsed] == bag.counts[construct]
    for construct in by_hand:
        assert construct in bag.counts
        assert wflens.parse_construct(wflens.render_construct(construct)) in by_hand
    assert all(construct in catalog.entries for construct in by_hand)
