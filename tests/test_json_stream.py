"""A streamed JSON document: iterators are drawn as they are written, and the text
goes out in bounded parts that join to what ``dumps_indented`` writes."""

from unittest import mock

from hypothesis import given, settings

from wflens import instants
from wflens.instants import _write, dumps_indented

from test_json_writer import values


def streamed(value):
    """``value`` with every list and tuple inside it turned into an iterator."""
    if isinstance(value, (list, tuple)):
        return iter([streamed(item) for item in value])
    if isinstance(value, dict):
        return {key: streamed(item) for key, item in value.items()}
    return value


def write_parts(value) -> list[str]:
    parts: list[str] = []
    out: list[str] = []
    _write(value, out, "\n", {}, parts.append)
    return parts + ["".join(out)]


@settings(max_examples=300)
@given(values)
def test_streamed_iterators_write_what_dumps_indented_writes(value):
    assert dumps_indented(streamed(value)) == dumps_indented(value)
    with mock.patch.object(instants, "_PIECES_PER_WRITE", 1):  # a part before every container
        assert "".join(write_parts(streamed(value))) == dumps_indented(value)


def test_a_streamed_list_goes_out_while_it_is_drawn(monkeypatch):
    monkeypatch.setattr(instants, "_PIECES_PER_WRITE", 64)
    parts: list[str] = []
    seen = []

    def records():
        for i in range(100):
            seen.append(len(parts))
            yield {"file": f"w{i}.yml", "n": i, "features": {"a": [1.5, None], "b": {}}}

    out: list[str] = []
    _write({"diagnostics": records(), "risk": {"w0.yml": 1}}, out, "\n", {}, parts.append)
    whole = dumps_indented({"diagnostics": list(records()), "risk": {"w0.yml": 1}})
    assert "".join(parts + out) == whole
    assert seen[0] == 0 and seen[99] > 5  # parts went out before later items were drawn
    assert max(map(len, parts)) < len(whole) / 5
