"""read_jsonl decodes each line as a per-line ``json.loads`` reader does, and fails where it fails."""

import json
import json.scanner
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wflens import instants

DEEP = "[" * 100_000 + "]" * 100_000  # nested past any recursion limit


def reference_read_jsonl(path, what):
    """The reader before the scanner fast path: one ``json.loads`` per stripped line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed {what}: {exc}") from exc
            yield lineno, value


def outcome(reader, path: Path) -> str:
    """The repr of every (lineno, value) a reader yields, or of the ValueError it raises."""
    try:
        return repr(list(reader(path, "record")))
    except ValueError as exc:
        return repr(exc)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
).map(json.dumps)
ODD = st.sampled_from(
    [
        "\ufeff{}", '\ufeff{"a": 1}', '{"a":1} x', "NaN", "-Infinity", '{"a": NaN}', DEEP,
        '{"a":1', '"b":2}', "1,2", "[1,]", "1 2", "[]]", "tru", '"\\ud800"', "{}{}", "",
    ]
)
PAD = st.sampled_from(["", " ", "\t", "\x0c", "\u00a0", "\x0b", "\u3000"])
LINE = st.tuples(PAD, JSON | ODD, PAD, st.sampled_from(["\n", "\r\n"])).map("".join)
FILES = st.lists(LINE | st.sampled_from(["\n", "  \n", "\r\n"]), max_size=8).map("".join)
SCANNERS = {"c": json.scanner.make_scanner, "python": json.scanner.py_make_scanner}


@pytest.fixture(scope="module")
def jsonl_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "records.jsonl"


@pytest.mark.parametrize("scanner", sorted(SCANNERS))
@settings(max_examples=200, deadline=None)
@given(text=FILES)
@example(text='{"a": 1}\n\ufeff{"b": 2}\n')
@example(text='{"a": 1}\r\n{"a":1} x\r\n')
@example(text="[1]\nNaN\n\n  \n" + DEEP + "\n")
@example(text='\x0c {"a": 1}\u00a0\n{"a":1\n"b":2}\n1,2\n')
def test_read_jsonl_matches_a_per_line_json_loads_reader(jsonl_path, scanner, text):
    jsonl_path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instants, "_scan_value", SCANNERS[scanner](json.JSONDecoder()))
        got = outcome(instants.read_jsonl, jsonl_path)
    assert got == outcome(reference_read_jsonl, jsonl_path)
