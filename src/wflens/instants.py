"""JSON in and out: instants, JSON type checks, JSONL records of runs, manifests
and scans, the bundled data files, and the JSON lines and indented JSON that
commands print."""

from __future__ import annotations

import json
import json.scanner
import os
from collections.abc import Callable, Iterator, Mapping
from datetime import datetime, timezone
from pathlib import Path

_UTC = timezone.utc


def parse_instant(text: str) -> datetime:
    """An ISO 8601 instant in UTC; a time without a zone is taken as UTC.

    Anything but a string, a string that is not an instant, or an instant
    whose UTC time falls outside years 1-9999 raises :class:`ValueError`.
    """
    if not isinstance(text, str):
        raise ValueError(f"instant must be a string, not {text!r}")
    value = datetime.fromisoformat(text.replace("Z", "+00:00"))
    zone = value.tzinfo
    if zone is _UTC:  # what astimezone(_UTC) would return
        return value
    if zone is None:
        return value.replace(tzinfo=_UTC)
    try:
        return value.astimezone(_UTC)
    except OverflowError as exc:
        raise ValueError(f"instant {text!r} is out of range in UTC") from exc


def expect(value, kind: type, what: str):
    """``value``, checked to be a ``kind``: dict, list or str for a JSON object, array or string."""
    if not isinstance(value, kind):
        names = {dict: "an object", list: "an array", str: "a string"}
        raise ValueError(f"{what} must be {names[kind]}, not {type(value).__name__}")
    return value


# json.loads minus its per-call wrapper: a stripped line starts and ends on a
# value, so the scanner at index 0 decodes what json.loads would.
_scan_value = json.scanner.make_scanner(json.JSONDecoder())


def read_jsonl(path: str | Path, what: str, source: str = "file") -> Iterator[tuple[int, object]]:
    """The line number and decoded JSON value of each non-blank line.

    A line that is not JSON, or nested too deeply to decode, raises :class:`ValueError` as
    ``path:line: malformed <what>: ...``; a file that cannot be opened, read
    or decoded as UTF-8 raises it as ``cannot read <source> path: ...``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    value, end = _scan_value(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = -1
                if end != len(line):  # not one whole value: json.loads names the fault
                    try:
                        value = json.loads(line)
                    except (ValueError, RecursionError) as exc:
                        raise ValueError(f"{path}:{lineno}: malformed {what}: {exc}") from exc
                yield lineno, value
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {source} {path}: {exc}") from exc


def bundled_json(name: str):
    """The decoded JSON of ``wflens/data/<name>``.

    Read through the package's own loader, so a zip install works too,
    without the per-call cost of :mod:`importlib.resources`.
    """
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return json.loads(__spec__.loader.get_data(path).decode("utf-8"))


_string = json.encoder.encode_basestring_ascii
_int_text = int.__repr__
_float_repr = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = _float_repr(value)
    return _NONFINITE.get(text, text)


def _scalar_text(value) -> str | None:
    """The JSON text of a scalar, typed in :mod:`json`'s order; None for an array, object, iterator or mapping."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple, dict, Iterator, Mapping)):
        return None
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _name_text(key) -> str:
    """``"key": `` for an object key; json writes a number, bool or None key as a string of its text."""
    if isinstance(key, str):
        return _string(key) + ": "
    if key is None or isinstance(key, (int, float)):
        return _string(_scalar_text(key)) + ": "
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


dumps_line = json.JSONEncoder(sort_keys=True).encode
"""``json.dumps(value, sort_keys=True)``: the text of one JSON line, from an encoder built once."""


_PIECES_PER_WRITE = 8192
"""Pieces of text that :func:`_write` holds before it writes them out at the start of a container."""


def dumps_indented(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, at about twice its speed.

    :mod:`json` encodes indented output in pure Python, one generator per
    container.  This writer appends to one list instead, dispatches on
    exact types first and falls back to :mod:`json`'s ``isinstance`` order,
    so subclasses, NaN, infinities, non-string keys and the ``TypeError``
    for anything else come out as :mod:`json` makes them.  Unlike
    :mod:`json` it does not look for reference cycles: a cyclic value ends
    in ``RecursionError``, and it writes an iterator, which :mod:`json`
    rejects, as a list, and a mapping that is not a dict as an object.
    """
    out: list[str] = []
    _write(value, out, "\n", {})
    return "".join(out)


def _write(value, out: list[str], newline: str, names: dict[str, str], write=None) -> None:
    """Append the text of ``value`` to ``out``, nested at the indent that ``newline`` ends in.

    ``names`` caches the ``"key": `` text of each string key seen so far.
    An iterator is written as a list while it is drawn, and a mapping that
    is not a dict as an object, each value read as it is written.  With ``write``
    (a ``Callable[[str], None]``), a container that starts past
    :data:`_PIECES_PER_WRITE` pieces first passes the text in ``out`` to
    it and empties ``out``, so a streamed list goes out in bounded parts.
    """
    put = out.append
    kind = type(value)
    if kind is not dict and kind is not list:
        text = _scalar_text(value)
        if text is not None:
            put(text)
            return
        # a tuple, an iterator or a subclass of list or dict: written as its base type;
        # another mapping as an object whose items are read as they are written
        kind = dict if isinstance(value, Mapping) else list
        if isinstance(value, dict):
            value = dict(value.items())
    if write is not None and len(out) >= _PIECES_PER_WRITE:
        write("".join(out))
        out.clear()
    inner = newline + "  "
    if kind is dict:
        if not value:
            put("{}")
            return
        sep = "{" + inner
        # distinct keys: sorting them orders the items as json's sorted(items()) does
        for key in sorted(value):
            item = value[key]
            name = names.get(key)
            if name is None:
                name = _name_text(key)
                if isinstance(key, str):
                    names[key] = name
            kind = type(item)
            if kind is int:
                put(f"{sep}{name}{_int_text(item)}")
            elif kind is float:
                put(f"{sep}{name}{_float_text(item)}")
            elif kind is bool:
                put(f"{sep}{name}{'true' if item else 'false'}")
            elif item is None:
                put(f"{sep}{name}null")
            elif kind is str:
                put(f"{sep}{name}{_string(item)}")
            else:
                put(sep + name)
                _write(item, out, inner, names, write)
            sep = "," + inner
        put(newline + "}")
    else:
        first = sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                put(sep + _string(item))
            elif kind is int:
                put(sep + _int_text(item))
            elif kind is float:
                put(sep + _float_text(item))
            else:
                put(sep)
                _write(item, out, inner, names, write)
            sep = "," + inner
        put("[]" if sep is first else newline + "]")
