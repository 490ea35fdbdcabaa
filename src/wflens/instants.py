"""Inputs: instants, JSON type checks, and JSONL records of runs, manifests and scans."""

from __future__ import annotations

import json
import json.scanner
from collections.abc import Iterator
from datetime import datetime, timezone
from pathlib import Path


def parse_instant(text: str) -> datetime:
    """An ISO 8601 instant in UTC; a time without a zone is taken as UTC.

    Anything but a string, a string that is not an instant, or an instant
    whose UTC time falls outside years 1-9999 raises :class:`ValueError`.
    """
    if not isinstance(text, str):
        raise ValueError(f"instant must be a string, not {text!r}")
    value = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    try:
        return value.astimezone(timezone.utc)
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


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, object]]:
    """The line number and decoded JSON value of each non-blank line.

    A line that is not JSON, or nested too deeply to decode, raises :class:`ValueError` as
    ``path:line: malformed <what>: ...``; unreadable or undecodable files
    raise what ``open`` and reading raise.
    """
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
