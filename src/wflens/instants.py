"""Line-oriented inputs: instants and JSONL records of runs, manifests and scans."""

from __future__ import annotations

import json
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


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, object]]:
    """The line number and decoded JSON value of each non-blank line.

    A line that is not JSON raises :class:`ValueError` as
    ``path:line: malformed <what>: ...``; unreadable or undecodable files
    raise what ``open`` and reading raise.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed {what}: {exc}") from exc
            yield lineno, value
