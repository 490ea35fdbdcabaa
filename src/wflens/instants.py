"""Instants read from run records, history manifests and the command line."""

from __future__ import annotations

from datetime import datetime, timezone


def parse_instant(text: str) -> datetime:
    """An ISO 8601 instant in UTC; a time without a zone is taken as UTC.

    Anything but a string, or a string that is not an instant, raises
    :class:`ValueError`.
    """
    if not isinstance(text, str):
        raise ValueError(f"instant must be a string, not {text!r}")
    value = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value.astimezone(timezone.utc)
