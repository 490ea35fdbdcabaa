"""Abstraction of concrete YAML paths into catalog constructs.

Sequence indices become the wildcard ``[*]``; user-chosen keys (job ids,
matrix variables, env var names, ...) become typed placeholders such as
``<id>`` or ``<var>``, driven by a table of prefix rules.  Everything else
passes through literally, so abstraction preserves segment count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

from .instants import expect
from .model import ConcretePath, Index, Key, _parse_segments

PLACEHOLDER_KINDS = ("id", "var", "param", "s_id")


class Wildcard(tuple):
    """An abstracted sequence index, rendered ``[*]``: the tuple ``("wildcard",)``."""

    __slots__ = ()

    def __new__(cls) -> Wildcard:
        return tuple.__new__(cls, ("wildcard",))

    def __getnewargs__(self) -> tuple[()]:
        return ()

    def __repr__(self) -> str:
        return "Wildcard()"


class Placeholder(tuple):
    """An abstracted user-chosen key, rendered ``<kind>``: the tuple ``("placeholder", kind)``."""

    __slots__ = ()

    def __new__(cls, kind: str) -> Placeholder:
        if kind not in PLACEHOLDER_KINDS:
            raise ValueError(f"unknown placeholder kind {kind!r}")
        return tuple.__new__(cls, ("placeholder", kind))

    @property
    def kind(self) -> str:
        return self[1]

    def __getnewargs__(self) -> tuple[str]:
        return (self[1],)

    def __repr__(self) -> str:
        return f"Placeholder(kind={self[1]!r})"


AbstractSegment = Union[Key, Wildcard, Placeholder]
Construct = tuple[AbstractSegment, ...]


@dataclass(frozen=True)
class AbstractionRule:
    """At abstracted prefix ``prefix``, keys become ``<kind>`` placeholders.

    ``except_keys`` lists reserved literal keys at that position that stay
    as-is (e.g. ``include`` under a matrix).
    """

    prefix: Construct
    kind: str
    except_keys: frozenset[str] = field(default_factory=frozenset)


class AbstractionRuleSet:
    """Prefix-indexed rule table; at most one rule per prefix."""

    def __init__(self, rules: tuple[AbstractionRule, ...]):
        table: dict[Construct, AbstractionRule] = {}
        for rule in rules:
            if rule.prefix in table:
                raise ValueError(f"ambiguous rules for prefix {render_construct(rule.prefix) if rule.prefix else '<root>'}")
            table[rule.prefix] = rule
        self.rules = rules
        self._by_prefix = table

    def rule_for(self, prefix: Construct) -> AbstractionRule | None:
        return self._by_prefix.get(prefix)

    def placeholder_for(self, prefix: Construct, key: str) -> Placeholder | None:
        rule = self.rule_for(prefix)
        if rule is None or key in rule.except_keys:
            return None
        return Placeholder(rule.kind)


@dataclass(frozen=True)
class ConstructBag:
    """Multiset of constructs from one workflow, plus the total path count."""

    counts: dict[Construct, int]
    total_paths: int

    def distinct(self) -> int:
        return len(self.counts)


def abstract_path(path: ConcretePath, rules: AbstractionRuleSet) -> Construct:
    """Abstract one concrete path left to right."""
    if not path:
        raise ValueError("cannot abstract an empty path")
    out: list[AbstractSegment] = []
    for segment in path:
        if isinstance(segment, Index):
            out.append(Wildcard())
            continue
        placeholder = rules.placeholder_for(tuple(out), segment.name)
        out.append(placeholder if placeholder is not None else Key(segment.name))
    return tuple(out)


def abstract_workflow(
    paths: list[ConcretePath], rules: AbstractionRuleSet | None = None
) -> ConstructBag:
    """Abstract every path of a workflow into a construct multiset."""
    if not paths:
        raise ValueError("workflow has no paths")
    if rules is None:
        rules = default_ruleset()
    counts = Counter(abstract_path(path, rules) for path in paths)
    return ConstructBag(dict(counts), len(paths))


def render_construct(construct: Construct) -> str:
    if not construct:
        raise ValueError("cannot render an empty construct")
    parts: list[str] = []
    for segment in construct:
        if isinstance(segment, Key):
            parts.append(("." if parts else "") + segment.name)
        elif isinstance(segment, Wildcard):
            parts.append("[*]")
        else:
            parts.append(("." if parts else "") + f"<{segment.kind}>")
    return "".join(parts)


def parse_construct(text: str) -> Construct:
    """Parse a rendered construct such as ``jobs.<id>.steps[*].uses``."""
    out: list[AbstractSegment] = []
    for part in text.split("."):
        wildcards = 0
        while part.endswith("[*]"):
            part = part[:-3]
            wildcards += 1
        if not part or "[" in part or "]" in part:
            return _parse_construct_checked(text)
        out.append(_segment(part))
        out.extend([_WILDCARD] * wildcards)
    return tuple(out)


_WILDCARD = Wildcard()


@lru_cache(maxsize=4096)
def _segment(token: str) -> Key | Placeholder:
    """The shared segment for a rendered key or placeholder."""
    if token.startswith("<") and token.endswith(">") and token[1:-1] in PLACEHOLDER_KINDS:
        return Placeholder(token[1:-1])
    return Key(token)


def _parse_construct_checked(text: str) -> Construct:
    """:func:`parse_construct` for any text, with the grammar's checks and errors."""
    out: list[AbstractSegment] = []
    for kind, value in _parse_segments(text):
        if kind == "index":
            if value == "*":
                out.append(Wildcard())
            elif value.isdigit():
                raise ValueError(f"concrete index in construct {text!r}")
            else:
                raise ValueError(f"invalid index [{value}] in construct {text!r}")
        elif value.startswith("<") and value.endswith(">") and value[1:-1] in PLACEHOLDER_KINDS:
            out.append(Placeholder(value[1:-1]))
        else:
            out.append(Key(value))
    return tuple(out)


def _segment_token(segment: AbstractSegment) -> str:
    if isinstance(segment, Key):
        return segment.name
    if isinstance(segment, Wildcard):
        return "[*]"
    return f"<{segment.kind}>"


def _strings(value, what: str) -> list[str]:
    return [expect(item, str, f"{what} item") for item in expect(value, list, what)]


def _prefix_from_tokens(tokens: list[str]) -> Construct:
    out: list[AbstractSegment] = []
    for token in tokens:
        if token == "[*]":
            out.append(Wildcard())
        elif token.startswith("<") and token.endswith(">"):
            out.append(Placeholder(token[1:-1]))
        else:
            out.append(Key(token))
    return tuple(out)


def ruleset_from_data(data: list[dict]) -> AbstractionRuleSet:
    rules = []
    for item in expect(data, list, "abstraction rules"):
        kind = expect(item, dict, "abstraction rule")["kind"]
        if kind not in PLACEHOLDER_KINDS:
            raise ValueError(f"unknown placeholder kind {kind!r}")
        rules.append(
            AbstractionRule(
                prefix=_prefix_from_tokens(_strings(item["prefix"], "rule prefix")),
                kind=kind,
                except_keys=frozenset(_strings(item.get("except", []), "rule except keys")),
            )
        )
    return AbstractionRuleSet(tuple(rules))


def ruleset_to_data(rules: AbstractionRuleSet) -> list[dict]:
    out = []
    for rule in rules.rules:
        item: dict = {"prefix": [_segment_token(s) for s in rule.prefix], "kind": rule.kind}
        if rule.except_keys:
            item["except"] = sorted(rule.except_keys)
        out.append(item)
    return out


def default_ruleset() -> AbstractionRuleSet:
    """The rule table bundled with the default catalog."""
    from .catalog import default_catalog  # the catalog module imports this one

    return default_catalog().rules
