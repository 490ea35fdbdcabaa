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
from .model import ConcretePath, Index, Key, _render, _segment_text, _tokenize

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
    return _render(construct)


def parse_construct(text: str) -> Construct:
    """Parse a rendered construct such as ``jobs.<id>.steps[*].uses``."""
    out: list[AbstractSegment] = []
    for kind, value in _tokenize(text):
        if kind == "key":
            out.append(_segment(value))
        elif value == "*":
            out.append(_WILDCARD)
        elif value.isdecimal():
            raise ValueError(f"concrete index in construct {text!r}")
        else:
            raise ValueError(f"invalid index [{value}] in construct {text!r}")
    return tuple(out)


_WILDCARD = Wildcard()


@lru_cache(maxsize=4096)
def _segment(token: str) -> Key | Placeholder:
    """The shared segment for a rendered key or placeholder."""
    if token.startswith("<") and token.endswith(">") and token[1:-1] in PLACEHOLDER_KINDS:
        return Placeholder(token[1:-1])
    return Key(token)


def _strings(value, what: str) -> list[str]:
    return [expect(item, str, f"{what} item") for item in expect(value, list, what)]


def _prefix_segment(token: str) -> AbstractSegment:
    """A rule-prefix segment from its text; ``<kind>`` must name a placeholder kind."""
    if token == "[*]":
        return _WILDCARD
    if token.startswith("<") and token.endswith(">"):
        return Placeholder(token[1:-1])
    return Key(token)


def ruleset_from_data(data: list[dict]) -> AbstractionRuleSet:
    rules = []
    for item in expect(data, list, "abstraction rules"):
        kind = expect(item, dict, "abstraction rule")["kind"]
        if kind not in PLACEHOLDER_KINDS:
            raise ValueError(f"unknown placeholder kind {kind!r}")
        rules.append(
            AbstractionRule(
                prefix=tuple(map(_prefix_segment, _strings(item["prefix"], "rule prefix"))),
                kind=kind,
                except_keys=frozenset(_strings(item.get("except", []), "rule except keys")),
            )
        )
    return AbstractionRuleSet(tuple(rules))


def ruleset_to_data(rules: AbstractionRuleSet) -> list[dict]:
    out = []
    for rule in rules.rules:
        item: dict = {"prefix": [_segment_text(s, True) for s in rule.prefix], "kind": rule.kind}
        if rule.except_keys:
            item["except"] = sorted(rule.except_keys)
        out.append(item)
    return out


def default_ruleset() -> AbstractionRuleSet:
    """The rule table bundled with the default catalog."""
    from .catalog import default_catalog  # the catalog module imports this one

    return default_catalog().rules
