"""Workflow documents as trees of addressable YAML paths.

A *path* names one YAML node by the chain of mapping keys and sequence
indices leading to it, e.g. ``jobs.build.steps[0].uses``.  Interior mapping
keys are paths too; scalar values are payload carried by their owning path,
not paths of their own.  The document root is not a path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Union

import yaml


class WorkflowParseError(ValueError):
    """A workflow document could not be parsed into a tree."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True, slots=True)
class Key:
    """A mapping-key path segment."""

    name: str


@dataclass(frozen=True, slots=True)
class Index:
    """A sequence-index path segment."""

    position: int


Segment = Union[Key, Index]
ConcretePath = tuple[Segment, ...]


@dataclass(frozen=True, slots=True)
class Scalar:
    value: object
    kind: str  # string | int | float | bool | null


@dataclass(frozen=True, slots=True)
class Mapping:
    entries: tuple[tuple[str, "Node"], ...]


@dataclass(frozen=True, slots=True)
class Sequence:
    items: tuple["Node", ...]


Node = Union[Mapping, Sequence, Scalar]


@dataclass(frozen=True, slots=True)
class WorkflowTree:
    """Parsed workflow document; the root is always a mapping."""

    root: Mapping


MAX_DEPTH = 256
"""Deepest collection nesting accepted, the root mapping being level 1."""

MAX_PATHS = 200_000
"""Most paths a document may hold once its aliases are expanded."""

_BOOL_WORDS = yaml.constructor.SafeConstructor.bool_values
_SCALAR_KINDS = {
    "tag:yaml.org,2002:str": "string",
    "tag:yaml.org,2002:int": "int",
    "tag:yaml.org,2002:float": "float",
    "tag:yaml.org,2002:bool": "bool",
    "tag:yaml.org,2002:null": "null",
}

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# The composer recurses once per nesting level: libyaml's in C, where about
# 100,000 levels crash the process, and the pure-Python one on the Python
# stack.  Every collection start needs one of these characters, so their
# count bounds the depth; only a text over the bound gets an event-level
# depth check before it is composed.
_NESTING_CHARS = "[{-?:"
_UNCHECKED_NESTING = MAX_DEPTH if _LOADER is yaml.SafeLoader else 10_000

_PLAIN = object()
"""The tag a plain scalar keeps until :func:`_tag` resolves it where it is read."""
_RESOLVER = yaml.resolver.Resolver()
_BOOL_TAG = "tag:yaml.org,2002:bool"


@lru_cache(maxsize=None)
def _kernel_loader(base: type) -> type:
    """``base`` without implicit tag resolution.

    A plain scalar is tagged :data:`_PLAIN` and any other node gets the tag
    the full resolver gives it without reading its text.  No path resolvers
    are registered, so descending and ascending do nothing.
    """

    class KernelLoader(base):
        def resolve(self, kind, value, implicit):
            if kind is yaml.ScalarNode:
                return _PLAIN if implicit[0] else self.DEFAULT_SCALAR_TAG
            if kind is yaml.SequenceNode:
                return self.DEFAULT_SEQUENCE_TAG
            return self.DEFAULT_MAPPING_TAG

        def descend_resolver(self, current_node, current_index):
            pass

        def ascend_resolver(self):
            pass

    return KernelLoader


def _mark_of(node: yaml.Node) -> tuple[int, int]:
    mark = node.start_mark
    return mark.line + 1, mark.column + 1


def _error_at(node: yaml.Node, message: str) -> WorkflowParseError:
    return WorkflowParseError(message, *_mark_of(node))


def _too_deep(node: yaml.Node | yaml.Event) -> WorkflowParseError:
    return _error_at(node, f"collections nested deeper than {MAX_DEPTH} levels")


def _too_many_paths(node: yaml.Node) -> WorkflowParseError:
    return _error_at(node, f"more than {MAX_PATHS} paths after alias expansion")


def _cycle(node: yaml.Node) -> WorkflowParseError:
    return _error_at(node, "recursive alias cycle")


def _duplicate_key(node: yaml.Node, key: str) -> WorkflowParseError:
    return _error_at(node, f"duplicate mapping key {key!r}")


def _tag(node: yaml.ScalarNode) -> str:
    """The tag the full resolver gives ``node``, resolved only when read."""
    if node.tag is _PLAIN:
        return _RESOLVER.resolve(yaml.ScalarNode, node.value, (True, False))
    return node.tag


def _scalar_value(node: yaml.ScalarNode) -> Scalar:
    kind = _SCALAR_KINDS.get(_tag(node), "string")
    text = node.value
    if kind == "bool":
        # An explicit !!bool tag may sit on any text.
        value = _BOOL_WORDS.get(text.lower())
        return Scalar(text, "string") if value is None else Scalar(value, "bool")
    if kind == "null":
        return Scalar(None, "null")
    if kind == "int":
        try:
            return Scalar(int(text.replace("_", ""), 0), "int")
        except ValueError:
            return Scalar(text, "string")
    if kind == "float":
        try:
            return Scalar(float(text.replace("_", "")), "float")
        except ValueError:
            return Scalar(text, "string")
    # Timestamps and any exotic resolved tags are kept as raw strings.
    return Scalar(text, "string")


def _key_text(node: yaml.Node, top_level: bool) -> str:
    if not isinstance(node, yaml.ScalarNode):
        raise _error_at(node, "mapping keys must be scalars")
    text = node.value
    # YAML 1.1 resolves bare on/yes/true (any case) to booleans.  The
    # platform reads such a top-level key as the trigger table, so it is
    # normalized to the literal key "on"; everywhere else the raw spelling
    # is kept, which also keeps off/no/false keys as strings.
    if top_level and _tag(node) == _BOOL_TAG and _BOOL_WORDS.get(text.lower()):
        return "on"
    return text


def _check_depth(text: str) -> None:
    """Reject nesting past :data:`MAX_DEPTH` from parser events, which need no recursion."""
    depth = 0
    for event in yaml.parse(text, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_DEPTH:
                raise _too_deep(event)
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def compose_workflow(text: str) -> yaml.MappingNode:
    """Compose one YAML document into its root node, with libyaml when available.

    A UTF-8 BOM is tolerated.  Syntax errors, empty and multi-document
    streams, and non-mapping roots raise :class:`WorkflowParseError`, as
    does nesting past :data:`MAX_DEPTH` in a text large enough to reach
    the composer's recursion limit.  Anchors are not expanded here, and
    plain scalars keep an unresolved tag that only :func:`_tag` may read.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    try:
        if sum(map(text.count, _NESTING_CHARS)) > _UNCHECKED_NESTING:
            _check_depth(text)
        documents = list(yaml.compose_all(text, Loader=_kernel_loader(_LOADER)))
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        problem = exc.problem or str(exc)
        if mark is not None:
            raise WorkflowParseError(problem, mark.line + 1, mark.column + 1) from exc
        raise WorkflowParseError(problem) from exc
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml encodes: lone surrogates fail
        raise WorkflowParseError(str(exc)) from exc
    documents = [d for d in documents if d is not None]
    if not documents:
        raise WorkflowParseError("empty document")
    if len(documents) > 1:
        raise WorkflowParseError("multi-document streams are not supported")
    root = documents[0]
    if not isinstance(root, yaml.MappingNode):
        raise _error_at(root, "workflow document must be a mapping")
    return root


def _convert(root: yaml.MappingNode) -> Mapping:
    """Build the tree, expanding aliases, within the depth and path budgets."""
    active: set[int] = set()
    n_paths = 0

    def convert(node: yaml.Node, top_level: bool, depth: int) -> Node:
        nonlocal n_paths
        if id(node) in active:
            raise _cycle(node)
        if isinstance(node, yaml.ScalarNode):
            return _scalar_value(node)
        if depth > MAX_DEPTH:
            raise _too_deep(node)
        active.add(id(node))
        try:
            if isinstance(node, yaml.SequenceNode):
                items: list[Node] = []
                for item in node.value:
                    n_paths += 1
                    if n_paths > MAX_PATHS:
                        raise _too_many_paths(item)
                    items.append(convert(item, False, depth + 1))
                return Sequence(tuple(items))
            assert isinstance(node, yaml.MappingNode)
            entries: list[tuple[str, Node]] = []
            seen: set[str] = set()
            for key_node, value_node in node.value:
                key = _key_text(key_node, top_level)
                if key in seen:
                    raise _duplicate_key(key_node, key)
                seen.add(key)
                n_paths += 1
                if n_paths > MAX_PATHS:
                    raise _too_many_paths(key_node)
                entries.append((key, convert(value_node, False, depth + 1)))
            return Mapping(tuple(entries))
        finally:
            active.discard(id(node))

    converted = convert(root, True, 1)
    assert isinstance(converted, Mapping)
    return converted


def parse_workflow(text: str) -> WorkflowTree:
    """Parse one YAML document into a :class:`WorkflowTree`.

    Anchors and aliases are expanded; duplicate mapping keys, multi-document
    streams, and non-mapping roots are rejected.  A UTF-8 BOM is tolerated.
    Nesting past :data:`MAX_DEPTH` and more than :data:`MAX_PATHS` paths
    are rejected at the node where the budget runs out.
    """
    return WorkflowTree(_convert(compose_workflow(text)))


def read_workflow_text(path: str | Path) -> str:
    """The text of a workflow file; undecodable bytes raise :class:`WorkflowParseError`."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise WorkflowParseError(f"cannot decode file as UTF-8: {exc}") from exc


def parse_workflow_file(path: str | Path) -> WorkflowTree:
    return parse_workflow(read_workflow_text(path))


def enumerate_paths(tree: WorkflowTree) -> list[ConcretePath]:
    """All paths of the tree in document order (pre-order).

    One path per mapping entry and per sequence item at every depth, so the
    count equals the number of mapping entries plus sequence items.
    """
    out: list[ConcretePath] = []

    def walk(node: Node, prefix: ConcretePath) -> None:
        if isinstance(node, Mapping):
            for key, child in node.entries:
                path = prefix + (Key(key),)
                out.append(path)
                walk(child, path)
        elif isinstance(node, Sequence):
            for i, item in enumerate(node.items):
                path = prefix + (Index(i),)
                out.append(path)
                walk(item, path)

    walk(tree.root, ())
    return out


def render_path(path: ConcretePath) -> str:
    """Dotted rendering: keys joined with ``.``, indices as ``[i]``.

    Keys are rendered raw, so rendering is not injective for keys containing
    ``.`` or ``[``; the segment tuple is the canonical identity.
    """
    if not path:
        raise ValueError("cannot render an empty path")
    parts: list[str] = []
    for segment in path:
        if isinstance(segment, Key):
            parts.append(("." if parts else "") + segment.name)
        else:
            parts.append(f"[{segment.position}]")
    return "".join(parts)


def parse_path(text: str) -> ConcretePath:
    """Inverse of :func:`render_path` on rendered strings.

    ``render(parse(render(p))) == render(p)`` always holds; segment-level
    round-tripping holds for keys without ``.`` or ``[``.
    """
    segments = _parse_segments(text)
    out: list[Segment] = []
    for kind, value in segments:
        if kind == "key":
            out.append(Key(value))
        else:
            if not value.isdigit():
                raise ValueError(f"invalid sequence index [{value}] in path {text!r}")
            out.append(Index(int(value)))
    return tuple(out)


def _parse_segments(text: str) -> list[tuple[str, str]]:
    """Split a rendered path into (kind, text) pairs, kind in {key, index}."""
    if not text:
        raise ValueError("empty path string")
    out: list[tuple[str, str]] = []
    i = 0
    expect_key = True
    while i < len(text):
        ch = text[i]
        if ch == "[" and not expect_key:
            end = text.find("]", i)
            if end < 0:
                raise ValueError(f"unterminated index in path {text!r}")
            out.append(("index", text[i + 1 : end]))
            i = end + 1
            continue
        if ch == "." and not expect_key:
            expect_key = True
            i += 1
            continue
        if not expect_key:
            raise ValueError(f"malformed path {text!r} at offset {i}")
        end = i
        while end < len(text) and text[end] not in ".[":
            end += 1
        out.append(("key", text[i:end]))
        expect_key = False
        i = end
    if expect_key:
        raise ValueError(f"malformed path {text!r}: trailing separator")
    return out


_SUFFIXES = (".yml", ".yaml")


def discover_workflow_files(root: str | Path) -> list[Path]:
    """Workflow files under ``root``, sorted for deterministic processing.

    A repository checkout contributes ``.github/workflows/*.yml`` and
    ``*.yaml`` (case-sensitive extensions).  A directory without any
    ``.github/workflows`` folder is treated as a flat collection and yields
    every ``*.yml``/``*.yaml`` beneath it.  Symlinked directories are not
    descended into, but a symlinked ``.github`` or ``workflows`` is read.
    """
    base = Path(root)
    if base.is_file():
        return [base]
    canonical: list[Path] = []
    flat: list[str] = []
    for dirpath, dirnames, filenames in os.walk(base):
        flat.extend(os.path.join(dirpath, name) for name in filenames if name.endswith(_SUFFIXES))
        if ".github" in dirnames:
            canonical.extend(_workflow_files(os.path.join(dirpath, ".github", "workflows")))
    if canonical:
        return sorted(canonical)
    return sorted(Path(p) for p in flat if os.path.isfile(p))


def _workflow_files(directory: str) -> list[Path]:
    try:
        with os.scandir(directory) as entries:
            return [Path(e.path) for e in entries if e.name.endswith(_SUFFIXES) and e.is_file()]
    except OSError:
        return []
