"""Workflow documents as trees of addressable YAML paths.

A *path* names one YAML node by the chain of mapping keys and sequence
indices leading to it, e.g. ``jobs.build.steps[0].uses``.  Interior mapping
keys are paths too; scalar values are payload carried by their owning path,
not paths of their own.  The document root is not a path.
"""

from __future__ import annotations

import os
from collections.abc import Callable
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


class Key(tuple):
    """A mapping-key path segment, the tuple ``("key", name)``.

    Segments are tuples tagged by their kind, so paths and constructs hash
    and compare in C and segments of different kinds never compare equal.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> Key:
        return tuple.__new__(cls, ("key", name))

    @property
    def name(self) -> str:
        return self[1]

    def __getnewargs__(self) -> tuple[str]:
        return (self[1],)

    def __repr__(self) -> str:
        return f"Key(name={self[1]!r})"


class Index(tuple):
    """A sequence-index path segment, the tuple ``("index", position)``."""

    __slots__ = ()

    def __new__(cls, position: int) -> Index:
        return tuple.__new__(cls, ("index", position))

    @property
    def position(self) -> int:
        return self[1]

    def __getnewargs__(self) -> tuple[int]:
        return (self[1],)

    def __repr__(self) -> str:
        return f"Index(position={self[1]!r})"


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

MAX_CHARS = 64 * MAX_PATHS
"""Most characters a workflow file may hold, counted in text mode after decoding.

Generated research-shaped workflows hold about 19 characters per path and
none more than 25, so 64 per path lets a file written out to the path
budget without aliases fit, while reading any file costs at most this
much text.
"""

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


def _convert(node: yaml.Node, top_level: bool) -> Node:
    """The tree of a node graph that ``scan._walk`` has checked, aliases expanded.

    Loops, not comprehensions: on Python 3.10 and 3.11 a comprehension is a
    frame of its own, and this needs only about :data:`MAX_DEPTH` frames.
    """
    if isinstance(node, yaml.ScalarNode):
        return _scalar_value(node)
    if isinstance(node, yaml.SequenceNode):
        items: list[Node] = []
        for item in node.value:
            items.append(_convert(item, False))
        return Sequence(tuple(items))
    entries: list[tuple[str, Node]] = []
    for key_node, value_node in node.value:
        entries.append((_key_text(key_node, top_level), _convert(value_node, False)))
    return Mapping(tuple(entries))


def parse_workflow(text: str) -> WorkflowTree:
    """Parse one YAML document into a :class:`WorkflowTree`.

    Anchors and aliases are expanded; repeated mapping keys, multi-document
    streams, and non-mapping roots are rejected.  A UTF-8 BOM is tolerated.
    Nesting past :data:`MAX_DEPTH` and more than :data:`MAX_PATHS` paths
    are rejected at the node where the budget runs out.  The checks are the
    scan walk's, so this raises the first error ``scan_text`` reports.
    """
    from .catalog import default_catalog  # both modules import this one
    from .scan import _walk

    root = compose_workflow(text)
    _walk(root, default_catalog().index)
    return WorkflowTree(_convert(root, True))


def read_workflow_text(path: str | Path) -> str:
    """The text of a workflow file.

    Undecodable bytes and more than :data:`MAX_CHARS` characters raise
    :class:`WorkflowParseError`; at most one character past the budget is read.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read(MAX_CHARS + 1)
    except UnicodeDecodeError as exc:
        raise WorkflowParseError(f"cannot decode file as UTF-8: {exc}") from exc
    if len(text) > MAX_CHARS:
        raise WorkflowParseError(f"file holds more than {MAX_CHARS} characters")
    return text


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


def _segment_text(segment: tuple, first: bool) -> str:
    """``name``, ``<kind>``, ``[i]`` or ``[*]``; a key or ``<kind>`` after another segment takes a ``.``."""
    tag = segment[0]
    if tag == "key":
        name = segment[1]
    elif tag == "placeholder":
        name = f"<{segment[1]}>"
    else:
        return "[*]" if tag == "wildcard" else f"[{segment[1]}]"
    return name if first else "." + name


def _render(segments: tuple) -> str:
    """The text of a path or construct, one :func:`_segment_text` per segment."""
    return "".join([_segment_text(segment, not i) for i, segment in enumerate(segments)])


def _tokenize(text: str) -> list[tuple[str, str]]:
    """Split a rendered path or construct into ``("key" | "index", text)`` pairs.

    Keys, which may be empty, are joined by ``.``; each may be followed by
    indices, the text from a ``[`` to the next ``]``, which may hold ``.``.
    """
    if not text:
        raise ValueError("empty path string")
    out: list[tuple[str, str]] = []
    at = 0  # the offset of part in text
    parts = iter(text.split("."))
    for part in parts:
        start = part.find("[")
        if start < 0:
            out.append(("key", part))
        else:
            out.append(("key", part[:start]))
            while start < len(part):
                if part[start] != "[":
                    raise ValueError(f"malformed path {text!r} at offset {at + start}")
                end = part.find("]", start)
                while end < 0 and (more := next(parts, None)) is not None:
                    part += "." + more
                    end = part.find("]", start)
                if end < 0:
                    raise ValueError(f"unterminated index in path {text!r}")
                out.append(("index", part[start + 1 : end]))
                start = end + 1
        at += len(part) + 1
    if not part:
        raise ValueError(f"malformed path {text!r}: trailing separator")
    return out


def render_path(path: ConcretePath) -> str:
    """Dotted rendering: keys joined with ``.``, indices as ``[i]``.

    Keys are rendered raw, so rendering is not injective for keys containing
    ``.`` or ``[``; the segment tuple is the canonical identity.
    """
    if not path:
        raise ValueError("cannot render an empty path")
    return _render(path)


def parse_path(text: str) -> ConcretePath:
    """Inverse of :func:`render_path` on rendered strings.

    Round-tripping holds for keys without ``.`` or ``[``; a key with one
    may read back as other segments, or not parse.
    """
    out: list[Segment] = []
    for kind, value in _tokenize(text):
        if kind == "key":
            out.append(Key(value))
        elif value.isdecimal():
            out.append(Index(int(value)))
        else:
            raise ValueError(f"invalid sequence index [{value}] in path {text!r}")
    return tuple(out)


_SUFFIXES = (".yml", ".yaml")
# Where a directory lies: a walked directory's .github, the workflows
# folder in one, or anywhere else.
_OUTSIDE, _GITHUB, _WORKFLOWS = range(3)


def discover_workflow_files(root: str | Path) -> list[str]:
    """Workflow files under ``root``, sorted for deterministic processing.

    A repository checkout contributes ``.github/workflows/*.yml`` and
    ``*.yaml`` (case-sensitive extensions).  A directory without any
    ``.github/workflows`` folder is treated as a flat collection and yields
    every ``*.yml``/``*.yaml`` beneath it.  Symlinked directories are not
    descended into, but a symlinked ``.github`` or ``workflows`` is read.

    Each directory is listed once.  Names start with ``str(Path(root))``
    and sort by path component, as :class:`~pathlib.Path` objects would.
    """
    base = str(Path(root))
    if os.path.isfile(base):
        return [base]
    canonical: list[str] = []
    flat: list[str] = []
    stack = [(base, _OUTSIDE)]
    while stack:
        top, place = stack.pop()
        prefix = "" if top == "." else os.path.join(top, "")
        try:
            with os.scandir(top) as listing:
                entries = list(listing)
        except OSError:
            continue
        for entry in entries:
            name = entry.name
            path = prefix + name
            if _holds(entry.is_dir):
                if name == ".github":
                    inner = _GITHUB
                elif name == "workflows" and place == _GITHUB:
                    inner = _WORKFLOWS
                else:
                    inner = _OUTSIDE
                if not entry.is_symlink():
                    stack.append((path, inner))
                elif inner == _GITHUB:
                    canonical.extend(_workflow_files(os.path.join(path, "workflows")))
                elif inner == _WORKFLOWS:
                    canonical.extend(_workflow_files(path))
            elif name.endswith(_SUFFIXES) and _holds(entry.is_file):
                flat.append(path)
                if place == _WORKFLOWS:
                    canonical.append(path)
    return sorted(canonical or flat, key=_components)


def _holds(test: Callable[[], bool]) -> bool:
    """``test()``, or False where it raises :class:`OSError`, as :func:`os.walk` reads it."""
    try:
        return test()
    except OSError:
        return False


def _components(path: str) -> list[str]:
    return path.split(os.sep)


def _workflow_files(directory: str) -> list[str]:
    """The workflow files in a symlinked ``.github/workflows``, which the walk does not enter."""
    try:
        with os.scandir(directory) as entries:
            return [e.path for e in entries if e.name.endswith(_SUFFIXES) and _holds(e.is_file)]
    except OSError:
        return []
