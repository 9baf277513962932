"""AMR graph data model and PENMAN-notation reader/writer.

An AMR is a rooted, directed, labeled graph: variable-bearing nodes carry
concept labels, constant nodes carry literals (numbers, quoted strings,
polarity ``-``/``+``, bare keywords like ``imperative``), and edges carry
``:``-prefixed relation labels.  Variable names are preserved on parse but
carry no meaning; graph equality is isomorphism, never name equality.

Edge order is significant: it is kept exactly as written in the source text
and drives both serialization and linearization downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import AmrkitError

__all__ = [
    "AmrGraph",
    "Node",
    "Edge",
    "Triple",
    "MalformedPenman",
    "parse_penman",
    "serialize_penman",
    "to_triples",
    "read_amr_text",
    "read_amr_file",
    "write_amr_file",
    "graphs_to_text",
]


class MalformedPenman(AmrkitError):
    """The text is not a well-formed PENMAN expression.

    Callers holding model output should route the tokens through
    ``amrkit.repair`` instead of parsing directly.
    """


@dataclass(frozen=True)
class Node:
    """One graph node. Constants hold their literal in ``concept``; their
    ``id`` is internal bookkeeping only and never appears in output."""

    id: str
    concept: str
    constant: bool = False


@dataclass(frozen=True)
class Edge:
    src: str
    label: str
    tgt: str


@dataclass(frozen=True)
class Triple:
    """Smatch-style decomposition unit.

    kind is one of ``instance`` (variable / concept), ``attribute``
    (variable / constant value, including the synthetic TOP), or
    ``relation`` (variable / variable).  Labels carry no ``:`` prefix.
    """

    kind: str
    src: str
    label: str
    tgt: str


# The atom rule (all patterns are matched whole): an unquoted concept or
# constant is not ``:``-prefixed, is not a variable token ``<Vn>`` of the
# linear form, and holds no whitespace and none of ``()/"``.  A
# double-quoted literal is what the PENMAN and line tokenizers read as one:
# a backslash escapes the next character, and no other ``"`` may occur
# inside.  Only a constant may be one.  Relation labels are ``:`` plus the
# same characters as an unquoted atom.
_BARE = r'[^\s()/"]+'
VAR_TOKEN_RE = re.compile(r"<V(\d+)>")
ATOM_RE = re.compile(rf"(?!:|{VAR_TOKEN_RE.pattern}\Z){_BARE}")
QUOTED_RE = re.compile(r'"(?:[^"\\]|\\(?s:.))*"')
LABEL_RE = re.compile(f":{_BARE}")


def _check_atoms(nodes: Iterable[Node]) -> None:
    """Raise ValueError at the first node whose concept breaks the atom rule."""
    for n in nodes:
        if not (ATOM_RE.fullmatch(n.concept) or n.constant and QUOTED_RE.fullmatch(n.concept)):
            raise ValueError(f"node {n.id!r}: {n.concept!r} breaks the atom rule")


@dataclass(frozen=True)
class AmrGraph:
    """Immutable rooted graph. ``nodes`` and ``edges`` preserve construction
    order; ``metadata`` holds ``# ::key value`` fields keyed by name.  Both
    readers build a graph with ``build_graph``: its variables in definition
    order, then one constant node per distinct literal in first-mention
    order, whose id is the literal with ``_`` appended until it is free of
    every variable id and every earlier constant id."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    root: str
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_id", {n.id: n for n in self.nodes})
        out: dict[str, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(e.src, []).append(e)
        object.__setattr__(self, "_out", out)

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def outgoing(self, node_id: str) -> list[Edge]:
        return self._out.get(node_id, [])

    def var_nodes(self) -> list[Node]:
        return [n for n in self.nodes if not n.constant]

    def check(self) -> "AmrGraph":
        """Validate the metadata, the structural invariants and the atom
        rule, returning self.

        Raises ValueError on the first violation.  ``parse_penman`` and
        ``delinearize`` return graphs that pass it by construction; it is
        for graphs built any other way.
        """
        _check_metadata(self.metadata)
        self._check_unique_ids()
        if self.root not in self._by_id or self.node(self.root).constant:
            raise ValueError("root must name a variable-bearing node")
        _check_atoms(self.nodes)
        for e in self.edges:
            if not LABEL_RE.fullmatch(e.label):
                raise ValueError(f"invalid edge label {e.label!r}")
            if e.src not in self._by_id or e.tgt not in self._by_id:
                raise ValueError(f"edge {e} names a missing node")
            if self.node(e.src).constant:
                raise ValueError(f"constant node {e.src!r} has an outgoing edge")
        for _ in self.walk():
            pass
        return self

    def walk(self) -> Iterator[tuple[str | None, Node, bool] | None]:
        """The depth-first, first-visit walk from the root that every writer
        formats.  Steps are ``(label, node, opens)``: the root comes first,
        with label None; then each edge of an open node, in edge-list order,
        whose target opens (and its edges follow) if it is a variable not
        reached before; a ``None`` step closes the innermost open node.
        After the last step, raises ValueError on duplicate node
        identifiers, which a walk keyed by id cannot see, or naming the
        nodes not reached: neither opened nor the target of an edge of an
        opened node."""
        reached = {self.root}
        yield None, self.node(self.root), True
        stack = [iter(self.outgoing(self.root))]  # remaining edges of the open nodes
        while stack:
            for e in stack[-1]:
                tgt = self.node(e.tgt)
                opens = not (tgt.constant or e.tgt in reached)
                reached.add(e.tgt)
                yield e.label, tgt, opens
                if opens:
                    stack.append(iter(self.outgoing(e.tgt)))
                    break
            else:
                stack.pop()
                yield None
        self._check_unique_ids()
        if len(reached) != len(self._by_id):
            raise ValueError(f"nodes unreachable from root: {sorted(self._by_id.keys() - reached)}")

    def _check_unique_ids(self) -> None:
        if len(self._by_id) != len(self.nodes):
            raise ValueError("duplicate node identifiers")


# ---------------------------------------------------------------------------
# Tokenization

_META_FIELD_RE = re.compile(r"::(\S+)")
_META_KEY_RE = re.compile(r"\S+")
_PENMAN_TOKEN_RE = re.compile(rf'\s*([()/]|{QUOTED_RE.pattern}|{_BARE}|")')


def _tokenize_penman(text: str) -> list[str]:
    r"""Split a PENMAN body into tokens: parens, slashes, quoted strings
    (kept whole, backslash escapes honored), and bare atoms, each match
    taking the whitespace before its token.  Trailing whitespace, which
    ``\s*`` would rescan from each of its characters, is stripped first.
    A quote that no closing quote matches comes back alone and is rejected."""
    tokens = _PENMAN_TOKEN_RE.findall(text.rstrip())
    if '"' in tokens:
        raise MalformedPenman("unterminated string literal")
    return tokens


def split_lines(text: str) -> list[str]:
    r"""The lines of ``text``, split at ``\n`` (and ``\r\n``) only.
    ``str.splitlines`` also splits at U+0085, U+2028 and other separators,
    which a quoted constant or a metadata value may hold."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _split_metadata(text: str) -> tuple[dict[str, str], str]:
    """The ``# ::key value`` fields of the comment lines (split at ``\\n``)
    that open ``text``, and the rest of it as written: a quoted literal
    in the body may hold a line break, or a line that starts with ``#``."""
    meta: dict[str, str] = {}
    start = 0
    while start < len(text):
        stop = text.find("\n", start) + 1 or len(text)
        stripped = text[start:stop].strip()
        if stripped and not stripped.startswith("#"):
            break
        rest = stripped.lstrip("#").strip()
        fields = list(_META_FIELD_RE.finditer(rest))
        for k, m in enumerate(fields):
            end = fields[k + 1].start() if k + 1 < len(fields) else len(rest)
            meta[m.group(1)] = rest[m.end() : end].strip()
        start = stop
    return meta, text[start:]


def _check_metadata(meta: dict[str, str]) -> None:
    """Raise ValueError naming the first field that would not read back from
    its ``# ::key value`` line: a key that is not a string of non-whitespace
    characters, or a value that is not a string without line breaks, outer
    whitespace or a ``::`` field marker."""
    for k, v in meta.items():
        if not (isinstance(k, str) and _META_KEY_RE.fullmatch(k) and isinstance(v, str)
                and "\n" not in v and v == v.strip() and not _META_FIELD_RE.search(v)):
            raise ValueError(f"metadata field {k!r} does not read back as a '# ::' line")


# ---------------------------------------------------------------------------
# Parsing

def build_graph(variables: dict[str, tuple[str, str]], raw_edges: Iterable[tuple[str, str, str]],
                metadata: dict[str, str]) -> AmrGraph:
    """The graph of a reader's ``variables``, each variable's token mapped
    to its ``(node id, concept)`` in definition order (the root first), and
    ``raw_edges``, each relation's ``(source token, label, target token)``
    in reading order, where a target that is no variable's token is a
    literal.  Node order and constant ids follow ``AmrGraph``'s rule."""
    ids = {tok: vid for tok, (vid, _) in variables.items()}  # token -> node id
    nodes = [Node(vid, concept) for vid, concept in variables.values()]
    taken = set(ids.values())
    edges = []
    for src, label, tgt in raw_edges:
        if tgt not in ids:  # a literal read for the first time
            cid = tgt
            while cid in taken:
                cid += "_"
            taken.add(cid)
            ids[tgt] = cid
            nodes.append(Node(cid, tgt, constant=True))
        edges.append(Edge(ids[src], label, ids[tgt]))
    return AmrGraph(tuple(nodes), tuple(edges), nodes[0].id, metadata)


def parse_penman(text: str) -> AmrGraph:
    """Parse one PENMAN expression (optionally preceded by ``# ::`` metadata
    lines; comment lines after the expression begins are not read as
    metadata) into an AmrGraph.

    The parser is strict: unbalanced parentheses, a variable definition with
    no ``/ concept``, duplicate variable definitions, trailing content, or a
    variable name, concept or constant that breaks the atom rule
    (``(:a / b)``, ``(a / :foo)``, a constant ``<V1>``) all raise
    MalformedPenman.  Re-entrant variable mentions (including forward
    references) become additional edges to the one node.  The graph, built
    by ``build_graph``, passes ``AmrGraph.check`` by construction.
    """
    meta, body = _split_metadata(text)
    tokens = _tokenize_penman(body)
    if not tokens:
        raise MalformedPenman("empty input")

    variables: dict[str, tuple[str, str]] = {}  # name -> (name, concept)
    # (src_var, label, raw_target) in textual order
    raw_edges: list[tuple[str, str, str]] = []
    stack: list[str] = []  # variables of the open nodes, innermost last
    pos = 0
    try:
        while True:  # tokens[pos] opens a group: the root or a relation's value
            if tokens[pos] != "(":
                raise MalformedPenman(f"expected '(' but found {tokens[pos]!r}")
            var = tokens[pos + 1]
            # a token is one of ()/, a quoted literal or a bare run free of
            # whitespace and ()/": the atom rule leaves ':' and <Vn> to test
            if var[0] in '()/":' or var[0] == "<" and VAR_TOKEN_RE.fullmatch(var):
                raise MalformedPenman(f"expected variable name, found {var!r}")
            if tokens[pos + 2] != "/":
                raise MalformedPenman(f"missing '/' after variable {var!r}")
            concept = tokens[pos + 3]
            if concept in "()/" or concept.startswith('"'):
                raise MalformedPenman(f"missing concept after '/' for {var!r}")
            if var in variables:
                raise MalformedPenman(f"duplicate definition of variable {var!r}")
            variables[var] = (var, concept)
            if stack:
                raw_edges.append((stack[-1], tokens[pos - 1], var))
            stack.append(var)
            pos += 4
            while stack:  # relations and ')' up to the next group
                label = tokens[pos]
                pos += 1
                if label == ")":
                    stack.pop()
                    continue
                if not label.startswith(":") or label == ":":
                    raise MalformedPenman(f"expected relation or ')', found {label!r}")
                val = tokens[pos] if pos < len(tokens) else ")"  # at the end: no value
                if val == "(":
                    break
                if val == ")" or val == "/" or val.startswith(":"):
                    raise MalformedPenman(f"relation {label!r} has no value")
                raw_edges.append((stack[-1], label, val))
                pos += 1
            else:
                break
    except IndexError:
        raise MalformedPenman("unexpected end of input (unbalanced parentheses)") from None
    if pos != len(tokens):
        raise MalformedPenman(f"trailing content after graph: {tokens[pos]!r}")

    g = build_graph(variables, raw_edges, meta)
    try:
        _check_atoms(g.nodes)
    except ValueError as exc:
        raise MalformedPenman(str(exc)) from exc
    return g


# ---------------------------------------------------------------------------
# Serialization

def serialize_penman(g: AmrGraph) -> str:
    """Render a graph as a single-line PENMAN string (plus metadata header
    lines when present), formatting the steps of ``AmrGraph.walk``: a node
    that opens is written ``(name / concept``, a later mention of a
    variable as its name and a constant as its literal.  Whitespace is
    normalized.

    A variable named like a bare constant of the graph would read back as a
    mention of that variable, so it is written with ``_`` appended until
    its name is free.  Metadata that would not read back as written, and
    the walk's unreachable nodes and duplicate ids, raise ValueError."""
    _check_metadata(g.metadata)
    header = "".join(f"# ::{k} {v}\n" for k, v in g.metadata.items())
    names: dict[str, str] = {}  # variables written under another name
    taken = {n.concept for n in g.nodes if n.constant}
    for n in g.var_nodes():
        if n.id in taken:
            taken |= g._by_id.keys()
            name = n.id + "_"
            while name in taken:
                name += "_"
            taken.add(name)
            names[n.id] = name

    parts: list[str] = []
    for step in g.walk():
        if step is None:
            parts.append(")")
            continue
        label, node, opens = step
        if opens:
            text = f"({names.get(node.id, node.id)} / {node.concept}"
        else:
            text = node.concept if node.constant else names.get(node.id, node.id)
        parts.append(text if label is None else f" {label} {text}")
    return header + "".join(parts)


def to_triples(g: AmrGraph) -> list[Triple]:
    """Decompose a graph into instance/attribute/relation triples.

    Exactly one instance triple per variable node, one TOP attribute for the
    root, and one triple per edge, so the total is always
    ``len(var_nodes) + len(edges) + 1``.
    """
    triples = [Triple("instance", n.id, "instance", n.concept) for n in g.var_nodes()]
    triples.append(Triple("attribute", g.root, "TOP", g.node(g.root).concept))
    for e in g.edges:
        tgt = g.node(e.tgt)
        if tgt.constant:
            triples.append(Triple("attribute", e.src, e.label[1:], tgt.concept))
        else:
            triples.append(Triple("relation", e.src, e.label[1:], e.tgt))
    return triples


# ---------------------------------------------------------------------------
# AMR release file format: blocks separated by blank lines outside quoted
# literals, each a metadata header plus one PENMAN expression.

# The lines that open a block and start with "#": quotes there do not count.
_HEADER_RE = re.compile(r"(?:[^\S\n]*#[^\n]*\n)*")


def iter_amr_blocks(text: str) -> Iterator[str]:
    r"""The blocks of ``text``, each as written, without the ``\n`` or
    ``\r\n`` that ends its last line.  A blank line ends a block unless it
    lies inside a quoted literal of the block's body; quotes in the ``#``
    lines that open a block do not count.  Literals are found as
    ``parse_penman`` reads them, so one holding a blank line or ``\r\n``
    comes back whole."""
    start = end = None  # the current block's span
    scan = 0  # the block's quotes before this offset are read
    closing = True  # False after a quote that no literal closes
    pos = 0
    for line in text.split("\n"):
        stop = pos + len(line)
        if stop < scan or line.strip():  # inside a literal, or not blank
            if start is None:
                start, scan = pos, _HEADER_RE.match(text, pos).end()
            end = stop
        elif start is not None:
            # The blank line ends the block unless a literal runs past it.
            # Quotes are read only here, so a line costs a split and a strip.
            runs_on = False
            quote = text.find('"', scan, end) if closing else -1
            while quote >= 0:
                literal = QUOTED_RE.match(text, quote)
                if literal is None:
                    # parse_penman rejects this block, and no later quote
                    # can close either: each would rescan the rest
                    closing = False
                    break
                scan = literal.end()
                runs_on = scan > end
                quote = text.find('"', scan, end)
            if not runs_on:
                yield text[start : end - text.endswith("\r", start, end)]
                start = None
        pos = stop + 1
    if start is not None:
        yield text[start : end - text.endswith("\r", start, end)]


def read_amr_text(text: str) -> list[AmrGraph]:
    return [parse_penman(block) for block in iter_amr_blocks(text)]


def read_amr_file(path: str) -> list[AmrGraph]:
    r"""Read with universal newlines: every ``\r\n`` of the file, a
    literal's too, reads as ``\n``."""
    with open(path, encoding="utf-8") as fh:
        return read_amr_text(fh.read())


def graphs_to_text(graphs: Iterable[AmrGraph]) -> str:
    return "\n\n".join(serialize_penman(g) for g in graphs) + "\n"


def write_amr_file(path: str, graphs: Iterable[AmrGraph]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graphs_to_text(graphs))
