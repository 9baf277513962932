"""Graph-isomorphic linearization and its exact inverse.

A linearized graph is a flat token sequence over the alphabet
``(  )  :relation  concept/constant  <V0>..<Vn>``.  Every ``(`` is followed
by a variable token; the first occurrence of a variable token defines it and
is followed by its concept; later occurrences stand alone and mark
re-entrancies.  Indices are assigned 0,1,2,... in depth-first first-visit
order, so the sequence is independent of the source graph's variable names
and the graph is recoverable without loss.
"""

from __future__ import annotations

import re
from typing import Iterator

from .errors import AmrkitError
from .graph import AmrGraph, Edge, Node

__all__ = [
    "InvalidLinearization",
    "linearize",
    "delinearize",
    "validate_linear",
    "is_var_token",
    "var_index",
    "var_token",
    "to_line",
    "from_line",
]

_VAR_RE = re.compile(r"^<V(\d+)>$")
_SPECIAL_CHARS = set('()/"')

# token classes
OPEN, CLOSE, REL, VAR, LIT, JUNK = "open", "close", "rel", "var", "lit", "junk"


class InvalidLinearization(AmrkitError):
    """Token sequence violates the linearization invariants; run
    ``amrkit.repair`` first."""


def var_token(index: int) -> str:
    return f"<V{index}>"


def is_var_token(tok: str) -> bool:
    return _VAR_RE.match(tok) is not None


def var_index(tok: str) -> int:
    m = _VAR_RE.match(tok)
    if m is None:
        raise ValueError(f"not a variable token: {tok!r}")
    return int(m.group(1))


def classify(tok: str) -> str:
    """Token class for the linear grammar.

    JUNK marks tokens no valid sequence may contain: empty strings, a bare
    ``:``, or unquoted tokens embedding structural characters (which could
    not survive a PENMAN round trip).
    """
    if tok == "(":
        return OPEN
    if tok == ")":
        return CLOSE
    if not tok:
        return JUNK
    if is_var_token(tok):
        return VAR
    if len(tok) >= 2 and tok[0] == '"' and tok[-1] == '"':
        return LIT
    if _SPECIAL_CHARS & set(tok):
        return JUNK
    if tok.startswith(":"):
        return REL if len(tok) > 1 else JUNK
    return LIT


def linearize(g: AmrGraph) -> list[str]:
    """Depth-first linearization from the root, visiting each node's children
    in edge-list order.  The first visit of a node expands it; later visits
    emit its variable token only.  Constants are emitted inline."""
    index: dict[str, int] = {}
    tokens: list[str] = []
    stack: list[Iterator[Edge]] = []  # remaining edges of the open nodes

    def expand(node_id: str) -> None:
        index[node_id] = len(index)
        tokens.extend(["(", var_token(index[node_id]), g.node(node_id).concept])
        stack.append(iter(g.outgoing(node_id)))

    expand(g.root)
    while stack:
        for e in stack[-1]:
            tokens.append(e.label)
            tgt = g.node(e.tgt)
            if tgt.constant:
                tokens.append(tgt.concept)
            elif e.tgt in index:
                tokens.append(var_token(index[e.tgt]))
            else:
                expand(e.tgt)
                break
        else:
            tokens.append(")")
            stack.pop()
    return tokens


def delinearize(tokens: list[str]) -> AmrGraph:
    """Rebuild the graph from a valid linearization, minting fresh variable
    names v0..vn in first-visit order.

    Raises InvalidLinearization on any invariant violation: unbalanced or
    misplaced parentheses, a ``(`` not followed by a variable token, an
    out-of-order variable index, a defining occurrence without a concept, a
    reference to a variable not yet defined, or trailing content.
    """
    if not tokens:
        raise InvalidLinearization("empty sequence")

    def fail(i: int, why: str) -> "InvalidLinearization":
        tok = tokens[i] if i < len(tokens) else "<end>"
        return InvalidLinearization(f"at token {i} ({tok!r}): {why}")

    nodes: list[Node] = []
    edges: list[Edge] = []
    defined: dict[int, str] = {}
    const_ids: dict[str, str] = {}
    taken: set[str] = set()

    def const_node(literal: str) -> str:
        cid = const_ids.get(literal)
        if cid is None:
            cid = literal
            # ids matching v<digits> are reserved for minted variables
            while re.fullmatch(r"v\d+", cid) or cid in taken:
                cid += "_"
            taken.add(cid)
            const_ids[literal] = cid
            nodes.append(Node(cid, literal, constant=True))
        return cid

    i = 0
    n = len(tokens)
    # stack of open node ids; pending holds a relation waiting for its value
    stack: list[str] = []
    pending: str | None = None

    def open_node(pos: int) -> str:
        nonlocal i
        if tokens[pos] != "(":
            raise fail(pos, "expected '('")
        if pos + 1 >= n or not is_var_token(tokens[pos + 1]):
            raise fail(pos + 1, "'(' must be followed by a variable token")
        idx = var_index(tokens[pos + 1])
        if idx != len(defined):
            raise fail(pos + 1, f"variable index {idx} out of first-visit order")
        if (
            pos + 2 >= n
            or classify(tokens[pos + 2]) != LIT
            or tokens[pos + 2].startswith('"')
        ):
            raise fail(pos + 2, "variable definition missing its concept")
        concept = tokens[pos + 2]
        name = f"v{idx}"
        defined[idx] = name
        nodes.append(Node(name, concept))
        i = pos + 3
        return name

    root = open_node(0)
    stack.append(root)

    while i < n:
        tok = tokens[i]
        kls = classify(tok)
        if pending is not None:
            # value position
            if kls == OPEN:
                child = open_node(i)
                edges.append(Edge(stack[-1], pending, child))
                stack.append(child)
                pending = None
                continue
            if kls == VAR:
                idx = var_index(tok)
                if idx not in defined:
                    raise fail(i, f"reference to undefined variable <V{idx}>")
                edges.append(Edge(stack[-1], pending, defined[idx]))
            elif kls == LIT:
                edges.append(Edge(stack[-1], pending, const_node(tok)))
            else:
                raise fail(i, f"relation {pending!r} has no value")
            pending = None
            i += 1
        elif kls == CLOSE:
            stack.pop()
            i += 1
            if not stack:
                break
        elif kls == REL:
            pending = tok
            i += 1
        else:
            raise fail(i, "expected a relation or ')'")

    if stack:
        raise InvalidLinearization("unbalanced parentheses (unclosed group)")
    if i != n:
        raise fail(i, "trailing content after the graph")

    try:
        return AmrGraph(tuple(nodes), tuple(edges), root).check()
    except ValueError as exc:
        raise InvalidLinearization(str(exc)) from exc


def validate_linear(tokens: list[str]) -> bool:
    """True iff the sequence satisfies all linearization invariants."""
    try:
        delinearize(tokens)
        return True
    except (InvalidLinearization, ValueError):
        return False


def to_line(tokens: list[str]) -> str:
    return " ".join(tokens)


_LINE_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*(?:"|\\?\Z)|[^\s"]+', re.S)


def from_line(line: str) -> list[str]:
    """Whitespace tokenizer, except that a double-quoted span (with backslash
    escapes) is one token; an unterminated quote runs to end of line."""
    return _LINE_TOKEN_RE.findall(line)
