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

from .errors import AmrkitError
from .graph import ATOM_RE, LABEL_RE, QUOTED_RE, VAR_TOKEN_RE, AmrGraph, Edge, Node

__all__ = [
    "InvalidLinearization",
    "linearize",
    "delinearize",
    "validate_linear",
    "var_index",
    "var_token",
    "to_line",
    "from_line",
]

# token classes
OPEN, CLOSE, REL, VAR, LIT, JUNK = "open", "close", "rel", "var", "lit", "junk"

# the classes a token can fall in past the parentheses, from the atom rule
_CLASS_RE = re.compile(
    f"(?P<{VAR}>{VAR_TOKEN_RE.pattern})|(?P<{LIT}>{QUOTED_RE.pattern}|{ATOM_RE.pattern})"
    f"|(?P<{REL}>{LABEL_RE.pattern})"
)
_MINTED_RE = re.compile(r"v\d+")


class InvalidLinearization(AmrkitError):
    """Token sequence that ``linearize`` does not give back; run
    ``amrkit.repair`` first."""


def var_token(index: int) -> str:
    return f"<V{index}>"


def var_index(tok: str) -> int:
    m = VAR_TOKEN_RE.fullmatch(tok)
    if m is None:
        raise ValueError(f"not a variable token: {tok!r}")
    return int(m.group(1))


def classify(tok: str) -> str:
    """Token class for the linear grammar, by the atom rule of
    ``amrkit.graph``.

    JUNK marks tokens no valid sequence may contain: the empty string, a bare
    ``:``, and unquoted tokens holding whitespace or a structural character
    (which could not survive a PENMAN round trip or ``to_line``).
    """
    if tok == "(":
        return OPEN
    if tok == ")":
        return CLOSE
    m = _CLASS_RE.fullmatch(tok)
    return m.lastgroup if m else JUNK


def linearize(g: AmrGraph) -> list[str]:
    """The tokens of the steps of ``AmrGraph.walk``: a node that opens is
    written ``( <Vk> concept``, numbered in the order the nodes open, a
    later mention of a variable as its token and a constant inline.  The
    walk's unreachable nodes and duplicate ids raise ValueError."""
    index: dict[str, int] = {}
    tokens: list[str] = []
    for step in g.walk():
        if step is None:
            tokens.append(")")
            continue
        label, node, opens = step
        if label is not None:
            tokens.append(label)
        if opens:
            index[node.id] = len(index)
            tokens += ("(", var_token(index[node.id]), node.concept)
        else:
            tokens.append(node.concept if node.constant else var_token(index[node.id]))
    return tokens


def delinearize(tokens: list[str]) -> AmrGraph:
    """Rebuild the graph of a valid linearization, minting variable names
    v0..vn in first-visit order.

    The tokens are read as groups ``( <Vk> concept (relation value)* )``,
    each value a group, a variable token defined before it or a literal;
    and the k-th group read (from 0) opens with ``var_token(k)``.  Anything
    else raises InvalidLinearization at the first token at fault.  The read
    copies every other token as it stands, so ``linearize`` gives an
    accepted line back, and the graph passes ``AmrGraph.check`` by
    construction.
    """
    tokens = list(tokens)
    n = len(tokens)
    kinds = [classify(t) for t in tokens] + [None] * 3  # None: past the end

    def fault(at: int, why: str) -> InvalidLinearization:
        tok = repr(tokens[at]) if at < n else "end of input"
        return InvalidLinearization(f"at token {at} ({tok}): {why}")

    nodes: list[Node] = []
    edges: list[Edge] = []
    ids: dict[str, str] = {}  # variable token or literal -> node id
    taken: set[str] = set()  # constant ids
    stack: list[str] = []  # open nodes, innermost last
    i = defined = 0
    while stack or not nodes:  # until the root group closes
        if stack:  # a ')' or a relation, whose value follows
            if kinds[i] == CLOSE:
                stack.pop()
                i += 1
                continue
            if kinds[i] != REL:
                raise fault(i, "expected a relation or ')'")
            i += 1
        if kinds[i] == OPEN:
            if kinds[i + 1] != VAR:
                raise fault(i + 1, "'(' must be followed by a variable token")
            if tokens[i + 1] != var_token(defined):
                raise fault(i + 1, "variable tokens must read <V0>, <V1>, ... in first-visit order")
            if kinds[i + 2] != LIT:
                raise fault(i + 2, "variable definition missing its concept")
            if tokens[i + 2].startswith('"'):
                raise fault(i + 2, "a concept may not be a quoted literal")
            name = ids[tokens[i + 1]] = f"v{defined}"
            defined += 1
            nodes.append(Node(name, tokens[i + 2]))
            if stack:
                edges.append(Edge(stack[-1], tokens[i - 1], name))
            stack.append(name)
            i += 3
            continue
        if not stack:
            raise fault(i, "expected '('")
        if kinds[i] not in (VAR, LIT):
            raise fault(i, f"relation {tokens[i - 1]!r} has no value")
        tok = tokens[i]
        if kinds[i] == LIT and tok not in ids:
            cid = tok  # ids matching v<digits> are reserved for minted variables
            while _MINTED_RE.fullmatch(cid) or cid in taken:
                cid += "_"
            taken.add(cid)
            ids[tok] = cid
            nodes.append(Node(cid, tok, constant=True))
        if tok not in ids:
            raise fault(i, "reference to a variable not defined before it")
        edges.append(Edge(stack[-1], tokens[i - 1], ids[tok]))
        i += 1
    if i < n:
        raise fault(i, "trailing content after the graph")

    return AmrGraph(tuple(nodes), tuple(edges), nodes[0].id)


def validate_linear(tokens: list[str]) -> bool:
    """True iff ``delinearize`` accepts the sequence."""
    try:
        delinearize(tokens)
        return True
    except InvalidLinearization:
        return False


def to_line(tokens: list[str]) -> str:
    return " ".join(tokens)


_LINE_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*(?:"|\\?\Z)|[^\s"]+', re.S)


def from_line(line: str) -> list[str]:
    """Whitespace tokenizer, except that a double-quoted span (with backslash
    escapes) is one token; an unterminated quote runs to end of line."""
    return _LINE_TOKEN_RE.findall(line) if '"' in line else line.split()
