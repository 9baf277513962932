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
from typing import TYPE_CHECKING, Iterator

from .errors import AmrkitError
from .graph import ATOM_RE, LABEL_RE, QUOTED_RE, VAR_TOKEN_RE, AmrGraph, build_graph

if TYPE_CHECKING:
    from .repair import RepairReport

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


# What the innermost open group waits for: its variable, its concept, a
# relation or ')', or a relation's value; and for the first three, why a
# token that does not fit is at fault.
_VAR_SLOT, _CONCEPT_SLOT, _REL_SLOT, _VALUE_SLOT = range(4)
_EXPECTED = (
    "'(' must be followed by a variable token",
    "variable definition missing its concept",
    "expected a relation or ')'",
)


def _skip_span(tokens: list[str], i: int) -> int:
    """Index just past the balanced subgroup that starts at ``tokens[i] == '('``."""
    depth = 0
    for j in range(i, len(tokens)):
        depth += (tokens[j] == "(") - (tokens[j] == ")")
        if depth == 0:
            return j + 1
    return len(tokens)


def _skip_outside(tokens: list[str], rep: RepairReport) -> None:
    """Count each unmatched ``)`` of a stretch outside the group, and the rest as one segment."""
    depth = 0
    junk = False
    for t in tokens:
        if t == ")" and depth == 0:
            rep.parens_dropped += 1
        else:
            junk = True
            depth += (t == "(") - (t == ")")
    rep.segments_removed += junk


def read_steps(tokens: list[str], rep: RepairReport | None) -> Iterator[tuple | None]:
    """The one reader of the linear grammar: walk the tokens left to right,
    mending them as ``amrkit.repair`` describes, and yield

    - ``(label, var, concept)`` when a group opens (``label`` is None for
      the root), ``var`` being ``<Vk>`` for the k-th group opened;
    - ``(label, token, None)`` for a reference or a literal;
    - ``None`` when the innermost group closes;
    - ``(at, why)`` just before each mend, ``at`` being the index of the
      token at fault (``len(tokens)`` at end of input).

    A sequence is valid iff no ``(at, why)`` is yielded.  Each fix is
    counted into ``rep`` after the ``(at, why)`` of its mend, so a reader
    that stops at the first one may pass None.
    """
    n = len(tokens)
    start = tokens.index("(") if "(" in tokens else n
    if start or start == n:  # content before the first '(', or no '(' at all
        yield 0, "expected '('"
        _skip_outside(tokens[:start], rep)
    first_def: dict[int, int] = {}  # variable index read -> index of its first definition
    defined = 0
    # Only the innermost open group can wait for anything but a relation or
    # ')'; label and var hold what it has read so far.
    depth, slot, label, var = int(start < n), _VAR_SLOT, None, None
    i = start + 1
    while depth:
        tok = tokens[i] if i < n else None
        kls = classify(tok) if i < n else None  # None: end of input
        if slot == _VALUE_SLOT:
            slot = _REL_SLOT
            if kls == OPEN:
                depth += 1
                slot = _VAR_SLOT
            elif kls == LIT:
                yield label, tok, None
            elif kls == VAR:
                orig = var_index(tok)
                new = var_token(first_def[orig]) if orig in first_def else None
                if tok != new:
                    yield i, "reference to a variable not defined before it"
                    if new is None:
                        rep.segments_removed += 2  # the reference and its relation
                    else:
                        rep.vars_renumbered += 1
                if new is not None:
                    yield label, new, None
            else:
                yield i, f"relation {label!r} has no value"
                rep.segments_removed += 1  # the dangling relation
                continue
            i += 1
        elif kls == REL and slot == _REL_SLOT:
            label, slot = tok, _VALUE_SLOT
            i += 1
        elif kls == CLOSE and slot != _CONCEPT_SLOT:
            if slot == _VAR_SLOT:
                yield i, _EXPECTED[slot]
                rep.segments_removed += 1  # an empty group, and the relation before it
            else:
                yield None
            depth -= 1
            slot = _REL_SLOT
            i += 1
        elif slot == _VAR_SLOT and (kls in (VAR, REL, None) or kls == LIT and tok[0] != '"'):
            var = var_token(defined)
            if kls == VAR:
                if tok != var:
                    yield i, "variable tokens must read <V0>, <V1>, ... in first-visit order"
                    rep.vars_renumbered += 1
                orig = defined if tok == var else var_index(tok)
                first_def.setdefault(orig, defined)
                i += 1
            else:  # the token could follow a variable: mint one
                yield i, _EXPECTED[slot]
                rep.vars_renumbered += 1
            slot = _CONCEPT_SLOT
            defined += 1
        elif slot == _CONCEPT_SLOT and (kls in (CLOSE, REL, None) or kls == LIT and tok[0] != '"'):
            if kls == LIT:
                yield label, var, tok
                i += 1
            else:  # the token could follow a concept: insert the placeholder
                yield i, _EXPECTED[slot]
                rep.concepts_inserted += 1
                yield label, var, "amr-unknown"
            slot = _REL_SLOT
        elif kls is None:
            yield i, _EXPECTED[slot]
            rep.parens_added += depth
            yield from [None] * depth
            depth = 0
        else:
            quoted = kls == LIT and slot == _CONCEPT_SLOT
            yield i, "a concept may not be a quoted literal" if quoted else _EXPECTED[slot]
            rep.segments_removed += 1
            i = _skip_span(tokens, i) if kls == OPEN else i + 1
    if i < n:
        yield i, "trailing content after the graph"
        _skip_outside(tokens[i:], rep)


def delinearize(tokens: list[str]) -> AmrGraph:
    """Rebuild the graph of a valid linearization from the steps of
    ``read_steps``, minting variable names v0..vn in first-visit order.

    The tokens are read as groups ``( <Vk> concept (relation value)* )``,
    each value a group, a variable token defined before it or a literal,
    and the k-th group read (from 0) opens with ``var_token(k)``; the
    walk's first mend raises InvalidLinearization at the token at fault.
    Other tokens are copied as they stand, so ``linearize`` gives an
    accepted line back and the graph passes ``AmrGraph.check`` by design.
    """
    tokens = list(tokens)
    variables: dict[str, tuple[str, str]] = {}  # <Vk> -> (vk, concept)
    edges: list[tuple[str, str, str]] = []
    stack: list[str] = []  # tokens of the open groups, innermost last
    for step in read_steps(tokens, None):
        if step is None:
            stack.pop()
            continue
        if len(step) == 2:
            at, why = step
            tok = repr(tokens[at]) if at < len(tokens) else "end of input"
            raise InvalidLinearization(f"at token {at} ({tok}): {why}")
        label, tok, concept = step
        if label is not None:
            edges.append((stack[-1], label, tok))
        if concept is not None:  # a group opens
            variables[tok] = (f"v{len(variables)}", concept)
            stack.append(tok)
    return build_graph(variables, edges, {})


def validate_linear(tokens: list[str]) -> bool:
    """True iff ``delinearize`` accepts the sequence."""
    try:
        delinearize(tokens)
        return True
    except InvalidLinearization:
        return False


def to_line(tokens: list[str]) -> str:
    return " ".join(tokens)


# a quoted span from its opening quote: it always matches there
_QUOTED_SPAN_RE = re.compile(r'"(?:[^"\\]|\\.)*(?:"|\\?\Z)', re.S)


def from_line(line: str) -> list[str]:
    """Whitespace tokenizer, except that a double-quoted span (with backslash
    escapes) is one token; an unterminated quote runs to end of line.  The
    text between quoted spans is split by ``str.split``, so a token that
    touches a quote ends there (``ab"cd"`` is ``ab`` and ``"cd"``)."""
    tokens: list[str] = []
    start = 0
    while (quote := line.find('"', start)) >= 0:
        tokens += line[start:quote].split()
        start = _QUOTED_SPAN_RE.match(line, quote).end()
        tokens.append(line[quote:start])
    tokens += line[start:].split()
    return tokens
