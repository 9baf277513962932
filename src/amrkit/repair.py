"""Structural repair of model-emitted token sequences.

``repair`` turns an arbitrary token list into a valid linearization that
``delinearize`` accepts.  A line is valid iff ``linearize`` gives it back
from the graph ``delinearize`` reads, and every unquoted concept and
constant of that graph obeys the atom rule of ``amrkit.graph``: no ``:``
prefix, not a ``<Vn>`` token, no whitespace and none of ``()/"``.  This
walk is the only other implementation of that grammar, so
``repair(t) == t`` holds exactly when ``validate_linear(t)`` does.

``repair`` is total, idempotent, and leaves valid input untouched.  One
left-to-right walk over the group grammar, with an explicit stack of open
groups, emits only tokens that have a legal position, so its output is
valid by construction.  As it goes it

- drops an unmatched ``)`` (``parens_dropped``);
- drops invalid segments (``segments_removed``, one per segment): content
  before the first ``(`` and after the first top-level group (each one
  segment), stray values, junk tokens, a subgroup where the grammar allows
  none (skipped whole), a dangling relation with no value, and an empty
  group ``( )`` together with the relation that introduced it;
- drops a reference to a variable not defined before it together with its
  relation (two segments);
- mints a variable for a group that lacks one and inserts the placeholder
  concept ``amr-unknown`` where a concept is missing
  (``concepts_inserted``); a group still open at end of input is kept and
  completed this way, so ``( <V0> a :ARG0 (`` becomes
  ``( <V0> a :ARG0 ( <V1> amr-unknown ) )`` (a placeholder node, two more
  triples for Smatch), while the closed empty group of
  ``( <V0> a :ARG0 ( ) )`` is dropped, giving ``( <V0> a )``;
- closes the groups left open at end of input (``parens_added``);
- renumbers variable tokens to ``<V0>``..``<Vn-1>`` in first-visit order,
  so a duplicate definition becomes a fresh variable and ``<V00>`` becomes
  ``<V0>``.  ``vars_renumbered`` counts each kept variable token whose
  spelling changed; a minted variable counts when its index differs from
  ``M + 1 + k``, where ``M`` is the largest variable index the walk kept
  and ``k`` is the mint's order.

When nothing is left (for example, no group at all) the result is the
single-node sequence ``FALLBACK`` = ``( <V0> amr-empty )``, so downstream
scoring is always defined.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .linearize import CLOSE, LIT, OPEN, REL, VAR, classify, var_index, var_token

__all__ = ["RepairReport", "repair", "repair_with_report", "repair_pass_report", "FALLBACK"]

FALLBACK = ["(", var_token(0), "amr-empty", ")"]

# what an open group expects next: its variable, its concept, or relations
_SLOT_VAR, _SLOT_CONCEPT, _SLOT_REL = range(3)


@dataclass
class RepairReport:
    """Counts of fixes applied, for pipeline diagnostics."""

    parens_added: int = 0
    parens_dropped: int = 0
    segments_removed: int = 0
    concepts_inserted: int = 0
    vars_renumbered: int = 0
    fell_back: bool = False

    def as_dict(self) -> dict:
        return asdict(self)

    def add(self, other: "RepairReport") -> None:
        self.parens_added += other.parens_added
        self.parens_dropped += other.parens_dropped
        self.segments_removed += other.segments_removed
        self.concepts_inserted += other.concepts_inserted
        self.vars_renumbered += other.vars_renumbered
        self.fell_back = self.fell_back or other.fell_back


def repair(tokens: list[str]) -> list[str]:
    """Repair a token sequence; the result always delinearizes."""
    return repair_with_report(tokens)[0]


def repair_pass_report(tokens: list[str]) -> RepairReport:
    """Run repair and return only the fix-count report."""
    return repair_with_report(tokens)[1]


def _skip_span(toks: list[str], i: int) -> int:
    """Index just past the balanced subgroup that starts at ``toks[i] == '('``."""
    depth = 0
    while i < len(toks):
        if toks[i] == "(":
            depth += 1
        elif toks[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def _skip_outside(toks: list[str], rep: RepairReport) -> None:
    """Count a stretch outside the top-level group: each ``)`` with no open
    ``(`` before it is an unmatched paren, and the rest is one segment."""
    depth = 0
    junk = False
    for t in toks:
        if t == ")" and depth == 0:
            rep.parens_dropped += 1
            continue
        junk = True
        depth += (t == "(") - (t == ")")
    if junk:
        rep.segments_removed += 1


def repair_with_report(tokens: list[str]) -> tuple[list[str], RepairReport]:
    rep = RepairReport()
    toks = [str(t) for t in tokens]
    n = len(toks)
    start = toks.index("(") if "(" in toks else n
    _skip_outside(toks[:start], rep)

    out: list[str] = []
    first_def: dict[int, int] = {}  # original index -> new index of its first definition
    defined = 0
    top = -1  # largest variable index kept
    mints: list[int] = []  # new indices of minted variables, in minting order
    # Slots of the open groups, innermost last.  A group in _SLOT_VAR has
    # emitted nothing yet: ``held`` keeps its '(' and the relation that
    # introduced it until a token shows the group is not empty.
    stack: list[int] = []
    held: list[str] = []

    def define(var: str | None) -> None:
        nonlocal defined, top
        out.extend(held)
        held.clear()
        if var is None:
            mints.append(defined)
        else:
            orig = var_index(var)
            top = max(top, orig)
            first_def.setdefault(orig, defined)
            rep.vars_renumbered += var != var_token(defined)
        out.append(var_token(defined))
        defined += 1

    def fill_concept(slot: int) -> None:
        # a relation, ')' or end of input reached the group before a concept
        if slot == _SLOT_VAR:
            define(None)
        if slot != _SLOT_REL:
            out.append("amr-unknown")
            rep.concepts_inserted += 1
        stack[-1] = _SLOT_REL

    if start < n:
        stack.append(_SLOT_VAR)
        held.append("(")
    i = start + 1
    while i < n and stack:
        tok = toks[i]
        kls = classify(tok)
        slot = stack[-1]
        if kls == CLOSE:
            if slot == _SLOT_VAR:
                held.clear()  # empty group, with the relation that introduced it
                rep.segments_removed += 1
            else:
                fill_concept(slot)
                out.append(")")
            stack.pop()
            i += 1
        elif kls == VAR and slot == _SLOT_VAR:
            define(tok)
            stack[-1] = _SLOT_CONCEPT
            i += 1
        elif kls == LIT and not tok.startswith('"') and slot != _SLOT_REL:
            if slot == _SLOT_VAR:
                define(None)
            out.append(tok)
            stack[-1] = _SLOT_REL
            i += 1
        elif kls == REL:
            fill_concept(slot)
            nxt = classify(toks[i + 1]) if i + 1 < n else None
            if nxt == OPEN:
                held.extend((tok, "("))
                stack.append(_SLOT_VAR)
            elif nxt == VAR:
                orig = var_index(toks[i + 1])
                top = max(top, orig)
                if orig in first_def:
                    new = var_token(first_def[orig])
                    rep.vars_renumbered += toks[i + 1] != new
                    out.extend((tok, new))
                else:
                    rep.segments_removed += 2  # undefined reference and its relation
            elif nxt == LIT:
                out.extend((tok, toks[i + 1]))
            else:
                rep.segments_removed += 1  # dangling relation
                i += 1
                continue
            i += 2
        else:
            rep.segments_removed += 1
            i = _skip_span(toks, i) if kls == OPEN else i + 1

    if stack:
        fill_concept(stack[-1])
        rep.parens_added += len(stack)
        out.extend([")"] * len(stack))
    _skip_outside(toks[i:], rep)
    rep.vars_renumbered += sum(new != top + 1 + k for k, new in enumerate(mints))
    if not out:
        rep.fell_back = True
        return list(FALLBACK), rep
    return out, rep
