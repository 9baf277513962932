"""Structural repair of model-emitted token sequences.

``repair`` turns an arbitrary token list into a valid linearization: one
that ``linearize`` gives back from the graph ``delinearize`` reads, whose
unquoted concepts and constants obey the atom rule of ``amrkit.graph`` (no
``:`` prefix, not a ``<Vn>`` token, no whitespace and none of ``()/"``).

One walk, ``linearize.read_steps``, reads that grammar and yields only
steps with a legal position: ``repair`` writes them out as tokens, and
``delinearize`` builds a graph and fails at the walk's first mend.  So
``repair(t) == t`` exactly when ``validate_linear(t)`` and exactly when
the report counts no fix, and ``repair`` is total, idempotent and leaves
valid input untouched.  As it goes, the walk

- drops an unmatched ``)`` (``parens_dropped``);
- drops invalid segments (``segments_removed``, one per segment): content
  before the first ``(`` and after the first top-level group (each one
  segment), stray values, junk tokens, a subgroup where the grammar allows
  none (skipped whole), a dangling relation with no value, and an empty
  group ``( )`` together with the relation that introduced it;
- drops a reference to a variable not defined before it together with its
  relation (two segments);
- mints a variable for a group that lacks one (``vars_renumbered``) and
  inserts the placeholder concept ``amr-unknown`` where a concept is
  missing (``concepts_inserted``); a group still open at end of input is
  kept and completed this way, so ``( <V0> a :ARG0 (`` becomes
  ``( <V0> a :ARG0 ( <V1> amr-unknown ) )`` (a placeholder node, two more
  triples for Smatch), while the closed empty group of
  ``( <V0> a :ARG0 ( ) )`` is dropped, giving ``( <V0> a )``;
- closes the groups left open at end of input (``parens_added``);
- renumbers variable tokens to ``<V0>``..``<Vn-1>`` in first-visit order,
  so a duplicate definition becomes a fresh variable and ``<V00>`` becomes
  ``<V0>``.  ``vars_renumbered`` counts each kept variable token whose
  spelling changed and each variable minted.

When nothing is left (for example, no group at all) the result is the
single-node sequence ``FALLBACK`` = ``( <V0> amr-empty )``, so downstream
scoring is always defined.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .linearize import read_steps, var_token

__all__ = ["RepairReport", "repair", "repair_with_report", "repair_pass_report", "FALLBACK"]

FALLBACK = ["(", var_token(0), "amr-empty", ")"]


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


def repair_with_report(tokens: list[str]) -> tuple[list[str], RepairReport]:
    """Repair a token sequence and count the fixes: the tokens of the steps
    of ``read_steps``, or ``FALLBACK`` when they hold no group."""
    rep = RepairReport()
    out: list[str] = []
    for step in read_steps([str(t) for t in tokens], rep):
        if step is None:
            out.append(")")
        elif len(step) == 3:  # not a mend's (at, why)
            label, tok, concept = step
            if label is not None:
                out.append(label)
            if concept is None:
                out.append(tok)
            else:
                out += ("(", tok, concept)
    if not out:
        rep.fell_back = True
        return list(FALLBACK), rep
    return out, rep
