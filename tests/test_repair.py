import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amrkit.linearize import (
    InvalidLinearization,
    delinearize,
    from_line,
    linearize,
    to_line,
    validate_linear,
)
from amrkit.repair import FALLBACK, RepairReport, repair, repair_pass_report, repair_with_report

from .helpers import random_graph

ALPHABET = [
    "(",
    ")",
    ":ARG0",
    ":ARG1",
    ":op1",
    ":mod",
    "want-01",
    "boy",
    "go-02",
    "-",
    '"New York"',
    "<V0>",
    "<V1>",
    "<V2>",
    "<V5>",
    ":",
    "",
    "a/b",
    "<V12>",
    "amr-unknown",
    "<V00>",
    "<V01>",
    "New York",  # unquoted, holding a space
]

fuzz_tokens = st.lists(st.sampled_from(ALPHABET), max_size=200)


@st.composite
def mutated_linearizations(draw):
    """A random graph's linearization with up to three tokens replaced,
    inserted, deleted or, for a variable token, respelled with a leading
    zero: mostly invalid, but close to valid."""
    tokens = linearize(random_graph(np.random.RandomState(draw(st.integers(0, 2**31 - 1)))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["replace", "insert", "delete", "respell"]))
        if op == "delete":
            del tokens[i]
        elif op == "respell":
            tokens = [t.replace("<V", "<V0") if k == i else t for k, t in enumerate(tokens)]
        else:
            tokens[i : i + (op == "replace")] = [draw(st.sampled_from(ALPHABET))]
    return tokens


class TestFixtures:
    def test_parity_restoration(self):
        got = repair(from_line("( <V0> want-01 :ARG0 ( <V1> boy"))
        assert to_line(got) == "( <V0> want-01 :ARG0 ( <V1> boy ) )"

    def test_parity_restoration_report(self):
        rep = repair_pass_report(from_line("( <V0> want-01 :ARG0 ( <V1> boy"))
        assert rep.parens_added == 2
        assert rep.parens_dropped == 0
        assert rep.segments_removed == 0
        assert rep.concepts_inserted == 0
        assert rep.vars_renumbered == 0
        assert not rep.fell_back

    def test_valid_input_unchanged(self):
        tokens = from_line("( <V0> want-01 :ARG0 ( <V1> boy ) )")
        fixed, rep = repair_with_report(tokens)
        assert fixed == tokens
        assert rep.as_dict() == {
            "parens_added": 0,
            "parens_dropped": 0,
            "segments_removed": 0,
            "concepts_inserted": 0,
            "vars_renumbered": 0,
            "fell_back": False,
        }

    def test_dangling_relation_removed(self):
        tokens = from_line("( <V0> want-01 :ARG0 :ARG1 ( <V1> boy ) )")
        fixed, rep = repair_with_report(tokens)
        assert to_line(fixed) == "( <V0> want-01 :ARG1 ( <V1> boy ) )"
        assert rep.segments_removed == 1
        assert rep.parens_added == 0 and rep.concepts_inserted == 0


class TestScenarios:
    def test_empty_input_falls_back(self):
        fixed, rep = repair_with_report([])
        assert fixed == FALLBACK
        assert rep.fell_back

    def test_garbage_falls_back(self):
        assert repair(["boy", "girl"]) == FALLBACK

    def test_unmatched_close_dropped(self):
        fixed, rep = repair_with_report(from_line(") ( <V0> cat ) )"))
        assert to_line(fixed) == "( <V0> cat )"
        assert rep.parens_dropped == 2

    def test_missing_concept_inserted(self):
        fixed, rep = repair_with_report(from_line("( <V0> :ARG0 ( <V1> boy ) )"))
        assert to_line(fixed) == "( <V0> amr-unknown :ARG0 ( <V1> boy ) )"
        assert rep.concepts_inserted == 1

    def test_missing_variable_minted(self):
        fixed, _ = repair_with_report(from_line("( boy )"))
        assert to_line(fixed) == "( <V0> boy )"

    def test_duplicate_definition_renumbered(self):
        fixed, rep = repair_with_report(from_line("( <V0> a :ARG0 ( <V0> b ) )"))
        assert to_line(fixed) == "( <V0> a :ARG0 ( <V1> b ) )"
        assert rep.vars_renumbered == 1

    def test_noncanonical_indices_renumbered(self):
        fixed, rep = repair_with_report(from_line("( <V5> a :ARG0 ( <V2> b :ARG1 <V5> ) )"))
        assert to_line(fixed) == "( <V0> a :ARG0 ( <V1> b :ARG1 <V0> ) )"
        assert rep.vars_renumbered == 3

    def test_undefined_reference_dropped_with_its_relation(self):
        fixed, _ = repair_with_report(from_line("( <V0> a :ARG0 <V5> :ARG1 ( <V1> b ) )"))
        assert to_line(fixed) == "( <V0> a :ARG1 ( <V1> b ) )"

    def test_second_top_level_group_dropped(self):
        fixed, _ = repair_with_report(from_line("( <V0> a ) ( <V1> b )"))
        assert to_line(fixed) == "( <V0> a )"

    def test_empty_group_removed(self):
        fixed, _ = repair_with_report(from_line("( <V0> a :ARG0 ( ) )"))
        assert to_line(fixed) == "( <V0> a )"

    def test_stray_value_without_relation_dropped(self):
        fixed, _ = repair_with_report(from_line("( <V0> a boy )"))
        assert to_line(fixed) == "( <V0> a )"

    @pytest.mark.parametrize(
        "line, expected, fixes",
        [
            ("( <V0> a :ARG0 (", "( <V0> a :ARG0 ( <V1> amr-unknown ) )",
             {"parens_added": 2, "concepts_inserted": 1, "vars_renumbered": 1}),
            ("( :ARG0 )", "( <V0> amr-unknown )",
             {"segments_removed": 1, "concepts_inserted": 1, "vars_renumbered": 1}),
            ("( <V0> a :ARG0 <V1> :ARG1 ( <V1> b ) )", "( <V0> a :ARG1 ( <V1> b ) )",
             {"segments_removed": 2}),
            ("( <V3> a :ARG0 ( boy ) )", "( <V0> a :ARG0 ( <V1> boy ) )", {"vars_renumbered": 2}),
            ("boy ) ( <V0> a ) ) ( <V1> b )", "( <V0> a )",
             {"parens_dropped": 2, "segments_removed": 2}),
            ("( ( ) )", to_line(FALLBACK), {"segments_removed": 2, "fell_back": True}),
            ("( <V00> a )", "( <V0> a )", {"vars_renumbered": 1}),  # respelled, same index
            ("( <V0> a :ARG0 <V00> )", "( <V0> a :ARG0 <V0> )", {"vars_renumbered": 1}),
        ],
    )
    def test_fix_counts(self, line, expected, fixes):
        fixed, rep = repair_with_report(from_line(line))
        assert to_line(fixed) == expected
        assert rep.as_dict() == {**RepairReport().as_dict(), **fixes}

    def test_fallback_delinearizes(self):
        g = delinearize(FALLBACK)
        assert g.node(g.root).concept == "amr-empty"

    def test_variable_index_read_from_any_decimal_digits(self):
        # \d matches any decimal digit: <V٣> is variable 3, and <V٠٠> is
        # variable 0, which <V0> mentions
        fixed, rep = repair_with_report(
            ["(", "<V٣>", "a", ":ARG0", "<V٣>", ":ARG1", "(", "<V٠٠>", "b", ":mod", "<V0>", ")", ")"]
        )
        assert to_line(fixed) == "( <V0> a :ARG0 <V0> :ARG1 ( <V1> b :mod <V1> ) )"
        assert rep.as_dict() == RepairReport(vars_renumbered=4).as_dict()


class TestProperties:
    @given(fuzz_tokens)
    @settings(max_examples=300, deadline=None)
    def test_totality(self, tokens):
        fixed = repair(tokens)
        delinearize(fixed)  # must not raise

    @given(fuzz_tokens)
    @settings(max_examples=300, deadline=None)
    def test_idempotence(self, tokens):
        once = repair(tokens)
        assert repair(once) == once

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_conservativity_on_valid_sequences(self, seed):
        g = random_graph(np.random.RandomState(seed))
        tokens = linearize(g)
        fixed, rep = repair_with_report(tokens)
        assert fixed == tokens
        assert rep.as_dict()["fell_back"] is False
        assert sum(v for k, v in rep.as_dict().items() if k != "fell_back") == 0

    @given(fuzz_tokens)
    @settings(max_examples=200, deadline=None)
    def test_output_always_valid(self, tokens):
        assert validate_linear(repair(tokens))

    @given(st.one_of(fuzz_tokens, mutated_linearizations()))
    @settings(max_examples=400, deadline=None)
    def test_repair_fixes_exactly_the_invalid_sequences(self, tokens):
        assert validate_linear(tokens) == (repair(tokens) == tokens)

    @given(st.one_of(fuzz_tokens, mutated_linearizations()))
    @example(["(", "boy", ")"])  # a minted variable counts
    @example(from_line("( <V0> a :ARG0 ( b ) )"))
    @settings(max_examples=400, deadline=None)
    def test_report_is_zero_exactly_when_unchanged(self, tokens):
        fixed, rep = repair_with_report(tokens)
        assert (rep == RepairReport()) == (fixed == tokens)

    @given(st.one_of(fuzz_tokens, mutated_linearizations()))
    @settings(max_examples=300, deadline=None)
    def test_repair_keeps_the_tokens_before_the_fault(self, tokens):
        # repair changes nothing before the token delinearize names; it may
        # hold back the '(' and the relation of a group it then drops
        try:
            delinearize(tokens)
            return
        except InvalidLinearization as exc:
            at = int(re.match(r"at token (\d+) ", str(exc)).group(1))
        fixed = repair(tokens)
        kept = next((k for k, (a, b) in enumerate(zip(fixed, tokens)) if a != b),
                    min(len(fixed), len(tokens)))
        assert at - 2 <= kept <= at
