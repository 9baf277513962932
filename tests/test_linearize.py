import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrkit.graph import parse_penman, serialize_penman
from amrkit.linearize import (
    InvalidLinearization,
    classify,
    delinearize,
    from_line,
    linearize,
    to_line,
    validate_linear,
)
from amrkit.repair import RepairReport, repair_with_report
from amrkit.smatch import smatch_exact

from .helpers import (
    REFERENCE_LINE_TOKEN_RE,
    TOKENIZER_ALPHABET,
    random_graph,
    reference_classify,
    seconds_in_fresh_process,
)


def graphs(**kwargs):
    return st.integers(0, 2**31 - 1).map(
        lambda s: random_graph(np.random.RandomState(s), **kwargs)
    )


class TestLinearize:
    def test_reentrant_graph(self):
        g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
        assert to_line(linearize(g)) == (
            "( <V0> want-01 :ARG0 ( <V1> boy ) :ARG1 ( <V2> go-02 :ARG0 <V1> ) )"
        )

    def test_single_node(self):
        assert to_line(linearize(parse_penman("(c / cat)"))) == "( <V0> cat )"

    def test_constant_inline_without_parens(self):
        g = parse_penman("(p / possible-01 :polarity -)")
        assert to_line(linearize(g)) == "( <V0> possible-01 :polarity - )"

    def test_string_constant_keeps_quotes(self):
        g = parse_penman('(c / city :name "New York")')
        assert to_line(linearize(g)) == '( <V0> city :name "New York" )'

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_variable_indices_are_gapless_first_visit(self, g):
        seen = []
        tokens = linearize(g)
        for i, tok in enumerate(tokens):
            if tok.startswith("<V") and i > 0 and tokens[i - 1] == "(":
                seen.append(int(tok[2:-1]))
        assert seen == list(range(len(g.var_nodes())))


# invalid lines, the token each read fault names and its reason; together
# they cover every reason, at a token and at end of input
_ORDER = "variable tokens must read <V0>, <V1>, ... in first-visit order"
_NO_VAR = "'(' must be followed by a variable token"
_NO_CONCEPT = "variable definition missing its concept"
_NO_REL = "expected a relation or ')'"
_UNDEFINED = "reference to a variable not defined before it"
_TRAILING = "trailing content after the graph"
INVALID_LINES = [
    ("", 0, "expected '('"),
    ("boy", 0, "expected '('"),
    ("( boy )", 1, _NO_VAR),
    ("( <V1> cat )", 1, _ORDER),  # index out of first-visit order
    ("( <V0> )", 2, _NO_CONCEPT),
    ("( <V0> a :ARG0 <V2> )", 4, _UNDEFINED),
    ("( <V0> a :ARG0 <V1> :ARG1 ( <V1> b ) )", 4, _UNDEFINED),  # forward reference
    ("( <V0> a", 3, _NO_REL),
    ("( <V0>", 2, _NO_CONCEPT),
    ("( <V0> a :ARG0 (", 5, _NO_VAR),
    ("( <V0> a :ARG0", 4, "relation ':ARG0' has no value"),
    ("( <V0> a ) )", 4, _TRAILING),
    ("( <V0> a ) ( <V1> b )", 4, _TRAILING),
    ("( <V0> a :ARG0 )", 4, "relation ':ARG0' has no value"),
    ("( <V0> a :ARG0 :ARG1 ( <V1> b ) )", 4, "relation ':ARG0' has no value"),
    ('( <V0> "quoted" )', 2, "a concept may not be a quoted literal"),
    ("( <V0> a <V0> )", 3, _NO_REL),  # value without a relation
    ("( <V00> a )", 1, _ORDER),  # non-canonical spelling of <V0>
    ("( <V0> a :ARG0 <V00> )", 4, _UNDEFINED),
    ("( <V0> a :ARG0 ( <V2> b ) <V1> )", 5, _ORDER),  # skipped index, then a value without a relation
]


class TestDelinearize:
    def test_single_node(self):
        g = delinearize(["(", "<V0>", "cat", ")"])
        assert len(g.nodes) == 1 and g.node(g.root).concept == "cat"

    def test_round_trip_smatch_one(self):
        g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
        assert smatch_exact(delinearize(linearize(g)), g).f1 == 1.0

    def test_self_loop_accepted(self):
        g = delinearize(from_line("( <V0> want-01 :ARG0 <V0> )"))
        assert len(g.edges) == 1 and g.edges[0].src == g.edges[0].tgt

    def test_fresh_variable_names(self):
        g = delinearize(from_line("( <V0> a :ARG0 ( <V1> b ) )"))
        assert [n.id for n in g.var_nodes()] == ["v0", "v1"]

    @pytest.mark.parametrize("line, at, reason", INVALID_LINES, ids=[row[0] for row in INVALID_LINES])
    def test_invalid_sequences_rejected(self, line, at, reason):
        tokens = from_line(line)
        with pytest.raises(InvalidLinearization) as exc:
            delinearize(tokens)
        tok = repr(tokens[at]) if at < len(tokens) else "end of input"
        assert str(exc.value) == f"at token {at} ({tok}): {reason}"
        assert not validate_linear(tokens)

    def test_unescaped_quote_inside_quoted_literal_rejected(self):
        # the line tokenizer and the PENMAN reader would split it, so the
        # read rejects it as a value
        with pytest.raises(InvalidLinearization, match=r"^at token 4 "):
            delinearize(["(", "<V0>", "a", ":name", '"x"y"', ")"])
        assert validate_linear(["(", "<V0>", "a", ":name", '"x\\"y"', ")"])

    @pytest.mark.parametrize("bad", ["a b", ":ARG0 x", "<V0>\n"])
    def test_unquoted_token_holding_whitespace_rejected(self, bad):
        for tokens in (["(", "<V0>", bad, ")"], ["(", "<V0>", "a", ":ARG0", bad, ")"],
                       ["(", "<V0>", "a", bad, "b", ")"]):
            with pytest.raises(InvalidLinearization):
                delinearize(tokens)

    def test_error_names_first_token_at_fault(self):
        with pytest.raises(InvalidLinearization, match=r"at token 5 \('<V2>'\)"):
            delinearize(from_line("( <V0> a :ARG0 ( <V2> b ) :ARG1 <V2> )"))

    def test_constant_literal_colliding_with_minted_name(self):
        g = delinearize(from_line("( <V0> a :op1 v0 )"))
        const = [n for n in g.nodes if n.constant]
        assert len(const) == 1 and const[0].concept == "v0" and const[0].id != "v0"

    def test_constant_ids_pinned(self):
        g = delinearize(from_line("( <V0> a :op1 v1 :op2 c :op3 c_ :op4 v1_ :op5 c :op6 ( <V1> b ) )"))
        assert [(n.id, n.concept) for n in g.nodes if n.constant] == [
            ("v1_", "v1"), ("c", "c"), ("c_", "c_"), ("v1__", "v1_"),
        ]
        assert [e.tgt for e in g.edges] == ["v1_", "c", "c_", "v1__", "c", "v1"]

    def test_variables_come_before_constants(self):
        # the node order and constant ids of parse_penman: a literal spelling
        # v<digits> keeps its own id unless a variable holds it
        g = delinearize(from_line("( <V0> a :op1 v99 :ARG0 ( <V1> b :op2 - :op3 v1 ) )"))
        assert [(n.id, n.concept) for n in g.nodes] == [
            ("v0", "a"), ("v1", "b"), ("v99", "v99"), ("-", "-"), ("v1_", "v1"),
        ]


class TestRoundTrip:
    @given(st.lists(st.sampled_from(["(", ")", "<V0>", "<V1>", "<V00>", ":ARG0", "a",
                                     '"q"', "a b", ""]), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_accepted_sequences_are_linearizations(self, tokens):
        try:
            g = delinearize(tokens)
        except InvalidLinearization:
            return
        assert g.check() is g
        assert linearize(g) == tokens

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_token_sequence_fixed_point(self, g):
        s = linearize(g)
        assert linearize(delinearize(s)) == s

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_graph_isomorphism(self, g):
        assert smatch_exact(g, delinearize(linearize(g))).f1 == 1.0


    def test_depth_10000_chain(self):
        depth = 10_000
        text = (
            "".join(f"(n{i} / thing :ARG0 " for i in range(depth))
            + "(e / end :polarity - :ARG1 n0)" + ")" * depth
        )
        g = parse_penman(text)
        assert len(g.nodes) == depth + 2 and len(g.edges) == depth + 2
        assert serialize_penman(g) == text
        tokens = linearize(g)
        assert tokens[-depth - 8:] == [
            "(", f"<V{depth}>", "end", ":polarity", "-", ":ARG1", "<V0>", ")",
        ] + [")"] * depth
        assert from_line(to_line(tokens)) == tokens
        assert linearize(delinearize(tokens)) == tokens
        fixed, rep = repair_with_report(tokens)
        assert fixed == tokens
        assert rep.as_dict() == RepairReport().as_dict()


class TestLineFormat:
    def test_round_trip_plain(self):
        toks = ["(", "<V0>", "want-01", ":ARG0", "(", "<V1>", "boy", ")", ")"]
        assert from_line(to_line(toks)) == toks

    def test_quoted_token_with_space(self):
        toks = ["(", "<V0>", "city", ":name", '"New York"', ")"]
        assert from_line(to_line(toks)) == toks

    def test_quoted_token_with_escape(self):
        toks = ["(", "<V0>", "thing", ":value", '"a \\" b"', ")"]
        assert from_line(to_line(toks)) == toks

    def test_unterminated_quote_runs_to_end(self):
        assert from_line('x "unterminated rest') == ["x", '"unterminated rest']
        assert from_line('x "ab\\') == ["x", '"ab\\']  # trailing backslash inside the quote

    def test_quote_after_atom_starts_a_token(self):
        assert from_line('ab"cd"') == ["ab", '"cd"']

    def test_non_ascii_whitespace_separates(self):
        assert from_line("a\u3000b\x1cc\x85d") == ["a", "b", "c", "d"]

    @given(st.text(TOKENIZER_ALPHABET, max_size=60))
    @settings(max_examples=1000, deadline=None)
    def test_from_line_matches_reference(self, line):
        assert from_line(line) == REFERENCE_LINE_TOKEN_RE.findall(line)

    @pytest.mark.parametrize("line, tokens", [
        ("'a' + ' ' * 10**6", "['a']"),
        # an unterminated quote runs to the end of the line, spaces and all
        ("'\"a' + ' ' * 10**6", "['\"a' + ' ' * 10**6]"),
    ], ids=["plain", "unterminated-quote"])
    def test_trailing_whitespace_costs_linear_time(self, line, tokens):
        setup = f"from amrkit.linearize import from_line\nline = {line}\ntokens = {tokens}"
        assert seconds_in_fresh_process(setup, "assert from_line(line) == tokens") < 2


class TestTokenClasses:
    @given(st.text(TOKENIZER_ALPHABET, max_size=8))
    @settings(max_examples=1000, deadline=None)
    def test_classify_matches_reference(self, tok):
        assert classify(tok) == reference_classify(tok)
