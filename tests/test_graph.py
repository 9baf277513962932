import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amrkit.graph import (
    ATOM_RE,
    LABEL_RE,
    AmrGraph,
    Edge,
    MalformedPenman,
    Node,
    _tokenize_penman,
    graphs_to_text,
    iter_amr_blocks,
    parse_penman,
    read_amr_text,
    serialize_penman,
    to_triples,
)
from amrkit.linearize import delinearize, from_line, linearize, to_line

from .helpers import (
    REFERENCE_PENMAN_TOKEN_RE,
    TOKENIZER_ALPHABET,
    random_graph,
    rename_vars,
    seconds_in_fresh_process,
)

WANT_BOY = "(w / want-01 :ARG0 (b / boy))"


def canonical(g: AmrGraph) -> str:
    # linearization is variable-name independent, so equal canonical lines
    # mean isomorphic graphs with matching edge order
    return to_line(linearize(g))


def graphs(**kwargs):
    return st.integers(0, 2**31 - 1).map(
        lambda s: random_graph(np.random.RandomState(s), **kwargs)
    )


# any atom, relation label or quoted literal the atom rule allows, with the
# spellings that PENMAN text could read back as something else: atoms named
# like random_graph's variables, and line breaks, comment-like lines and
# escapes inside quotes
_atoms = st.one_of(
    st.sampled_from(["x0", "x1", "x0_", "v0"]),
    st.text(min_size=1, max_size=6).filter(ATOM_RE.fullmatch),
)
_labels = st.text(min_size=1, max_size=5).map(":".__add__).filter(LABEL_RE.fullmatch)
_quoted = st.lists(
    st.one_of(
        st.sampled_from(["\n", "\r\n", "\n# ::id q", "\n\n", "\\\"", "\\\\", "\\\n"]),
        st.characters(blacklist_characters='"\\'),
        st.characters().map("\\".__add__),
    ),
    max_size=6,
).map(lambda parts: '"' + "".join(parts) + '"')


@st.composite
def literal_graphs(draw):
    """A ``random_graph`` shape (variables ``x0``, ``x1``, ...) whose
    concepts, constants and relation labels are drawn from everything the
    atom rule allows, quoted literals with escapes, quotes, backslashes and
    line breaks included."""
    g = random_graph(np.random.RandomState(draw(st.integers(0, 2**31 - 1))), 6)
    nodes = tuple(
        Node(n.id, draw(st.one_of(_atoms, _quoted) if n.constant else _atoms), n.constant)
        for n in g.nodes
    )
    edges = tuple(Edge(e.src, draw(_labels), e.tgt) for e in g.edges)
    return AmrGraph(nodes, edges, g.root).check()


# texts parse_penman rejects, each with its message where a test pins it
_REJECTED = [
    ("", None),
    ("boy", None),
    ("(w)", None),
    ("(w / )", None),
    ("(w / want-01))", None),
    ("(w / want-01 :ARG0)", None),
    ("(w / a) (x / b)", None),
    ("(w / w1 :ARG0 (w / w2))", None),  # duplicate variable definition
    ("(w / a :ARG0 / b)", None),
    ('(w / "quoted-concept")', None),
    ("(w / a :ARG0 (b / boy) extra", None),
    ('(w / a :wiki "unterminated)', None),
    ('(w / a :wiki "x\\"', None),  # escaped quote, then end of input
    ('(w / a :wiki "x\\', None),  # backslash as the last character of an open quote
    # a constant spelled as a variable token
    ("(a / b :ARG0 (c / d) :ARG1 <V1>)", "node '<V1>': '<V1>' breaks the atom rule"),
    # a relation-shaped concept
    ("(a / :foo)", "node 'a': ':foo' breaks the atom rule"),
    # a concept spelled as a variable token
    ("(a / <V3>)", "node 'a': '<V3>' breaks the atom rule"),
    # variable names obey the atom rule too
    ("(:a / b)", "expected variable name, found ':a'"),
    ("(<V1> / b :ARG0 (c / d :ARG1 <V1>))", "expected variable name, found '<V1>'"),
]


class TestParse:
    def test_two_node_graph(self):
        g = parse_penman(WANT_BOY)
        assert [(n.id, n.concept, n.constant) for n in g.nodes] == [
            ("w", "want-01", False),
            ("b", "boy", False),
        ]
        assert g.edges == (Edge("w", ":ARG0", "b"),)
        assert g.root == "w"

    def test_single_node(self):
        g = parse_penman("(c / cat)")
        assert len(g.nodes) == 1 and g.root == "c"

    def test_unbalanced_raises(self):
        with pytest.raises(MalformedPenman):
            parse_penman("(w / want-01 :ARG0 (b / boy")

    @pytest.mark.parametrize("text, message", _REJECTED, ids=[text for text, _ in _REJECTED])
    def test_rejects_what_serializer_cannot_emit(self, text, message):
        with pytest.raises(MalformedPenman) as info:
            parse_penman(text)
        if message is not None:
            assert str(info.value) == message

    @given(st.lists(st.sampled_from(["(", ")", "/", ":ARG0", ":foo", ":", "<V1>", '"q"',
                                     '"a b"', "a", "b", "-"]), max_size=24))
    @settings(max_examples=500, deadline=None)
    def test_token_soup_parses_to_checked_graph_or_raises(self, tokens):
        try:
            g = parse_penman(" ".join(tokens))
        except MalformedPenman:
            return
        assert g.check() is g

    @given(st.text(TOKENIZER_ALPHABET, min_size=1, max_size=8))
    @example("<V0> <V٣> <V> :a a:b")
    @settings(max_examples=300, deadline=None)
    def test_variable_names_obey_the_atom_rule(self, text):
        # parse_penman decides a variable's token by its first character and
        # VAR_TOKEN_RE, not by ATOM_RE: the two must agree on every token
        try:
            tokens = _tokenize_penman(text)
        except MalformedPenman:
            return
        for tok in tokens:
            if ATOM_RE.fullmatch(tok):
                assert parse_penman(f"({tok} / b)").root == tok
            else:
                message = f"expected variable name, found {tok!r}"
                with pytest.raises(MalformedPenman, match=f"^{re.escape(message)}$"):
                    parse_penman(f"({tok} / b)")

    def test_tokenizer_edge_cases(self):
        assert _tokenize_penman('ab"cd"') == ["ab", '"cd"']
        assert _tokenize_penman('"a\\"b" c') == ['"a\\"b"', "c"]
        assert _tokenize_penman("(w\u3000/\x1cboy\x85)") == ["(", "w", "/", "boy", ")"]
        for text in ('a "x', 'a "x\\"', 'a "x\\'):
            with pytest.raises(MalformedPenman, match="unterminated string literal"):
                _tokenize_penman(text)

    @given(st.text(TOKENIZER_ALPHABET, max_size=60))
    @settings(max_examples=1000, deadline=None)
    def test_tokenizer_matches_reference(self, text):
        tokens = REFERENCE_PENMAN_TOKEN_RE.findall(text)
        if '"' in tokens:
            with pytest.raises(MalformedPenman, match="^unterminated string literal$"):
                _tokenize_penman(text)
        else:
            assert _tokenize_penman(text) == tokens

    def test_trailing_whitespace_costs_linear_time(self):
        # each match skips the whitespace before its token; trailing
        # whitespace, with no token after it, would be rescanned from each
        # of its characters (hours for this input) unless it is stripped
        setup = "from amrkit.graph import parse_penman, serialize_penman"
        stmt = "assert serialize_penman(parse_penman('(a / b)' + ' ' * 10**6)) == '(a / b)'"
        assert seconds_in_fresh_process(setup, stmt) < 2

    def test_every_prefix_message(self):
        """Each proper prefix of a multi-line graph raises MalformedPenman
        with the message pinned here, and no cause."""
        text = (
            '# ::id 1\n(w / want-01\n   :ARG0 (b / boy)\n   :ARG1 (g / go-02\n'
            '      :ARG0 b\n      :name "New York"))'
        )
        end = "unexpected end of input (unbalanced parentheses)"

        def typing(rel):  # the prefixes that end in ``rel`` or the space after it
            return ([("expected relation or ')', found ':'", 1)]
                    + [(f"relation {rel[:k]!r} has no value", 1) for k in range(2, len(rel))]
                    + [(f"relation {rel!r} has no value", 2)])

        runs = [("empty input", 10), (end, 16), *typing(":ARG0"), (end, 13), *typing(":ARG1"),
                (end, 17), *typing(":ARG0"), (end, 8), *typing(":name"),
                ("unterminated string literal", 9), (end, 2)]
        expected = [message for message, count in runs for _ in range(count)]
        assert len(expected) == len(text)
        for k, message in enumerate(expected):
            with pytest.raises(MalformedPenman) as info:
                parse_penman(text[:k])
            assert type(info.value) is MalformedPenman
            assert (k, str(info.value)) == (k, message)
            assert info.value.__cause__ is None
        assert serialize_penman(parse_penman(text)) == (
            '# ::id 1\n(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b :name "New York"))'
        )

    def test_reentrancy_single_node_many_edges(self):
        g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))")
        assert len(g.nodes) == 3
        assert [e.tgt for e in g.edges].count("b") == 2

    def test_forward_reference_resolves_to_variable(self):
        g = parse_penman("(w / want-01 :ARG1 g :ARG0 (g / go-02))")
        assert g.edges[0] == Edge("w", ":ARG1", "g")
        assert not g.node("g").constant

    def test_constants(self):
        g = parse_penman('(p / possible-01 :polarity - :quant 3 :wiki "New (York)")')
        consts = {n.concept for n in g.nodes if n.constant}
        assert consts == {"-", "3", '"New (York)"'}
        for n in g.nodes:
            if n.constant:
                assert not g.outgoing(n.id)

    def test_constant_dedup_and_reuse(self):
        g = parse_penman("(a / and :polarity - :mode -)")
        assert sum(1 for n in g.nodes if n.constant) == 1
        assert len(g.edges) == 2

    def test_metadata_side_table(self):
        text = "# ::id test.1\n# ::snt The boy wants to go.\n(w / want-01)"
        g = parse_penman(text)
        assert g.metadata == {"id": "test.1", "snt": "The boy wants to go."}

    def test_metadata_round_trips(self):
        text = "# ::id test.1\n# ::snt The boy wants to go.\n(w / want-01)"
        out = serialize_penman(parse_penman(text))
        assert "# ::id test.1" in out and "# ::snt The boy wants to go." in out
        assert parse_penman(out).metadata == parse_penman(text).metadata

    def test_indentation_accepted_and_discarded(self):
        text = "(w / want-01\n    :ARG0 (b / boy)\n    :ARG1 (g / go-02\n        :ARG0 b))"
        g = parse_penman(text)
        assert serialize_penman(g) == "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"

    def test_duplicate_relation_labels_kept_in_order(self):
        g = parse_penman('(n / name :op1 "New" :op1 "York")')
        assert [e.label for e in g.edges] == [":op1", ":op1"]
        assert [g.node(e.tgt).concept for e in g.edges] == ['"New"', '"York"']


class TestSerialize:
    def test_two_node(self):
        assert serialize_penman(parse_penman(WANT_BOY)) == WANT_BOY

    def test_single_node(self):
        assert serialize_penman(parse_penman("(c / cat)")) == "(c / cat)"

    def test_reentrant_graph(self):
        nodes = (Node("w", "want-01"), Node("b", "boy"), Node("g", "go-02"))
        edges = (Edge("w", ":ARG0", "b"), Edge("w", ":ARG1", "g"), Edge("g", ":ARG0", "b"))
        g = AmrGraph(nodes, edges, "w")
        text = serialize_penman(g)
        assert text == "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"
        assert canonical(parse_penman(text)) == canonical(g)

    @pytest.mark.parametrize("walk", [linearize, serialize_penman, AmrGraph.check,
                                      lambda g: list(g.walk())],
                             ids=["linearize", "serialize_penman", "check", "walk"])
    def test_unreachable_node_rejected(self, walk):
        g = AmrGraph((Node("a", "x"), Node("b", "y")), (), "a")
        with pytest.raises(ValueError, match=r"^nodes unreachable from root: \['b'\]$"):
            walk(g)

    @pytest.mark.parametrize("walk", [linearize, serialize_penman, AmrGraph.check,
                                      lambda g: list(g.walk())],
                             ids=["linearize", "serialize_penman", "check", "walk"])
    def test_duplicate_node_id_rejected(self, walk):
        # a walk keyed by id would see one node "a" and drop the other
        g = AmrGraph((Node("a", "x"), Node("a", "y")), (), "a")
        with pytest.raises(ValueError, match=r"^duplicate node identifiers$"):
            walk(g)

    @pytest.mark.parametrize("metadata", [
        {"snt": "x\n(z / y)"},  # a line break ends the header line
        {"snt": "a ::id b"},  # a field marker starts another field
        {"my key": "v"},  # the key ends at the first space
        {"snt": " padded"},  # outer whitespace is stripped on reading
        {"id": 5},  # only strings are written
        {"": "v"},
        {5: "v"},
    ], ids=repr)
    def test_metadata_that_does_not_read_back_rejected(self, metadata):
        g = AmrGraph((Node("a", "b"),), (), "a", {"ok": "fine", **metadata})
        key = re.escape(repr(next(iter(metadata))))
        with pytest.raises(ValueError, match=rf"^metadata field {key} "):
            serialize_penman(g)

    @given(st.dictionaries(
        st.one_of(st.text(max_size=6), st.sampled_from(["id", "::", "a::b"])),
        st.one_of(st.text(max_size=8), st.sampled_from(["a ::b", "a ::", ":: b", "x\x85"])),
        max_size=3,
    ))
    @settings(max_examples=500, deadline=None)
    def test_metadata_reads_back_or_raises(self, metadata):
        g = AmrGraph((Node("a", "b"),), (), "a", metadata)
        try:
            text = serialize_penman(g)
        except ValueError as exc:
            assert str(exc).startswith("metadata field ")
            return
        assert parse_penman(text).metadata == metadata

    @given(st.lists(st.text(st.sampled_from([":", " ", "\t", "\r", "\x85", "#", "a", "b"]),
                            max_size=12).map("#".__add__), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_every_header_read_writes_back(self, lines):
        g = parse_penman("\n".join([*lines, "(a / b)"]))
        assert parse_penman(serialize_penman(g)).metadata == g.metadata


class TestCheck:
    @pytest.mark.parametrize("nodes, edges, root, message", [
        ([Node("a", "x")], [], "b", "root must name a variable-bearing node"),
        ([Node("a", "x"), Node("-", "-", constant=True)], [Edge("a", ":polarity", "-")], "-",
         "root must name a variable-bearing node"),
        ([Node("a", "x"), Node("b", "y")], [Edge("a", "ARG0", "b")], "a", "invalid edge label 'ARG0'"),
        ([Node("a", "x")], [Edge("a", ":ARG0", "b")], "a",
         "edge Edge(src='a', label=':ARG0', tgt='b') names a missing node"),
        ([Node("a", "x"), Node("-", "-", constant=True)],
         [Edge("a", ":polarity", "-"), Edge("-", ":mod", "a")], "a", "constant node '-' has an outgoing edge"),
    ], ids=["missing-root", "constant-root", "label", "missing-node", "constant-source"])
    def test_rejects(self, nodes, edges, root, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AmrGraph(tuple(nodes), tuple(edges), root).check()

    @pytest.mark.parametrize("metadata", [
        {"a b": "x"}, {"id": "x\ny"}, {"id": " x"}, {"id": "x ::y z"}, {1: "x"}, {"id": 3},
    ], ids=repr)
    def test_rejects_metadata_serialize_refuses(self, metadata):
        # check refuses the metadata serialize_penman refuses, with its message
        g = AmrGraph((Node("a", "b"),), (), "a", metadata)
        message = f"metadata field {next(iter(metadata))!r} does not read back as a '# ::' line"
        for step in (serialize_penman, AmrGraph.check):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                step(g)


class TestWalk:
    @given(st.one_of(graphs(), literal_graphs()))
    @settings(max_examples=300, deadline=None)
    def test_steps_cover_each_edge_once_in_first_visit_order(self, g):
        steps = list(g.walk())
        assert steps[0] == (None, g.node(g.root), True)
        opened, open_ids = [], []
        walked: dict[str, list[tuple[str, str]]] = {}
        for step in steps:
            if step is None:
                open_ids.pop()
                continue
            label, node, opens = step
            if label is not None:
                walked[open_ids[-1]].append((label, node.id))
            if opens:
                opened.append(node)
                open_ids.append(node.id)
                walked[node.id] = []
        assert not open_ids
        # one opening and one closing step per variable, the root first
        assert [n.id for n in opened][0] == g.root
        assert sorted(n.id for n in opened) == sorted(n.id for n in g.var_nodes())
        assert steps.count(None) == len(g.var_nodes())
        # every edge once, each node's in edge-list order
        assert sum(map(len, walked.values())) == len(g.edges)
        for node_id, pairs in walked.items():
            assert pairs == [(e.label, e.tgt) for e in g.outgoing(node_id)]
        # the writers number and define the variables in the order they open
        tokens = linearize(g)
        defined = [(tokens[i + 1], tokens[i + 2]) for i, tok in enumerate(tokens) if tok == "("]
        assert defined == [(f"<V{k}>", n.concept) for k, n in enumerate(opened)]
        groups = parse_penman(serialize_penman(g)).var_nodes()
        assert [n.concept for n in groups] == [n.concept for n in opened]
        assert all(w.id == n.id + "_" * (len(w.id) - len(n.id)) for w, n in zip(groups, opened))


class TestTriples:
    def test_two_node(self):
        got = {(t.kind, t.src, t.label, t.tgt) for t in to_triples(parse_penman(WANT_BOY))}
        assert got == {
            ("instance", "w", "instance", "want-01"),
            ("instance", "b", "instance", "boy"),
            ("relation", "w", "ARG0", "b"),
            ("attribute", "w", "TOP", "want-01"),
        }

    def test_single_node(self):
        got = {(t.kind, t.src, t.label, t.tgt) for t in to_triples(parse_penman("(c / cat)"))}
        assert got == {("instance", "c", "instance", "cat"), ("attribute", "c", "TOP", "cat")}

    def test_polarity_constant_is_attribute(self):
        triples = to_triples(parse_penman("(p / possible-01 :polarity -)"))
        assert ("attribute", "p", "polarity", "-") in {
            (t.kind, t.src, t.label, t.tgt) for t in triples
        }

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_count_formula(self, g):
        assert len(to_triples(g)) == len(g.var_nodes()) + len(g.edges) + 1


class TestRoundTrip:
    @given(graphs(max_var_nodes=8, max_constants=4))
    @settings(max_examples=80, deadline=None)
    def test_parse_serialize_isomorphic(self, g):
        assert canonical(parse_penman(serialize_penman(g))) == canonical(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_with_renamed_vars(self, g):
        assert canonical(parse_penman(serialize_penman(rename_vars(g)))) == canonical(g)

    @given(literal_graphs())
    @settings(max_examples=300, deadline=None)
    def test_every_checked_graph_round_trips(self, g):
        assert canonical(parse_penman(serialize_penman(g))) == canonical(g)
        tokens = linearize(g)
        assert from_line(to_line(tokens)) == tokens
        assert linearize(delinearize(tokens)) == tokens

    @given(st.one_of(graphs(), literal_graphs()))
    @settings(max_examples=300, deadline=None)
    def test_both_readers_build_the_same_graph(self, g):
        # one builder behind both readers: the same graph read from its
        # linear form and from its PENMAN form is one AmrGraph, unless
        # serialize_penman must rename a variable that a bare constant spells
        d = delinearize(linearize(g))
        assume(not {n.concept for n in d.nodes if n.constant} & {n.id for n in d.var_nodes()})
        assert parse_penman(serialize_penman(d)) == d

    def test_file_format_blocks(self):
        rng = np.random.RandomState(0)
        gs = [random_graph(rng) for _ in range(5)]
        for i, g in enumerate(gs):
            g.metadata["id"] = f"r{i}"
        back = read_amr_text(graphs_to_text(gs))
        assert len(back) == 5
        assert [g.metadata["id"] for g in back] == [f"r{i}" for i in range(5)]
        assert [canonical(a) for a in back] == [canonical(b) for b in gs]

    @pytest.mark.parametrize("inner", ["x\n\ny", "x\n  \ny", "x\r\ny", "x\r\n\r\ny"])
    def test_file_format_keeps_line_breaks_inside_literals(self, inner):
        g = parse_penman(f'(a / b :name "{inner}" :mod "p q")')
        g.metadata["snt"] = 'a "quote in metadata does not open a literal'
        gs = [g, parse_penman(WANT_BOY), g]
        text = graphs_to_text(gs)
        # each block comes back as written
        assert list(iter_amr_blocks(text)) == [serialize_penman(x) for x in gs]
        back = read_amr_text(text)
        assert [canonical(a) for a in back] == [canonical(b) for b in gs]
        assert [n.concept for n in back[2].nodes if n.constant] == [f'"{inner}"', '"p q"']

    def test_blocks_split_at_blank_lines_outside_literals(self):
        assert list(iter_amr_blocks("\n  \n(a / b)\r\n \r\n\r\n# ::id 2\r\n(c / d)\r\n")) == [
            "(a / b)",
            "# ::id 2\r\n(c / d)",
        ]
        # a quote that nothing closes opens no literal: the block around it
        # fails to parse, the next one still reads
        text = '(a / b :name "x)\n\n(c / d)\n'
        assert list(iter_amr_blocks(text)) == ['(a / b :name "x)', "(c / d)"]
