"""Seeded input generators and the benchmark's own reference code.

Everything here is independent of the code under test except the graph
data model (``AmrGraph``/``Node``/``Edge``), which is how inputs are handed
to the program.  The linearizer, PENMAN writer and triple decomposition
below are written from the format descriptions, so the checks in
``workloads.py`` can compare the program against them instead of against
itself.  All walkers are iterative, so the deep chains can be generated.
"""

from __future__ import annotations

import random
from collections import Counter

from amrkit.graph import AmrGraph, Edge, Node

FRAMES = tuple(
    f"{w}-0{k}"
    for w, k in (
        ("want", 1), ("go", 2), ("see", 1), ("say", 1), ("possible", 1), ("run", 2),
        ("make", 1), ("give", 1), ("know", 1), ("think", 1), ("need", 1), ("use", 1),
        ("work", 1), ("live", 1), ("begin", 1), ("help", 1), ("believe", 1), ("ask", 1),
        ("hold", 1), ("bring", 1), ("write", 1), ("provide", 1), ("sit", 1), ("stand", 1),
        ("lose", 2), ("pay", 1), ("meet", 3), ("include", 1), ("continue", 1), ("change", 1),
    )
)
NOUNS = (
    "boy", "girl", "dog", "cat", "city", "thing", "person", "country", "house", "car",
    "book", "tree", "river", "school", "company", "government", "name", "date-entity",
    "money", "problem", "word", "world", "family", "student", "water", "night",
)
CONCEPTS = FRAMES + NOUNS
RELATIONS = (
    ":ARG0", ":ARG1", ":ARG2", ":ARG3", ":mod", ":op1", ":op2", ":op3", ":time",
    ":location", ":poss", ":manner", ":purpose", ":domain", ":quant", ":name",
)
CONSTANTS = ("-", "+", "1", "2", "10", "2021", "imperative", "expressive",
             '"New York"', '"Maria"', '"a b"', '"UN"')
FILLER = tuple(f"w{i}" for i in range(400))
JUNK = (":", "a/b", "x(y", "amr)", "//")


# ---------------------------------------------------------------------------
# graphs

def make_graph(rng: random.Random, n_vars: int, prefix: str = "x",
               distinct: bool = False, metadata: dict | None = None) -> AmrGraph:
    """A random valid graph with ``n_vars`` variables: a random tree, about
    one re-entrancy per six variables, and about one constant per four."""
    ids = [f"{prefix}{i}" for i in range(n_vars)]
    concepts = (rng.sample(CONCEPTS, n_vars) if distinct
                else [rng.choice(CONCEPTS) for _ in ids])
    nodes = [Node(v, c) for v, c in zip(ids, concepts)]
    edges = [Edge(ids[rng.randrange(i)], rng.choice(RELATIONS), ids[i])
             for i in range(1, n_vars)]
    if n_vars > 2:
        for _ in range(n_vars // 6):
            edges.append(Edge(ids[rng.randrange(n_vars)], rng.choice(RELATIONS),
                              ids[rng.randrange(n_vars)]))
    consts: dict[str, Node] = {}
    for _ in range(max(1, n_vars // 4)):
        lit = rng.choice(CONSTANTS)
        consts.setdefault(lit, Node(f"c{len(consts)}", lit, constant=True))
        edges.append(Edge(ids[rng.randrange(n_vars)], rng.choice(RELATIONS), consts[lit].id))
    rng.shuffle(edges)
    return AmrGraph(tuple(nodes) + tuple(consts.values()), tuple(edges), ids[0],
                    dict(metadata or {}))


def chain_graph(depth: int, metadata: dict | None = None) -> AmrGraph:
    """A single path of ``depth`` variables: the deepest nesting PENMAN and
    the linear form can express for that many nodes."""
    ids = [f"d{i}" for i in range(depth)]
    nodes = tuple(Node(v, "thing") for v in ids)
    edges = tuple(Edge(ids[i], ":ARG1", ids[i + 1]) for i in range(depth - 1))
    return AmrGraph(nodes, edges, ids[0], dict(metadata or {}))


def renamed(g: AmrGraph, rng: random.Random, prefix: str = "p") -> AmrGraph:
    """The same graph under fresh, shuffled variable names."""
    order = [n.id for n in g.var_nodes()]
    rng.shuffle(order)
    names = {v: f"{prefix}{i}" for i, v in enumerate(order)}
    nodes = tuple(Node(names.get(n.id, n.id), n.concept, n.constant) for n in g.nodes)
    edges = tuple(Edge(names.get(e.src, e.src), e.label, names.get(e.tgt, e.tgt))
                  for e in g.edges)
    return AmrGraph(nodes, edges, names[g.root])


def perturbed(g: AmrGraph, rng: random.Random, k: int, drops: int) -> AmrGraph:
    """``k`` substitutions of concepts and of relation labels, ``drops``
    dropped edges and ``k // 2`` added edges.  Nodes that lose their last
    path from the root simply vanish from the linearization."""
    nodes = list(g.nodes)
    var_pos = [i for i, n in enumerate(nodes) if not n.constant]
    for _ in range(k):
        i = rng.choice(var_pos)
        nodes[i] = Node(nodes[i].id, rng.choice(CONCEPTS))
    edges = list(g.edges)
    for _ in range(k):
        i = rng.randrange(len(edges))
        edges[i] = Edge(edges[i].src, rng.choice(RELATIONS), edges[i].tgt)
    for _ in range(drops):
        if len(edges) > 1:
            edges.pop(rng.randrange(len(edges)))
    var_ids = [nodes[i].id for i in var_pos]
    for _ in range(k // 2):
        edges.insert(rng.randrange(len(edges) + 1),
                     Edge(rng.choice(var_ids), rng.choice(RELATIONS), rng.choice(var_ids)))
    return AmrGraph(tuple(nodes), tuple(edges), g.root)


# ---------------------------------------------------------------------------
# reference linearization, PENMAN writer and triples

def ref_linearize(g: AmrGraph) -> list[str]:
    """Depth-first, children in edge order, first visit expands, later
    visits emit the variable token, constants inline; nodes the root cannot
    reach are left out."""
    index: dict[str, int] = {}
    out: list[str] = []

    def open_node(v: str) -> None:
        index[v] = len(index)
        out.extend(("(", f"<V{index[v]}>", g.node(v).concept))

    open_node(g.root)
    stack = [(g.root, iter(g.outgoing(g.root)))]
    while stack:
        e = next(stack[-1][1], None)
        if e is None:
            stack.pop()
            out.append(")")
            continue
        out.append(e.label)
        tgt = g.node(e.tgt)
        if tgt.constant:
            out.append(tgt.concept)
        elif e.tgt in index:
            out.append(f"<V{index[e.tgt]}>")
        else:
            open_node(e.tgt)
            stack.append((e.tgt, iter(g.outgoing(e.tgt))))
    return out


def ref_penman(g: AmrGraph) -> str:
    """Indented multi-line PENMAN with a ``# ::`` metadata header, as AMR
    release files are written."""
    lines = [f"# ::{k} {v}" for k, v in g.metadata.items()]
    seen: set[str] = set()
    parts: list[str] = []

    def open_node(v: str, depth: int) -> None:
        seen.add(v)
        parts.append(f"({v} / {g.node(v).concept}")
        stack.append((v, iter(g.outgoing(v)), depth))

    stack: list = []
    open_node(g.root, 1)
    while stack:
        v, it, depth = stack[-1]
        e = next(it, None)
        if e is None:
            stack.pop()
            parts.append(")")
            continue
        parts.append("\n" + "      " * min(depth, 12) + e.label + " ")
        tgt = g.node(e.tgt)
        if tgt.constant:
            parts.append(tgt.concept)
        elif e.tgt in seen:
            parts.append(e.tgt)
        else:
            open_node(e.tgt, depth + 1)
    lines.append("".join(parts))
    return "\n".join(lines)


def _norm_const(value: str) -> str:
    return value[1:-1] if len(value) >= 2 and value[0] == value[-1] == '"' else value


def ref_triples(g: AmrGraph) -> list[tuple]:
    """Instance, TOP and edge triples keyed the way Smatch compares them:
    relation and attribute labels case-folded, constants unquoted."""
    out = [("instance", n.id, n.concept) for n in g.nodes if not n.constant]
    out.append(("attr", g.root, "top", g.node(g.root).concept))
    for e in g.edges:
        tgt = g.node(e.tgt)
        if tgt.constant:
            out.append(("attr", e.src, e.label[1:].casefold(), _norm_const(tgt.concept)))
        else:
            out.append(("rel", e.src, e.label[1:].casefold(), e.tgt))
    return out


def recount_matched(pred: AmrGraph, gold: AmrGraph, mapping: dict[str, str]) -> int:
    """Multiset overlap of the two triple sets once pred variables are
    renamed by ``mapping``; triples touching an unmapped variable match
    nothing."""
    gold_c = Counter(ref_triples(gold))
    mapped = Counter()
    for t in ref_triples(pred):
        if t[0] == "rel":
            if t[1] in mapping and t[3] in mapping:
                mapped[("rel", mapping[t[1]], t[2], mapping[t[3]])] += 1
        elif t[1] in mapping:
            mapped[(t[0], mapping[t[1]]) + t[2:]] += 1
    return sum((mapped & gold_c).values())


# ---------------------------------------------------------------------------
# model-output damage

def damaged(tokens: list[str], rng: random.Random, kinds: str, max_len: int) -> list[str]:
    """Damage a linearization the way decoder output is damaged.  ``kinds``
    holds one letter per damage: ``d`` drops a parenthesis, ``a`` adds a ``(``,
    ``j`` inserts a junk token or a stray concept, ``v`` swaps two variable
    tokens so indices come out of order, ``t`` truncates at ``max_len``."""
    toks = list(tokens)
    for kind in kinds:
        if kind == "d":
            parens = [i for i, t in enumerate(toks) if t in "()" and i > 0]
            if parens:
                toks.pop(rng.choice(parens))
        elif kind == "a":
            toks.insert(rng.randrange(1, len(toks) + 1), "(")
        elif kind == "j":
            junk = rng.choice(JUNK + CONCEPTS[:5])
            toks.insert(rng.randrange(1, len(toks) + 1), junk)
        elif kind == "v":
            var_pos = [i for i, t in enumerate(toks) if t.startswith("<V")]
            if len(var_pos) >= 2:
                i, k = rng.sample(var_pos, 2)
                toks[i], toks[k] = toks[k], toks[i]
        elif kind == "t":
            toks = toks[:max_len]
    return toks


def sentence_for(g: AmrGraph, rng: random.Random) -> str:
    """A stand-in English sentence: one word per concept (sense suffix
    removed), one per constant, and a few filler words, shuffled."""
    words = [n.concept.split("-")[0] if not n.constant else _norm_const(n.concept).replace(" ", "_")
             for n in g.nodes]
    words += rng.sample(FILLER, 3)
    rng.shuffle(words)
    return " ".join(words)


def size_histogram(sizes) -> str:
    """Counts per variable-count bin, as printed by each run."""
    bins = ((1, 4), (5, 8), (9, 12), (13, 15), (16, 20), (21, 25), (26, 30),
            (31, 40), (41, 60), (61, 10**9))
    counts = Counter(next(b for b in bins if b[0] <= s <= b[1]) for s in sizes)
    return " ".join(f"{lo}-{hi}:{counts[lo, hi]}" if hi < 10**9 else f">{lo - 1}:{counts[lo, hi]}"
                    for lo, hi in bins if counts[lo, hi])
