"""Shared generators and model doubles for the test suite."""

from __future__ import annotations

import math
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np

from amrkit.decode import BeamHypothesis

import amrkit
from amrkit import _match
from amrkit.graph import ATOM_RE, LABEL_RE, QUOTED_RE, VAR_TOKEN_RE, AmrGraph, Edge, Node, to_triples
from amrkit.seqmodel import BOS, EOS, SeqModel, ToyCondModel
from amrkit.smatch import SmatchResult, _norm_const, _Problem, _random_init, _smart_init

CONCEPTS = (
    "want-01",
    "go-02",
    "see-01",
    "say-01",
    "possible-01",
    "run-02",
    "boy",
    "girl",
    "dog",
    "cat",
    "city",
    "thing",
)
RELATIONS = (":ARG0", ":ARG1", ":ARG2", ":mod", ":op1", ":op2", ":time", ":location", ":poss")
CONSTANT_LITERALS = ("-", "+", "1", "2", "imperative", '"New York"', '"a b"')

TOY_VOCAB = (BOS, EOS, "a", "b", "c")

# Reference forms of the text layer's tokenizers and token classes: each
# tokenizer as one findall pattern that skips whitespace by failing to
# match it, and the token classes tried one pattern at a time.
REFERENCE_PENMAN_TOKEN_RE = re.compile(rf'[()/]|{QUOTED_RE.pattern}|[^\s()/"]+|"')
REFERENCE_LINE_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*(?:"|\\?\Z)|[^\s"]+', re.S)
# Text for the tokenizer differentials: structural characters, letters and
# ASCII and Unicode whitespace (all of them ``str.isspace``).
TOKENIZER_ALPHABET = '()/":\\abxV<>0' + " \t\n\r\x1c\x85\u3000"


def reference_classify(tok: str) -> str:
    if tok == "(":
        return "open"
    if tok == ")":
        return "close"
    if VAR_TOKEN_RE.fullmatch(tok):
        return "var"
    if QUOTED_RE.fullmatch(tok) or ATOM_RE.fullmatch(tok):
        return "lit"
    return "rel" if LABEL_RE.fullmatch(tok) else "junk"


def seconds_in_fresh_process(setup: str, stmt: str, timeout: float = 30.0) -> float:
    """Seconds that ``stmt`` takes in a fresh interpreter after ``setup``
    (both Python source, with ``amrkit`` importable).  The interpreter is
    killed after ``timeout`` seconds, which fails the test: a scan that is
    quadratic in its input would otherwise hold the suite for hours."""
    code = f"import time\n{setup}\nt0 = time.perf_counter()\n{stmt}\nprint(time.perf_counter() - t0)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(amrkit.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout, env=env)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


def counting_adapter(tmp_path: Path, drop_second: bool = False) -> tuple[str, Path]:
    """A shell-script adapter command for ``CommandTranslator``, and the log
    it appends one line to per process it runs as.  The adapter echoes each
    stdin line, adds a carriage return and ``tail`` to a line containing
    ``carriage`` and exits 1 at a line containing ``bad``; with
    ``drop_second`` it leaves out the second line of its input."""
    log = tmp_path / "adapter.log"
    script = tmp_path / "adapter.sh"
    drop = '[ "$n" -eq 2 ] && continue' if drop_second else ":"
    script.write_text(
        'echo run >> "$1"\n'
        "n=0\n"
        "while IFS= read -r line; do\n"
        "  n=$((n + 1))\n"
        "  case $line in\n"
        "    *bad*) exit 1 ;;\n"
        '    *carriage*) printf "%s\\rtail\\n" "$line"; continue ;;\n'
        "  esac\n"
        f"  {drop}\n"
        "  printf '%s\\n' \"$line\"\n"
        "done\n"
    )
    return f"sh {shlex.quote(str(script))} {shlex.quote(str(log))}", log


def adapter_runs(log: Path) -> int:
    return len(log.read_text().splitlines())


def random_graph(
    rng: np.random.RandomState,
    max_var_nodes: int = 8,
    max_constants: int = 3,
    max_reentrancies: int = 2,
    var_prefix: str = "x",
) -> AmrGraph:
    """A random valid graph: a tree over variable nodes plus a few re-entrant
    edges and constant attributes, edge order shuffled."""
    n = int(rng.randint(1, max_var_nodes + 1))
    var_ids = [f"{var_prefix}{i}" for i in range(n)]
    nodes = [Node(v, CONCEPTS[rng.randint(len(CONCEPTS))]) for v in var_ids]
    edges = [
        Edge(var_ids[int(rng.randint(0, i))], RELATIONS[rng.randint(len(RELATIONS))], var_ids[i])
        for i in range(1, n)
    ]
    if n > 1:
        for _ in range(int(rng.randint(0, max_reentrancies + 1))):
            edges.append(
                Edge(
                    var_ids[int(rng.randint(0, n))],
                    RELATIONS[rng.randint(len(RELATIONS))],
                    var_ids[int(rng.randint(0, n))],
                )
            )
    const_nodes: dict[str, Node] = {}
    for _ in range(int(rng.randint(0, max_constants + 1))):
        lit = CONSTANT_LITERALS[rng.randint(len(CONSTANT_LITERALS))]
        if lit not in const_nodes:
            const_nodes[lit] = Node(lit, lit, constant=True)
        edges.append(
            Edge(var_ids[int(rng.randint(0, n))], RELATIONS[rng.randint(len(RELATIONS))], lit)
        )
    rng.shuffle(edges)
    g = AmrGraph(tuple(nodes) + tuple(const_nodes.values()), tuple(edges), var_ids[0])
    return g.check()


def rename_vars(g: AmrGraph, prefix: str = "z") -> AmrGraph:
    """Same graph with all variable names replaced; constants untouched."""
    mapping = {n.id: f"{prefix}{i}" for i, n in enumerate(g.var_nodes())}
    nodes = tuple(Node(mapping.get(n.id, n.id), n.concept, n.constant) for n in g.nodes)
    edges = tuple(
        Edge(mapping.get(e.src, e.src), e.label, mapping.get(e.tgt, e.tgt)) for e in g.edges
    )
    return AmrGraph(nodes, edges, mapping[g.root], dict(g.metadata)).check()


def random_toy_model(
    seed: int,
    src: list[str],
    vocab: tuple[str, ...] = TOY_VOCAB,
    order: int = 2,
    alpha: float = 0.1,
    scale: float = 5.0,
) -> ToyCondModel:
    """ToyCondModel with random counts for every context reachable from
    ``src``, giving an arbitrary but deterministic conditional distribution."""
    model = ToyCondModel(vocab, order=order, alpha=alpha)
    rng = np.random.RandomState(seed)
    bucket = model.bucket(src)
    contexts = [()] if order == 1 else list(product(range(len(vocab)), repeat=order - 1))
    for ctx in contexts:
        counts = rng.gamma(0.5, scale, size=len(vocab))
        counts[model.index(BOS)] = 0.0
        model.counts[(bucket, tuple(ctx))] = counts
    return model


class ScriptedModel(SeqModel):
    """Distribution depends only on the prefix length: dists[t] at step t,
    the last entry repeating beyond the script."""

    def __init__(self, vocab, dists):
        super().__init__(vocab)
        self.dists = [np.asarray(d, dtype=float) for d in dists]

    def next_dist(self, prefix, src):
        return self.dists[min(len(prefix), len(self.dists) - 1)]


def one_hot(vocab: tuple[str, ...], token: str) -> np.ndarray:
    vec = np.zeros(len(vocab))
    vec[vocab.index(token)] = 1.0
    return vec


def deterministic_model(vocab: tuple[str, ...], tokens: list[str]) -> ScriptedModel:
    """Puts probability one on tokens[t] at step t, then EOS forever."""
    dists = [one_hot(vocab, t) for t in tokens] + [one_hot(vocab, EOS)]
    return ScriptedModel(vocab, dists)


def kernel_arrays(pair) -> tuple:
    """The six arrays a ``_match.Pair`` was built from, in constructor
    order, for the reference forms below, which never read its tables."""
    return pair.unary, pair.rsrc, pair.rtgt, pair.rlab, pair.rcnt, pair.grel


def reference_score(mapping, unary, rsrc, rtgt, rlab, rcnt, grel) -> int:
    """Loop form of ``_match.score_mapping`` for one mapping: the unary terms
    of the mapped pred variables plus, per pred relation bucket whose ends
    are both mapped, the smaller of its count and the gold count."""
    total = 0
    for i in range(mapping.shape[0]):
        j = mapping[i]
        if j >= 0:
            total += unary[i, j]
    for b in range(rsrc.shape[0]):
        j = mapping[rsrc[b]]
        l = mapping[rtgt[b]]
        if j >= 0 and l >= 0:
            total += min(grel[j, l, rlab[b]], rcnt[b])
    return total


def reference_best_score(unary, rsrc, rtgt, rlab, rcnt, grel) -> int:
    """Brute-force optimum for ``_match.exact_mapping``: the best
    ``reference_score`` over every partial injective mapping, each pred
    variable sent to a distinct gold variable or left unmapped (-1)."""
    n1, n2 = unary.shape
    best = 0
    for cols in product(range(-1, n2), repeat=n1):
        mapped = [c for c in cols if c >= 0]
        if len(mapped) == len(set(mapped)):
            mapping = np.array(cols, np.int64)
            best = max(best, reference_score(mapping, unary, rsrc, rtgt, rlab, rcnt, grel))
    return best


def reference_hill_climb(mapping, unary, rsrc, rtgt, rlab, rcnt, grel) -> int:
    """Brute-force form of ``_match.hill_climb``: every candidate move is
    rescored from scratch with ``reference_score``.  Remaps (by i, then
    j) are scanned before swaps (by i, then k > i) and only a strictly better
    move replaces the best so far.  Mutates ``mapping``; returns its score."""
    args = (unary, rsrc, rtgt, rlab, rcnt, grel)
    n1, n2 = unary.shape
    used = np.zeros(n2, bool)
    used[mapping[mapping >= 0]] = True
    cur = reference_score(mapping, *args)
    while True:
        best_gain, best_i, best_j, best_k = 0, -1, -1, -1
        for i in range(n1):
            old = mapping[i]
            for j in range(n2):
                if used[j] or j == old:
                    continue
                mapping[i] = j
                gain = reference_score(mapping, *args) - cur
                mapping[i] = old
                if gain > best_gain:
                    best_gain, best_i, best_j, best_k = gain, i, j, -1
        for i in range(n1):
            for k in range(i + 1, n1):
                if mapping[i] == mapping[k]:
                    continue
                mapping[[i, k]] = mapping[[k, i]]
                gain = reference_score(mapping, *args) - cur
                mapping[[i, k]] = mapping[[k, i]]
                if gain > best_gain:
                    best_gain, best_i, best_j, best_k = gain, i, -1, k
        if best_gain <= 0:
            return cur
        if best_k < 0:
            if mapping[best_i] >= 0:
                used[mapping[best_i]] = False
            mapping[best_i] = best_j
            used[best_j] = True
        else:
            mapping[[best_i, best_k]] = mapping[[best_k, best_i]]
        cur += best_gain


def reference_unary(pred: AmrGraph, gold: AmrGraph) -> np.ndarray:
    """Loop form of ``_Problem.unary``: for each pred variable i and gold
    variable j (in instance-triple order), concept equality plus, per
    attribute key (case-folded label, constant without quotes) and per
    case-folded self-loop label, the smaller of the two variables'
    counts."""
    def encode(g):
        concepts, keyed = {}, {}
        for t in to_triples(g):
            if t.kind == "instance":
                concepts[t.src] = t.tgt
                continue
            if t.kind == "attribute":
                key = ("attribute", t.label.casefold(), _norm_const(t.tgt))
            elif t.src == t.tgt:
                key = ("self-loop", t.label.casefold())
            else:
                continue
            counts = keyed.setdefault(t.src, {})
            counts[key] = counts.get(key, 0) + 1
        return concepts, keyed

    pc, pa = encode(pred)
    gc, ga = encode(gold)
    unary = np.zeros((len(pc), len(gc)), np.int64)
    for i, p in enumerate(pc):
        for j, g in enumerate(gc):
            u = int(pc[p] == gc[g])
            for key, c in pa.get(p, {}).items():
                u += min(c, ga.get(g, {}).get(key, 0))
            unary[i, j] = u
    return unary


def reference_class_bound(pred: AmrGraph, gold: AmrGraph) -> int:
    """Loop form of the class bound of ``_Problem.upper``: per triple class,
    the smaller of the two graphs' counts, summed.  The classes are each
    concept, each attribute key (case-folded label, constant without
    quotes; TOP included), and each case-folded relation label split into
    self-loops and other edges."""
    def classes(g):
        counts = Counter()
        for t in to_triples(g):
            if t.kind == "instance":
                counts["instance", t.tgt] += 1
            elif t.kind == "attribute":
                counts["attribute", t.label.casefold(), _norm_const(t.tgt)] += 1
            else:
                counts["relation", t.label.casefold(), t.src == t.tgt] += 1
        return counts

    pc, gc = classes(pred), classes(gold)
    return sum(min(c, gc[key]) for key, c in pc.items())


def reference_pair_bound(pred: AmrGraph, gold: AmrGraph) -> int:
    """Loop form of the pair bound of ``_Problem.upper``.  For pred variable
    i and gold variable j, ``2 * w[i, j]`` is twice ``reference_unary``
    (self-loops included), plus per label the smaller out-degree and
    in-degree over edges between two distinct variables.  The bound is half
    the smaller of the sum of row maxima and the sum of column maxima,
    rounded down."""
    def degrees(g):
        outs, ins = Counter(), Counter()
        for t in to_triples(g):
            if t.kind == "relation" and t.src != t.tgt:
                lab = t.label.casefold()
                outs[t.src, lab] += 1
                ins[t.tgt, lab] += 1
        return [n.id for n in g.var_nodes()], outs, ins

    unary = reference_unary(pred, gold)
    p_vars, p_outs, p_ins = degrees(pred)
    g_vars, g_outs, g_ins = degrees(gold)
    labels = {t.label.casefold() for g in (pred, gold) for t in to_triples(g) if t.kind == "relation"}
    w2 = [[0] * len(g_vars) for _ in p_vars]
    for i, p in enumerate(p_vars):
        for j, g in enumerate(g_vars):
            w2[i][j] = 2 * int(unary[i, j])
            for lab in labels:
                w2[i][j] += min(p_outs[p, lab], g_outs[g, lab])
                w2[i][j] += min(p_ins[p, lab], g_ins[g, lab])
    rows = sum(max(row, default=0) for row in w2)
    cols = sum(max((row[j] for row in w2), default=0) for j in range(len(g_vars)))
    return min(rows, cols) // 2


def reference_best_matched(pred: AmrGraph, gold: AmrGraph) -> int:
    """Brute-force Smatch optimum from ``to_triples`` alone: over every
    partial injective mapping of pred variables to gold variables, the
    multiset overlap (``Counter &``) of the renamed pred triples with the
    gold triples.  Labels are case-folded and constants lose their quotes;
    an unmapped variable gets a name no gold variable has."""
    def counts(g, name):
        out = Counter()
        for t in to_triples(g):
            if t.kind == "instance":
                out[t.kind, name(t.src), t.tgt] += 1
            elif t.kind == "attribute":
                out[t.kind, name(t.src), t.label.casefold(), _norm_const(t.tgt)] += 1
            else:
                out[t.kind, name(t.src), t.label.casefold(), name(t.tgt)] += 1
        return out

    gold_counts = counts(gold, str)
    p_vars = [n.id for n in pred.var_nodes()]
    best = 0
    for cols in product([None] + [n.id for n in gold.var_nodes()], repeat=len(p_vars)):
        mapped = [c for c in cols if c is not None]
        if len(mapped) == len(set(mapped)):
            rename = dict(zip(p_vars, cols))
            renamed = counts(pred, lambda v: rename[v] or ("unmapped", v))
            best = max(best, sum((renamed & gold_counts).values()))
    return best


def reference_smatch_hill_climb(
    pred: AmrGraph, gold: AmrGraph, restarts: int = 4, seed: int = 0
) -> SmatchResult:
    """``smatch.smatch_hill_climb`` without the early stop: it runs every
    restart, keeping the first best mapping."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    prob = _Problem(pred, gold)
    rng = np.random.RandomState(seed)
    best_mapping = None
    best = -1
    for r in range(restarts):
        mapping = _smart_init(prob, rng) if r == 0 else _random_init(prob, rng)
        matched = _match.hill_climb(mapping, prob)
        if matched > best:
            best = int(matched)
            best_mapping = mapping
    return prob.result(best_mapping, best)


def reference_beam_search(model, src, beam_size, max_len):
    """Loop form of ``decode.beam_search``: one candidate tuple per live
    hypothesis and token with nonzero probability, ranked together by
    (-log_prob, token ids)."""
    eos = model.index(EOS)

    # entries: (log_prob, token-id tuple); ids of retired entries end in EOS
    live: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
    retired: list[tuple[float, tuple[int, ...]]] = []
    while live and len(retired) < beam_size:
        cands: list[tuple[float, tuple[int, ...], bool]] = []
        for lp, ids in live:
            prefix = [model.vocab[i] for i in ids]
            dist = model.next_dist(prefix, src)
            for idx in np.flatnonzero(dist > 0):
                idx = int(idx)
                nlp = lp + math.log(dist[idx])
                if idx == eos:
                    cands.append((nlp, ids + (idx,), True))
                elif len(ids) + 1 == max_len:
                    cands.append((nlp, ids + (idx, eos), True))
                else:
                    cands.append((nlp, ids + (idx,), False))
        cands.sort(key=lambda c: (-c[0], c[1]))
        keep = cands[: beam_size - len(retired)]
        live = [(lp, ids) for lp, ids, done in keep if not done]
        retired.extend((lp, ids) for lp, ids, done in keep if done)

    retired.sort(key=lambda c: (-c[0], c[1]))
    return [
        BeamHypothesis(tuple(model.vocab[i] for i in ids), lp)
        for lp, ids in retired[:beam_size]
    ]


def reference_train(model, batches, objective, teacher=None):
    """Loop form of ``distill.train`` for valid objectives and records: the
    teacher answers one target prefix per ``next_dist`` call."""
    vocab = set(model.vocab)
    for batch in batches:
        for rec in batch.records:
            if any(tok not in vocab for tok in rec.y):
                continue
            if objective != "token_kd":
                model.observe(rec.x, rec.y)
            if objective in ("token_kd", "tok_plus_seq"):
                for t in range(len(rec.y)):
                    dist = teacher.next_dist(rec.y[:t], rec.x_star)
                    model.add_dist_counts(rec.y[:t], rec.x, dist)
    return model
