import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amrkit import _match, smatch
from amrkit.graph import AmrGraph, Edge, Node, parse_penman, write_amr_file
from amrkit.linearize import delinearize
from amrkit.repair import FALLBACK
from amrkit.smatch import (
    CountMismatch,
    _pair_upper,
    _Problem,
    _random_init,
    align_records,
    corpus_smatch,
    smatch_exact,
    smatch_hill_climb,
)

from .helpers import (
    CONCEPTS,
    RELATIONS,
    kernel_arrays,
    random_graph,
    reference_best_matched,
    reference_best_score,
    reference_class_bound,
    reference_hill_climb,
    reference_pair_bound,
    reference_score,
    reference_smatch_hill_climb,
    reference_unary,
    rename_vars,
)

WANT_BOY = parse_penman("(w / want-01 :ARG0 (b / boy))")
WANT_GIRL = parse_penman("(w / want-01 :ARG0 (g / girl))")


@st.composite
def kernel_problems(draw, max_vars=6, max_labels=3):
    """Raw kernel arrays and an injective start mapping, outside what
    ``_Problem`` builds: either side may be empty, buckets (each joining two
    distinct variables) may repeat a pattern or carry multiplicities above
    one, ``grel`` may be nonzero on its diagonal, and the start may leave
    variables unmapped."""
    n1 = draw(st.integers(0, max_vars))
    n2 = draw(st.integers(0, max_vars))
    n_lab = draw(st.integers(1, max_labels))
    small = st.integers(0, 3)
    unary = np.array(draw(st.lists(small, min_size=n1 * n2, max_size=n1 * n2)), np.int64)
    n_grel = n2 * n2 * n_lab
    grel = np.array(draw(st.lists(small, min_size=n_grel, max_size=n_grel)), np.int64)
    # a bucket's target is its source plus a nonzero offset, modulo n1
    buckets = draw(st.lists(
        st.tuples(st.integers(0, n1 - 1), st.integers(1, n1 - 1),
                  st.integers(0, n_lab - 1), st.integers(1, 3)),
        max_size=3 * n1,
    )) if n1 > 1 else []
    rsrc, step, rlab, rcnt = np.array(buckets, np.int64).reshape(-1, 4).T.copy()
    rtgt = (rsrc + step) % max(n1, 1)
    k = draw(st.integers(0, min(n1, n2)))
    rows = draw(st.permutations(range(n1)))[:k]
    cols = draw(st.permutations(range(n2)))[:k]
    init = np.full(n1, -1, np.int64)
    init[list(rows)] = cols
    return init, (unary.reshape(n1, n2), rsrc, rtgt, rlab, rcnt, grel.reshape(n2, n2, n_lab))


def _decorated(rng: np.random.RandomState, g: AmrGraph) -> AmrGraph:
    """``g``, at random with a self-loop added and with one of its attribute
    edges repeated."""
    edges = list(g.edges)
    var_ids = [n.id for n in g.var_nodes()]
    if rng.randint(2):
        v = var_ids[rng.randint(len(var_ids))]
        edges.append(Edge(v, RELATIONS[rng.randint(len(RELATIONS))], v))
    attrs = [e for e in edges if g.node(e.tgt).constant]
    if attrs and rng.randint(2):
        edges.append(attrs[rng.randint(len(attrs))])
    return AmrGraph(g.nodes, tuple(edges), g.root).check()


def random_pair(rng: np.random.RandomState) -> tuple[AmrGraph, AmrGraph]:
    """A pred/gold pair: a random graph of one to eight variables (one
    variable and no edges included), self-loops and repeated attributes
    added at random, against an unrelated graph, a renamed copy, or a
    renamed copy with one concept changed."""
    pred = _decorated(rng, random_graph(rng, int(rng.randint(1, 9)), int(rng.randint(0, 4))))
    kind = rng.randint(3)
    if kind == 0:
        return pred, _decorated(rng, random_graph(rng, int(rng.randint(1, 9))))
    gold = rename_vars(pred, "g")
    if kind == 2:
        k = rng.randint(len(gold.nodes))
        nodes = list(gold.nodes)
        if not nodes[k].constant:
            nodes[k] = Node(nodes[k].id, CONCEPTS[rng.randint(len(CONCEPTS))])
        gold = AmrGraph(tuple(nodes), gold.edges, gold.root).check()
    return pred, gold


def _with_repeated_edge(rng: np.random.RandomState, g: AmrGraph) -> AmrGraph:
    """``g``, at random with one of its edges between two variables (a
    self-loop included) repeated."""
    rels = [e for e in g.edges if not g.node(e.tgt).constant]
    if not rels or rng.randint(2):
        return g
    return AmrGraph(g.nodes, g.edges + (rels[rng.randint(len(rels))],), g.root).check()


def _graph_of_at_least(rng: np.random.RandomState, n: int, max_vars: int = 40) -> AmrGraph:
    """A ``random_graph`` of ``n`` to ``max_vars`` variables."""
    while True:
        g = random_graph(rng, max_vars)
        if len(g.var_nodes()) >= n:
            return g


def _climb_digest_pairs() -> list[tuple[AmrGraph, AmrGraph]]:
    """The pairs behind ``HILL_CLIMB_DIGEST``: 400 ``random_pair``s, then 100
    pairs of 10 to 40 variables, each side decorated with self-loops and
    repeated edges, the gold side unrelated or a renamed copy."""
    rng = np.random.RandomState(2013)
    pairs = [random_pair(rng) for _ in range(400)]
    for k in range(100):
        pred = _with_repeated_edge(rng, _decorated(rng, _graph_of_at_least(rng, 10)))
        if k % 2:
            gold = rename_vars(pred, "g")
        else:
            gold = _with_repeated_edge(rng, _decorated(rng, _graph_of_at_least(rng, 10)))
        pairs.append((pred, gold))
    return pairs


# SHA-256 of the reprs of ``smatch_hill_climb`` over ``_climb_digest_pairs``
# (restarts 4, pair k seeded with k), one per line, as the climber that
# rebuilt its gain masks every step gave them.
HILL_CLIMB_DIGEST = "6112763c835d8cf1e4048d43ad66c8a89e9735d510b6aae03fa578d0e7774b5a"


def _loaded_by_import(module: str, then: str = "") -> bool:
    """Whether ``import amrkit`` in a fresh interpreter, followed by the
    statements ``then``, loads ``module``."""
    code = f"import sys, amrkit\n{then}\nprint({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(_match.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip() != "False"


class TestFixtures:
    def test_identical_graphs_score_one(self):
        for fn in (smatch_exact, smatch_hill_climb):
            res = fn(WANT_BOY, WANT_BOY)
            assert res.precision == res.recall == res.f1 == 1.0

    def test_disjoint_single_nodes_score_zero(self):
        res = smatch_exact(parse_penman("(c / cat)"), parse_penman("(d / dog)"))
        assert res.matched == 0
        assert res.n_pred_triples == res.n_gold_triples == 2
        assert res.f1 == 0.0

    def test_three_of_four(self):
        for fn in (smatch_exact, smatch_hill_climb):
            res = fn(WANT_BOY, WANT_GIRL)
            assert res.matched == 3
            assert res.precision == res.recall == res.f1 == 0.75
            assert res.mapping == {"w": "w", "b": "g"}

    def test_fallback_graph_precision_over_two_triples(self):
        res = smatch_exact(delinearize(FALLBACK), WANT_BOY)
        assert res.n_pred_triples == 2
        assert res.precision == res.matched / 2

    def test_mapping_is_injective(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            pred, gold = random_graph(rng, 6), random_graph(rng, 6)
            m = smatch_exact(pred, gold).mapping
            assert len(set(m.values())) == len(m)

    def test_exact_twelve_variables_against_renamed_copy(self):
        rng = np.random.RandomState(0)
        while True:
            g = random_graph(rng, max_var_nodes=12)
            if len(g.var_nodes()) == 12:
                break
        res = smatch_exact(g, rename_vars(g, "q"))
        assert res.f1 == 1.0
        assert len(res.mapping) == 12

    def test_import_leaves_scipy_unloaded(self):
        assert not _loaded_by_import("scipy")
        # scoring a corpus does not load it either
        assert not _loaded_by_import("scipy", (
            "gs = [amrkit.parse_penman('(w / want-01 :ARG0 (b / boy))'),"
            " amrkit.parse_penman('(c / cat :polarity -)')]\n"
            "assert amrkit.corpus_smatch(gs, gs[::-1]).n_records == 2"
        ))

    def test_import_leaves_concurrent_futures_unloaded(self):
        # amrkit runs in one thread; a pool would import concurrent.futures
        assert not _loaded_by_import("concurrent.futures")

    def test_case_folded_relations_and_quote_stripped_constants(self):
        a = parse_penman('(x / thing :ARG0-of (y / see-01) :name "Roma")')
        b = parse_penman('(x / thing :arg0-of (y / see-01) :name "Roma")')
        assert smatch_exact(a, b).f1 == 1.0
        c = parse_penman("(x / thing :mod Roma)")
        d = parse_penman('(x / thing :mod "Roma")')
        assert smatch_exact(c, d).f1 == 1.0

    def test_concepts_compare_exactly(self):
        # instance and TOP both carry the concept, so a case difference misses both
        a = parse_penman("(x / Thing)")
        b = parse_penman("(x / thing)")
        assert smatch_exact(a, b).matched == 0

    def test_duplicate_triples_match_as_multiset(self):
        pred = parse_penman('(n / name :op1 "a" :op1 "a")')
        gold = parse_penman('(n / name :op1 "a")')
        res = smatch_exact(pred, gold)
        assert res.matched == 3  # instance, TOP, one op1; the duplicate is unmatched
        assert res.n_pred_triples == 4 and res.n_gold_triples == 3


class TestHillClimb:
    def test_deterministic_given_seed(self):
        rng = np.random.RandomState(11)
        pred, gold = random_graph(rng, 6), random_graph(rng, 6)
        a = smatch_hill_climb(pred, gold, restarts=8, seed=5)
        b = smatch_hill_climb(pred, gold, restarts=8, seed=5)
        assert a == b

    def test_never_exceeds_exact(self):
        rng = np.random.RandomState(12)
        for _ in range(100):
            pred, gold = random_graph(rng, 6), random_graph(rng, 6)
            assert (
                smatch_hill_climb(pred, gold, restarts=2, seed=0).matched
                <= smatch_exact(pred, gold).matched
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_exact_up_to_thirty_variables(self, seed):
        rng = np.random.RandomState(seed)
        pred, gold = random_graph(rng, 30), random_graph(rng, 30)
        assert (
            smatch_hill_climb(pred, gold, restarts=2, seed=0).matched
            <= smatch_exact(pred, gold).matched
        )

    def test_results_match_pinned_digest(self):
        lines = (repr(smatch_hill_climb(pred, gold, restarts=4, seed=k))
                 for k, (pred, gold) in enumerate(_climb_digest_pairs()))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == HILL_CLIMB_DIGEST

    def test_restarts_validated(self):
        with pytest.raises(ValueError):
            smatch_hill_climb(WANT_BOY, WANT_BOY, restarts=0)

    def test_reseeded_generator_matches_fresh_one(self):
        # each thread reseeds one generator per call: interleaved seeds, and
        # calls from more threads than cores, each give what a fresh
        # RandomState gives
        rng = np.random.RandomState(44)
        pairs = [(random_graph(rng, 8), random_graph(rng, 8)) for _ in range(6)]
        calls = [(i, seed) for seed in (0, 3, 7) for i in range(len(pairs))]
        ref = {(i, seed): reference_smatch_hill_climb(*pairs[i], seed=seed) for i, seed in calls}
        # the seed changes the result on these pairs, so a generator left in
        # another call's state would show
        assert any(ref[i, 0] != ref[i, 3] for i in range(len(pairs)))
        got = [smatch_hill_climb(*pairs[i], seed=seed) for i, seed in calls]
        assert got == [ref[c] for c in calls]

        results = {}

        def worker(t):
            order = calls[t:] + calls[:t]
            results[t] = (order, [smatch_hill_climb(*pairs[i], seed=seed) for i, seed in order])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for order, got in results.values():
            assert got == [ref[c] for c in order]

    def test_early_stop_matches_every_restart(self, monkeypatch):
        calls = []
        climb = _match.hill_climb
        monkeypatch.setattr(_match, "hill_climb", lambda *a: calls.append(1) or climb(*a))
        rng = np.random.RandomState(33)
        climbs = total = 0
        for k in range(360):
            pred, gold = random_pair(rng)
            restarts = 1 + k % 6
            total += restarts
            n = len(calls)
            res = smatch_hill_climb(pred, gold, restarts=restarts, seed=k)
            climbs += len(calls) - n
            # matched, mapping, P/R/F1 and the bound
            assert res == reference_smatch_hill_climb(pred, gold, restarts=restarts, seed=k)
        # the bound cut the restarts on a good share of the pairs
        assert climbs < 0.5 * total

    def test_tables_built_once_per_pair(self, monkeypatch):
        # every restart reads the one Pair that _Problem builds, and so does
        # the ILP: counted on the pairs whose best of 6 restarts stays below
        # the bound, so that no run with 1 to 6 restarts stops early
        builds, climbs = [], []
        init, climb = _match.Pair.__init__, _match.hill_climb
        monkeypatch.setattr(_match.Pair, "__init__", lambda *a: builds.append(1) or init(*a))
        monkeypatch.setattr(_match, "hill_climb", lambda *a: climbs.append(1) or climb(*a))
        rng = np.random.RandomState(39)
        checked = 0
        for k in range(600):
            pred, gold = random_pair(rng)
            res = smatch_hill_climb(pred, gold, restarts=6, seed=k)
            if res.matched == res.upper_matched:
                continue
            for restarts in range(1, 7):
                builds.clear(), climbs.clear()
                smatch_hill_climb(pred, gold, restarts=restarts, seed=k)
                assert (len(builds), len(climbs)) == (1, restarts)
            builds.clear()
            smatch_exact(pred, gold)
            assert len(builds) == 1
            checked += 1
        assert checked >= 8


class TestBound:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_climb_exact_upper_in_order(self, seed):
        pred, gold = random_pair(np.random.RandomState(seed))
        climbed = smatch_hill_climb(pred, gold, restarts=2, seed=0)
        exact = smatch_exact(pred, gold)
        assert climbed.upper_matched == exact.upper_matched
        assert climbed.matched <= exact.matched <= exact.upper_matched
        assert exact.upper_matched <= min(exact.n_pred_triples, exact.n_gold_triples)

    def test_bound_counts_each_triple_class(self):
        # two `boy` instances against one, :ARG0 against :arg0, and a
        # self-loop that no edge between two variables can match
        pred = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (c / boy) :mod w :polarity -)")
        gold = parse_penman("(w / want-01 :arg0 (b / boy) :mod b :polarity - :polarity -)")
        res = smatch_hill_climb(pred, gold)
        # concepts 2, TOP 1, polarity 1, arg0 1, mod 0 (self-loop against edge)
        assert res.upper_matched == 5 == res.matched

    def test_bound_matches_loop_form(self):
        rng = np.random.RandomState(35)
        below = 0
        for _ in range(300):
            pred, gold = (_with_repeated_edge(rng, g) for g in random_pair(rng))
            by_class = reference_class_bound(pred, gold)
            by_pair = reference_pair_bound(pred, gold)
            assert _Problem(pred, gold).upper == min(by_class, by_pair)
            below += by_pair < by_class
        assert below >= 20

    def test_pair_bound_below_class_bound(self):
        # both :ARG0 edges leave w in pred, one leaves w and one b in gold:
        # the classes match all six triples, but w can match only one of
        # its two :ARG0 edges under any mapping
        pred = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG0 (g / girl))")
        gold = parse_penman("(w / want-01 :ARG0 (b / boy :ARG0 (g / girl)))")
        assert reference_class_bound(pred, gold) == 6
        assert reference_pair_bound(pred, gold) == 5
        assert _Problem(pred, gold).upper == 5
        assert smatch_exact(pred, gold).matched == 5
        res = smatch_hill_climb(pred, gold)
        assert res.matched == res.upper_matched == 5

    def test_class_bound_below_pair_bound(self):
        # rare on random graphs: both boys of pred would take gold's one boy,
        # and both see-01 nodes of gold would take pred's one see-01
        pred = parse_penman("(x / city :poss (y / boy) :ARG1 (z / boy :op2 (w / see-01)))")
        gold = parse_penman("(a / see-01 :location (b / boy :ARG1 2) :mod (c / see-01))")
        assert reference_class_bound(pred, gold) == 2
        assert reference_pair_bound(pred, gold) == 3
        assert _Problem(pred, gold).upper == 2 == smatch_exact(pred, gold).matched

    def test_pair_bound_zero_for_empty_side(self):
        deg = np.ones((2, 2), np.int64)
        empty = np.zeros((2, 0), np.int64)
        assert _pair_upper(np.zeros((0, 2), np.int64), empty, deg) == 0
        assert _pair_upper(np.zeros((2, 0), np.int64), deg, empty) == 0

    def test_bound_without_relations(self):
        pairs = [
            ("(c / cat :polarity - :polarity -)", "(c / cat :polarity -)", 3),
            ("(w / want-01 :ARG0 (b / boy))", "(w / want-01)", 2),
            ("(w / want-01)", "(w / want-01 :ARG0 (b / boy))", 2),
        ]
        for pred, gold, upper in pairs:
            pred, gold = parse_penman(pred), parse_penman(gold)
            prob = _Problem(pred, gold)
            n2 = len(gold.var_nodes())
            assert prob.grel.shape == (n2, n2, 1)
            assert prob.upper == upper == smatch_exact(pred, gold).matched
            assert upper == min(reference_class_bound(pred, gold), reference_pair_bound(pred, gold))

    def test_corpus_bound_is_the_sum(self):
        pred2, gold2 = parse_penman("(c / cat)"), parse_penman("(c / cat :ARG0 (d / dog))")
        report = corpus_smatch([WANT_BOY, pred2], [WANT_GIRL, gold2], seed=0)
        assert report.upper_matched == sum(r.upper_matched for r in report.per_record) == 5


class TestProperties:
    def test_swap_symmetry(self):
        rng = np.random.RandomState(21)
        for _ in range(100):
            pred, gold = random_graph(rng, 6), random_graph(rng, 6)
            ab = smatch_exact(pred, gold)
            ba = smatch_exact(gold, pred)
            assert ab.matched == ba.matched
            assert ab.precision == ba.recall and ab.recall == ba.precision
            assert ab.f1 == ba.f1

    def test_renaming_invariance(self):
        rng = np.random.RandomState(22)
        for _ in range(60):
            pred, gold = random_graph(rng, 6), random_graph(rng, 6)
            base = smatch_exact(pred, gold)
            renamed = smatch_exact(rename_vars(pred, "q"), gold)
            assert (renamed.precision, renamed.recall, renamed.f1, renamed.matched) == (
                base.precision,
                base.recall,
                base.f1,
                base.matched,
            )
            assert set(renamed.mapping.values()) == set(base.mapping.values())

    def test_adding_matching_triple_never_decreases_matched(self):
        rng = np.random.RandomState(23)
        checked = 0
        while checked < 40:
            pred, gold = random_graph(rng, 5), random_graph(rng, 5)
            res = smatch_exact(pred, gold)
            inv = {g: p for p, g in res.mapping.items()}
            unmatched = [
                e
                for e in gold.edges
                if not gold.node(e.tgt).constant and e.src in inv and e.tgt in inv
            ]
            if not unmatched:
                continue
            e = unmatched[0]
            extra = Edge(inv[e.src], e.label, inv[e.tgt])
            grown = AmrGraph(pred.nodes, pred.edges + (extra,), pred.root)
            grown.check()
            assert smatch_exact(grown, gold).matched >= res.matched
            checked += 1

    def test_exact_matches_brute_force_over_triples(self):
        # the oracle against the best triple overlap of every mapping, from
        # to_triples alone: self-loops, repeated edges and repeated
        # attributes on both sides
        rng = np.random.RandomState(39)
        checked = loops = 0
        while checked < 150:
            pred, gold = (_with_repeated_edge(rng, g) for g in random_pair(rng))
            if max(len(pred.var_nodes()), len(gold.var_nodes())) > 5:
                continue
            loops += any(e.src == e.tgt for g in (pred, gold) for e in g.edges)
            assert smatch_exact(pred, gold).matched == reference_best_matched(pred, gold)
            checked += 1
        assert loops >= 50


class TestBackendParity:
    def test_unary_matches_loop(self):
        rng = np.random.RandomState(34)
        for _ in range(200):
            pred, gold = random_pair(rng)
            unary = _Problem(pred, gold).unary
            ref = reference_unary(pred, gold)
            assert unary.dtype == ref.dtype and unary.shape == ref.shape
            assert np.array_equal(unary, ref)

    def test_loop_and_vectorized_agree(self):
        rng = np.random.RandomState(31)
        for _ in range(40):
            pred, gold = random_graph(rng, 6), random_graph(rng, 6)
            prob = _Problem(pred, gold)
            n1, n2 = prob.unary.shape
            k = min(n1, n2)
            mappings = np.full((50, n1), -1, dtype=np.int64)
            for r in range(50):
                cols = rng.permutation(n1)[:k]
                mappings[r, cols] = rng.permutation(n2)[:k]
            loop = [reference_score(m, *kernel_arrays(prob)) for m in mappings]
            assert _match.score_mapping(mappings, prob).tolist() == loop
            for r in range(0, 50, 7):
                assert _match.score_mapping(mappings[r], prob) == loop[r]

    @given(kernel_problems(max_vars=5))
    @example((np.full(3, -1, np.int64), (
        # HiGHS with presolve called a mapping of 17 optimal here; the optimum is 19
        np.array([[2, 1, 0, 0, 3], [2, 2, 0, 2, 1], [0, 0, 0, 0, 3]], np.int64),
        np.array([0, 1, 0, 2, 2, 0, 1, 0], np.int64),
        np.array([0, 0, 2, 1, 1, 2, 0, 2], np.int64),
        np.zeros(8, np.int64),
        np.array([2, 1, 1, 1, 1, 3, 2, 3], np.int64),
        np.array([[2, 2, 3, 1, 2], [1, 0, 2, 3, 1], [1, 0, 1, 2, 1], [2, 1, 0, 2, 2],
                  [0, 2, 2, 2, 0]], np.int64)[:, :, None],
    )))
    @settings(max_examples=500, deadline=None)
    def test_exact_mapping_matches_brute_force(self, problem):
        _, args = problem
        mapping, score = _match.exact_mapping(_match.Pair(*args))
        n1, n2 = args[0].shape
        assert mapping.shape == (n1,)
        mapped = mapping[mapping >= 0]
        assert mapped.size == np.unique(mapped).size and np.all(mapping < n2)
        assert reference_score(mapping, *args) == score
        assert score == reference_best_score(*args)

    def test_hill_climb_backends_agree(self):
        rng = np.random.RandomState(32)
        for _ in range(25):
            pred, gold = random_graph(rng, 20), random_graph(rng, 20)
            prob = _Problem(pred, gold)
            n1, n2 = prob.unary.shape
            k = min(n1, n2)
            init = np.full(n1, -1, dtype=np.int64)
            init[rng.permutation(n1)[:k]] = rng.permutation(n2)[:k]
            m1, m2 = init.copy(), init.copy()
            s1 = _match.hill_climb(m1, prob)
            s2 = reference_hill_climb(m2, *kernel_arrays(prob))
            assert s1 == s2
            assert np.array_equal(m1, m2)

    def test_hill_climb_matches_reference_with_unmapped_variables(self):
        # 20 to 40 variables, a pred self-loop (in unary) and a pred bucket
        # of count 2, sides of different sizes and starts that leave
        # variables unmapped on both sides: the climber's table lookups at
        # its unmapped row and column, against moves rescored from scratch
        def mod_loops(g, v):
            return g.edges.count(Edge(v, ":mod", v))

        rng = np.random.RandomState(36)
        for _ in range(10):
            pred = _graph_of_at_least(rng, 20)
            gold = _with_repeated_edge(rng, _decorated(rng, _graph_of_at_least(rng, 20)))
            while len(gold.var_nodes()) == len(pred.var_nodes()):
                gold = _decorated(rng, _graph_of_at_least(rng, 20))
            v = pred.var_nodes()[rng.randint(len(pred.var_nodes()))].id
            rel = next(e for e in pred.edges if not pred.node(e.tgt).constant)
            base = AmrGraph(pred.nodes, pred.edges + (rel,), pred.root).check()
            pred = AmrGraph(pred.nodes, pred.edges + (Edge(v, ":mod", v), rel), pred.root).check()
            prob = _Problem(pred, gold)
            (n1, n2), args = prob.unary.shape, kernel_arrays(prob)
            assert (prob.rsrc != prob.rtgt).all() and (prob.rcnt > 1).any()
            # the loop is one more :mod key at v: v's row of unary grows by
            # one where a gold variable holds more :mod loops than v did,
            # and the buckets and grel stay as they were without it
            plain = _Problem(base, gold)
            for a, b in zip(args[1:], kernel_arrays(plain)[1:]):
                assert np.array_equal(a, b)
            i = [n.id for n in pred.var_nodes()].index(v)
            gains = [mod_loops(gold, n.id) > mod_loops(base, v) for n in gold.var_nodes()]
            extra = prob.unary - plain.unary
            assert extra[i].tolist() == gains and not np.delete(extra, i, 0).any()
            assert _Problem(pred, pred).unary[i, i] == _Problem(base, base).unary[i, i] + 1
            k = rng.randint(min(n1, n2))
            init = np.full(n1, -1, np.int64)
            init[rng.permutation(n1)[:k]] = rng.permutation(n2)[:k]
            m1, m2 = init.copy(), init.copy()
            assert _match.hill_climb(m1, prob) == reference_hill_climb(m2, *args)
            assert np.array_equal(m1, m2)

    def test_problem_emits_no_self_loop_bucket(self):
        # self-loops, repeated self-loops included, are one-variable keys:
        # every bucket joins two distinct variables and grel's diagonal is 0
        rng = np.random.RandomState(38)
        loops = 0
        for _ in range(200):
            pred, gold = (_with_repeated_edge(rng, g) for g in random_pair(rng))
            loops += any(e.src == e.tgt for g in (pred, gold) for e in g.edges)
            prob = _Problem(pred, gold)
            n2 = prob.grel.shape[0]
            assert (prob.rsrc != prob.rtgt).all()
            assert not prob.grel[np.arange(n2), np.arange(n2)].any()
        assert loops >= 50

    def test_hill_climb_memory_is_a_small_multiple_of_grel(self):
        # on a pair of 190 to 200 variables: the gain table is about the
        # size of grel, and building it reads a grel-sized copy of its
        # labels; the table build and the climb are traced together
        rng = np.random.RandomState(37)
        prob = _Problem(_graph_of_at_least(rng, 190, 200), _graph_of_at_least(rng, 190, 200))
        mapping = _random_init(prob, rng)
        tracemalloc.start()
        try:
            _match.hill_climb(mapping, _match.Pair(*kernel_arrays(prob)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * prob.grel.nbytes

    @given(kernel_problems())
    @settings(max_examples=400, deadline=None)
    def test_hill_climb_matches_reference_on_raw_kernels(self, problem):
        init, args = problem
        m1, m2 = init.copy(), init.copy()
        s1 = _match.hill_climb(m1, _match.Pair(*args))
        s2 = reference_hill_climb(m2, *args)
        assert s1 == s2
        assert np.array_equal(m1, m2)


class TestCorpus:
    def test_single_identical_pair(self):
        report = corpus_smatch([WANT_BOY], [WANT_BOY], seed=0)
        assert report.f1 == 1.0 and report.n_records == 1

    def test_micro_average_sums_before_dividing(self):
        pred2 = parse_penman("(c / cat)")
        gold2 = parse_penman("(c / cat :ARG0 (d / dog))")
        report = corpus_smatch([WANT_BOY, pred2], [WANT_GIRL, gold2], seed=0)
        assert report.matched == 5
        assert report.precision == pytest.approx(5 / 6)
        assert report.recall == pytest.approx(5 / 8)

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            corpus_smatch([WANT_BOY], [WANT_BOY, WANT_GIRL], seed=0)

    def test_alignment_by_id(self):
        a, b = parse_penman("(c / cat)"), parse_penman("(d / dog)")
        a.metadata["id"] = "one"
        b.metadata["id"] = "two"
        ra, rb = parse_penman("(c / cat)"), parse_penman("(d / dog)")
        ra.metadata["id"] = "one"
        rb.metadata["id"] = "two"
        pairs = align_records([a, b], [rb, ra])  # gold order reversed
        assert [(p.metadata["id"], g.metadata["id"]) for p, g in pairs] == [
            ("one", "one"),
            ("two", "two"),
        ]
        report = corpus_smatch([a, b], [rb, ra], seed=0)
        assert report.f1 == 1.0

    def test_alignment_id_set_mismatch(self):
        a = parse_penman("(c / cat)")
        a.metadata["id"] = "one"
        b = parse_penman("(d / dog)")
        b.metadata["id"] = "three"
        with pytest.raises(CountMismatch):
            align_records([a], [b])

    @pytest.mark.parametrize("pred_ids, gold_ids, message", [
        (["one", "two"], ["one", "one"], "duplicate gold id 'one'"),
        (["one", "one"], ["one", "two"], "duplicate prediction ids"),
    ], ids=["gold", "prediction"])
    def test_alignment_duplicate_ids(self, pred_ids, gold_ids, message):
        def graphs(ids):
            return [parse_penman(f"# ::id {i}\n(c / cat)") for i in ids]
        with pytest.raises(CountMismatch, match=f"^{message}$"):
            align_records(graphs(pred_ids), graphs(gold_ids))

    def test_jobs_other_than_one_rejected(self):
        with pytest.raises(ValueError):
            corpus_smatch([WANT_BOY], [WANT_BOY], jobs=2)

    @pytest.mark.parametrize("records", [0, 2])
    def test_restarts_checked_before_any_record(self, records, monkeypatch):
        scored = []
        monkeypatch.setattr(smatch, "smatch_hill_climb", lambda *a, **k: scored.append(1))
        with pytest.raises(ValueError, match="^restarts must be >= 1$"):
            corpus_smatch([WANT_BOY] * records, [WANT_BOY] * records, restarts=0)
        assert not scored

    @pytest.mark.parametrize("seed, records, ok", [
        (0, 0, True), (2**32 - 1, 0, True), (2**32, 0, False), (-1, 0, False),
        (2**32 - 1, 1, True), (2**32 - 1, 2, False), (2**32 - 2, 2, True), (-1, 2, False),
    ])
    def test_seed_range_checked_before_any_record(self, seed, records, ok, monkeypatch):
        # record i is seeded with seed + i, which numpy takes in [0, 2**32)
        scored = []
        climb = smatch.smatch_hill_climb
        monkeypatch.setattr(smatch, "smatch_hill_climb",
                            lambda *a, **k: scored.append(k["seed"]) or climb(*a, **k))
        graphs = [WANT_BOY] * records
        if ok:
            assert corpus_smatch(graphs, graphs, seed=seed).n_records == records
            assert scored == [seed + i for i in range(records)]
        else:
            message = rf"^seed {seed} out of range for {records} records: .* \[0, 2\*\*32\)$"
            with pytest.raises(ValueError, match=message):
                corpus_smatch(graphs, graphs, seed=seed)
            assert not scored

    def test_file_inputs(self, tmp_path):
        rng = np.random.RandomState(45)
        gs = [random_graph(rng, 5) for _ in range(5)]
        path = tmp_path / "g.amr"
        write_amr_file(str(path), gs)
        report = corpus_smatch(str(path), str(path), seed=0)
        assert report.f1 == 1.0 and report.n_records == 5
