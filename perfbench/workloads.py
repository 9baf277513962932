"""The three workloads: inputs, set-up, one timed round, and the checks.

A workload's corpus is a fixed number of distinct rounds (one pass), and
every run attempts whole passes, so every run attempts the same operations
in the same proportions.  ``run_round`` is the only timed code.  Calls go through module
attributes looked up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import importlib
import math
import os
import random
from collections import Counter

import corpus as C
import inputs

G = importlib.import_module("amrkit.graph")
L = importlib.import_module("amrkit.linearize")
R = importlib.import_module("amrkit.repair")
S = importlib.import_module("amrkit.smatch")
SM = importlib.import_module("amrkit.seqmodel")
D = importlib.import_module("amrkit.distill")
P = importlib.import_module("amrkit.pipeline")
TooLarge = importlib.import_module("amrkit.errors").TooLarge

EXACT_VAR_BOUND = 8
EXACT_MAPPINGS = 2_000_000


class Ops:
    """Counts attempted and failed calls into the program; a failure keeps
    its operation and exception type."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures[label, type(exc).__name__] += 1
            return None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _n_vars(g) -> int:
    return sum(1 for n in g.nodes if not n.constant)


def _chunks(items: list, n: int) -> list[list]:
    return [items[i : i + n] for i in range(0, len(items), n)]


def _holds(check) -> bool:
    """Whether a check that calls the program holds; one that raises does
    not."""
    try:
        return bool(check())
    except Exception:
        return False


# ---------------------------------------------------------------------------
# eval: repair -> delinearize -> corpus_smatch against gold

class Eval:
    """Repaired, damaged parser output scored against gold."""

    name = "eval"
    # A pass is 5 x 4 rounds of 5 records, each round holding one of the
    # four largest graphs, so rounds stay near a second and the calibration
    # next to each round tracks the host's speed.  The graphs' climb times
    # vary by about 13 % from graph to graph, so a pass holds twenty large
    # graphs to keep the cost of a seed's corpus near that of another's.  (gold variables,
    # treatment): "copy" is an undamaged renamed copy with distinct
    # concepts; otherwise the damage letters of ``corpus.damaged`` applied
    # to a perturbed copy.  Heavy damage sits on the graphs below 20
    # variables: on the large ones it can cut a prediction of 30 variables
    # to 5, and the pass time would depend on the seed more than on the
    # program.
    plan = (
        ((5, "copy"), (9, "v"), (13, "d"), (16, "dj"), (30, "t")),
        ((6, "j"), (9, "copy"), (12, "j"), (18, "v"), (25, "")),
        ((7, "d"), (10, "dj"), (14, "jv"), (15, "copy"), (22, "copy")),
        ((8, "a"), (11, "av"), (12, "copy"), (15, "a"), (20, "")),
    )
    rounds = 5 * len(plan)
    max_len = 150
    restarts = 4

    def records_per_round(self) -> int:
        return len(self.plan[0])

    def round_inputs(self, seed: int, r: int) -> list[dict]:
        rng = random.Random(f"eval:{seed}:{r}")
        recs = []
        for k, (n, kind) in enumerate(self.plan[r % len(self.plan)]):
            gold = C.make_graph(rng, n, distinct=kind == "copy", metadata={"id": f"g{r}-{k}"})
            if kind == "copy":
                toks = C.ref_linearize(C.renamed(gold, rng))
            else:
                pred = C.perturbed(C.renamed(gold, rng), rng, 1 + n // 8,
                                   drops=(1 + n // 8) // 2 if n < 20 else 0)
                toks = C.damaged(C.ref_linearize(pred), rng, kind, self.max_len)
            recs.append({"gold": gold, "line": " ".join(toks), "copy": kind == "copy"})
        return recs

    def sizes(self, recs) -> list[int]:
        return [_n_vars(rec["gold"]) for rec in recs]

    def write(self, seed: int, workdir: str) -> None:
        data = [self.round_inputs(seed, r) for r in range(self.rounds)]
        golds = [rec["gold"] for recs in data for rec in recs]
        _write_text(os.path.join(workdir, "gold.amr"),
                    "\n\n".join(C.ref_penman(g) for g in golds) + "\n")
        _write_text(os.path.join(workdir, "pred.txt"),
                    "".join(rec["line"] + "\n" for recs in data for rec in recs))

    def setup(self, workdir: str) -> dict:
        data = inputs.read(self.name, workdir)
        n = self.records_per_round()
        return {"golds": _chunks(data["golds"], n), "preds": _chunks(data["preds"], n)}

    def begin(self, state: dict) -> None:
        state["oracle"] = []

    def run_round(self, state: dict, r: int, ops: Ops) -> dict:
        fixed, reports, graphs = [], [], []
        for toks in state["preds"][r]:
            out = ops.call("repair", R.repair_with_report, toks)
            tokens, report = out if out is not None else (None, None)
            fixed.append(tokens)
            reports.append(report)
            graphs.append(ops.call("delinearize", L.delinearize, tokens))
        report = ops.call("corpus_smatch", S.corpus_smatch, graphs, state["golds"][r],
                          restarts=self.restarts, seed=0, jobs=1)
        return {"fixed": fixed, "reports": reports, "graphs": graphs, "report": report}

    def digest(self, out: dict):
        rep = out["report"]
        per = () if rep is None else tuple(
            (x.matched, x.n_pred_triples, x.n_gold_triples) for x in rep.per_record)
        return tuple(map(tuple, filter(None, out["fixed"]))), per

    def check_round(self, state: dict, r: int, recs: list, out: dict, err, extras: Counter) -> None:
        for k, rec in enumerate(recs):
            gen, read = rec["gold"], state["golds"][r][k]
            if (_n_vars(read), len(read.edges), read.metadata) != (_n_vars(gen), len(gen.edges), gen.metadata):
                err(f"eval r{r}#{k}: gold read back with other counts or metadata")
        rep = out["report"]
        if rep is None:
            err(f"eval r{r}: corpus_smatch failed")
            return
        m = tp = tg = 0
        for k, res in enumerate(rep.per_record):
            rec, pred, gold = recs[k], out["graphs"][k], state["golds"][r][k]
            tokens, report = out["fixed"][k], out["reports"][k]
            extras["repair.fixes"] += sum(v for key, v in report.as_dict().items() if key != "fell_back")
            extras["repair.fallbacks"] += report.fell_back
            if C.ref_linearize(pred) != tokens:
                err(f"eval r{r}#{k}: repaired line does not round-trip through delinearize")
            n_pred = _n_vars(pred) + len(pred.edges) + 1
            n_gold = _n_vars(rec["gold"]) + len(rec["gold"].edges) + 1
            if (res.n_pred_triples, res.n_gold_triples) != (n_pred, n_gold):
                err(f"eval r{r}#{k}: triple counts {res.n_pred_triples}/{res.n_gold_triples}, expected {n_pred}/{n_gold}")
            if res.matched > min(res.n_pred_triples, res.n_gold_triples):
                err(f"eval r{r}#{k}: matched {res.matched} exceeds a side's triples")
            if len(set(res.mapping.values())) != len(res.mapping):
                err(f"eval r{r}#{k}: mapping is not injective")
            if C.recount_matched(pred, gold, res.mapping) != res.matched:
                err(f"eval r{r}#{k}: recount under the mapping differs from matched={res.matched}")
            if rec["copy"] and res.f1 != 1.0:
                err(f"eval r{r}#{k}: exact copy with distinct concepts scored {res.f1}")
            n1, n2 = _n_vars(pred), _n_vars(gold)
            if min(n1, n2) <= EXACT_VAR_BOUND and math.perm(max(n1, n2), min(n1, n2)) <= EXACT_MAPPINGS:
                state["oracle"].append((f"r{r}#{k}", pred, gold, res.matched))
            m, tp, tg = m + res.matched, tp + res.n_pred_triples, tg + res.n_gold_triples
        if _f1(m, tp, tg) != rep.f1 or (m, tp, tg) != (rep.matched, rep.pred_triples, rep.gold_triples):
            err(f"eval r{r}: corpus F1 {rep.f1} differs from the per-record recount {_f1(m, tp, tg)}")
        extras["smatch.matched_triples"] += m
        extras["pred_triples"] += tp
        extras["gold_triples"] += tg

    def finish(self, state: dict, err, extras: Counter) -> None:
        """The exact oracle, after peak RSS is read: it can hold two million
        mappings."""
        for where, pred, gold, climbed in state["oracle"]:
            try:
                exact = S.smatch_exact(pred, gold)
            except TooLarge:
                continue
            extras["smatch.oracle_pairs"] += 1
            extras["smatch.oracle_gap_triples"] += exact.matched - climbed
            if exact.matched < climbed:
                err(f"eval {where}: climb {climbed} beats exact {exact.matched}")
        extras["smatch_f1"] = _f1(extras["smatch.matched_triples"], extras["pred_triples"],
                                  extras["gold_triples"])


def _f1(m: int, tp: int, tg: int) -> float:
    p = m / tp if tp else 0.0
    r = m / tg if tg else 0.0
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


# ---------------------------------------------------------------------------
# kd-build: seq_kd_build -> bt_filter -> JSONL -> train(tok_plus_seq)

VOCAB = ((SM.BOS, SM.EOS, "(", ")") + tuple(f"<V{i}>" for i in range(40)) + C.CONCEPTS
         + C.RELATIONS + C.CONSTANTS + ("amr-empty", "amr-unknown"))


class KdBuild:
    """Sequence-level KD data from a count-table teacher."""

    name = "kd-build"
    rounds = 10
    sizes_per_round = (3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12)
    teacher_args = {"order": 5, "alpha": 1e-4, "buckets": 4096}
    student_args = {"order": 3, "alpha": 0.01, "buckets": 256}
    beam_size = 5
    max_len = 64
    threshold = 0.85

    def records_per_round(self) -> int:
        return len(self.sizes_per_round)

    def round_inputs(self, seed: int, r: int) -> list[dict]:
        rng = random.Random(f"kd-build:{seed}:{r}")
        recs = []
        for n in self.sizes_per_round:
            g = C.make_graph(rng, n)
            recs.append({"graph": g, "sentence": C.sentence_for(g, rng),
                         "target": C.ref_linearize(g)})
        return recs

    def sizes(self, recs) -> list[int]:
        return [_n_vars(rec["graph"]) for rec in recs]

    def write(self, seed: int, workdir: str) -> None:
        data = [self.round_inputs(seed, r) for r in range(self.rounds)]
        teacher = SM.ToyCondModel(VOCAB, **self.teacher_args)
        for recs in data:
            for rec in recs:
                teacher.observe(rec["sentence"].split(), rec["target"] + [SM.EOS])
        teacher.save(os.path.join(workdir, "teacher.json"))
        _write_text(os.path.join(workdir, "english.txt"),
                    "".join(rec["sentence"] + "\n" for recs in data for rec in recs))

    def setup(self, workdir: str) -> dict:
        data = inputs.read(self.name, workdir)
        return {"teacher": data["teacher"], "sents": _chunks(data["sents"], self.records_per_round()),
                "jsonl": os.path.join(workdir, "kd.jsonl")}

    def begin(self, state: dict) -> None:
        pass

    def run_round(self, state: dict, r: int, ops: Ops) -> dict:
        teacher = state["teacher"]
        stub = P.StubTranslator()
        noise = P.NoiseSpec("mt_adapter", target_lang="DE", adapter=stub)
        recs = ops.call("seq_kd_build", D.seq_kd_build, teacher, state["sents"][r], noise,
                        beam_size=self.beam_size, max_len=self.max_len, translator=stub, jobs=1)
        split = ops.call("bt_filter", P.bt_filter, recs, P.HashEmbedding(), translator=stub,
                         threshold=self.threshold, jobs=1)
        kept, dropped = split if split is not None else (None, None)
        ops.call("write_corpus_jsonl", P.write_corpus_jsonl, state["jsonl"], kept)
        back = ops.call("read_corpus_jsonl", P.read_corpus_jsonl, state["jsonl"])
        student = SM.ToyCondModel(VOCAB, **self.student_args)
        ops.call("train", D.train, student, D.kd_batches_from_corpus(back or []),
                 "tok_plus_seq", teacher=teacher)
        return {"recs": recs, "kept": kept, "dropped": dropped, "back": back, "student": student}

    def digest(self, out: dict):
        return (tuple(rec.tgt for rec in out["recs"] or ()),
                tuple(rec.id for rec in out["kept"] or ()), _mass(out["student"]))

    def check_round(self, state: dict, r: int, recs_in: list, out: dict, err, extras: Counter) -> None:
        import numpy as np

        teacher = state["teacher"]
        eos = teacher.index(SM.EOS)
        recs, kept, dropped, back = out["recs"], out["kept"], out["dropped"], out["back"]
        if recs is None or kept is None or back is None:
            err(f"kd-build r{r}: a stage failed")
            return
        sents = state["sents"][r]
        if len(recs) != len(sents):
            err(f"kd-build r{r}: {len(recs)} records for {len(sents)} inputs")
            return
        for k, rec in enumerate(recs):
            # Decoding is deterministic, so decoding again here, outside the
            # timing, gives the teacher output seq_kd_build repaired.
            top = D.beam_search(teacher, sents[k].split(), self.beam_size, self.max_len)[0]
            raw = [t for t in top.tokens if t not in (SM.BOS, SM.EOS)]
            try:
                back_tokens = C.ref_linearize(L.delinearize(list(rec.tgt)))
            except Exception as exc:
                err(f"kd-build r{r}#{k}: target does not delinearize: {exc!r}")
                back_tokens = None
            if back_tokens is not None and back_tokens != list(rec.tgt):
                err(f"kd-build r{r}#{k}: target does not round-trip")
            if L.validate_linear(raw):
                if tuple(raw) != rec.tgt:
                    err(f"kd-build r{r}#{k}: valid teacher output changed by repair")
            else:
                extras["repaired"] += 1
            report = R.repair_pass_report(raw)
            extras["repair.fixes"] += sum(v for key, v in report.as_dict().items() if key != "fell_back")
            extras["repair.fallbacks"] += report.fell_back
            extras["reproduced"] += raw == recs_in[k]["target"]
            src = sents[k].split()
            lp = 0.0
            for t, tok in enumerate(raw):
                lp += math.log(teacher.next_dist(raw[:t], src)[teacher.index(tok)])
            if len(raw) < self.max_len:
                lp += math.log(teacher.next_dist(raw, src)[eos])
            if abs(lp - top.log_prob) > 1e-9:
                err(f"kd-build r{r}#{k}: log_prob {top.log_prob} but tokens sum to {lp}")
        order = {rec.id: i for i, rec in enumerate(recs)}
        if sorted([order[x.id] for x in kept + dropped]) != list(range(len(recs))):
            err(f"kd-build r{r}: kept and dropped do not partition the input")
        for part in (kept, dropped):
            idx = [order[x.id] for x in part]
            if idx != sorted(idx):
                err(f"kd-build r{r}: bt_filter output out of input order")
        stub, emb = P.StubTranslator(), P.HashEmbedding()
        for rec in kept + dropped:
            a = emb.embed(rec.meta["src_en"], "EN")
            b = emb.embed(stub.translate(rec.src, rec.lang, "EN"), "EN")
            q = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            if rec.quality is None or abs(rec.quality - q) > 1e-9:
                err(f"kd-build r{r}: {rec.id} quality {rec.quality}, recomputed {q}")
            elif (rec.quality >= self.threshold) != (rec in kept):
                err(f"kd-build r{r}: {rec.id} kept={rec in kept} at quality {rec.quality}")
        if back != kept:
            err(f"kd-build r{r}: JSONL read back differs from the records written")
        want = 2 * sum(len(rec.tgt) + 1 for rec in back)
        if abs(_mass(out["student"]) - want) > 1e-6 * want:
            err(f"kd-build r{r}: student count mass {_mass(out['student'])}, expected {want}")
        extras["pipeline.kept"] += len(kept)
        extras["pipeline.dropped"] += len(dropped)

    def finish(self, state: dict, err, extras: Counter) -> None:
        print(f"kd-build: teacher reproduced {extras['reproduced']}/{self.rounds * self.records_per_round()} "
              f"gold targets; {extras['repaired']} outputs needed repair")


def _mass(model) -> float:
    return float(sum(cell.sum() for cell in model.counts.values()))


# ---------------------------------------------------------------------------
# corpus-io: PENMAN -> graph -> PENMAN, linear form -> line -> graph, repair,
# JSONL

class CorpusIo:
    """Corpus conversion, including chains deeper than the recursion limit."""

    name = "corpus-io"
    rounds = 20
    sizes_per_round = (tuple(range(3, 15)) * 2 + tuple(range(15, 39, 2))
                       + (40, 42, 44, 46, 48, 50, 52, 54, 56, 58, 59, 60))
    deep = {10: 1200, 30: 1500}  # position in the round -> chain depth

    def records_per_round(self) -> int:
        return len(self.sizes_per_round) + len(self.deep)

    def round_inputs(self, seed: int, r: int) -> list:
        rng = random.Random(f"corpus-io:{seed}:{r}")
        graphs = []
        for k, n in enumerate(self.sizes_per_round):
            g = C.make_graph(rng, n, metadata={"id": f"c{r}-{k}"})
            g.metadata["snt"] = C.sentence_for(g, rng)
            g.metadata["date"] = f"2021-{1 + k % 12:02d}-{1 + r:02d}"
            graphs.append(g)
        for pos, depth in sorted(self.deep.items()):
            graphs.insert(pos, C.chain_graph(depth, {"id": f"c{r}-deep{depth}", "snt": "deep"}))
        return graphs

    def sizes(self, graphs) -> list[int]:
        return [_n_vars(g) for g in graphs]

    def write(self, seed: int, workdir: str) -> None:
        for r in range(self.rounds):
            _write_text(os.path.join(workdir, f"round-{r}.amr"),
                        "\n\n".join(C.ref_penman(g) for g in self.round_inputs(seed, r)) + "\n")

    def setup(self, workdir: str) -> dict:
        return {"texts": inputs.read(self.name, workdir)["texts"],
                "jsonl": os.path.join(workdir, "corpus.jsonl")}

    def begin(self, state: dict) -> None:
        """The chains stand in when parsing fails, so every later operation
        on them is still attempted."""
        state["fallback"] = {pos: C.chain_graph(depth) for pos, depth in self.deep.items()}
        state["fallback_tokens"] = {pos: C.ref_linearize(g) for pos, g in state["fallback"].items()}

    def run_round(self, state: dict, r: int, ops: Ops) -> dict:
        rows, records = [], []
        for k, block in enumerate(G.iter_amr_blocks(state["texts"][r])):
            g = ops.call("parse_penman", G.parse_penman, block)
            src = g if g is not None else state["fallback"].get(k)
            text = ops.call("serialize_penman", G.serialize_penman, src)
            toks = ops.call("linearize", L.linearize, src)
            line = L.to_line(toks if toks is not None else state["fallback_tokens"].get(k, []))
            toks2 = ops.call("from_line", L.from_line, line)
            back = ops.call("delinearize", L.delinearize, toks2)
            fixed = ops.call("repair", R.repair_with_report, toks2)
            meta = src.metadata if src is not None else {}
            records.append(P.CorpusRecord(id=meta.get("id", f"c{r}-{k}"), lang="EN", split="train",
                                          src=meta.get("snt", ""), tgt=tuple(toks2 or ())))
            rows.append((g, text, toks, toks2, back, fixed))
        ops.call("write_corpus_jsonl", P.write_corpus_jsonl, state["jsonl"], records)
        read = ops.call("read_corpus_jsonl", P.read_corpus_jsonl, state["jsonl"])
        return {"rows": rows, "records": records, "read": read}

    def digest(self, out: dict):
        return tuple((row[1], tuple(row[3] or ())) for row in out["rows"])

    def check_round(self, state: dict, r: int, graphs: list, out: dict, err, extras: Counter) -> None:
        if len(out["rows"]) != len(graphs):
            err(f"corpus-io r{r}: {len(out['rows'])} blocks for {len(graphs)} graphs")
            return
        counts = lambda x: (_n_vars(x), len(x.nodes) - _n_vars(x), len(x.edges))
        for k, (gen, row) in enumerate(zip(graphs, out["rows"])):
            g, text, toks, toks2, back, fixed = row
            where = f"corpus-io r{r}#{k}"
            # A chain's failed calls are counted as failed operations; every
            # call that returned is checked like those on the other graphs.
            if k not in self.deep and None in row:
                err(f"{where}: an operation failed on a graph the format allows")
            ref = C.ref_linearize(gen)
            if g is not None and (counts(g) != counts(gen) or g.metadata != gen.metadata
                                  or C.ref_linearize(g) != ref):
                err(f"{where}: parsed graph differs from the generated one (counts {counts(g)}, "
                    f"generated {counts(gen)})")
            if g is not None and text is not None and not _holds(lambda: _reparses(text, gen, ref)):
                err(f"{where}: serialize(parse(.)) is not a fixpoint or does not keep the graph")
            if toks is not None and toks != ref:
                err(f"{where}: linearize differs from the reference linearization")
            if toks2 is not None and toks2 != ref:
                err(f"{where}: the line read back differs from the linear form written")
            if back is not None and (C.ref_linearize(back) != ref
                                     or toks is not None and not _holds(lambda: L.linearize(back) == toks)):
                err(f"{where}: linearize(delinearize(linearize(g))) != linearize(g)")
            if fixed is not None:
                tokens, report = fixed
                rep = report.as_dict()
                extras["repair.fixes"] += sum(v for key, v in rep.items() if key != "fell_back")
                extras["repair.fallbacks"] += rep["fell_back"]
                if tokens != toks2 or any(rep.values()):
                    err(f"{where}: repair changed a valid line or reported fixes {rep}")
        if out["read"] != out["records"]:
            err(f"corpus-io r{r}: JSONL read back differs from the records written")

    def finish(self, state: dict, err, extras: Counter) -> None:
        pass


def _reparses(text: str, gen, ref: list[str]) -> bool:
    """Whether serialized PENMAN parses back to the generated graph and
    serializes to the same bytes."""
    g = G.parse_penman(text)
    return G.serialize_penman(g) == text and g.metadata == gen.metadata and C.ref_linearize(g) == ref


WORKLOADS = {w.name: w for w in (Eval(), KdBuild(), CorpusIo())}
