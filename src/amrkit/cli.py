"""Command-line entry point wiring the library into pipeline commands.

Every subcommand is a thin wrapper over one library call, so anything done
here is reproducible programmatically.  Exit codes: 0 success, 1 usage
error, 2 data error.  Randomized subcommands require --seed and echo it in
their output header, and identical argv + seed produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from . import _match
from .errors import AmrkitError
from .graph import (
    AmrGraph,
    graphs_to_text,
    parse_penman,
    read_amr_file,
    serialize_penman,
    split_lines,
)
from .linearize import InvalidLinearization, delinearize, from_line, linearize, to_line
from .pipeline import (
    AdapterError,
    HashEmbedding,
    NoiseSpec,
    augment_vocab,
    bt_filter,
    corpus_stats,
    noise_each,
    read_corpus_jsonl,
    write_corpus_jsonl,
)
from .repair import RepairReport, repair_with_report
from .report import LANGS_ALL, render_score_rows, score_row_json
from .seqmodel import ToyCondModel
from .smatch import corpus_smatch
from .distill import seq_kd_build

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return split_lines(fh.read())


def _parse_noise(spec: str, seed: int, lang: str | None) -> NoiseSpec:
    if spec == "none":
        return NoiseSpec("none")
    if spec == "mt":
        return NoiseSpec("mt_adapter", target_lang=lang or "DE")
    if spec.startswith("delete:"):
        pct = float(spec.split(":", 1)[1])
        return NoiseSpec("word_delete", rate=pct / 100.0, seed=seed)
    raise AmrkitError(f"unknown noise spec {spec!r} (expected none, mt, or delete:K)")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_parse(args) -> int:
    lines = []
    for g in read_amr_file(args.infile):
        body = serialize_penman(AmrGraph(g.nodes, g.edges, g.root))
        lines.append(json.dumps({"metadata": g.metadata, "penman": body}, ensure_ascii=False))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_serialize(args) -> int:
    texts = []
    for lineno, line in enumerate(_read_lines(args.infile), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict) or not isinstance(obj.get("penman"), str):
                raise AmrkitError('expected a JSON object with a string "penman" field')
            meta = obj.get("metadata") or {}
            if not isinstance(meta, dict):
                raise AmrkitError('"metadata" is not a JSON object')
            g = parse_penman(obj["penman"])
            g.metadata.update(meta)
            texts.append(serialize_penman(g))
        except (ValueError, AmrkitError) as exc:
            raise AmrkitError(f"{args.infile}:{lineno}: {exc}") from exc
    _write_text(args.out, "\n\n".join(texts) + "\n")  # as graphs_to_text joins them
    return 0


def _cmd_linearize(args) -> int:
    lines = [to_line(linearize(g)) for g in read_amr_file(args.infile)]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_delinearize(args) -> int:
    graphs = []
    for lineno, line in enumerate(_read_lines(args.infile), 1):
        if not line.strip():
            continue
        try:
            graphs.append(delinearize(from_line(line)))
        except InvalidLinearization as exc:
            raise AmrkitError(f"{args.infile}:{lineno}: {exc}") from exc
    _write_text(args.out, graphs_to_text(graphs))
    return 0


def _cmd_repair(args) -> int:
    fixed_lines = []
    reports = []
    total = RepairReport()
    for ln in _read_lines(args.infile):
        tokens, rep = repair_with_report(from_line(ln))
        fixed_lines.append(to_line(tokens))
        reports.append(rep.as_dict())
        total.add(rep)
    _write_text(args.out, "\n".join(fixed_lines) + "\n")
    if args.report:
        payload = {"total": total.as_dict(), "per_line": reports}
        _write_text(args.report, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_smatch(args) -> int:
    report = corpus_smatch(args.pred, args.gold, restarts=args.restarts, seed=args.seed)
    if args.per_record:
        lines = [
            json.dumps(
                {
                    "index": i,
                    "precision": r.precision,
                    "recall": r.recall,
                    "f1": r.f1,
                    "matched": r.matched,
                    "pred_triples": r.n_pred_triples,
                    "gold_triples": r.n_gold_triples,
                    "upper_matched": r.upper_matched,
                }
            )
            for i, r in enumerate(report.per_record)
        ]
        _write_text(args.per_record, "\n".join(lines) + "\n")
    payload = {
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "n_records": report.n_records,
        "seed": args.seed,
        "backend": _match.BACKEND,
        "upper_matched": report.upper_matched,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"# seed: {args.seed}")
        print(f"precision {report.precision:.4f}  recall {report.recall:.4f}  "
              f"f1 {report.f1:.4f}  records {report.n_records}")
    return 0


def _cmd_distill(args) -> int:
    teacher = ToyCondModel.load(args.teacher)
    noise = _parse_noise(args.noise, args.seed, args.lang)
    lines = _read_lines(args.inputs)
    sentences = [ln for ln in lines if ln.strip()]
    records = seq_kd_build(teacher, sentences, noise, beam_size=args.beam, max_len=args.max_len)
    write_corpus_jsonl(args.out, records)
    blank = len(lines) - len(sentences)
    print(f"# seed: {args.seed}")
    print(f"built {len(records)} records ({len(sentences) - len(records)} skipped, "
          f"{blank} blank line{'s' * (blank != 1)}) -> {args.out}")
    return 0


def _cmd_noise(args) -> int:
    noise = _parse_noise(args.kind, args.seed, args.lang)
    out_lines = noise_each(noise, _read_lines(args.infile))
    for out in out_lines:
        if isinstance(out, AdapterError):
            raise out
    _write_text(args.out, "\n".join(out_lines) + "\n")
    if args.out:
        print(f"# seed: {args.seed}")
        print(f"noised {len(out_lines)} sentences -> {args.out}")
    return 0


def _cmd_filter(args) -> int:
    if not math.isfinite(args.threshold):
        raise AmrkitError(f"--threshold must be a finite number, not {args.threshold}")
    records = read_corpus_jsonl(args.infile)
    kept, dropped = bt_filter(records, HashEmbedding(), threshold=args.threshold)
    write_corpus_jsonl(args.kept, kept)
    if args.dropped:
        write_corpus_jsonl(args.dropped, dropped)
    print(json.dumps({"kept": len(kept), "dropped": len(dropped), "threshold": args.threshold}))
    return 0


def _cmd_vocab(args) -> int:
    records = read_corpus_jsonl(args.infile)
    tokens = augment_vocab(records, min_count=args.min_count)
    _write_text(args.out, "\n".join(tokens) + ("\n" if tokens else ""))
    return 0


def _cmd_stats(args) -> int:
    stats = corpus_stats(read_corpus_jsonl(args.infile))
    if args.format == "json":
        print(json.dumps(stats.to_dict()))
    else:
        print(stats.render())
    return 0


def _cmd_report(args) -> int:
    values = [float(v) for v in args.scores.split(",")]
    if not all(map(math.isfinite, values)):
        raise AmrkitError(f"--scores must be finite numbers, not {args.scores}")
    if len(values) != len(LANGS_ALL):
        raise AmrkitError(
            f"expected {len(LANGS_ALL)} scores in order {','.join(LANGS_ALL)}"
        )
    scores = dict(zip(LANGS_ALL, values))
    if args.format == "json":
        print(score_row_json(scores))
    else:
        print(render_score_rows([(args.label, scores)]))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="amrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("parse", _cmd_parse, help="validate an AMR file, emit graph JSONL")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = add("serialize", _cmd_serialize, help="graph JSONL back to AMR text")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = add("linearize", _cmd_linearize, help="AMR file to one token line per graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = add("delinearize", _cmd_delinearize, help="token lines back to an AMR file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = add("repair", _cmd_repair, help="repair model-emitted token lines")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--report", help="write fix-count JSON here")

    p = add("smatch", _cmd_smatch, help="corpus Smatch between two AMR files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-record", dest="per_record")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = add("distill", _cmd_distill, help="build sequence-level KD data from a teacher")
    p.add_argument("--teacher", required=True)
    p.add_argument("--inputs", required=True, help="sentence lines; ids count non-blank lines")
    p.add_argument("--noise", default="none", help="none | mt | delete:K")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--max-len", dest="max_len", type=int, default=64)
    p.add_argument("--lang", help="target language for mt noise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("noise", _cmd_noise, help="apply a noise generator to sentence lines")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", default="none", help="none | mt | delete:K")
    p.add_argument("--lang", help="target language for mt noise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = add("filter", _cmd_filter, help="back-translation consistency filter")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kept", required=True)
    p.add_argument("--dropped")
    p.add_argument("--threshold", type=float, default=0.85)

    p = add("vocab", _cmd_vocab, help="frequent relation/frame tokens from gold targets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--min-count", dest="min_count", type=int, default=5)
    p.add_argument("--out")

    p = add("stats", _cmd_stats, help="per-language/split corpus counts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = add("report", _cmd_report, help="score row with AVG_X and AVG columns")
    p.add_argument("--scores", required=True, help="DE,ES,IT,ZH,EN")
    p.add_argument("--label", default="scores")
    p.add_argument("--format", choices=("json", "table"), default="table")

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (AmrkitError, OSError, ValueError) as exc:
        print(f"amrkit: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("amrkit: error: input nested too deeply", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
