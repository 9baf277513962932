import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import amrkit
from amrkit.cli import run
from amrkit.graph import read_amr_file, write_amr_file
from amrkit.linearize import from_line, linearize, to_line
from amrkit.pipeline import (
    CorpusRecord,
    NoiseSpec,
    StubTranslator,
    noise_each,
    read_corpus_jsonl,
    write_corpus_jsonl,
)
from amrkit.repair import repair
from amrkit.seqmodel import BOS, EOS, ToyCondModel
from amrkit.smatch import corpus_smatch

from .helpers import adapter_runs, counting_adapter, random_graph

WANT_BOY = "(w / want-01 :ARG0 (b / boy))\n"


@pytest.fixture
def amr_file(tmp_path):
    path = tmp_path / "g.amr"
    rng = np.random.RandomState(17)
    write_amr_file(str(path), [random_graph(rng, 5) for _ in range(4)])
    return path


@pytest.fixture
def other_amr_file(tmp_path):
    """Four graphs unrelated to ``amr_file``'s, to score against them."""
    path = tmp_path / "other.amr"
    rng = np.random.RandomState(18)
    write_amr_file(str(path), [random_graph(rng, 5) for _ in range(4)])
    return path


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        assert run([]) == 1

    def test_missing_required_flag(self, tmp_path):
        assert run(["smatch", "--pred", "x.amr"]) == 1

    def test_omitted_seed_defaults_to_zero_and_is_echoed(self, amr_file, capsys):
        assert run(["smatch", "--pred", str(amr_file), "--gold", str(amr_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 0

    def test_data_error_is_exit_two(self, tmp_path, amr_file, capsys):
        other = tmp_path / "short.amr"
        other.write_text(WANT_BOY)
        assert run(["smatch", "--pred", str(amr_file), "--gold", str(other), "--seed", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("records, flags", [
        (0, ["--restarts", "0"]),
        (2, ["--restarts", "0"]),
        (0, ["--seed", str(2**32)]),
        (2, ["--seed", str(2**32 - 1)]),
        (2, ["--seed", "-1"]),
    ], ids=["restarts-0-empty", "restarts-0", "seed-2**32-empty", "seed-past-last-record",
            "seed-negative"])
    def test_bad_restarts_or_seed_is_exit_two(self, tmp_path, capsys, records, flags):
        # checked before any record is scored: no report, one error line
        path = tmp_path / "g.amr"
        path.write_text("\n".join([WANT_BOY] * records))
        assert run(["smatch", "--pred", str(path), "--gold", str(path)] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(("amrkit: error: restarts must be >= 1\n",
                               f"amrkit: error: seed {flags[1]} out of range for {records} records"))
        assert len(err.splitlines()) == 1

    def test_module_runs_as_script(self, tmp_path, capsys):
        # python -m amrkit.cli runs a command, exit code and output included
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(amrkit.__file__)))

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "amrkit.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)

        path = tmp_path / "g.amr"
        path.write_text(WANT_BOY)
        bad = module("smatch", "--pred", str(path), "--gold", str(path), "--restarts", "0")
        assert (bad.returncode, bad.stdout) == (2, "")
        assert bad.stderr == "amrkit: error: restarts must be >= 1\n"
        good = module("report", "--scores", "1,2,3,4,5")
        assert run(["report", "--scores", "1,2,3,4,5"]) == 0
        assert (good.returncode, good.stdout, good.stderr) == (0, capsys.readouterr().out, "")
        assert good.stdout

    def test_malformed_input_is_exit_two(self, tmp_path):
        bad = tmp_path / "bad.amr"
        bad.write_text("(w / want-01 :ARG0 (b / boy\n")
        assert run(["parse", "--in", str(bad)]) == 2

    def test_missing_file_is_exit_two(self):
        assert run(["parse", "--in", "/nonexistent/x.amr"]) == 2

    def test_deeply_nested_input_is_exit_two(self, tmp_path, capsys):
        # the JSON decoder recurses per nesting level
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 100_000 + "\n")
        assert run(["stats", "--in", str(deep), "--format", "table"]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_teacher_table_past_memory_is_exit_two(self, tmp_path):
        # a model file stores only nonzero counts, so a few bytes per row and
        # per token declare the dense table: here 2,000 rows of 200,002
        # entries (3.2 GB) under a 2 GB address-space limit
        pytest.importorskip("resource")
        teacher, inputs = tmp_path / "teacher.json", tmp_path / "in.txt"
        teacher.write_text(json.dumps({
            "format": "amrkit-toy-model", "version": 2,
            "vocab": [BOS, EOS] + [f"t{i}" for i in range(200_000)],
            "order": 1, "alpha": 0.1, "buckets": 2000,
            "counts": [{"bucket": b, "context": [], "ids": [], "counts": []} for b in range(2000)],
        }))
        inputs.write_text("a b\n")
        limit = 2 << 30
        code = (f"import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                f"from amrkit.cli import run\nsys.exit(run(['distill', '--teacher', {str(teacher)!r}, "
                f"'--inputs', {str(inputs)!r}, '--out', {str(tmp_path / 'out.jsonl')!r}]))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(amrkit.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 2, done.stderr
        assert done.stderr.splitlines() == [
            f"amrkit: error: {teacher}: a 2000 x 200002 counts table does not fit in memory"]

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["serialize"], "{}"),
            (["serialize"], "[1]"),
            (["serialize"], '{"penman": 5}'),
            (["stats"], "{}"),
            (["filter", "--kept", "kept.jsonl"], "{}"),
            (["stats"], '{"id": "a", "lang": "EN", "split": "test", "src": "x", "tgt": 5}'),
            (["vocab"], "[1]"),
            (["distill", "--inputs", "in.txt", "--out", "out.jsonl", "--teacher"],
             '{"format": "amrkit-toy-model", "version": 2}'),
            (["distill", "--inputs", "in.txt", "--out", "out.jsonl", "--teacher"],
             '{"format": "amrkit-toy-model", "version": 2, "vocab": ["<s>", "</s>"], '
             '"order": 1000000, "alpha": 0.1, "buckets": 1, "counts": []}'),
        ],
    )
    def test_malformed_json_input_is_exit_two(self, tmp_path, monkeypatch, capsys, argv, content):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.txt").write_text("a b\n")
        (tmp_path / "bad.json").write_text(content + "\n")
        flag = [] if argv[-1] == "--teacher" else ["--in"]
        assert run(argv + flag + ["bad.json"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("amrkit: error: bad.json")

    def test_deeply_nested_penman_parses(self, tmp_path):
        depth = 1200
        deep = tmp_path / "deep.amr"
        penman = "".join(f"(n{i} / thing :ARG0 " for i in range(depth)) + "(e / end)" + ")" * depth
        deep.write_text(penman + "\n")
        out = tmp_path / "out.jsonl"
        assert run(["parse", "--in", str(deep), "--out", str(out)]) == 0
        assert [json.loads(line) for line in out.read_text().splitlines()] == [
            {"metadata": {}, "penman": penman}
        ]


class TestSmatchCommand:
    def test_self_comparison_scores_one(self, amr_file, capsys):
        assert run(["smatch", "--pred", str(amr_file), "--gold", str(amr_file), "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f1"] == 1.0
        assert payload["n_records"] == 4
        assert payload["seed"] == 0

    def test_matches_library_call(self, amr_file, capsys):
        run(
            ["smatch", "--pred", str(amr_file), "--gold", str(amr_file), "--seed", "3",
             "--restarts", "2"]
        )
        payload = json.loads(capsys.readouterr().out)
        lib = corpus_smatch(str(amr_file), str(amr_file), restarts=2, seed=3)
        assert payload["precision"] == lib.precision
        assert payload["recall"] == lib.recall
        assert payload["f1"] == lib.f1

    def test_table_format_prints_seed_header(self, amr_file, capsys):
        run(["smatch", "--pred", str(amr_file), "--gold", str(amr_file), "--seed", "7",
             "--format", "table"])
        out = capsys.readouterr().out
        assert out.startswith("# seed: 7")

    def test_per_record_output(self, amr_file, other_amr_file, tmp_path, capsys):
        per = tmp_path / "per.jsonl"
        run(["smatch", "--pred", str(amr_file), "--gold", str(amr_file), "--seed", "0",
             "--per-record", str(per)])
        lines = [json.loads(l) for l in per.read_text().splitlines()]
        assert len(lines) == 4 and all(l["f1"] == 1.0 for l in lines)
        # a score of 1.0 leaves the bound no slack
        assert all(l["upper_matched"] == l["matched"] for l in lines)

        run(["smatch", "--pred", str(other_amr_file), "--gold", str(amr_file), "--seed", "0",
             "--per-record", str(per)])
        lib = corpus_smatch(str(other_amr_file), str(amr_file), seed=0)
        for i, (line, r) in enumerate(zip(per.read_text().splitlines(), lib.per_record)):
            # the keys before upper_matched are written as they were without it
            head = {"index": i, "precision": r.precision, "recall": r.recall, "f1": r.f1,
                    "matched": r.matched, "pred_triples": r.n_pred_triples,
                    "gold_triples": r.n_gold_triples}
            assert line == json.dumps(head)[:-1] + f', "upper_matched": {r.upper_matched}}}'
            assert r.matched <= r.upper_matched <= min(r.n_pred_triples, r.n_gold_triples)

    def test_json_payload_ends_with_corpus_bound(self, amr_file, other_amr_file, capsys):
        run(["smatch", "--pred", str(other_amr_file), "--gold", str(amr_file), "--seed", "2"])
        payload = json.loads(capsys.readouterr().out)
        lib = corpus_smatch(str(other_amr_file), str(amr_file), seed=2)
        assert list(payload) == ["precision", "recall", "f1", "n_records", "seed", "backend",
                                 "upper_matched"]
        assert payload["upper_matched"] == lib.upper_matched
        assert lib.matched <= lib.upper_matched
        run(["smatch", "--pred", str(other_amr_file), "--gold", str(amr_file), "--seed", "2",
             "--format", "table"])
        assert capsys.readouterr().out == (
            f"# seed: 2\nprecision {lib.precision:.4f}  recall {lib.recall:.4f}  "
            f"f1 {lib.f1:.4f}  records 4\n"
        )


class TestReportCommand:
    def test_avg_columns(self, capsys):
        assert run(["report", "--scores", "73.1,75.9,75.4,61.9,83.9", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["AVG"] == 74.0
        assert payload["AVG_X"] == 71.6

    def test_table_layout(self, capsys):
        run(["report", "--scores", "73.1,75.9,75.4,61.9,83.9"])
        out = capsys.readouterr().out
        header, row = out.splitlines()
        assert header.split() == ["row", "DE", "ES", "IT", "ZH", "EN", "AVG_X", "AVG"]
        assert row.split()[-2:] == ["71.6", "74.0"]

    def test_wrong_arity_is_data_error(self, capsys):
        assert run(["report", "--scores", "1,2,3"]) == 2

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    def test_non_finite_score_is_data_error(self, capsys, value, fmt):
        assert run(["report", "--scores", f"{value},1,2,3,4", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("amrkit: error: --scores must be finite numbers")


class TestRoundTripCommands:
    def test_linearize_delinearize(self, amr_file, tmp_path):
        lin = tmp_path / "lin.txt"
        back = tmp_path / "back.amr"
        assert run(["linearize", "--in", str(amr_file), "--out", str(lin)]) == 0
        assert run(["delinearize", "--in", str(lin), "--out", str(back)]) == 0
        orig = read_amr_file(str(amr_file))
        rebuilt = read_amr_file(str(back))
        assert [to_line(linearize(g)) for g in orig] == [to_line(linearize(g)) for g in rebuilt]

    def test_linearize_matches_library(self, amr_file, tmp_path):
        lin = tmp_path / "lin.txt"
        run(["linearize", "--in", str(amr_file), "--out", str(lin)])
        expected = [to_line(linearize(g)) for g in read_amr_file(str(amr_file))]
        assert lin.read_text().splitlines() == expected

    def test_line_separator_inside_constant_round_trips(self, tmp_path):
        amr = tmp_path / "g.amr"
        amr.write_text('(b / boy :name "x\u2028y")\n', encoding="utf-8")
        lin = tmp_path / "lin.txt"
        back = tmp_path / "back.amr"
        assert run(["linearize", "--in", str(amr), "--out", str(lin)]) == 0
        assert run(["delinearize", "--in", str(lin), "--out", str(back)]) == 0
        (g,) = read_amr_file(str(back))
        assert [n.concept for n in g.nodes if n.constant] == ['"x\u2028y"']

    def test_next_line_inside_metadata_parses(self, tmp_path):
        amr = tmp_path / "g.amr"
        amr.write_text("# ::id a\x85b\n(b / boy)\n", encoding="utf-8")
        out = tmp_path / "parsed.jsonl"
        assert run(["parse", "--in", str(amr), "--out", str(out)]) == 0
        (line,) = out.read_text(encoding="utf-8").split("\n")[:-1]
        assert json.loads(line)["metadata"] == {"id": "a\x85b"}

    @pytest.mark.parametrize("inner, newline", [("x\n\ny", "\n"), ("x\n  \ny", "\n"), ("x\n\ny", "\r\n")])
    def test_blank_line_inside_literal_parses(self, tmp_path, inner, newline):
        amr = tmp_path / "g.amr"
        text = f'# ::snt say "hi\n(a / b :name "{inner}")\n\n(c / d)\n'
        amr.write_bytes(text.replace("\n", newline).encode("utf-8"))
        out = tmp_path / "parsed.jsonl"
        assert run(["parse", "--in", str(amr), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").split("\n")[:-1]]
        # files are read with universal newlines, so a literal's \r\n reads as \n
        assert [row["penman"] for row in rows] == [f'(a / b :name "{inner}")', "(c / d)"]
        assert rows[0]["metadata"] == {"snt": 'say "hi'}

    @pytest.mark.parametrize("metadata", [
        {"snt": "x\n(z / y)"}, {"snt": "a ::id b"}, {"my key": "v"}, {"snt": " padded"}, {"id": 5},
    ], ids=repr)
    def test_serialize_rejects_metadata_that_does_not_read_back(self, tmp_path, capsys, metadata):
        src = tmp_path / "g.jsonl"
        src.write_text(json.dumps({"penman": "(a / b)", "metadata": metadata}) + "\n")
        out = tmp_path / "g.amr"
        assert run(["serialize", "--in", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"amrkit: error: {src}:1: metadata field {next(iter(metadata))!r}")
        assert not out.exists()

    def test_delinearize_names_the_line_of_rejected_input(self, tmp_path, capsys):
        src = tmp_path / "g.lin"
        src.write_text("( <V0> a )\n\n( <V0> a :ARG0 <V2> )\n")
        out = tmp_path / "g.amr"
        assert run(["delinearize", "--in", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"amrkit: error: {src}:3: at token 4 ('<V2>'): reference to a variable not defined before it"
        ]
        assert not out.exists()

    def test_serialize_skips_blank_lines(self, tmp_path):
        src = tmp_path / "g.jsonl"
        src.write_text('\n{"penman": "(a / b)"}\n  \n{"penman": "(c / d)", "metadata": {"id": "2"}}\n')
        out = tmp_path / "g.amr"
        assert run(["serialize", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text() == "(a / b)\n\n# ::id 2\n(c / d)\n"

    @pytest.mark.parametrize("metadata", [["id", "1"], "id 1", 5])
    def test_serialize_rejects_metadata_that_is_not_an_object(self, tmp_path, capsys, metadata):
        src = tmp_path / "g.jsonl"
        src.write_text("\n" + json.dumps({"penman": "(a / b)", "metadata": metadata}) + "\n")
        out = tmp_path / "g.amr"
        assert run(["serialize", "--in", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f'amrkit: error: {src}:2: "metadata" is not a JSON object'
        ]
        assert not out.exists()

    def test_parse_serialize(self, amr_file, tmp_path):
        parsed = tmp_path / "parsed.jsonl"
        back = tmp_path / "back.amr"
        assert run(["parse", "--in", str(amr_file), "--out", str(parsed)]) == 0
        assert run(["serialize", "--in", str(parsed), "--out", str(back)]) == 0
        a = read_amr_file(str(amr_file))
        b = read_amr_file(str(back))
        assert [to_line(linearize(g)) for g in a] == [to_line(linearize(g)) for g in b]


class TestRepairCommand:
    def test_fix_and_report(self, tmp_path):
        preds = tmp_path / "preds.txt"
        preds.write_text("( <V0> want-01 :ARG0 ( <V1> boy\n( <V0> cat )\n")
        fixed = tmp_path / "fixed.txt"
        report = tmp_path / "report.json"
        assert run(["repair", "--in", str(preds), "--out", str(fixed),
                    "--report", str(report)]) == 0
        lines = fixed.read_text().splitlines()
        assert lines[0] == "( <V0> want-01 :ARG0 ( <V1> boy ) )"
        assert lines[1] == "( <V0> cat )"
        payload = json.loads(report.read_text())
        assert payload["total"]["parens_added"] == 2
        assert payload["per_line"][1]["parens_added"] == 0

    def test_matches_library(self, tmp_path):
        line = "( <V5> a :ARG0 :ARG1 ( <V2> b )"
        preds = tmp_path / "p.txt"
        preds.write_text(line + "\n")
        out = tmp_path / "f.txt"
        run(["repair", "--in", str(preds), "--out", str(out)])
        assert out.read_text().splitlines()[0] == to_line(repair(from_line(line)))


class TestNoiseCommand:
    def test_byte_deterministic(self, tmp_path, capsys):
        src = tmp_path / "s.txt"
        src.write_text("one two three four five\nsix seven eight nine ten\n")
        out1, out2 = tmp_path / "n1.txt", tmp_path / "n2.txt"
        argv = ["noise", "--in", str(src), "--kind", "delete:40", "--seed", "5"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "# seed: 5" in capsys.readouterr().out

    def test_matches_library(self, tmp_path):
        src = tmp_path / "s.txt"
        src.write_text("alpha beta gamma delta\n")
        out = tmp_path / "n.txt"
        run(["noise", "--in", str(src), "--kind", "delete:50", "--seed", "2", "--out", str(out)])
        spec = NoiseSpec("word_delete", rate=0.5, seed=2)
        assert out.read_text().splitlines() == noise_each(spec, ["alpha beta gamma delta"])

    def test_mt_kind_uses_stub(self, tmp_path):
        src = tmp_path / "s.txt"
        src.write_text("hello world\n")
        out = tmp_path / "n.txt"
        assert run(["noise", "--in", str(src), "--kind", "mt", "--lang", "ES",
                    "--seed", "0", "--out", str(out)]) == 0
        assert "~es" in out.read_text()

    def test_mt_kind_command_adapter(self, tmp_path, monkeypatch, capsys):
        cmd, log = counting_adapter(tmp_path)
        monkeypatch.setenv("AMRKIT_ADAPTER_CMD", cmd)
        src, out = tmp_path / "s.txt", tmp_path / "n.txt"
        argv = ["noise", "--in", str(src), "--kind", "mt", "--out", str(out)]
        src.write_text("one\ntwo\nthree\n")
        assert run(argv) == 0
        assert out.read_text() == "one\ntwo\nthree\n"
        assert adapter_runs(log) == 1
        src.write_text("one\nbad two\nthree\n")
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("amrkit: error: adapter ")


class TestPipelineCommands:
    def _toy_teacher(self, tmp_path):
        vocab = (BOS, EOS, "(", ")", "<V0>", "<V1>", ":ARG0", "want-01", "boy",
                 "amr-unknown", "amr-empty")
        teacher = ToyCondModel(vocab, order=2, alpha=0.1)
        for _ in range(6):
            teacher.observe(["the", "boy"], ["(", "<V0>", "boy", ")", EOS])
            teacher.observe(
                ["wants"], ["(", "<V0>", "want-01", ":ARG0", "(", "<V1>", "boy", ")", ")", EOS]
            )
        path = tmp_path / "teacher.json"
        teacher.save(str(path))
        return path

    def test_distill_writes_valid_records(self, tmp_path, capsys):
        teacher = self._toy_teacher(tmp_path)
        inputs = tmp_path / "en.txt"
        inputs.write_text("the boy\nwants\nthe boy wants\n")
        out = tmp_path / "kd.jsonl"
        assert run(["distill", "--teacher", str(teacher), "--inputs", str(inputs),
                    "--noise", "delete:20", "--beam", "5", "--seed", "1",
                    "--out", str(out)]) == 0
        assert "# seed: 1" in capsys.readouterr().out
        records = read_corpus_jsonl(str(out))
        assert len(records) == 3
        assert all(r.provenance == "seq-kd" for r in records)

    def test_distill_counts_blank_lines(self, tmp_path, capsys):
        teacher = self._toy_teacher(tmp_path)
        inputs, out = tmp_path / "en.txt", tmp_path / "kd.jsonl"
        inputs.write_text("the boy\n\n  \nwants\n")
        assert run(["distill", "--teacher", str(teacher), "--inputs", str(inputs),
                    "--out", str(out)]) == 0
        assert f"built 2 records (0 skipped, 2 blank lines) -> {out}" in capsys.readouterr().out
        # ids count the non-blank lines
        assert [r.id for r in read_corpus_jsonl(str(out))] == ["kd-000000", "kd-000001"]
        inputs.write_text("the boy\n\n")
        assert run(["distill", "--teacher", str(teacher), "--inputs", str(inputs),
                    "--out", str(out)]) == 0
        assert "built 1 records (0 skipped, 1 blank line) ->" in capsys.readouterr().out

    def test_distill_byte_deterministic(self, tmp_path):
        teacher = self._toy_teacher(tmp_path)
        inputs = tmp_path / "en.txt"
        inputs.write_text("the boy\nwants\n")
        out1, out2 = tmp_path / "kd1.jsonl", tmp_path / "kd2.jsonl"
        argv = ["distill", "--teacher", str(teacher), "--inputs", str(inputs),
                "--noise", "delete:50", "--beam", "3", "--seed", "4"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("noise", ["delete:30", "mt"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noise_lines_are_distill_sources(self, tmp_path, monkeypatch, noise, seed):
        monkeypatch.delenv("AMRKIT_ADAPTER_CMD", raising=False)  # the stub translates
        teacher = self._toy_teacher(tmp_path)
        inputs = tmp_path / "en.txt"
        inputs.write_text("the boy wants the boy\nwants\nthe boy\nboy wants the boy now\n")
        noised, kd = tmp_path / "n.txt", tmp_path / "kd.jsonl"
        same = ["--seed", str(seed), "--lang", "ES"]
        assert run(["noise", "--in", str(inputs), "--kind", noise, "--out", str(noised)] + same) == 0
        assert run(["distill", "--teacher", str(teacher), "--inputs", str(inputs),
                    "--noise", noise, "--out", str(kd)] + same) == 0
        lines = noised.read_text().splitlines()
        assert lines == [r.src for r in read_corpus_jsonl(str(kd))]
        assert lines != inputs.read_text().splitlines()

    def test_mt_unknown_language_rejected_before_the_adapter_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        cmd, log = counting_adapter(tmp_path)
        monkeypatch.setenv("AMRKIT_ADAPTER_CMD", cmd)
        teacher = self._toy_teacher(tmp_path)
        inputs, out = tmp_path / "en.txt", tmp_path / "out"
        inputs.write_text("the boy\nwants\n")
        assert run(["distill", "--teacher", str(teacher), "--inputs", str(inputs),
                    "--noise", "mt", "--lang", "FR", "--out", str(out)]) == 2
        assert run(["noise", "--in", str(inputs), "--kind", "mt", "--lang", "fr",
                    "--out", str(out)]) == 2
        assert not log.exists() and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("target_lang" in line for line in err)

    def test_filter_vocab_stats(self, tmp_path, capsys):
        tr = StubTranslator(corrupt_pct=0)
        records = [
            CorpusRecord(
                f"r{i}",
                "DE",
                "train",
                tr.translate(f"sentence number {i}", "EN", "DE"),
                tgt=("(", "<V0>", "want-01", ":ARG0", "(", "<V1>", "boy", ")", ")"),
                provenance="silver-mt",
                meta={"src_en": f"sentence number {i}"},
            )
            for i in range(6)
        ]
        corpus = tmp_path / "c.jsonl"
        write_corpus_jsonl(str(corpus), records)

        kept = tmp_path / "kept.jsonl"
        assert run(["filter", "--in", str(corpus), "--kept", str(kept),
                    "--threshold", "0.9"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kept"] == 6

        vocab_out = tmp_path / "vocab.txt"
        assert run(["vocab", "--in", str(kept), "--min-count", "5",
                    "--out", str(vocab_out)]) == 0
        assert set(vocab_out.read_text().split()) == {":ARG0", "want-01"}

        assert run(["stats", "--in", str(kept), "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["DE"]["train"] == 6

    def test_stats_prints_a_table_by_default(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus_jsonl(str(corpus), [
            CorpusRecord("r0", "EN", "train", "hi", tgt=("(", "<V0>", "a", ")")),
            CorpusRecord("r1", "DE", "dev", "hallo", provenance="silver-mt"),
        ])
        assert run(["stats", "--in", str(corpus)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["Language", "Train", "Dev", "Test"]
        assert lines[1].split() == ["English(EN)", "1*", "0*", "0*"]
        assert lines[2].split() == ["German(DE)", "0", "1", "0*"]

    @pytest.mark.parametrize("field", [{"split": "valid"}, {"quality": True}], ids=repr)
    def test_stats_rejects_a_record_no_cell_counts(self, tmp_path, capsys, field):
        # a split outside train/dev/test would fall out of every cell, and a
        # boolean quality would load as a number
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps(_RECORD) + "\n" + json.dumps({**_RECORD, **field}) + "\n")
        assert run(["stats", "--in", str(corpus), "--format", "table"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"amrkit: error: {corpus}:2: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_filter_non_finite_threshold_is_data_error(self, tmp_path, capsys, value):
        corpus = tmp_path / "c.jsonl"
        record = CorpusRecord("r0", "DE", "train", "satz", provenance="silver-mt",
                              meta={"src_en": "sentence"})
        write_corpus_jsonl(str(corpus), [record])
        kept = tmp_path / "kept.jsonl"
        assert run(["filter", "--in", str(corpus), "--kept", str(kept), f"--threshold={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not kept.exists()
        assert captured.err.startswith("amrkit: error: --threshold must be a finite number")


# ---------------------------------------------------------------------------
# Exit-code fuzz: random argv over random and near-valid input files

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_RECORD = {
    "id": "r1", "lang": "DE", "split": "train", "src": "the~de boy~de",
    "tgt": "( <V0> want-01 :ARG0 ( <V1> boy ) )", "provenance": "silver-mt",
    "quality": None, "meta": {"src_en": "the boy"},
}
_GRAPH_LINE = {"metadata": {"id": "g1"}, "penman": WANT_BOY.strip()}
_MODEL = {
    "format": "amrkit-toy-model", "version": 2,
    "vocab": [BOS, EOS, "(", ")", "<V0>", "boy"], "order": 2, "alpha": 0.1, "buckets": 4,
    "counts": [{"bucket": 1, "context": [0], "ids": [1, 2, 3, 4, 5], "counts": [1.0, 3.0, 1.0, 2.0, 2.0]}],
}
_PENMAN = (WANT_BOY, '# ::id a\n(c / city :name (n / name :op1 "New York") :mod c)\n', "(b / boy)\n")
_LINES = ("( <V0> want-01 :ARG0 ( <V1> boy ) )", '( <V0> city :op1 "a b" :mod <V0> )', "the boy")


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _near_json(draw, valid):
    """``valid``, or a copy with one nested field deleted or set to any JSON
    value, as one line of JSON text."""
    obj = copy.deepcopy(valid)
    path = draw(st.sampled_from([()] + list(_paths(valid))[1:]))
    if draw(st.booleans()):
        if not path:
            obj = draw(_JSON)
        else:
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(_JSON)
    return json.dumps(obj)


@st.composite
def _mangled(draw, texts):
    """One of ``texts`` with a few characters inserted, deleted or cut off."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from('()/": \\\n<>Vab')) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


_CONTENT = {
    "penman": _mangled(_PENMAN),
    "lines": _mangled(_LINES).map(lambda t: t + "\n"),
    "jsonl": st.lists(_near_json(_RECORD), max_size=3).map("\n".join),
    "graphs": st.lists(_near_json(_GRAPH_LINE), max_size=3).map("\n".join),
    "model": _near_json(_MODEL),
}


@st.composite
def _invocations(draw, tmp_path):
    """A subcommand with random flags, writing each input file it names with
    content of its own kind, of another kind, or random bytes."""
    def infile(kind):
        path = tmp_path / f"in{draw(st.integers(0, 9))}"
        other = st.sampled_from(sorted(_CONTENT)).flatmap(lambda k: _CONTENT[k])
        data = draw(st.one_of(_CONTENT[kind], _CONTENT[kind], other).map(str.encode)
                    | st.binary(max_size=40))
        path.write_bytes(data)
        return str(path)

    def maybe(flag, values):
        return [flag, str(draw(values))] if draw(st.booleans()) else []

    out = st.sampled_from(["out.txt", "out2.txt", "."]).map(lambda name: str(tmp_path / name))
    seed = st.integers(-2, 2**33)
    small = st.integers(1, 4)
    fmt = st.sampled_from(["json", "table", "xml"])
    noise = st.sampled_from(["none", "mt", "delete:30", "delete:x", "delete:150", "bogus"])
    lang = st.sampled_from(["DE", "ZH", "XX"])
    command = draw(st.sampled_from([
        "parse", "serialize", "linearize", "delinearize", "repair", "smatch",
        "distill", "noise", "filter", "vocab", "stats", "report",
    ]))
    kind = {"parse": "penman", "linearize": "penman", "serialize": "graphs",
            "delinearize": "lines", "repair": "lines", "noise": "lines"}.get(command, "jsonl")
    argv = [command]
    if command in ("parse", "serialize", "linearize", "delinearize", "repair", "noise",
                   "vocab", "stats", "filter"):
        argv += ["--in", infile(kind)]
    if command in ("parse", "serialize", "linearize", "delinearize", "repair", "vocab", "noise"):
        argv += maybe("--out", out)
    if command == "repair":
        argv += maybe("--report", out)
    elif command == "smatch":
        argv += ["--pred", infile("penman"), "--gold", infile("penman")]
        argv += maybe("--restarts", small) + maybe("--seed", seed)
        argv += maybe("--per-record", out) + maybe("--format", fmt)
    elif command == "distill":
        argv += ["--teacher", infile("model"), "--inputs", infile("lines"), "--out", draw(out)]
        argv += maybe("--noise", noise) + maybe("--lang", lang) + maybe("--seed", seed)
        argv += maybe("--beam", st.integers(0, 8)) + maybe("--max-len", st.integers(0, 8))
    elif command == "noise":
        argv += maybe("--kind", noise) + maybe("--lang", lang) + maybe("--seed", seed)
    elif command == "filter":
        argv += ["--kept", draw(out)] + maybe("--dropped", out)
        argv += maybe("--threshold", st.floats() | st.just("x"))
    elif command == "vocab":
        argv += maybe("--min-count", st.integers(-1, 3))
    elif command == "stats":
        argv += maybe("--format", fmt)
    elif command == "report":
        scores = st.lists(st.floats(0, 100) | st.just("x"), min_size=4, max_size=6)
        argv += ["--scores", ",".join(map(str, draw(scores)))] + maybe("--format", fmt)
    if draw(st.integers(0, 9)) == 9:  # a usage error: a dropped argument or an unknown flag
        argv = draw(st.sampled_from([argv[:-1], argv + ["--bogus"]]))
    return argv


class TestExitCodeFuzz:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_is_0_1_or_2(self, tmp_path, monkeypatch, data):
        monkeypatch.delenv("AMRKIT_ADAPTER_CMD", raising=False)
        argv = data.draw(_invocations(tmp_path))
        assert run(argv) in (0, 1, 2)
