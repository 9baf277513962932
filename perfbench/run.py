#!/usr/bin/env python3
"""amrkit benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")

MIN_PASSES = 2          # each distinct round is timed at least this often
# A traced run alternates untraced and traced passes and ends on an
# untraced one: at least a first pass, a traced pass and another untraced.
MIN_TRACE_PASSES = 3
MAX_TIMED_S = 110.0     # stop after the pass that crosses this, whatever --seconds says
SETUP_PROBES = 11
# A bare interpreter start that imports numpy, and its time at reference
# speed: set-up times are scaled by BARE_START_REF_S over the bare start-up
# timed around each probe.
BARE_START = ["-c", "import numpy; print('ready', flush=True)"]
BARE_START_REF_S = 0.15
# Time of one ``_calibrate`` call at reference speed (the median on the
# machine of the README's reference figures).  Round times are scaled by
# CALIBRATION_REF_S over the calibration time measured around the round.
CALIBRATION_REF_S = 0.0105

E2E_UNITS = {"records_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "smatch.pairs": "count", "smatch.busy_s": "s", "smatch.pair_ms_p50": "ms",
    "smatch.pair_ms_p90": "ms", "smatch.encode_busy_s": "s", "smatch.matched_triples": "count",
    "smatch.oracle_gap_triples": "count", "smatch_f1": "F1",
    "match.hill_climb.calls": "count", "match.hill_climb.busy_s": "s",
    "graph.to_triples.busy_s": "s", "graph.parse_per_s": "1/s", "graph.serialize_per_s": "1/s",
    "linearize.linearize_per_s": "1/s", "linearize.delinearize_per_s": "1/s",
    "repair.per_s": "1/s", "repair.fixes": "count", "repair.fallbacks": "count",
    "decode.beam_search.busy_s": "s", "decode.sentence_ms_p50": "ms", "decode.sentence_ms_p90": "ms",
    "seqmodel.next_dist.calls": "count", "seqmodel.next_dist.busy_s": "s",
    "distill.seq_kd_build.self_s": "s", "distill.train.busy_s": "s",
    "pipeline.translate.calls": "count", "pipeline.translate.busy_s": "s",
    "pipeline.bt_filter.busy_s": "s", "pipeline.kept": "count", "pipeline.dropped": "count",
    "pipeline.jsonl_write.busy_s": "s", "pipeline.jsonl_read.busy_s": "s",
    "trace.overhead_s": "s",
}


def _import_program():
    """Import amrkit from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "amrkit", "__init__.py")):
        sys.exit(f"perfbench: no amrkit sources under {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, HERE]
    import amrkit

    if os.path.dirname(os.path.dirname(os.path.abspath(amrkit.__file__))) != SRC:
        sys.exit(f"perfbench: amrkit imported from {amrkit.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS


def _environment() -> str:
    import numpy

    from amrkit import _match

    requested = os.environ.get("AMRKIT_BACKEND", "numba").strip().lower()
    if _match.BACKEND == "numba":
        reason = "numba imported"
    elif requested == "numpy":
        reason = "AMRKIT_BACKEND=numpy"
    else:
        reason = "numba is not installed; amrkit._match falls back to NumPy without a message"
    return (f"python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"nproc={len(os.sched_getaffinity(0))} backend={_match.BACKEND} ({reason})")


def _start(args: list[str]) -> float:
    """Seconds from starting ``python3 *args`` until it prints ``ready``;
    waits for the process to end."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"python3 {' '.join(args)} did not start (exit {proc.returncode})")
    return dt


class _SetupProbes:
    """Time from starting a fresh process until it has imported the amrkit
    modules the workload uses and read the inputs (``inputs.py``).  The probes are spread over the run, so one slow
    stretch of the host does not decide the median.  Start-up (mapping
    numpy's libraries, page faults) drifts differently from the
    calibration loop, so each probe is scaled by a bare numpy start-up
    timed before and after it instead."""

    def __init__(self, workload: str, workdir: str, spacing_s: float):
        self.args = [os.path.join(HERE, "inputs.py"), workload, workdir]
        self.spacing_s = spacing_s
        self.next_due = 0.0
        self.times, self.refs, self.scaled = [], [], []

    def due(self) -> bool:
        """Take a probe if one is due; says whether it did."""
        if len(self.times) >= SETUP_PROBES or time.perf_counter() < self.next_due:
            return False
        self.take()
        self.next_due = time.perf_counter() + self.spacing_s
        return True

    def take(self) -> None:
        ref_before = _start(BARE_START)
        dt = _start(self.args)
        ref = (ref_before + _start(BARE_START)) / 2
        self.times.append(dt)
        self.refs.append(ref)
        self.scaled.append(dt * BARE_START_REF_S / ref)

    def medians(self) -> tuple[float, float, float]:
        """As timed, the bare start-up, and at reference start-up speed."""
        while len(self.times) < SETUP_PROBES:
            self.take()
        return tuple(statistics.median(v) for v in (self.times, self.refs, self.scaled))


def _calibrate() -> float:
    """Time a fixed pure-Python unit of work; the host's speed drifts by
    10-20 % over tens of seconds, and this unit drifts with it."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(80_000):
        total += i * i % 7
        table[i % 97] = total
    return time.perf_counter() - t0


def _scale(cal_before: float, cal_after: float) -> float:
    """The factor that brings a time taken between two calibrations to
    reference speed."""
    return 2 * CALIBRATION_REF_S / (cal_before + cal_after)


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(summary: dict, passes: int, extras: dict, overhead: float) -> dict:
    def get(name: str, key: str):
        return summary.get(name, {}).get(key, 0 if key != "durations" else [])

    def per_pass(name: str, key: str = "busy_s") -> float:
        return get(name, key) / passes

    def rate(*names: str) -> float:
        calls = sum(get(n, "calls") for n in names)
        busy = sum(get(n, "busy_s") for n in names)
        return calls / busy if busy else 0.0

    pairs = get("smatch.smatch_hill_climb", "durations")
    beams = get("decode.beam_search", "durations")
    hc_inside = summary.get("smatch.smatch_hill_climb", {}).get("child_s", {}).get("_match.hill_climb", 0.0)
    m = {
        "smatch.pairs": per_pass("smatch.smatch_hill_climb", "calls"),
        "smatch.busy_s": per_pass("smatch.corpus_smatch"),
        "smatch.pair_ms_p50": 1000 * _percentile(pairs, 50),
        "smatch.pair_ms_p90": 1000 * _percentile(pairs, 90),
        "smatch.encode_busy_s": (get("smatch.smatch_hill_climb", "busy_s") - hc_inside) / passes,
        "match.hill_climb.calls": per_pass("_match.hill_climb", "calls"),
        "match.hill_climb.busy_s": per_pass("_match.hill_climb"),
        "graph.to_triples.busy_s": per_pass("graph.to_triples"),
        "graph.parse_per_s": rate("graph.parse_penman"),
        "graph.serialize_per_s": rate("graph.serialize_penman"),
        "linearize.linearize_per_s": rate("linearize.linearize"),
        "linearize.delinearize_per_s": rate("linearize.delinearize"),
        "repair.per_s": rate("repair.repair_with_report", "repair.repair"),
        "decode.beam_search.busy_s": per_pass("decode.beam_search"),
        "decode.sentence_ms_p50": 1000 * _percentile(beams, 50),
        "decode.sentence_ms_p90": 1000 * _percentile(beams, 90),
        "seqmodel.next_dist.calls": per_pass("seqmodel.next_dist", "calls"),
        "seqmodel.next_dist.busy_s": per_pass("seqmodel.next_dist"),
        "distill.seq_kd_build.self_s": per_pass("distill.seq_kd_build", "self_s"),
        "distill.train.busy_s": per_pass("distill.train"),
        "pipeline.translate.calls": per_pass("pipeline.translate", "calls"),
        "pipeline.translate.busy_s": per_pass("pipeline.translate"),
        "pipeline.bt_filter.busy_s": per_pass("pipeline.bt_filter"),
        "pipeline.jsonl_write.busy_s": per_pass("pipeline.write_corpus_jsonl"),
        "pipeline.jsonl_read.busy_s": per_pass("pipeline.read_corpus_jsonl"),
        "trace.overhead_s": overhead,
    }
    for key in ("smatch.matched_triples", "smatch.oracle_gap_triples", "smatch_f1",
                "repair.fixes", "repair.fallbacks", "pipeline.kept", "pipeline.dropped"):
        m[key] = extras.get(key, 0)
    return m


def _install_tracer(tracer) -> None:
    import importlib

    mod = lambda name: importlib.import_module(f"amrkit.{name}")
    S, D, P = mod("smatch"), mod("distill"), mod("pipeline")
    for owner, attr, name in (
        (S, "corpus_smatch", "smatch.corpus_smatch"),
        (S, "smatch_hill_climb", "smatch.smatch_hill_climb"),
        (S, "to_triples", "graph.to_triples"),
        (mod("_match"), "hill_climb", "_match.hill_climb"),
        (mod("graph"), "parse_penman", "graph.parse_penman"),
        (mod("graph"), "serialize_penman", "graph.serialize_penman"),
        (mod("linearize"), "linearize", "linearize.linearize"),
        (mod("linearize"), "delinearize", "linearize.delinearize"),
        (mod("repair"), "repair_with_report", "repair.repair_with_report"),
        (D, "repair", "repair.repair"),
        (D, "beam_search", "decode.beam_search"),
        (mod("seqmodel").ToyCondModel, "next_dist", "seqmodel.next_dist"),
        (D, "seq_kd_build", "distill.seq_kd_build"),
        (D, "train", "distill.train"),
        (P.StubTranslator, "translate", "pipeline.translate"),
        (P, "bt_filter", "pipeline.bt_filter"),
        (P, "write_corpus_jsonl", "pipeline.write_corpus_jsonl"),
        (P, "read_corpus_jsonl", "pipeline.read_corpus_jsonl"),
    ):
        tracer.wrap(owner, attr, name)


def run(args) -> dict:
    workloads = _import_program()
    from corpus import size_histogram
    from tracing import Tracer
    from workloads import Ops

    wl = workloads[args.workload]
    print("env:", _environment(), flush=True)
    workdir = os.path.join(HERE, "_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        gen = subprocess.run([sys.executable, os.path.abspath(__file__), "--generate", wl.name,
                              "--seed", str(args.seed), "--workdir", workdir])
        if gen.returncode != 0:
            raise RuntimeError(f"input generation failed (exit {gen.returncode})")
        probes = None if args.trace else _SetupProbes(wl.name, workdir, args.seconds / SETUP_PROBES)
        state = wl.setup(workdir)
        wl.begin(state)
        ops = Ops()
        tracer = Tracer() if args.trace else None
        times = [[] for _ in range(wl.rounds)]
        scaled = [[] for _ in range(wl.rounds)]
        traced_scaled = [[] for _ in range(wl.rounds)]
        segments = []  # (first span, end span, factor) of each traced round
        cals = []
        untraced, traced = [], []
        digests, errors, extras, sizes = [None] * wl.rounds, [], Counter(), []
        elapsed, passes = 0.0, 0
        min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES
        while (passes < min_passes and elapsed < MAX_TIMED_S) \
                or elapsed < min(args.seconds, MAX_TIMED_S) or (args.trace and passes % 2 == 0):
            tracing = bool(args.trace) and passes % 2 == 1
            if tracing:
                _install_tracer(tracer)
            pass_s = 0.0
            cal = _calibrate()
            cals.append(cal)
            for r in range(wl.rounds):
                first_span = len(tracer.start) if tracing else 0
                t0 = time.perf_counter()
                out = wl.run_round(state, r, ops)
                dt = time.perf_counter() - t0
                pass_s += dt
                cal_before, cal = cal, _calibrate()
                cals.append(cal)
                factor = _scale(cal_before, cal)
                if tracing:
                    traced_scaled[r].append(dt * factor)
                    segments.append((first_span, len(tracer.start), factor))
                else:
                    times[r].append(dt)
                    scaled[r].append(dt * factor)
                if probes is not None and probes.due():
                    cal = _calibrate()
                # Outputs are checked as they come and then dropped: kept,
                # they would make every full garbage collection slower.
                digest = wl.digest(out)
                if passes == 0:
                    digests[r] = digest
                    recs = wl.round_inputs(args.seed, r)
                    sizes += wl.sizes(recs)
                    wl.check_round(state, r, recs, out, errors.append, extras)
                elif digest != digests[r]:
                    errors.append(f"round {r}: pass {passes} output differs from pass 0")
                del out
            if tracing:
                tracer.unwrap_all()
            (traced if tracing else untraced).append(pass_s)
            elapsed += pass_s
            passes += 1
        if args.trace:
            first_span, cal_before = len(tracer.start), _calibrate()
            _install_tracer(tracer)
            wl.setup(workdir)
            tracer.unwrap_all()
            segments.append((first_span, len(tracer.start), _scale(cal_before, _calibrate())))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        print(f"inputs: {wl.name} seed={args.seed} rounds/pass={wl.rounds} "
              f"records/round={wl.records_per_round()} variables per graph: {size_histogram(sizes)}")
        wl.finish(state, errors.append, extras)
        print(f"run: {len(untraced)} untraced and {len(traced)} traced passes, "
              f"{sum(untraced) + sum(traced):.2f} s timed; per-round medians "
              + " ".join(f"{statistics.median(t):.3f}" for t in times))
        for (op, exc), n in sorted(ops.failures.items()):
            print(f"failed: {n} x {op} with {exc}")
        for e in errors[:50]:
            print("check failed:", e, file=sys.stderr)
        if args.trace:
            summary = tracer.summary(segments)
            # The first pass also runs the checks between rounds, and their
            # garbage slows it, so the overhead leaves it out.
            overhead = sum(statistics.median(t) - statistics.median(u[1:])
                           for t, u in zip(traced_scaled, scaled))
            metrics = _layer_metrics(summary, len(traced), extras, overhead)
            units = LAYER_UNITS
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"trace-{wl.name}-{args.seed}.jsonl.gz")
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                tracer.dump(fh)
            print(f"trace: {len(tracer.start)} spans written to {os.path.relpath(path, ROOT)}")
        else:
            setup_raw, bare, setup_s = probes.medians()
            print(f"set-up: {setup_raw:.4f} s as timed, {setup_s:.4f} s at reference speed "
                  f"(median of {SETUP_PROBES} processes; bare numpy start-up median {bare:.4f} s, "
                  f"reference {BARE_START_REF_S:.3f} s)")
            records = wl.rounds * wl.records_per_round()
            print(f"records/s as timed: {records / sum(statistics.median(t) for t in times):.4f}; "
                  f"at reference speed: {records / sum(statistics.median(t) for t in scaled):.4f} "
                  f"(calibration median {statistics.median(cals) * 1000:.2f} ms, "
                  f"reference {CALIBRATION_REF_S * 1000:.2f} ms)")
            metrics = {"records_per_s": records / sum(statistics.median(t) for t in scaled),
                       "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
            units = E2E_UNITS
        return {"correct": not errors, "attempted": ops.attempted, "failed": ops.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("eval", "kd-build", "corpus-io"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--generate", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.generate:
        wl = _import_program()[args.generate]
        wl.write(args.seed, args.workdir)
    elif args.workload:
        print(json.dumps(run(args)))
    else:
        ap.error("--workload is required")


if __name__ == "__main__":
    main()
